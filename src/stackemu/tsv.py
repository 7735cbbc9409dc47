"""Effective anisotropic conductivity of dense via farms.

A via farm is replaced by a homogeneous anisotropic block: vertical flow
sees the via array in parallel with the host (area-weighted arithmetic
mixing); lateral flow sees coated cylinders embedded in the host, handled
with the series-radial coated-cylinder reduction followed by the
two-phase Maxwell-Eucken (cylindrical inclusion) embedding.

An insulating liner throttles lateral flow through the farm even when the
fill metal conducts well, which is what turns a tungsten/oxide farm into a
lateral thermal blockage while a bare copper farm improves both axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .materials import Material

if TYPE_CHECKING:  # pragma: no cover
    from .stack import TsvFarmSpec


@dataclass(frozen=True)
class EffectiveConductivity:
    kz: float
    kxy: float
    fill_fraction: float
    liner_fraction: float

    def __post_init__(self):
        if self.kz <= 0.0 or self.kxy <= 0.0:
            raise ValueError("effective conductivities must be positive")


def coated_cylinder_k(k_core: float, k_shell: float, r_core: float,
                      r_outer: float) -> float:
    """Transverse conductivity of a core+shell cylinder, as one cylinder.

    Standard series-radial composite result: with nu = (r_core/r_outer)^2,
    k_eq = k_shell * ((1+nu) k_core + (1-nu) k_shell)
                   / ((1-nu) k_core + (1+nu) k_shell).
    """
    if not (0.0 < r_core <= r_outer):
        raise ValueError("need 0 < r_core <= r_outer")
    nu = (r_core / r_outer) ** 2
    num = (1.0 + nu) * k_core + (1.0 - nu) * k_shell
    den = (1.0 - nu) * k_core + (1.0 + nu) * k_shell
    return k_shell * num / den


def maxwell_eucken_cylinders(k_base: float, k_incl: float, phi: float) -> float:
    """Two-phase Maxwell-Eucken effective conductivity, cylindrical
    inclusions transverse to the flow, inclusion volume fraction phi."""
    if not (0.0 <= phi < 1.0):
        raise ValueError("inclusion fraction must be in [0, 1)")
    num = (1.0 + phi) * k_incl + (1.0 - phi) * k_base
    den = (1.0 - phi) * k_incl + (1.0 + phi) * k_base
    return k_base * num / den


def effective_conductivity(farm: "TsvFarmSpec", base: Material) -> EffectiveConductivity:
    """Homogenize a via farm in a host material.

    Vertical: arithmetic area-weighted mixing of fill, liner annulus and
    host. Lateral: coated-cylinder reduction of each via+liner, embedded
    in the host via Maxwell-Eucken at the total inclusion fraction.
    """
    d = farm.via_diameter_um
    t = farm.liner_thickness_um
    pitch = farm.via_pitch_um
    r_core = d / 2.0
    r_outer = r_core + t
    cell = pitch * pitch
    phi_fill = math.pi * r_core**2 / cell
    phi_total = math.pi * r_outer**2 / cell
    phi_liner = phi_total - phi_fill

    k_fill = farm.fill_material.k
    k_liner = farm.liner_material.k if farm.liner_material is not None else k_fill

    kz = (phi_fill * k_fill + phi_liner * k_liner
          + (1.0 - phi_total) * base.kz)

    k_incl = coated_cylinder_k(k_fill, k_liner, r_core, r_outer) if t > 0.0 \
        else k_fill
    kxy = maxwell_eucken_cylinders(base.kxy, k_incl, phi_total)

    return EffectiveConductivity(kz=kz, kxy=kxy, fill_fraction=phi_fill,
                                 liner_fraction=phi_liner)
