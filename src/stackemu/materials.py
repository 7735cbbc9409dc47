"""Material property table for 3D stack thermal modeling, and the value
rules every domain type checks its fields with (`stack` exports them).

Conductivities in W/(m K), volumetric heat capacities in J/(m^3 K).
Values are standard literature defaults; every one of them can be
overridden by constructing a custom Material in the stack config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_int(value) -> bool:
    """The rule for every count and index field: an int, not a bool."""
    return type(value) is int


def is_real(value) -> bool:
    """The rule for every measured value: a finite int or float, not a
    bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check(obj, names: str, test=is_real, rule="a finite number") -> None:
    """ValueError("<name> must be <rule>, got <value>") for the first of
    the fields `names` of obj (keys, if a dict) whose value fails test;
    config adds the name that starts the message to the error's path."""
    for name in names.split():
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        if not test(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class Material:
    """Isotropic material unless k_lateral is given (then k is vertical)."""

    name: str
    k: float
    volumetric_heat_capacity: float
    k_lateral: float | None = None

    def __post_init__(self):
        check(self, "name", lambda v: isinstance(v, str) and v,
              "a non-empty string")
        check(self, "k volumetric_heat_capacity" + (
            "" if self.k_lateral is None else " k_lateral"),
            lambda v: is_real(v) and v > 0, "> 0 and finite")

    @property
    def kxy(self) -> float:
        return self.k if self.k_lateral is None else self.k_lateral

    @property
    def kz(self) -> float:
        return self.k


SILICON = Material("silicon", k=150.0, volumetric_heat_capacity=1.63e6)
COPPER = Material("copper", k=400.0, volumetric_heat_capacity=3.45e6)
TUNGSTEN = Material("tungsten", k=174.0, volumetric_heat_capacity=2.58e6)
SIO2 = Material("sio2", k=1.4, volumetric_heat_capacity=1.8e6)

# BEOL metal/dielectric stack, homogenized: lateral wiring helps spreading,
# vertical path is dielectric-dominated.
BEOL_STACK = Material(
    "beol_stack", k=1.0, volumetric_heat_capacity=1.8e6, k_lateral=2.25
)

# Micro-C4 bumps plus underfill, lumped into one slab.
BOND_UNDERFILL = Material("bond_underfill", k=1.5, volumetric_heat_capacity=1.8e6)

# C4 bump field plus underfill between package and bottom die.
PACKAGE_BUMPS = Material("package_bumps", k=1.5, volumetric_heat_capacity=1.8e6)

# Thermal interface material under the heat sink.
TIM = Material("tim", k=4.0, volumetric_heat_capacity=2.0e6)

DEFAULT_MATERIALS = {
    m.name: m
    for m in (SILICON, COPPER, TUNGSTEN, SIO2, BEOL_STACK, BOND_UNDERFILL,
              PACKAGE_BUMPS, TIM)
}
