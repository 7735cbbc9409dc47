"""Simplified power-delivery-network analysis.

One resistive plane per device layer (sheet-resistance lateral grid),
vertical uC4+TSV resistors between adjacent planes wherever the lower die
carries TSVs, package supply through C4+package resistance under the
bottom die. Every plane is a uniform sheet, so the nodal matrix is
exactly layered: one thermal-module `LayeredOperator` applies it and
inverts it exactly, so a `solve_cg` with it is one application.
Droop is a first-order closed-form surrogate, not a transient circuit
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .power import PowerMap, areal_density, tile_weights
from .solver import LayeredOperator, SolveOptions, lattice_matrix, solve_cg
from .stack import StackConfig, check, is_int, is_real


class PdnConfigError(ValueError):
    def __init__(self, message: str, nodes=()):
        super().__init__(message)
        self.nodes = tuple(nodes)


@dataclass(frozen=True)
class PdnParams:
    nx: int = 16
    ny: int = 8
    vdd: float = 1.0
    sheet_ohm_sq: float = 0.02
    r_c4: float = 0.005
    r_uc4: float = 0.015
    r_tsv: float = 0.020
    r_pkg: float = 0.001
    decap_per_node: float = 1e-9     # F
    l_loop_proxy: float = 1e-12      # H

    def __post_init__(self):
        check(self, "nx ny", lambda v: is_int(v) and v >= 1,
              "an integer >= 1")
        positive = "vdd sheet_ohm_sq r_c4 r_uc4 r_tsv decap_per_node " \
            "l_loop_proxy"
        check(self, f"{positive} r_pkg")
        check(self, positive, lambda v: v > 0, "positive")
        check(self, "r_pkg", lambda v: v >= 0, ">= 0")


@dataclass(frozen=True)
class PdnGrid:
    """Node index = (plane * ny + y) * nx + x; plane 0 is the bottom
    device layer (package side). Solves apply the nodal conductance A (S);
    its matrix G, an oracle, is built on first use."""

    n_planes: int
    nx: int
    ny: int
    params: PdnParams = field(repr=False)
    config: StackConfig = field(repr=False)
    A: LayeredOperator = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.n_planes * self.ny * self.nx

    @cached_property
    def G(self) -> "scipy.sparse.csr_matrix":
        p, planes, ny, nx = self.A, self.n_planes, self.ny, self.nx
        return lattice_matrix(
            np.broadcast_to(p.gx[:, None, None], (planes, ny, nx - 1)),
            np.broadcast_to(p.gy[:, None, None], (planes, ny - 1, nx)),
            np.broadcast_to(p.gz[:-1, None, None], (planes - 1, ny, nx)),
            np.broadcast_to(p.ground[:, None, None], (planes, ny, nx)))


def check_connected(config: StackConfig, params: PdnParams) -> None:
    """Raise PdnConfigError naming the nodes with no resistive path to the
    supply. Each plane is a connected lattice and plane 0 is all supplied,
    so plane p+1 reaches the supply iff every die below it has TSVs."""
    device = config.device_layers
    if not device:
        raise PdnConfigError("stack has no device layers")
    cut = [p for p, layer in enumerate(device[:-1]) if not layer.has_tsvs]
    if cut:
        coords = [(p, y, x) for p in range(cut[0] + 1, len(device))
                  for y in range(params.ny) for x in range(params.nx)]
        raise PdnConfigError(
            f"{len(coords)} PDN nodes have no path to the supply",
            nodes=coords)


def build_pdn(config: StackConfig, params: PdnParams = PdnParams()) -> PdnGrid:
    """Set up the nodal conductance operator of a connected PDN."""
    check_connected(config, params)
    n_planes = len(config.device_layers)
    nx, ny = params.nx, params.ny

    # Lateral sheet resistors; cell aspect ratio sets squares per segment.
    pitch_x = config.die_width_mm / nx
    pitch_y = config.die_length_mm / ny
    g_x = 1.0 / (params.sheet_ohm_sq * pitch_x / pitch_y)
    g_y = 1.0 / (params.sheet_ohm_sq * pitch_y / pitch_x)

    # Vertical uC4+TSV resistors: every die under the top one has TSVs.
    g_vert = np.full(n_planes - 1, 1.0 / (params.r_uc4 + params.r_tsv))

    # Package supply under the bottom die, every node: A's ground per plane.
    supply_g = np.zeros(n_planes)
    supply_g[0] = 1.0 / (params.r_c4 + params.r_pkg)
    A = LayeredOperator(np.full(n_planes, g_x), np.full(n_planes, g_y),
                        g_vert, supply_g, ny, nx)
    return PdnGrid(n_planes=n_planes, nx=nx, ny=ny, params=params,
                   config=config, A=A)


def currents_from_power(pmap: PowerMap, pdn: PdnGrid, t: float) -> np.ndarray:
    """Per-node current draw (n_planes, ny, nx), A: tile power / Vdd,
    spread uniformly over the nodes whose cells overlap the tile."""
    config = pdn.config
    out = np.zeros((pdn.n_planes, pdn.ny, pdn.nx))
    w_m = config.die_width_mm * 1e-3
    l_m = config.die_length_mm * 1e-3
    cell_area = (w_m / pdn.nx) * (l_m / pdn.ny)
    weights = tile_weights(config, pdn.nx, pdn.ny)
    densities = [pmap.densities(o, t) for o in range(len(weights))]
    for ordinal, areal in areal_density(densities, weights):
        out[ordinal] = areal * cell_area / pdn.params.vdd
    return out


def solve_ir_drop(pdn: PdnGrid, currents: np.ndarray,
                  options: SolveOptions = SolveOptions(),
                  solves: list | None = None) -> np.ndarray:
    """Static drop Vdd - v per node, shape (n_planes, ny, nx). The
    solve's SolveStats is appended to `solves` if given."""
    i_draw = np.asarray(currents).reshape(-1)
    if i_draw.shape[0] != pdn.n:
        raise ValueError("current map size does not match PDN")
    if (i_draw < 0).any():
        raise ValueError("currents must be >= 0")
    b = np.repeat(pdn.A.ground * pdn.params.vdd, pdn.ny * pdn.nx) - i_draw
    v, stats = solve_cg(pdn.A, b, options)
    if solves is not None:
        solves.append(replace(stats, kind="pdn"))
    return (pdn.params.vdd - v).reshape(pdn.n_planes, pdn.ny, pdn.nx)


def droop_from_drop(drop_after: np.ndarray, currents_before: np.ndarray,
                    currents_after: np.ndarray,
                    params: PdnParams) -> np.ndarray:
    """Per-plane peak transient droop, V, from the static drop
    (n_planes, ny, nx) already solved for currents_after: that drop plus a
    sqrt(L/C) surge term on nodes whose draw increased."""
    delta = np.asarray(currents_after) - np.asarray(currents_before)
    surge = np.maximum(delta, 0.0) * np.sqrt(
        params.l_loop_proxy / params.decap_per_node)
    droop = drop_after + surge.reshape(drop_after.shape)
    return droop.reshape(drop_after.shape[0], -1).max(axis=1)


def coupling_report(pdn: PdnGrid, aggressor_plane: int, step: float,
                    options: SolveOptions = SolveOptions()) -> np.ndarray:
    """Max induced drop per victim plane for a uniform current step
    (A per node) on the aggressor plane; pure superposition."""
    if not (is_int(aggressor_plane) and 0 <= aggressor_plane < pdn.n_planes):
        raise ValueError(f"aggressor plane {aggressor_plane!r} out of range "
                         f"(an int in [0, {pdn.n_planes}))")
    if not (is_real(step) and step >= 0):
        raise ValueError("step must be >= 0 and finite")
    # The drop is linear in the draw and A (Vdd - v) = I, so the induced
    # drop solves A d = dI.
    delta = np.zeros((pdn.n_planes, pdn.ny, pdn.nx))
    delta[aggressor_plane] = step
    drop = solve_cg(pdn.A, delta.reshape(-1), options)[0] if step else delta
    return drop.reshape(pdn.n_planes, -1).max(axis=1)
