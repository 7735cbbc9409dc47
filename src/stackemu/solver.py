"""Finite-volume heat equation on the voxel grid.

7-point stencil with harmonic-mean face conductances (exact for layered
composites), Robin top boundary (convective heat sink), areal-resistance
bottom boundary (package), adiabatic sidewalls. Steady solves use
Jacobi-preconditioned conjugate gradients on the SPD operator; SOR is
kept as an independent verification path. Transients are backward Euler,
unconditionally stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .power import PowerMap, power_density_field
from .stack import StackConfig, VoxelGrid


class ConvergenceError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"linear solve did not converge in {iterations} iterations "
            f"(last relative residual {residual:.3e})")
        self.residual = residual
        self.iterations = iterations


class NumericalError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    method: str = "cg"            # "cg" or "sor"
    tolerance: float = 1e-8       # relative residual
    max_iterations: int | None = None
    sor_omega: float = 1.8

    def __post_init__(self):
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must be in (0, 1)")
        if not 0.0 < self.sor_omega < 2.0:
            raise ValueError("sor_omega must be in (0, 2)")
        if self.method not in ("cg", "sor"):
            raise ValueError(f"unknown method {self.method!r}")

    def iteration_cap(self, n: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return min(int(50 * n ** (1.0 / 3.0) * 100), 500_000)


@dataclass(frozen=True)
class TemperatureField:
    """Per-voxel temperatures in deg C; time=None marks steady state."""

    values: np.ndarray           # (nz, ny, nx)
    grid: VoxelGrid = field(repr=False)
    time: float | None = None

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("non-finite temperatures in field")

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


@dataclass(frozen=True)
class DiscreteSystem:
    """G*T = b with G SPD: interior 7-point conductances plus boundary
    diagonal. b = source*volume + boundary_conductance * T_ambient."""

    G: sp.csr_matrix = field(repr=False)
    boundary_g: np.ndarray = field(repr=False)   # (n,) W/K to ambient
    C: np.ndarray = field(repr=False)            # (n,) J/K capacitance
    grid: VoxelGrid = field(repr=False)
    ambient_c: float

    @property
    def n(self) -> int:
        return self.G.shape[0]

    def rhs(self, source: np.ndarray) -> np.ndarray:
        """Source in W/m^3, shape (nz, ny, nx) or flat (n,)."""
        src = np.asarray(source).reshape(-1)
        if src.shape[0] != self.n:
            raise ValueError("source length does not match system size")
        if (src < 0).any():
            raise ValueError("volumetric sources must be >= 0")
        q = src * self.grid.voxel_volume.reshape(-1)
        return q + self.boundary_g * self.ambient_c


def _face_conductance(k1, k2, d1, d2, area):
    """Series/harmonic composition of the two half-voxel resistances."""
    return area / (d1 / (2.0 * k1) + d2 / (2.0 * k2))


def assemble(grid: VoxelGrid, config: StackConfig) -> DiscreteSystem:
    if grid.config != config:
        raise ValueError("grid was not built from this config")
    nz, ny, nx = grid.shape
    n = grid.n
    idx = np.arange(n).reshape(nz, ny, nx)
    dx, dy = grid.dx_m, grid.dy_m
    dz = grid.dz_m

    rows, cols, vals = [], [], []

    def add_faces(i_idx, j_idx, g):
        rows.append(i_idx.reshape(-1))
        cols.append(j_idx.reshape(-1))
        vals.append(-g.reshape(-1))
        rows.append(j_idx.reshape(-1))
        cols.append(i_idx.reshape(-1))
        vals.append(-g.reshape(-1))

    # x faces
    if nx > 1:
        k1, k2 = grid.kx[:, :, :-1], grid.kx[:, :, 1:]
        area = dy * dz[:, None, None]
        g = area / (dx / (2 * k1) + dx / (2 * k2))
        add_faces(idx[:, :, :-1], idx[:, :, 1:], g)
    # y faces
    if ny > 1:
        k1, k2 = grid.kx[:, :-1, :], grid.kx[:, 1:, :]
        area = dx * dz[:, None, None]
        g = area / (dy / (2 * k1) + dy / (2 * k2))
        add_faces(idx[:, :-1, :], idx[:, 1:, :], g)
    # z faces
    if nz > 1:
        k1, k2 = grid.kz[:-1], grid.kz[1:]
        d1 = dz[:-1, None, None]
        d2 = dz[1:, None, None]
        g = (dx * dy) / (d1 / (2 * k1) + d2 / (2 * k2))
        add_faces(idx[:-1], idx[1:], g)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    off = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).reshape(-1)

    # Boundary conductances to ambient (top convective, bottom package).
    boundary_g = np.zeros((nz, ny, nx))
    a_cell = dx * dy
    # top face: half-voxel conduction in series with h
    k_top = grid.kz[-1]
    boundary_g[-1] = a_cell / (dz[-1] / (2 * k_top) + 1.0 / config.heat_sink_h)
    # bottom face: half-voxel conduction in series with areal package R
    k_bot = grid.kz[0]
    boundary_g[0] = a_cell / (dz[0] / (2 * k_bot) + config.package_resistance)
    boundary_g = boundary_g.reshape(-1)

    G = off + sp.diags(diag + boundary_g)
    C = (grid.vhc * grid.voxel_volume).reshape(-1)
    return DiscreteSystem(G=G.tocsr(), boundary_g=boundary_g, C=C,
                          grid=grid, ambient_c=config.ambient_c)


def _cg(A, b, x0, tol, max_iter):
    """Jacobi-preconditioned CG, natural (row-major) ordering throughout;
    bit-reproducible for fixed inputs."""
    x = x0.copy()
    r = b - A @ x
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        bnorm = 1.0
    minv = 1.0 / A.diagonal()
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    res = np.linalg.norm(r) / bnorm
    it = 0
    while res > tol:
        if it >= max_iter:
            raise ConvergenceError(res, it)
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError("CG breakdown: non-SPD or non-finite system")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = np.linalg.norm(r) / bnorm
        if not np.isfinite(res):
            raise NumericalError("CG produced non-finite residual")
        it += 1
    return x


def _sor(A, b, x0, tol, max_iter, omega):
    """Gauss-Seidel successive over-relaxation, natural row order."""
    A = A.tocsr()
    x = x0.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        bnorm = 1.0
    indptr, indices, data = A.indptr, A.indices, A.data
    diag = A.diagonal()
    n = len(b)
    for it in range(max_iter):
        for i in range(n):
            s = 0.0
            for jj in range(indptr[i], indptr[i + 1]):
                j = indices[jj]
                if j != i:
                    s += data[jj] * x[j]
            x[i] = (1.0 - omega) * x[i] + omega * (b[i] - s) / diag[i]
        res = np.linalg.norm(b - A @ x) / bnorm
        if not np.isfinite(res):
            raise NumericalError("SOR produced non-finite residual")
        if res <= tol:
            return x
    raise ConvergenceError(res, max_iter)


def _solve_linear(A, b, x0, options: SolveOptions):
    cap = options.iteration_cap(len(b))
    if options.method == "sor":
        return _sor(A, b, x0, options.tolerance, cap, options.sor_omega)
    return _cg(A, b, x0, options.tolerance, cap)


def solve_steady(system: DiscreteSystem, source: np.ndarray,
                 options: SolveOptions = SolveOptions()) -> TemperatureField:
    """Steady temperatures in deg C; relative residual <= tolerance."""
    b = system.rhs(source)
    x0 = np.full(system.n, system.ambient_c)
    x = _solve_linear(system.G, b, x0, options)
    return TemperatureField(values=x.reshape(system.grid.shape),
                            grid=system.grid, time=None)


def step_transient(system: DiscreteSystem, field_t: TemperatureField,
                   source: np.ndarray, dt: float,
                   options: SolveOptions = SolveOptions()) -> TemperatureField:
    """One backward Euler step: (C/dt + G) T_new = C/dt T + b."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cap = system.C / dt
    A = system.G + sp.diags(cap)
    b = system.rhs(source) + cap * field_t.flat()
    x = _solve_linear(A.tocsr(), b, field_t.flat(), options)
    t_new = (field_t.time or 0.0) + dt
    return TemperatureField(values=x.reshape(system.grid.shape),
                            grid=system.grid, time=t_new)


def solve_transient(system: DiscreteSystem, t0_field: TemperatureField,
                    pmap: PowerMap, t_end: float, dt: float,
                    options: SolveOptions = SolveOptions(),
                    sample_stride: int = 1) -> list[TemperatureField]:
    """March backward Euler to t_end, re-evaluating the power map at each
    step start; returns every sample_stride-th field plus the final one."""
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    n_steps = int(np.ceil(t_end / dt))
    field_t = t0_field
    samples: list[TemperatureField] = []
    for step in range(n_steps):
        source = power_density_field(pmap, system.grid, field_t.time or 0.0)
        field_t = step_transient(system, field_t, source, dt, options)
        if (step + 1) % sample_stride == 0 or step == n_steps - 1:
            samples.append(field_t)
    return samples


@dataclass(frozen=True)
class LayerStats:
    layer_index: int
    role: str
    mean: float
    max: float
    min: float
    hotspot: tuple[int, int, int]   # (iz, iy, ix), row-major tie-break


def layer_summary(field_t: TemperatureField,
                  grid: VoxelGrid) -> list[LayerStats]:
    """Per-device-layer stats, bottom-up."""
    out = []
    for layer_index in grid.device_layer_indices:
        slabs = grid.layer_slabs(layer_index)
        vals = field_t.values[slabs]
        flat_arg = int(np.argmax(vals.reshape(-1)))
        local = np.unravel_index(flat_arg, vals.shape)
        hotspot = (int(slabs[local[0]]), int(local[1]), int(local[2]))
        out.append(LayerStats(
            layer_index=layer_index,
            role=grid.config.layers[layer_index].role.value,
            mean=float(vals.mean()),
            max=float(vals.max()),
            min=float(vals.min()),
            hotspot=hotspot))
    return out
