"""Finite-volume heat equation on the voxel grid.

7-point stencil with harmonic-mean face conductances (exact for layered
composites), Robin top boundary (convective heat sink), areal-resistance
bottom boundary (package), adiabatic sidewalls. Transients are backward
Euler, unconditionally stable.

Solves use conjugate gradients on the SPD operator, preconditioned with
the exact inverse of its layered approximation: every slab carries its
layer's host material across the whole die. The adiabatic sidewalls make
the orthonormal cosine (DCT-II) basis diagonalize each slab's in-plane
operator, which leaves one tridiagonal system through the stack per
in-plane mode (the fast Poisson solver of Buzbee, Golub & Nielsen, SIAM
J. Numer. Anal. 7, 1970). On farm-free stacks the preconditioner is the
exact inverse, so a solve is one preconditioner application and one
true-residual check; TSV-farm voxels make it approximate and CG iterates.
`lattice_matrix` is the one builder of a 7-point conductance lattice over
stacked planes and `solve_cg` the one linear solve; the PDN uses both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    tolerance: float = 1e-8       # relative residual
    max_iterations: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must be in (0, 1)")

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


class Operator(NamedTuple):
    """A = G, or G + diag(cap) with cap = C/dt, and its layered
    preconditioner: A's exact inverse when no voxel is in a TSV farm."""
    A: sp.csr_matrix
    precond: LayeredPreconditioner
    cap: np.ndarray | None
    exact: bool


@dataclass(frozen=True)
class DiscreteSystem:
    """G*T = b with G SPD: interior 7-point conductances plus boundary
    diagonal. b = source*volume + boundary_conductance * T_ambient."""

    G: sp.csr_matrix = field(repr=False)
    boundary_g: np.ndarray = field(repr=False)   # (n,) W/K to ambient
    C: np.ndarray = field(repr=False)            # (n,) J/K capacitance
    grid: VoxelGrid = field(repr=False)
    ambient_c: float
    # dt (None for steady) -> Operator; filled on first use, so each
    # backward-Euler step size is set up once per system.
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

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
        q = src.reshape(self.grid.shape) * self.grid.voxel_volume
        return q.reshape(-1) + self.boundary_g * self.ambient_c

    def operator(self, dt: float | None = None) -> Operator:
        """The Operator for steady (dt None) or backward-Euler steps of
        size dt; built on the first call per dt."""
        if dt not in self._operators:
            A, cap = self.G, None
            cap_slab = np.zeros(self.grid.nz)
            if dt is not None:
                cap = self.C / dt
                A = (A + sp.diags(cap)).tocsr()
                # C is uniform per slab: farms change k, never vhc.
                cap_slab = cap.reshape(self.grid.nz, -1)[:, 0]
            gx, gy, gz, bnd = _host_slab_conductances(self.grid)
            farms = any(self.grid.farm_lateral_mask(i).any()
                        for i in range(len(self.grid.config.layers)))
            self._operators[dt] = Operator(A, LayeredPreconditioner(
                gx, gy, gz, bnd + cap_slab, self.grid.ny, self.grid.nx),
                cap, exact=not farms)
        return self._operators[dt]


def _face_conductance(k1, k2, d1, d2, area):
    """Series/harmonic composition of the two half-voxel resistances."""
    return area / (d1 / (2.0 * k1) + d2 / (2.0 * k2))


def _boundary_conductance(grid: VoxelGrid, kz: np.ndarray) -> np.ndarray:
    """Per-voxel conductance to ambient for vertical conductivities kz,
    shape (nz, ...): top face half-voxel conduction in series with the
    heat sink h, bottom face in series with the areal package R."""
    config = grid.config
    dz = grid.dz_m
    a_cell = grid.dx_m * grid.dy_m
    boundary_g = np.zeros(kz.shape)
    # Both add, so a one-slab grid keeps the heat sink and the package.
    boundary_g[-1] += a_cell / (dz[-1] / (2 * kz[-1])
                                + 1.0 / config.heat_sink_h)
    boundary_g[0] += a_cell / (dz[0] / (2 * kz[0])
                               + config.package_resistance)
    return boundary_g


def _host_slab_conductances(grid: VoxelGrid):
    """Per-slab (gx, gy, gz, boundary) of the stack with every slab made of
    its layer's host material: lateral x/y face conductances (nz,),
    vertical conductances between slabs iz and iz+1 (nz-1,) and the
    conductance to ambient per voxel (nz,). Equal to the assembled values
    wherever no TSV farm is."""
    layers = grid.config.layers
    kxy = np.array([layers[i].material.kxy for i in grid.slab_layer])
    kz = np.array([layers[i].material.kz for i in grid.slab_layer])
    dx, dy, dz = grid.dx_m, grid.dy_m, grid.dz_m
    gx = _face_conductance(kxy, kxy, dx, dx, dy * dz)
    gy = _face_conductance(kxy, kxy, dy, dy, dx * dz)
    gz = _face_conductance(kz[:-1], kz[1:], dz[:-1], dz[1:], dx * dy)
    return gx, gy, gz, _boundary_conductance(grid, kz)


def _cosine_basis(n: int):
    """Orthonormal DCT-II basis (n, n) of the n-point path Laplacian with
    free ends, and its eigenvalues: column k has 2 - 2 cos(pi k / n)."""
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(k + 0.5, k) / n) * np.sqrt(2.0 / n)
    q[:, 0] = np.sqrt(1.0 / n)
    return q, 2.0 - 2.0 * np.cos(np.pi * k / n)


class LayeredPreconditioner:
    """Exact inverse of a layered operator on nz planes of ny x nx nodes:
    plane iz couples its lateral neighbours with gx[iz] / gy[iz], planes
    iz and iz+1 couple node-to-node with gz[iz], and every node of plane
    iz has diag[iz] to ground. The cosine basis diagonalizes each plane,
    leaving one tridiagonal system per (ky, kx) mode, factored once here
    and solved by a Thomas sweep vectorized over the modes."""

    def __init__(self, gx, gy, gz, diag, ny: int, nx: int):
        self.qx, lam_x = _cosine_basis(nx)
        self.qy, lam_y = _cosine_basis(ny)
        upper = -gz                                # (nz-1,) off-diagonal
        coupling = np.zeros(len(diag))
        coupling[:-1] += gz
        coupling[1:] += gz
        main = (gx[:, None, None] * lam_x + gy[:, None, None] * lam_y[:, None]
                + (diag + coupling)[:, None, None])
        # LDL^T of each mode's tridiagonal: pivots and sub-diagonal factors.
        self.inv_pivot = np.empty_like(main)
        self.factor = np.empty_like(main[1:])
        self.inv_pivot[0] = 1.0 / main[0]
        for i in range(1, len(main)):
            self.factor[i - 1] = upper[i - 1] * self.inv_pivot[i - 1]
            self.inv_pivot[i] = 1.0 / (main[i]
                                       - self.factor[i - 1] * upper[i - 1])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        nz, ny, nx = self.inv_pivot.shape
        y = (r.reshape(nz * ny, nx) @ self.qx).reshape(nz, ny, nx)
        y = self.qy.T @ y
        for i in range(1, nz):
            y[i] -= self.factor[i - 1] * y[i - 1]
        y *= self.inv_pivot
        for i in range(nz - 2, -1, -1):
            y[i] -= self.factor[i] * y[i + 1]
        y = self.qy @ y
        return (y.reshape(nz * ny, nx) @ self.qx.T).reshape(-1)


def lattice_matrix(gx: np.ndarray, gy: np.ndarray, gz: np.ndarray,
                   ground: np.ndarray) -> sp.csr_matrix:
    """SPD nodal matrix of a 7-point lattice of nz planes of ny x nx nodes,
    node index (iz * ny + iy) * nx + ix. Face conductances gx (nz, ny,
    nx-1), gy (nz, ny-1, nx) and gz (nz-1, ny, nx) couple neighbours;
    ground (nz, ny, nx) ties each node to a fixed potential."""
    _, ny, nx = ground.shape
    n = ground.size
    bands, offsets = [], []
    for g, axis, step in ((gx, 2, 1), (gy, 1, nx), (gz, 0, nx * ny)):
        if g.size:      # an empty face set would repeat another offset
            pad = [(0, 0)] * 3
            pad[axis] = (0, 1)
            band = -np.pad(g, pad).reshape(-1)[:n - step]
            bands += [band, band]
            offsets += [step, -step]
    off = (sp.diags(bands, offsets, shape=(n, n), format="csr") if bands
           else sp.csr_matrix((n, n)))
    off.eliminate_zeros()      # the band padding at row and plane ends
    diag = -np.asarray(off.sum(axis=1)).reshape(-1) + ground.reshape(-1)
    return (off + sp.diags(diag)).tocsr()


def assemble(grid: VoxelGrid, config: StackConfig) -> DiscreteSystem:
    if grid.config != config:
        raise ValueError("grid was not built from this config")
    dx, dy = grid.dx_m, grid.dy_m
    dz = grid.dz_m[:, None, None]
    kx, kz = grid.kx, grid.kz
    gx = _face_conductance(kx[:, :, :-1], kx[:, :, 1:], dx, dx, dy * dz)
    gy = _face_conductance(kx[:, :-1], kx[:, 1:], dy, dy, dx * dz)
    gz = _face_conductance(kz[:-1], kz[1:], dz[:-1], dz[1:], dx * dy)
    boundary_g = _boundary_conductance(grid, kz)
    G = lattice_matrix(gx, gy, gz, boundary_g)
    C = (grid.vhc * grid.voxel_volume).reshape(-1)
    return DiscreteSystem(G=G, boundary_g=boundary_g.reshape(-1), C=C,
                          grid=grid, ambient_c=config.ambient_c)


def solve_cg(A, b, precond, options: SolveOptions = SolveOptions(),
             x0: np.ndarray | None = None) -> np.ndarray:
    """Solve the SPD system A x = b to relative residual options.tolerance
    by CG preconditioned with precond(r) ~ A^-1 r (a new array), from x0
    or else from precond(b): where precond is exact, the true-residual
    check passes before any iteration. Row-major, so bit-reproducible.
    Non-finite input raises instead of slipping past the `res > tol`
    test."""
    tol = options.tolerance
    max_iter = options.iteration_cap(len(b))
    bnorm = np.linalg.norm(b) or 1.0
    if not np.isfinite(bnorm):
        raise NumericalError("non-finite right-hand side")
    x = precond(b) if x0 is None else x0.copy()
    r = b - A @ x
    res = np.linalg.norm(r) / bnorm
    if not np.isfinite(res):
        raise NumericalError("non-finite initial residual")
    it = 0
    rz = None
    while res > tol:
        if it >= max_iter:
            raise ConvergenceError(res, it)
        z = precond(r)
        rz_new = float(r @ z)
        p = z if rz is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError("CG breakdown: non-SPD or non-finite system")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / bnorm
        if not np.isfinite(res):
            raise NumericalError("CG produced non-finite residual")
        it += 1
    return x


def solve_steady(system: DiscreteSystem, source: np.ndarray,
                 options: SolveOptions = SolveOptions()) -> TemperatureField:
    """Steady temperatures in deg C; relative residual <= tolerance."""
    op = system.operator()
    x = solve_cg(op.A, system.rhs(source), op.precond, options)
    return TemperatureField(values=x.reshape(system.grid.shape),
                            grid=system.grid, time=None)


def step_transient(system: DiscreteSystem, field_t: TemperatureField,
                   source: np.ndarray, dt: float,
                   options: SolveOptions = SolveOptions()) -> TemperatureField:
    """One backward Euler step: (C/dt + G) T_new = C/dt T + b, started
    from T only where the preconditioner is inexact (TSV farms)."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    op = system.operator(dt)
    b = system.rhs(source) + op.cap * field_t.flat()
    x = solve_cg(op.A, b, op.precond, options,
                 None if op.exact else field_t.flat())
    t_new = (field_t.time or 0.0) + dt
    return TemperatureField(values=x.reshape(system.grid.shape),
                            grid=system.grid, time=t_new)


def solve_transient(system: DiscreteSystem, t0_field: TemperatureField,
                    pmap: PowerMap, t_end: float, dt: float,
                    options: SolveOptions = SolveOptions(),
                    sample_stride: int = 1) -> list[TemperatureField]:
    """March backward Euler to t_end, re-evaluating the power map at each
    step start; returns every sample_stride-th field plus the final one."""
    if not (0 < t_end < np.inf and 0 < dt < np.inf):
        raise ValueError("t_end and dt must be positive and finite")
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
        vals = field_t.values[slabs[0]:slabs[-1] + 1]   # contiguous: a view
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
