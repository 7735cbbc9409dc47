"""Finite-volume heat equation on the voxel grid.

7-point stencil with harmonic-mean face conductances (exact for layered
composites), Robin top boundary (convective heat sink), areal-resistance
bottom boundary (package), adiabatic sidewalls. `step_transient` takes
one backward-Euler step, unconditionally stable; the scenario runner
marches them.

Solves use conjugate gradients on the SPD operator A, preconditioned with
the exact inverse of its layered approximation A_L: every slab carries its
layer's host material across the whole die. The adiabatic sidewalls make
the orthonormal cosine (DCT-II) basis Q diagonalize each slab's in-plane
operator, which leaves one tridiagonal system through the stack per
in-plane mode (the fast Poisson solver of Buzbee, Golub & Nielsen, SIAM
J. Numer. Anal. 7, 1970). On farm-free stacks A = A_L, so a solve is one
preconditioner application and one true-residual check, and a
backward-Euler step stays in mode space from one step to the next: one
Thomas sweep and one inverse transform (see `step_transient`). TSV farms
add a sparse correction E = A - A_L on the farm voxels, their lateral
ring and the voxels above and below them (the capacitance-matrix setting
of Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971). CG then
keeps each residual as a multiple of its round's first residual plus a
vector on E's voxels: an iteration transforms only those, around one
Thomas sweep, and a round the whole die once each way. After a steady
solve the boundary outflux, and after a step the outflux and the heat
stored, must balance the injected power.
A `LayeredOperator` holds A_L's per-slab scalars, its factorization (one
field-sized array, the inverse pivots) and E: `op @ x` applies A without
a matrix, and its transforms around a Thomas sweep apply A_L^-1. A
system keeps the last dt's step operator and builds the steady one per
solve. Every solve is one routine, `solve_cg`, with CG's rounds in its
restart loop: steady and PDN systems from x = 0, `step_transient` from
its start, and a step of either stack kind reuses its source's rhs. Its
working set is fixed: x, and two mode-shaped buffers that a step
operator lends from its work and that a steady or PDN solve allocates
once, after x; only a round's vectors on E's voxels come on top. It
returns x and a `SolveStats`, which `run_scenario` keeps, one per solve.
`lattice_matrix` builds the matrix oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .stack import StackConfig, VoxelGrid, is_int, is_real


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
        if not (is_real(self.tolerance) and 0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must be in (0, 1)")
        if self.max_iterations is not None and not (
                is_int(self.max_iterations) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be None or an integer >= 1")

    def iteration_cap(self, n: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return min(int(50 * n ** (1.0 / 3.0) * 100), 500_000)


@dataclass(frozen=True)
class SolveStats:
    """What one `solve_cg` did: its rounds from a failed true-residual
    check (0 when the first check passes), the Thomas sweeps it ran, the
    final true relative residual and ||b||. The caller adds kind
    ("steady", "step" or "pdn"), and a step its dt and its energy
    balance: the gap in W and the limit it was held to (see
    `step_transient`)."""

    rounds: int
    sweeps: int
    residual: float
    rhs_norm: float
    kind: str = ""
    dt: float | None = None
    energy_gap_w: float | None = None
    energy_limit_w: float | None = None


@dataclass(frozen=True)
class TemperatureField:
    """Per-voxel temperatures in deg C at time s; a steady field's is 0.
    `solve` is the record of the solve that made the field, if any."""

    values: np.ndarray           # (nz, ny, nx)
    grid: VoxelGrid = field(repr=False)
    time: float = 0.0
    solve: SolveStats | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.time < np.inf:
            raise ValueError("time must be >= 0 and finite")
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("non-finite temperatures in field")

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


class Correction(NamedTuple):
    """E = A - A_L, symmetric, over the voxels `index` (sorted flat
    indices) where the assembled operator and its layered approximation
    differ: TSV-farm voxels, their lateral ring and the voxels above and
    below them. The same for every dt, since C/dt is uniform per slab.
    Row i of E has its entries in cols[:, i] and data[:, i], (K <= 7, |S|),
    columns ascending, padded with zeros in column i; diag is E's diagonal."""
    index: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    diag: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def apply(self, x: np.ndarray, out=None, term=None) -> np.ndarray:
        """E x for x on S, into out, via term if given (both |S|-sized),
        each row summed from 0 left to right as scipy's CSR product does
        ("clip" skips the bounds check: cols are valid)."""
        out = np.empty(len(self.diag)) if out is None else out
        term = np.empty(len(self.diag)) if term is None else term
        out.fill(0.0)
        for cols, data in zip(self.cols, self.data):
            out += np.multiply(data, np.take(x, cols, out=term, mode="clip"),
                               out=term)
        return out


@dataclass(frozen=True)
class DiscreteSystem:
    """G*T = b with G SPD: interior 7-point conductances plus boundary
    diagonal; b = source*volume + boundary_g*T_amb, C = vhc[slab]*volume.
    Only slabs 0 and nz - 1 reach ambient, so the system keeps the
    boundary conductance of those planes, `ends` of an (nz, ...) array."""

    # (2, ny, nx), or (1, ny, nx) if nz = 1: W/K to ambient per voxel
    boundary_planes: np.ndarray = field(repr=False)
    grid: VoxelGrid = field(repr=False)
    correction: Correction = field(repr=False)
    # {dt: step LayeredOperator} for the last dt asked for: a march steps
    # at one dt, so its step operator is set up once.
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def ends(self) -> slice:
        """Slabs 0 and nz - 1, as a slice of an (nz, ...) array: a view."""
        return np.s_[::max(self.grid.nz - 1, 1)]

    @property
    def boundary_g(self) -> np.ndarray:
        """(n,) W/K to ambient per voxel, read-only, built per read."""
        g = np.zeros(self.grid.shape)
        g[self.ends] = self.boundary_planes
        g.flags.writeable = False
        return g.reshape(-1)

    @cached_property
    def G(self) -> "scipy.sparse.csr_matrix":
        z = np.arange(self.grid.nz)
        return lattice_matrix(*_face_conductances(self.grid, z, z[:-1]),
                              self.boundary_g.reshape(self.grid.shape))

    @property
    def C(self) -> np.ndarray:
        """(n,) J/K capacitance, built per read from the slabs' vhc."""
        grid = self.grid
        return (grid.vhc[:, None, None] * grid.voxel_volume).reshape(-1)

    def rhs(self, source: np.ndarray, out=None) -> np.ndarray:
        """Source in W/m^3, shape (nz, ny, nx) or (n,); into out if given."""
        src = np.asarray(source).reshape(-1)
        if src.shape[0] != self.n:
            raise ValueError("source length does not match system size")
        if src.min() < 0:
            raise ValueError("volumetric sources must be >= 0")
        q = np.multiply(src.reshape(self.grid.shape), self.grid.voxel_volume,
                        out=out)
        q[self.ends] += self.boundary_planes * self.grid.config.ambient_c
        return q.reshape(-1)

    def operator(self, dt: float | None = None) -> LayeredOperator:
        """A = G for steady (dt None), built per call, as a run solves
        the steady system once; or G + C/dt with work buffers for
        backward-Euler steps of size dt, kept while the next call asks
        for the same dt, with C/dt per slab as the grid stores heat
        capacity."""
        op = self._operators.get(dt)
        if op is None:
            cap = None if dt is None else (
                self.grid.vhc * self.grid.voxel_volume[:, 0, 0] / dt)
            op = LayeredOperator(*_host_slab_conductances(self.grid),
                                 *self.grid.shape[1:], self.correction, cap)
            if dt is not None:
                self._operators.clear()
                self._operators[dt] = op
        return op


def _face_conductance(k1, k2, d1, d2, area):
    """Series/harmonic composition of the two half-voxel resistances."""
    return area / (d1 / (2.0 * k1) + d2 / (2.0 * k2))


def _face_conductances(grid: VoxelGrid, slabs, faces):
    """Conductances gx, gy inside `slabs` and gz from each of `faces` up."""
    kx = grid.conductivities(slabs)[0]
    lo, hi = np.split(grid.conductivities(
        np.concatenate([faces, faces + 1]))[1], 2)
    dx, dy, dz = grid.dx_m, grid.dy_m, grid.dz_m[:, None, None]
    return (_face_conductance(kx[:, :, :-1], kx[:, :, 1:], dx, dx,
                              dy * dz[slabs]),
            _face_conductance(kx[:, :-1], kx[:, 1:], dy, dy, dx * dz[slabs]),
            _face_conductance(lo, hi, dz[faces], dz[faces + 1], dx * dy))


def _boundary_conductance(grid: VoxelGrid, kz: np.ndarray) -> np.ndarray:
    """Conductance to ambient per voxel, shaped as the vertical kz whose
    first and last entries are slabs 0 and nz - 1 (all slabs, or those
    two only): top face half-voxel conduction in series with the heat
    sink h, bottom face with package R, and 0 between."""
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
    kxy, kz = grid.slab_kxy, grid.slab_kz
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


class LayeredOperator:
    """A = A_L + E on nz planes of ny x nx nodes. The layered part A_L:
    plane iz couples its lateral neighbours with gx[iz] / gy[iz], planes
    iz and iz+1 couple node-to-node with gz[iz], and every node of plane
    iz has diag[iz] to ground. E = A - A_L is a sparse symmetric
    correction on the voxels `index`, or None (then A = A_L).

    `op @ x` applies A and `op.abs_matmul(x)` |A|, matrix-free;
    `inverse(solve_modes(forward(r)))` applies A_L^-1 exactly. The cosine
    basis Q diagonalizes each plane, leaving one tridiagonal system per
    (ky, kx) mode, factored once here and solved by a Thomas sweep
    vectorized over the modes. The factorization is one field-sized
    array, the LDL^T inverse pivots: a sweep forms each plane's
    sub-diagonal factor from them and the per-slab off-diagonal, in one
    plane buffer. CG's transforms at E's voxels, `gather` (Q at them) and
    `scatter` (Q^T from them), need Q only at their rows and columns in
    each plane.

    A backward-Euler step operator also has cap[iz] = C/dt in each node's
    diag, and `work`: its field-sized arrays for `step_transient`, among
    them the two mode-shaped buffers, "residual" and "modes", that it
    lends to every `solve_cg` round. `source` and `field` are the arrays
    whose rhs and mode coefficients work holds (see `step_transient`), or
    None, and `power_in` is the last source's P_in. A method returns a
    new array unless given `out`."""

    def __init__(self, gx, gy, gz, diag, ny: int, nx: int,
                 correction: Correction | None = None,
                 cap: np.ndarray | None = None):
        self.qx, lam_x = _cosine_basis(nx)
        self.qy, lam_y = _cosine_basis(ny)
        self.cap = None if cap is None else cap[:, None, None]
        if cap is not None:
            diag = diag + cap
        self.gx, self.gy, upper = gx, gy, -gz   # upper: off-diagonal
        self.ground, self.gz = diag, np.append(gz, 0.0)   # 0: no plane above
        center = diag + (self.gz + np.append(0.0, gz))
        # LDL^T of each mode's tridiagonal: its inverse pivots. main(z),
        # the (ny, nx) diagonal of plane z's, and the sub-diagonal factors
        # are built per use, so the operator stores one array of the
        # field's size, not three.
        def main(z):
            return gx[z] * lam_x + gy[z] * lam_y[:, None] + center[z]
        nz = len(diag)
        self.inv_pivot = np.empty((nz, ny, nx))
        self.inv_pivot[0] = 1.0 / main(0)
        factor = np.empty((ny, nx))
        for i in range(1, nz):
            self.inv_pivot[i] = 1.0 / (
                main(i) - self._factor(i - 1, factor) * upper[i - 1])
        self.index, self.E = np.zeros(0, dtype=np.intp), None
        self.blocks = []
        if correction is not None and len(correction.index):
            self.index, self.E = correction.index, correction
            self._plane_blocks(correction.index)
        self.chunk = max(1, 2 ** 16 // (ny * nx))   # planes, ~0.5 MB
        self.work = {}
        if cap is not None:   # a step's b, residual and q, then its modes:
            # farm-free, q^ and T'^; "residual" and "modes" are solve_cg's
            modes = ("source_modes", "modes") if self.E is None else ("modes",)
            self.work = {name: np.empty((nz, ny, nx))
                         for name in ("rhs", "residual", "source") + modes}
            # the stencil's face differences of one chunk
            self.work["faces"] = np.empty(min(nz, self.chunk + 1) * ny * nx)
        self.source = self.field = None
        self.power_in = 0.0

    def _plane_blocks(self, index):
        """Per plane of E's voxels: its rows of qy and columns of qx, each
        padded with zero rows to a multiple of 8, the order of the two
        products that costs fewer operations, and the flat positions of
        the voxels in the rows x columns block, or in its transpose if
        the rows go first."""
        nz, ny, nx = self.inv_pivot.shape
        iz, iy, ix = np.unravel_index(index, (nz, ny, nx))
        bounds = np.searchsorted(iz, np.arange(nz + 1))
        for z in range(nz):
            part = slice(bounds[z], bounds[z + 1])
            if part.start == part.stop:
                continue
            y, x = iy[part], ix[part]
            in_rows = np.bincount(y, minlength=ny) > 0
            in_cols = np.bincount(x, minlength=nx) > 0
            r, c = in_rows.sum(), in_cols.sum()
            cols_first = c * ny * (nx + r) <= r * nx * (ny + c)
            qy, qx = (np.concatenate([q[used], np.zeros((-k % 8, len(q)))])
                      for q, used, k in ((self.qy, in_rows, r),
                                         (self.qx, in_cols, c)))
            at_row = (np.cumsum(in_rows) - 1)[y]
            at_col = (np.cumsum(in_cols) - 1)[x]
            at = (at_row * len(qx) + at_col if cols_first
                  else at_col * len(qy) + at_row)
            self.blocks.append((z, part, at, qy, qx, cols_first))

    def forward(self, r: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """Mode coefficients Q^T r, (nz, ny, nx), of a flat r, via tmp."""
        nz, ny, nx = self.inv_pivot.shape
        y = np.matmul(r.reshape(nz * ny, nx), self.qx,
                      out=None if tmp is None else tmp.reshape(nz * ny, nx))
        return np.matmul(self.qy.T, y.reshape(nz, ny, nx), out=out)

    def inverse(self, y: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """Flat Q y of mode coefficients y, via the mode-shaped tmp."""
        nz, ny, nx = self.inv_pivot.shape
        y = np.matmul(self.qy, y, out=tmp)
        return np.matmul(y.reshape(nz * ny, nx), self.qx.T, out=None if out
                         is None else out.reshape(nz * ny, nx)).reshape(-1)

    def _factor(self, i: int, out: np.ndarray) -> np.ndarray:
        """Plane i's LDL^T sub-diagonal factor, upper[i] * inv_pivot[i]
        with upper = -gz, into the plane-shaped out."""
        return np.multiply(-self.gz[i], self.inv_pivot[i], out=out)

    def solve_modes(self, y: np.ndarray) -> np.ndarray:
        """A_L^-1 in mode space: the Thomas sweep, in place on y. Each
        plane's factor, then its product with y, goes to one buffer."""
        f = np.empty(y.shape[1:])
        for i in range(1, len(y)):
            y[i] -= np.multiply(self._factor(i - 1, f), y[i - 1], out=f)
        y *= self.inv_pivot
        for i in range(len(y) - 2, -1, -1):
            y[i] -= np.multiply(self._factor(i, f), y[i + 1], out=f)
        return y

    def gather(self, y: np.ndarray, out=None) -> np.ndarray:
        """(Q y)[index] of mode coefficients y: per plane, Q at E's rows
        and columns only. Every product has rows a multiple of 8 long,
        which OpenBLAS computed to the same bits at 1 and 2 threads."""
        v = np.empty(len(self.index)) if out is None else out
        for z, part, at, qy, qx, cols_first in self.blocks:
            block = (qy @ (y[z] @ qx.T) if cols_first
                     else qx @ (y[z].T @ qy.T))   # the block's transpose
            v[part] = block.reshape(-1)[at]
        return v

    def scatter(self, w: np.ndarray, out=None) -> np.ndarray:
        """Q^T of the flat vector that is w on E's voxels and 0 elsewhere,
        as mode coefficients (nz, ny, nx)."""
        y = np.empty(self.inv_pivot.shape) if out is None else out
        y.fill(0.0)
        for z, part, at, qy, qx, cols_first in self.blocks:
            block = np.zeros((len(qy), len(qx)) if cols_first
                             else (len(qx), len(qy)))   # the transpose
            np.put(block, at, w[part])
            y[z] = (qy.T @ block) @ qx if cols_first else qy.T @ (block.T @ qx)
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x for a flat x."""
        return self._product(x, absolute=False)

    def abs_matmul(self, x: np.ndarray) -> np.ndarray:
        """|A| x for a flat x: the rounding scale of a residual."""
        return self._product(x, absolute=True)

    def residual(self, b: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
        """b - A x for flat b and x."""
        ax = self._product(x, absolute=False, out=out)
        return np.subtract(b, ax, out=ax)

    def _product(self, x: np.ndarray, absolute: bool, out=None) -> np.ndarray:
        """A_L x as the flux-form stencil of the per-slab scalars (each
        face moves g (x_i - x_j) from voxel j to i, or g (x_i + x_j) in
        |A|; faces that wrap to the next row or plane carry none, so
        sidewalls are adiabatic), plus E at its voxels."""
        nz, ny, nx = self.inv_pivot.shape
        plane, combine = ny * nx, np.add if absolute else np.subtract
        out = np.empty(nz * plane) if out is None else out.reshape(-1)
        x3, out3, k = x.reshape(nz, plane), out.reshape(nz, plane), self.chunk
        faces = self.work.get("faces")   # a step operator's, or one per call
        if faces is None:
            faces = np.empty(min(nz, k + 1) * plane)
        for z in range(0, nz, k):
            np.multiply(x3[z:z + k], self.ground[z:z + k, None],
                        out=out3[z:z + k])
            # The chunk's z faces include the one down to the plane below.
            for step, g, wrap, lo in ((1, self.gx, np.s_[:, :, -1], z),
                                      (nx, self.gy, np.s_[:, -1], z),
                                      (plane, self.gz, -1, max(z - 1, 0))):
                xc, oc = x3[lo:z + k].reshape(-1), out3[lo:z + k].reshape(-1)
                d = faces[:len(xc)]
                combine(xc[:-step], xc[step:], out=d[:-step])
                d.reshape(-1, ny, nx)[wrap] = 0.0   # also covers d[-step:]
                d.reshape(-1, plane)[:] *= g[lo:z + k, None]
                oc[:-step] += d[:-step]
                combine(oc[step:], d[:-step], out=oc[step:])
        if self.E is not None:   # in |A|, E's off-diagonal signs flip
            w = self.E @ x[self.index]
            out[self.index] += (2.0 * self.E.diag * x[self.index] - w
                                if absolute else w)
        return out


def lattice_matrix(gx: np.ndarray, gy: np.ndarray, gz: np.ndarray,
                   ground: np.ndarray) -> "scipy.sparse.csr_matrix":
    """SPD nodal matrix of a 7-point lattice of nz planes of ny x nx nodes,
    node index (iz * ny + iy) * nx + ix. Face conductances gx (nz, ny,
    nx-1), gy (nz, ny-1, nx) and gz (nz-1, ny, nx) couple neighbours;
    ground (nz, ny, nx) ties each node to a fixed potential. The run path
    never builds it, so scipy is imported here only."""
    import scipy.sparse as sp

    _, ny, nx = ground.shape
    n = ground.size
    # A zero main band keeps the list nonempty for a 1-node lattice;
    # eliminate_zeros drops it with the padding at row and plane ends.
    bands, offsets = [np.zeros(n)], [0]
    for g, axis, step in ((gz, 0, nx * ny), (gy, 1, nx), (gx, 2, 1)):
        if g.size:      # an empty face set would repeat another offset
            pad = [(0, 0)] * 3
            pad[axis] = (0, 1)
            band = -np.pad(g, pad).reshape(-1)[:n - step]
            bands += [band, band]
            offsets += [-step, step]
    off = sp.diags(bands, offsets, shape=(n, n), format="csr")
    off.eliminate_zeros()
    diag = ground.reshape(-1) - np.asarray(off.sum(axis=1)).reshape(-1)
    return (off + sp.diags(diag)).tocsr()


def assemble(grid: VoxelGrid, config: StackConfig) -> DiscreteSystem:
    if grid.config != config:
        raise ValueError("grid was not built from this config")
    ends = sorted({0, grid.nz - 1})   # one slab if nz = 1
    planes = _boundary_conductance(grid, grid.conductivities(ends)[1])
    return DiscreteSystem(boundary_planes=planes, grid=grid,
                          correction=_correction(grid, planes))


def _correction(grid: VoxelGrid, boundary_planes) -> Correction:
    """E = G - G_L from the face and boundary conductances that differ
    from the host slab's, given the boundary conductances of slabs 0 and
    nz - 1. Only TSV-farm slabs and the faces and
    boundaries that touch them can differ, so only theirs are computed;
    elsewhere both come from one expression and the same conductivities.
    A face i -> j = i + step along axis k = 1, 2, 3 puts -d in rows i and
    j, slots 3 + k and 3 - k, and adds d to both diagonals (slot 3); a
    boundary adds d to its diagonal. Each diagonal sums from 0 in this
    order, as scipy sums these COO triplets into a CSR matrix: same bits."""
    nz, ny, nx = grid.shape
    plane = ny * nx
    hx, hy, hz, hb = _host_slab_conductances(grid)
    farm = np.array([bool(grid.config.layers[layer].tsv_farms)
                     for layer in grid.slab_layer])
    slabs, faces = np.flatnonzero(farm), np.flatnonzero(farm[:-1] | farm[1:])
    gx, gy, gz = _face_conductances(grid, slabs, faces)
    entries = []   # (k, step, i, d); k = step = 0 for boundaries

    def differ(g, host, first, k=0, step=0, voxel=lambda f: f):
        delta = (g - host).reshape(-1)
        f = np.flatnonzero(delta)
        entries.append((k, step, first + voxel(f), delta[f]))

    for i, z in enumerate(slabs):
        differ(gx[i], hx[z], z * plane, 1, 1, lambda f: f + f // (nx - 1))
        differ(gy[i], hy[z], z * plane, 2, nx)
        if z in (0, nz - 1):
            differ(boundary_planes[-1 if z else 0], hb[z], z * plane)
    for i, z in enumerate(faces):
        differ(gz[i], hz[z], z * plane, 3, plane)
    in_e = np.zeros(grid.n, dtype=bool)
    for _, step, i, _ in entries:
        in_e[i] = in_e[i + step] = True
    index = np.flatnonzero(in_e)
    cols = np.tile(np.arange(len(index)), (7, 1))
    data = np.zeros((7, len(index)))
    for k, step, i, d in entries:
        i, j = np.searchsorted(index, i), np.searchsorted(index, i + step)
        data[3, i] += d
        if k:
            data[3, j] += d
            data[3 + k, i] = data[3 - k, j] = -d
            cols[3 + k, i], cols[3 - k, j] = j, i
    return Correction(index, cols, data, data[3])


def _dot(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """<a, b>, or <a, a> without b, for arrays of one size: summed by
    numpy's own loop, not by BLAS, which splits a sum across threads."""
    a = a.reshape(-1)
    return float(np.einsum("i,i->", a, a if b is None else b.reshape(-1)))


def solve_cg(A: LayeredOperator, b, options: SolveOptions = SolveOptions(),
             x: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve the SPD system A x = b to relative residual options.tolerance,
    from x = 0, or from the given x, which it corrects in place. Returns x
    and its SolveStats: the rounds run from a failed true-residual check
    (0 when the first check passes), the Thomas sweeps, the final
    residual and ||b||. The one operator A = A_L + E gives every product:
    A @ x, A_L^-1 as its transforms around a Thomas sweep, and E = A.E on
    the voxels S = A.index.

    CG preconditioned by A_L^-1 runs in rounds, each from a true residual
    r0, or, without x, from r0 = b at x = 0. A round ends with one update
    of x and frees its vectors on S; then the true residual is checked, and
    CG restarts from a failing one within the same iteration cap, unless it
    is within the rounding error of its own evaluation. Every reduction is
    a `_dot`, row-major, so bit-reproducible. Non-finite input raises.

    With x = 0 the residual after x = A_L^-1 b is -E (A_L^-1 b)|S, on S,
    and with E None it is 0, so the round runs no iteration. As
    A p = A_L p + E p_S, every residual is gamma r0 + s and every
    direction A_L^-1 (gamma' r0 + w), s and w on S: an iteration is a
    `scatter` (Q^T from S), a Thomas sweep and a `gather` (Q at S), with
    dot products on S and the round's <r0, A_L^-1 r0> and (A_L^-1 r0)|S.
    A round transforms the full field once each way, in two mode-shaped
    buffers, which a step operator lends from its work and which are
    otherwise allocated once per call, after x: r0 in, over the first,
    which then takes every scatter, and the update out, over the second,
    which holds A_L^-1 r0. The vectors on S are updated in place."""
    tol = options.tolerance
    max_iter = options.iteration_cap(len(b))
    rhs_norm = float(np.sqrt(_dot(b)))
    if not np.isfinite(rhs_norm):
        raise NumericalError("non-finite right-hand side")
    bnorm = rhs_norm or 1.0
    from_b = x is None
    if from_b:
        x = np.zeros_like(b)
    if A.work:
        rbuf, zbuf = A.work["residual"], A.work["modes"]
    else:
        rbuf, zbuf = np.empty((2,) + A.inv_pivot.shape)
    E, index, k = A.E, A.index, len(A.index)
    it = rounds = sweeps = 0
    r0, res = b, None
    while True:
        if not from_b:
            r0 = A.residual(b, x, rbuf)
            res = np.sqrt(_dot(r0)) / bnorm
            if not np.isfinite(res):
                raise NumericalError("non-finite residual")
            # After an iteration, a residual within the rounding error of
            # its evaluation (rows of at most 7 entries, plus b) is final.
            if res <= tol or (it and res * bnorm <= 8 * np.finfo(float).eps
                              * np.sqrt(_dot(A.abs_matmul(np.abs(x))
                                             + np.abs(b)))):
                return x, SolveStats(rounds, sweeps, float(res), rhs_norm)
            rounds += 1
        # r0 on S and ||r0||^2 off S, before Q^T r0 overwrites a residual.
        r0_s = r0[index]
        off2 = max(_dot(r0) - _dot(r0_s), 0.0)
        y0 = A.forward(r0, rbuf, zbuf)
        z0 = A.solve_modes(np.positive(y0, out=zbuf))   # a copy
        sigma = _dot(y0, z0)                     # <r0, A_L^-1 r0>
        m = A.gather(z0)                         # (A_L^-1 r0)|S
        sweeps += 1
        # Residual gamma r0 + s; the update is A_L^-1 (big_gamma r0 + u).
        if from_b:
            gamma, big_gamma = 0.0, 1.0
            s = np.negative(m if E is None else E @ m)
            res = np.sqrt(_dot(s)) / bnorm
        else:
            gamma, s, big_gamma = 1.0, np.zeros(k), 0.0
        # A_L p = gamma_p r0 + w. z_s holds (A_L^-1 r)|S, then ap_s, with
        # A p = gamma_p r0 + ap_s; t holds each alpha product, then r_s.
        u, w, p_s = np.zeros(k), np.zeros(k), np.zeros(k)
        z_s = ap_s = np.empty(k)
        t = r_s = np.empty(k)
        gamma_p, rz = 0.0, np.inf                # the first beta is 0
        while res > tol:
            if it >= max_iter:
                raise ConvergenceError(res, it)
            np.multiply(gamma, m, out=z_s)
            if s.any():
                z_s += A.gather(A.solve_modes(A.scatter(s, rbuf)), t)
                sweeps += 1
            rz_new = gamma * (gamma * sigma + _dot(m, s)) + _dot(s, z_s)
            beta, rz = rz_new / rz, rz_new
            gamma_p = gamma + beta * gamma_p
            np.add(s, np.multiply(beta, w, out=w), out=w)
            np.add(z_s, np.multiply(beta, p_s, out=p_s), out=p_s)
            ap_s = w if E is None else np.add(E.apply(p_s, z_s, t), w, out=z_s)
            pAp = gamma_p * (gamma_p * sigma + _dot(m, w)) + _dot(p_s, ap_s)
            if not np.isfinite(pAp) or pAp <= 0.0:
                raise NumericalError(
                    "CG breakdown: non-SPD or non-finite system")
            alpha = rz / pAp
            gamma -= alpha * gamma_p
            s -= np.multiply(alpha, ap_s, out=t)
            big_gamma += alpha * gamma_p
            u += np.multiply(alpha, w, out=t)
            # ||r||^2 off S plus on S; the true residual decides.
            r_s = np.add(np.multiply(gamma, r0_s, out=t), s, out=t)
            res = np.sqrt(gamma * gamma * off2 + _dot(r_s)) / bnorm
            if not np.isfinite(res):
                raise NumericalError("CG produced non-finite residual")
            it += 1
        z0 *= big_gamma
        if np.any(u):
            z0 += A.solve_modes(A.scatter(u, rbuf))
            sweeps += 1
        x += A.inverse(z0, zbuf, rbuf)
        del r0_s, m, s, u, w, p_s, z_s, ap_s, t, r_s
        from_b = False


# Relative gap between the power put in and the boundary outflux above
# which a steady field is rejected.
ENERGY_BALANCE_LIMIT = 1e-6


def _power_in(grid: VoxelGrid, source: np.ndarray) -> float:
    """P_in in W of a source in W/m^3, (nz, ny, nx) or (n,)."""
    return float(np.einsum("zp,z->", np.reshape(source, (grid.nz, -1)),
                           grid.voxel_volume[:, 0, 0]))


def _energy_gap(system: DiscreteSystem, injected: float, values: np.ndarray,
                stored: float = 0.0) -> tuple[float, float]:
    """The power put in that the field `values` (T) neither lets out
    through the boundary nor stores, P_in - sum g_b (T - T_amb) - stored,
    in W, and the scale it is judged on: P_in, or with no power in, the
    boundary terms' sum g_b (|T| + |T_amb|)."""
    ambient = system.grid.config.ambient_c
    t = np.reshape(values, system.grid.shape)[system.ends]
    g = system.boundary_planes
    gap = injected - _dot(g, t - ambient) - stored
    return gap, injected or _dot(g, np.abs(t) + abs(ambient))


def energy_balance_error(system: DiscreteSystem, source: np.ndarray,
                         values: np.ndarray) -> float:
    """|P_in - sum g_b (T - T_amb)| / P_in for the steady field `values`
    under `source` (W/m^3), which stores no heat; with no power in,
    relative to the scale of the boundary terms, sum g_b (|T| + |T_amb|)."""
    gap, scale = _energy_gap(system, _power_in(system.grid, source), values)
    return abs(gap) / scale if scale else 0.0


def solve_steady(system: DiscreteSystem, source: np.ndarray,
                 options: SolveOptions = SolveOptions()) -> TemperatureField:
    """Steady temperatures in deg C, as the field at t = 0; relative
    residual <= tolerance, and the boundary outflux balances the power
    put in to ENERGY_BALANCE_LIMIT (else NumericalError)."""
    x, stats = solve_cg(system.operator(), system.rhs(source), options)
    gap = energy_balance_error(system, source, x)
    if not gap <= ENERGY_BALANCE_LIMIT:
        raise NumericalError(f"steady energy balance off by {gap:.3e} "
                             f"(limit {ENERGY_BALANCE_LIMIT:.0e})")
    return TemperatureField(values=x.reshape(system.grid.shape),
                            grid=system.grid,
                            solve=replace(stats, kind="steady"))


def step_transient(system: DiscreteSystem, field_t: TemperatureField,
                   source: np.ndarray, dt: float,
                   options: SolveOptions = SolveOptions()) -> TemperatureField:
    """One backward-Euler step: (G + C/dt) T' = b = C/dt T + q, where
    q = rhs(source), from a start that `solve_cg` corrects if it fails
    the true-residual check. With TSV farms the start is T.

    The step then checks its energy balance, as `solve_steady` does, with
    the heat it stores, sum C/dt (T' - T): the gap P_in - sum g_b (T' -
    T_amb) - sum C/dt (T' - T), P_in summed from the source, not from b,
    may not exceed max(ENERGY_BALANCE_LIMIT P_in, sqrt(n) tol ||b||), or
    NumericalError. The second term bounds |sum r| <= sqrt(n) ||r|| for
    the final residual r of a converged solve, where tol is the larger
    of the tolerance and the residual reached; the step's SolveStats
    keeps the gap and the limit. With no power in, the boundary scale of
    `energy_balance_error` stands in for P_in.

    On a farm-free stack A_L^-1 is exact, and C/dt, uniform per slab,
    commutes with the cosine basis Q: Q^T b = q^ + C/dt T^, with q^ = Q^T q
    and T^ = Q^T T. So the start is one Thomas sweep of that and one
    inverse transform, and T'^ is the sweep's output. The step operator
    keeps q, and q^ if farm-free, of the last source if that is a
    read-only array that owns its data (`power_density_field` returns the
    same one while the densities are unchanged); farm-free, it keeps T'^
    of the field it returns, whose values it makes read-only, unless CG
    had to correct it. Any other source or field is transformed afresh.
    P_in is kept with the source's q."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    A = system.operator(dt)
    work, values, farm_free = A.work, field_t.values, A.E is None
    if source is not A.source:
        A.source = None
        q = system.rhs(source, work["source"])
        A.power_in = _power_in(system.grid, source)
        if farm_free:
            A.forward(q, work["source_modes"], work["residual"])
        if (isinstance(source, np.ndarray) and source.flags.owndata
                and not source.flags.writeable):
            A.source = source
    b = np.multiply(A.cap, values, out=work["rhs"]).reshape(-1)
    b += work["source"].reshape(-1)
    if farm_free:
        y = work["modes"]
        if values is not A.field:
            A.forward(values, y, work["residual"])
        A.field = None   # y becomes T'^
        y *= A.cap
        y += work["source_modes"]
        x = A.inverse(A.solve_modes(y), None, work["residual"])
    else:
        x = field_t.flat().copy()
    x, stats = solve_cg(A, b, options, x)
    x = x.reshape(system.grid.shape)
    # The heat stored, C/dt (T' - T) summed per slab, via the free rhs.
    stored = float(np.einsum("zp,z->", np.subtract(
        x, values, out=work["rhs"]).reshape(len(A.cap), -1), A.cap[:, 0, 0]))
    gap, scale = _energy_gap(system, A.power_in, x, stored)
    limit = max(ENERGY_BALANCE_LIMIT * scale, np.sqrt(system.n) * max(
        options.tolerance, stats.residual) * stats.rhs_norm)
    if not abs(gap) <= limit:
        raise NumericalError(f"step energy balance off by {gap:.3e} W "
                             f"(limit {limit:.3e} W)")
    if farm_free and not stats.rounds:
        x.flags.writeable = False
        A.field = x
    return TemperatureField(values=x, grid=system.grid,
                            time=field_t.time + dt,
                            solve=replace(stats, kind="step", dt=dt,
                                          energy_gap_w=gap,
                                          energy_limit_w=limit))


@dataclass(frozen=True)
class LayerStats:
    layer_index: int
    role: str
    mean: float
    max: float
    min: float
    hotspot: tuple[int, int, int]   # (iz, iy, ix), row-major tie-break


def layer_summary(field_t: TemperatureField) -> list[LayerStats]:
    """Per-device-layer stats of the field's own grid, bottom-up."""
    grid = field_t.grid
    out = []
    for layer_index in grid.config.device_layer_indices:
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
