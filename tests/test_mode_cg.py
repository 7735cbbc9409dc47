"""CG on E's voxels, by way of the layered operator's transforms,
against the physical-space CG it replaced, kept here as the reference. In
exact arithmetic both run the same Krylov sequence, so they must take the
same iterations and agree to rounding, and both must match the dense
oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from stackemu.materials import (BOND_UNDERFILL, COPPER, Material, SILICON,
                               SIO2, TUNGSTEN)
from stackemu.power import Constant, PowerMap, power_density_field
from stackemu.solver import (ConvergenceError, Correction, LayeredOperator,
                             NumericalError, SolveOptions,
                             _boundary_conductance, _face_conductances,
                             _host_slab_conductances, assemble,
                             lattice_matrix, solve_cg)
from stackemu.stack import (LayerRole, LayerSpec, StackConfig, TsvFarmSpec,
                            discretize)

from conftest import (Counted, column_stack, correction_matrix,
                      random_farm_stack, random_power_map, random_stack)


def physical_cg(A, b, options, x0=None):
    """The physical-space PCG loop: the same start and first true-residual
    check, then CG on x with A_L^-1 r ~ A^-1 r, ending on the
    recursive residual. Returns x, the number of A_L^-1 applications and
    the final recursive residual."""
    calls = 0

    def apply(r):
        nonlocal calls
        calls += 1
        return A.inverse(A.solve_modes(A.forward(r)))

    tol = options.tolerance
    max_iter = options.iteration_cap(len(b))
    bnorm = np.linalg.norm(b) or 1.0
    x = apply(b) if x0 is None else x0.copy()
    r = b - A @ x
    res = np.linalg.norm(r) / bnorm
    it = 0
    rz = None
    while res > tol:
        if it >= max_iter:
            raise ConvergenceError(res, it)
        z = apply(r)
        rz_new = float(r @ z)
        p = z if rz is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError("CG breakdown")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / bnorm
        it += 1
    return x, calls, res


def true_residual(A, b, x):
    return np.linalg.norm(b - A @ x) / np.linalg.norm(b)


def assert_same_as_reference(A, b, options, x0=None):
    """solve_cg and physical_cg take the same iterations and agree to
    1e-12 relative; the solve meets the tolerance against A. solve_cg
    gathers A_L^-1 r at E's voxels wherever physical_cg applies A_L^-1 r:
    once at a cold start (A_L^-1 b) and once per iteration, the first
    iteration of a warm round taking it from the round's start. Returns
    the solution and solve_cg's counts."""
    counted = Counted(A)
    # x0 is a warm start, as step_transient makes one.
    x, _ = solve_cg(counted, b, options, None if x0 is None else x0.copy())
    ref, calls, _ = physical_cg(A, b, options, x0)
    assert counted.counts["gather"] == calls
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert true_residual(A, b, x) <= options.tolerance
    return x, counted.counts


def assert_one_round(counts):
    """One full transform each way; per iteration one scatter, Thomas
    sweep and gather, and one more sweep for the update."""
    assert counts["forward"] == counts["inverse"] == 1
    assert counts["scatter"] == counts["gather"] == counts["solve_modes"] - 1


@pytest.mark.parametrize("seed", range(12))
def test_farm_solves_match_physical_cg_and_oracle(seed):
    """Steady, and a 5 ms step warm-started from a random field."""
    rng = np.random.default_rng(seed)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    source = power_density_field(random_power_map(rng, cfg), grid, 0.0)
    options = SolveOptions(tolerance=1e-10)

    op = system.operator()
    assert op.E is not None
    b = system.rhs(source)
    x, counts = assert_same_as_reference(op, b, options)
    assert_one_round(counts)
    assert counts["gather"] >= 2
    oracle = np.linalg.solve(system.G.toarray(), b)
    assert np.max(np.abs(x - oracle)) <= 1e-8 * np.max(np.abs(oracle))

    dt = 5e-3
    op = system.operator(dt)
    t_prev = rng.uniform(25.0, 90.0, grid.n)
    cap = system.C / dt
    b = system.rhs(source) + cap * t_prev
    x, counts = assert_same_as_reference(op, b, options, t_prev)
    assert_one_round(counts)
    assert counts["gather"] >= 2
    oracle = np.linalg.solve((system.G + sp.diags(cap)).toarray(), b)
    assert np.max(np.abs(x - oracle)) <= 1e-8 * np.max(np.abs(oracle))


def blockage_system(farm):
    """scripts/tsv_blockage_study.py's strip die (bond k = 0.001) at its
    default 48 x 8 grid, with a 1 W/cm^2 tile next to the farm."""
    weak = Material("weak_bond", k=0.001, volumetric_heat_capacity=1.8e6)
    layers = (
        LayerSpec(LayerRole.PACKAGE_INTERFACE, 80.0, weak),
        LayerSpec(LayerRole.SP, 10.0, SILICON, has_tsvs=True,
                  tsv_farms=(farm,), tile_rows=1, tile_cols=6),
        LayerSpec(LayerRole.BOND_INTERFACE, 20.0, weak),
        LayerSpec(LayerRole.S0, 500.0, SILICON, tile_rows=1, tile_cols=6),
    )
    cfg = StackConfig(6.0, 1.0, layers, ambient_c=25.0, heat_sink_h=8700.0,
                      package_resistance=1.0)
    grid = discretize(cfg, 48, 8, 1)
    system = assemble(grid, cfg)
    pmap = PowerMap.zeros(cfg).set_tile_power(0, 0, 0, Constant(1.0))
    return system, system.rhs(power_density_field(pmap, grid, 0.0))


@pytest.mark.parametrize("farm, drifts", [
    (TsvFarmSpec(1.0, 0.0, 2.0, 1.0, 5.0, 10.0, COPPER), False),
    (TsvFarmSpec(1.0, 0.0, 2.0, 1.0, 5.0, 10.0, TUNGSTEN, 0.5, SIO2), True)],
    ids=["copper", "tungsten+liner"])
def test_blockage_study_matches_physical_cg(farm, drifts):
    """At tolerance 1e-10 the recursive residual of the tungsten case
    ends at half its true residual (1.0e-13 against 2.0e-13), so the
    answer rests on the final true-residual check."""
    system, b = blockage_system(farm)
    op = system.operator()
    options = SolveOptions(tolerance=1e-10)
    x, counts = assert_same_as_reference(op, b, options)
    assert counts["forward"] == counts["inverse"] == 1
    _, _, recursive = physical_cg(op, b, options)
    drift = abs(true_residual(system.G, b, x) - recursive) / recursive
    assert (drift > 0.5) == drifts


class AssembledProducts(LayeredOperator):
    """A layered operator whose true residuals b - A x and products with
    |A| are those of the matrix G, whatever its own E."""

    def __init__(self, G, *args):
        super().__init__(*args)
        self.G = G

    def residual(self, b, x, out=None):
        return b - self.G @ x

    def abs_matmul(self, x):
        return abs(self.G) @ x


def test_inexact_correction_restarts_from_true_residual():
    """With E scaled by 0.9 the mode-space CG solves the wrong system; the
    final true-residual check fails and CG restarts from the true
    residual until A's tolerance is met, within the iteration cap."""
    rng = np.random.default_rng(3)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    b = system.rhs(power_density_field(random_power_map(rng, cfg), grid,
                                       0.0))
    correction = system.correction
    gx, gy, gz, bnd = _host_slab_conductances(grid)
    wrong = Counted(AssembledProducts(
        system.G, gx, gy, gz, bnd, grid.ny, grid.nx,
        correction._replace(data=0.9 * correction.data,
                            diag=0.9 * correction.diag)))
    options = SolveOptions(tolerance=1e-10)
    x, _ = solve_cg(wrong, b, options)
    assert true_residual(system.G, b, x) <= options.tolerance
    assert wrong.counts["inverse"] >= 2       # 2+ rounds
    assert wrong.counts["forward"] == wrong.counts["inverse"]
    # A gather at the cold start and one per iteration but the first of
    # each restart, which takes it from the restart's own gather.
    iterations = wrong.counts["gather"] - 1
    assert iterations >= 2
    solve_cg(wrong, b, SolveOptions(
        tolerance=1e-10, max_iterations=iterations))
    with pytest.raises(ConvergenceError):
        solve_cg(wrong, b, SolveOptions(
            tolerance=1e-10, max_iterations=iterations - 1))


def test_indefinite_correction_is_a_cg_breakdown():
    """E = -10 max(A_L's row sums) times the identity on the farm voxels
    makes A indefinite there; farm CG raises instead of returning x."""
    rng = np.random.default_rng(3)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    b = system.rhs(power_density_field(random_power_map(rng, cfg), grid,
                                       0.0))
    host = _host_slab_conductances(grid)
    index = system.correction.index
    big = -10 * LayeredOperator(*host, grid.ny, grid.nx).abs_matmul(
        np.ones(grid.n)).max()
    negative = Correction(index, np.arange(len(index))[None, :],
                          np.full((1, len(index)), big),
                          np.full(len(index), big))
    A = LayeredOperator(*host, grid.ny, grid.nx, negative)
    with pytest.raises(NumericalError, match="CG breakdown"):
        solve_cg(A, b, SolveOptions(tolerance=1e-10))


def test_residual_at_rounding_floor_ends_the_solve():
    """A 6-slab copper column at tolerance 1e-13: b - A x cannot be
    evaluated to better than about 2e-13 there, so after one mode-space
    iteration the solve returns the oracle's answer instead of restarting
    until the iteration cap."""
    cfg = column_stack(k=80.0, h=900.0, package_resistance=2e-3,
                       thickness_um=600.0)
    grid = discretize(cfg, 2, 2, 6)
    system = assemble(grid, cfg)
    source = np.zeros(grid.shape)
    source[0] = 5e8
    op = system.operator()
    b = system.rhs(source)
    counted = Counted(op)
    x, _ = solve_cg(counted, b, SolveOptions(tolerance=1e-13))
    assert true_residual(op, b, x) > 1e-13
    assert counted.counts["solve_modes"] == 2
    oracle = np.linalg.solve(system.G.toarray(), b)
    assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("seed", range(6))
def test_correction_is_assembled_minus_layered_operator(seed):
    """E against G - G_L with G_L built as a second full lattice."""
    rng = np.random.default_rng(seed)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    gx, gy, gz, bnd = _host_slab_conductances(grid)
    nz, ny, nx = grid.shape
    G_L = lattice_matrix(np.broadcast_to(gx[:, None, None], (nz, ny, nx - 1)),
                         np.broadcast_to(gy[:, None, None], (nz, ny - 1, nx)),
                         np.broadcast_to(gz[:, None, None], (nz - 1, ny, nx)),
                         np.broadcast_to(bnd[:, None, None], grid.shape))
    index, E = system.correction.index, correction_matrix(system.correction)
    full = sp.coo_matrix(E)
    full = sp.csr_matrix((full.data, (index[full.row], index[full.col])),
                         shape=(grid.n, grid.n))
    diff = (system.G - G_L).toarray()
    scale = np.max(np.abs(system.G.data))
    np.testing.assert_allclose(full.toarray(), diff, rtol=0,
                               atol=1e-13 * scale)
    outside = np.setdiff1d(np.arange(grid.n), index)
    assert not diff[outside].any()
    assert len(index) < grid.n


def correction_triplets(grid):
    """E's COO triplets, face set by face set in assembly order: x then y
    faces and the boundaries of each slab bottom-up, then the z faces.
    A face from voxel i to j whose conductance differs from the host
    slab's by d gives -d at (i, j) and (j, i), then d at (i, i) and (j, j)
    for all faces of its set; a boundary gives d at (i, i). Slabs and
    faces away from the farms add nothing (d = 0)."""
    nz, ny, nx = grid.shape
    plane = ny * nx
    z = np.arange(nz)
    gx, gy, gz = _face_conductances(grid, z, z[:-1])
    hx, hy, hz, hb = _host_slab_conductances(grid)
    boundary = _boundary_conductance(grid, grid.conductivities(z)[1])
    rows, cols, vals = [], [], []

    def faces(g, host, first, step, voxel=lambda f: f):
        delta = (g - host).reshape(-1)
        f = np.flatnonzero(delta)
        i, d = first + voxel(f), delta[f]
        if step:
            rows.extend([i, i + step, i, i + step])
            cols.extend([i + step, i, i, i + step])
            vals.extend([-d, -d, d, d])
        else:
            rows.append(i)
            cols.append(i)
            vals.append(d)

    for iz in range(nz):
        faces(gx[iz], hx[iz], iz * plane, 1, lambda f: f + f // (nx - 1))
        faces(gy[iz], hy[iz], iz * plane, nx)
        if iz in (0, nz - 1):
            faces(boundary[iz], hb[iz], iz * plane, 0)
    for iz in range(nz - 1):
        faces(gz[iz], hz[iz], iz * plane, plane)
    return [np.concatenate(a) for a in (rows, cols, vals)]


@pytest.mark.parametrize("seed", range(8))
def test_correction_is_scipys_csr_of_its_triplets_bit_for_bit(seed):
    """E's product and diagonal against scipy's CSR matrix of the same
    triplets, which sums each diagonal's duplicates in triplet order and
    each product row left to right: equal bits, on random farm stacks,
    one of them at 64 x 32 cells and two slabs per layer."""
    rng = np.random.default_rng(seed)
    cfg, grid = random_farm_stack(rng)
    if seed == 0:
        grid = discretize(cfg, 64, 32, 2)
    assert_scipys_csr_of_its_triplets(grid, cfg, rng)


@pytest.mark.parametrize("sub_slabs", [1, 2])
def test_correction_triplets_of_a_farm_die_on_the_package_face(sub_slabs):
    """The same bit-for-bit check where a farm die is the bottom layer, so
    E holds boundary entries: the package conductance of slab 0's farm
    voxels differs from the host slab's (the farm die of
    test_solver::test_farm_die_on_the_package_face)."""
    farms = (TsvFarmSpec(1.0, 1.0, 3.0, 3.0, 5.0, 10.0, COPPER),
             TsvFarmSpec(7.0, 2.0, 9.0, 4.0, 5.0, 10.0, TUNGSTEN, 0.5, SIO2))
    cfg = StackConfig(12.0, 6.0, (
        LayerSpec(LayerRole.SP, 50.0, SILICON, has_tsvs=True,
                  tsv_farms=farms),
        LayerSpec(LayerRole.BOND_INTERFACE, 20.0, BOND_UNDERFILL),
        LayerSpec(LayerRole.S0, 500.0, SILICON)))
    grid = discretize(cfg, 24, 12, sub_slabs)
    E = correction_matrix(assemble(grid, cfg).correction)
    assert (np.abs(E.sum(axis=1)) > 1e-12).any()   # boundary entries
    assert_scipys_csr_of_its_triplets(grid, cfg,
                                      np.random.default_rng(sub_slabs))


def assert_scipys_csr_of_its_triplets(grid, cfg, rng):
    correction = assemble(grid, cfg).correction
    rows, cols, vals = correction_triplets(grid)
    np.testing.assert_array_equal(np.unique(rows), correction.index)
    m = len(correction.index)
    E = sp.coo_matrix((vals, (np.searchsorted(correction.index, rows),
                              np.searchsorted(correction.index, cols))),
                      shape=(m, m)).tocsr()
    assert correction.diag.tobytes() == E.diagonal().tobytes()
    for x in (rng.standard_normal(m), rng.uniform(25.0, 90.0, m)):
        assert (correction @ x).tobytes() == (E @ x).tobytes()


def test_gather_and_scatter_match_dense_transform():
    """gather against (Q y)[index] and scatter against Q^T of w placed on
    E's voxels, with Q the dense orthonormal cosine basis of the whole
    field, on random farm stacks that between them take both product
    orders."""
    orders = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        cfg, grid = random_farm_stack(rng)
        op = assemble(grid, cfg).operator()
        nz, ny, nx = grid.shape
        q = np.kron(np.eye(nz), np.kron(op.qy, op.qx))
        y = rng.standard_normal(grid.shape)
        want = (q @ y.reshape(-1))[op.index]
        np.testing.assert_allclose(op.gather(y), want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))
        w = rng.standard_normal(len(op.index))
        on_s = np.zeros(grid.n)
        on_s[op.index] = w
        want = q.T @ on_s
        np.testing.assert_allclose(op.scatter(w).reshape(-1), want,
                                   rtol=0, atol=1e-12 * np.max(np.abs(want)))
        orders.update(block[-1] for block in op.blocks)
    assert orders == {True, False}


def test_farm_free_correction_is_empty():
    rng = np.random.default_rng(0)
    cfg, grid = random_stack(rng)
    system = assemble(grid, cfg)
    assert len(system.correction.index) == 0
    assert correction_matrix(system.correction).shape == (0, 0)
    assert len(system.operator().index) == 0
    assert system.operator().E is None
