"""The matrix-free operator against the CSR lattice it replaced on the run
path: A @ x and A.abs_matmul(x) equal the assembled matrix's products to
rounding, and a scenario run never builds that matrix."""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from stackemu import pdn as pdn_module, solver
from stackemu.config import load_scenario
from stackemu.pdn import PdnParams, build_pdn
from stackemu.scenario import GridSpec, Scenario, TransientSpec, run_scenario
from stackemu.solver import LayeredOperator, assemble, lattice_matrix
from stackemu.stack import discretize, preset_stack

from conftest import (correction_from_matrix, random_farm_stack,
                      random_power_map, random_stack)

DEMO = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                    "demo_2layer.yaml")


def assert_products_match(A, matrix, rng):
    """A @ x and A.abs_matmul(x) against matrix @ x and abs(matrix) @ x, to
    1e-14 of the largest |matrix| |x|, for random x of both signs and for
    a field of temperatures."""
    n = matrix.shape[0]
    for x in (rng.standard_normal(n), rng.uniform(25.0, 90.0, n)):
        scale = np.max(abs(matrix) @ np.abs(x))
        for got, want in ((A @ x, matrix @ x),
                          (A.abs_matmul(x), abs(matrix) @ x)):
            assert np.max(np.abs(got - want)) <= 1e-14 * scale


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("make", [random_stack, random_farm_stack],
                         ids=["farm-free", "farms"])
def test_thermal_operator_matches_assembled_matrix(make, seed):
    rng = np.random.default_rng(seed)
    cfg, grid = make(rng)
    system = assemble(grid, cfg)
    assert (len(system.correction.index) > 0) == (make is random_farm_stack)
    for dt in (None, float(10 ** rng.uniform(-5, 0))):
        matrix = (system.G if dt is None
                  else system.G + sp.diags(system.C / dt))
        assert_products_match(system.operator(dt), matrix, rng)


def test_one_slab_operator_matches_assembled_matrix(single_layer_stack):
    rng = np.random.default_rng(0)
    system = assemble(discretize(single_layer_stack, 5, 3),
                      single_layer_stack)
    assert system.grid.nz == 1
    for dt in (None, 1e-3):
        matrix = (system.G if dt is None
                  else system.G + sp.diags(system.C / dt))
        assert_products_match(system.operator(dt), matrix, rng)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 6), (1, 5, 1),
                                   (4, 1, 1), (3, 1, 5), (2, 4, 1),
                                   (1, 3, 4), (3, 4, 5), (5, 100, 200),
                                   (3, 130, 260)])
def test_operator_with_correction_matches_lattice(shape):
    """A lattice that is layered except at random faces and grounds, where
    conductances are scaled by 0.05 to 20: E = G - G_L is taken from the
    two CSR lattices, so |A| must flip E's off-diagonal signs, not take
    their magnitudes. The two large shapes are applied in chunks of three
    planes and of one plane."""
    nz, ny, nx = shape
    rng = np.random.default_rng(nz * 100 + ny * 10 + nx)
    per_slab = [rng.uniform(0.5, 2.0, k) for k in (nz, nz, nz - 1, nz)]
    host = [np.broadcast_to(g[:, None, None], face_shape)
            for g, face_shape in zip(per_slab, [(nz, ny, nx - 1),
                                                (nz, ny - 1, nx),
                                                (nz - 1, ny, nx), shape])]
    varied = [h * np.where(rng.random(h.shape) < 0.3,
                           rng.uniform(0.05, 20.0, h.shape), 1.0)
              for h in host]
    G = lattice_matrix(*varied)
    diff = (G - lattice_matrix(*host)).tocsr()
    diff.eliminate_zeros()
    index = np.flatnonzero(diff.getnnz(axis=1))
    correction = correction_from_matrix(index, diff[index][:, index])
    for A, matrix in (
            (LayeredOperator(*per_slab, ny, nx, correction), G),
            (LayeredOperator(*per_slab, ny, nx), lattice_matrix(*host))):
        assert_products_match(A, matrix, rng)


def test_step_operator_returns_no_work_buffer():
    """A step operator holds work buffers, and op @ x, |A| x, forward,
    inverse and scatter still return new arrays: a later call leaves an
    earlier answer as it was."""
    rng = np.random.default_rng(5)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    op = system.operator(5e-3)
    assert op.work and not system.operator().work
    calls = {"op @ x": op.__matmul__, "|A| x": op.abs_matmul,
             "forward": op.forward,
             "inverse": lambda v: op.inverse(v.reshape(grid.shape)),
             "scatter": lambda v: op.scatter(v[:len(op.index)])}
    for name, call in calls.items():
        first = call(rng.standard_normal(grid.n))
        kept = first.copy()
        call(rng.standard_normal(grid.n))
        np.testing.assert_array_equal(first, kept, err_msg=name)
        assert not any(np.shares_memory(first, buffer)
                       for buffer in op.work.values()), name


@pytest.mark.parametrize("planes, nx, ny", [(2, 16, 8), (4, 1, 5),
                                            (3, 6, 1), (2, 1, 1),
                                            (4, 256, 130)])
def test_pdn_operator_matches_nodal_matrix(planes, nx, ny):
    config = preset_stack(planes)
    pdn = build_pdn(config, PdnParams(nx=nx, ny=ny))
    assert_products_match(pdn.A, pdn.G, np.random.default_rng(planes))


def test_run_path_builds_no_matrix(monkeypatch):
    """With the lattice builder made to raise, the demo (transient, PDN)
    and a TSV-farm stack with a PDN and a transient still run."""
    def no_matrix(*args, **kwargs):
        raise AssertionError("lattice_matrix called on the run path")

    monkeypatch.setattr(solver, "lattice_matrix", no_matrix)
    monkeypatch.setattr(pdn_module, "lattice_matrix", no_matrix)
    demo = load_scenario(DEMO)
    assert demo.pdn is not None and demo.transient is not None
    rng = np.random.default_rng(5)
    cfg, grid = random_farm_stack(rng)
    farms = Scenario(name="farms", stack=cfg,
                     power=random_power_map(rng, cfg),
                     grid=GridSpec(grid.nx, grid.ny,
                                   grid.nz // len(cfg.layers)),
                     pdn=PdnParams(),
                     transient=TransientSpec(0.02, 5e-3, 2))
    for scenario in (demo, farms):
        report = run_scenario(scenario)
        assert report.pdn_summary is not None
        assert report.final_field is not None
    assert len(assemble(grid, cfg).correction.index)
