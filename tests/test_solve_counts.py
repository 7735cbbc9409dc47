"""How much work each solve does. A_L^-1 is the exact inverse of every
farm-free step operator and of every PDN operator, so those solves start
from its answer and end after one application of it and one true-residual
product with A; where TSV farms make it inexact, a transient step starts
from the previous field instead."""

import dataclasses
import os
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import stackemu.pdn
from stackemu.config import load_scenario
from stackemu.pdn import (build_pdn, coupling_report, currents_from_power,
                          solve_ir_drop)
from stackemu.power import Periodic, power_density_field
from stackemu.solver import (DiscreteSystem, SolveOptions, TemperatureField,
                             _host_slab_conductances, assemble, solve_cg,
                             solve_steady, step_transient)
from stackemu.stack import discretize

from conftest import Counted, random_farm_stack, random_power_map

DEMO = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                    "demo_2layer.yaml")


def count_operators(monkeypatch, system):
    """Operators of system, Counted, by dt."""
    counted = {}
    real = DiscreteSystem.operator

    def operator(self, dt=None):
        if self is not system:
            return real(self, dt)
        if dt not in counted:
            counted[dt] = Counted(real(self, dt))
        return counted[dt]

    monkeypatch.setattr(DiscreteSystem, "operator", operator)
    return counted


def assert_one_exact_application(op, matrix, options, b, x):
    """The solve of b that returned x was one application of A_L^-1 (one
    transform each way and one Thomas sweep; its gather is at E's voxels,
    which are none), one product with A, no scatter and no CG iteration.
    x is that application's answer, and it meets the tolerance against
    the real matrix."""
    assert op.counts == Counter(forward=1, solve_modes=1, gather=1,
                                inverse=1, matvec=1)
    assert len(op.index) == 0
    np.testing.assert_array_equal(
        x, op.inner.inverse(op.inner.solve_modes(op.inner.forward(b))))
    residual = np.linalg.norm(b - matrix @ x) / np.linalg.norm(b)
    assert residual <= options.tolerance


@pytest.fixture
def demo():
    scenario = load_scenario(DEMO)
    grid = discretize(scenario.stack, scenario.grid.nx, scenario.grid.ny,
                      scenario.grid.sub_slabs_per_layer)
    assert not any(grid.farm_lateral_mask(i).any()
                   for i in range(len(scenario.stack.layers)))
    return scenario, grid, assemble(grid, scenario.stack)


def test_farm_free_steady_is_one_application(monkeypatch, demo):
    scenario, grid, system = demo
    ops = count_operators(monkeypatch, system)
    source = power_density_field(scenario.power, grid, 0.0)
    field = solve_steady(system, source, scenario.solve)
    op = ops[None]
    assert op.E is None
    assert_one_exact_application(op, system.G, scenario.solve,
                                 system.rhs(source), field.flat())


def test_farm_free_step_is_one_application(monkeypatch, demo):
    """A farm-free step whose source array and field are the ones the
    operator saw last is one Thomas sweep, one inverse transform and one
    true-residual product; the first step and a step with a new source
    add one forward transform per new input. Each answer meets the
    tolerance against the real matrix."""
    scenario, grid, system = demo
    dt = scenario.transient.dt
    ops = count_operators(monkeypatch, system)
    boundary = _host_slab_conductances(grid)[3]
    field_t = TemperatureField(
        values=np.full(grid.shape, scenario.stack.ambient_c), grid=grid,
        time=0.0)
    matrix = system.G + sp.diags(system.C / dt)
    sources = []
    for step in range(15):
        source = power_density_field(scenario.power, grid, field_t.time)
        new_inputs = (step == 0) + (not sources or source is not sources[-1])
        sources.append(source)
        b = system.rhs(source) + system.C / dt * field_t.flat()
        field_t = step_transient(system, field_t, source, dt, scenario.solve)
        op = ops[dt]
        assert op.E is None
        np.testing.assert_array_equal(
            op.ground, boundary + (system.C / dt).reshape(grid.nz, -1)[:, 0])
        assert op.counts == Counter(forward=new_inputs, solve_modes=1,
                                    inverse=1, matvec=1)
        residual = np.linalg.norm(b - matrix @ field_t.flat())
        assert residual <= scenario.solve.tolerance * np.linalg.norm(b)
        op.counts.clear()
    # The periodic tile switches once, at about 50 ms.
    assert sum(a is not b for a, b in zip(sources, sources[1:])) == 1


def test_pdn_solves_are_one_application(monkeypatch, demo):
    scenario = demo[0]
    pdn = build_pdn(scenario.stack, scenario.pdn)
    solves = []

    def recorded(A, b, *args):
        x, rounds = solve_cg(A, b, *args)
        solves.append((b, x))
        return x, rounds

    monkeypatch.setattr(stackemu.pdn, "solve_cg", recorded)
    for solve in (
            lambda p: solve_ir_drop(
                p, currents_from_power(scenario.power, p, 0.0),
                scenario.solve),
            lambda p: coupling_report(p, 1, 0.1, scenario.solve)):
        counted = dataclasses.replace(pdn, A=Counted(pdn.A))
        solve(counted)
        (b, x), = solves
        assert_one_exact_application(counted.A, pdn.G, scenario.solve, b, x)
        solves.clear()


def test_cold_farm_free_solve_is_the_layered_inverse(demo):
    """Without a start, a farm-free solve (the demo's steady and step
    operators, and its PDN) returns A_L^-1 b with the bits of the
    operator's own transforms and Thomas sweep, and runs no round from a
    true residual."""
    scenario, grid, system = demo
    dt, rng = scenario.transient.dt, np.random.default_rng(1)
    q = system.rhs(power_density_field(scenario.power, grid, 0.0))
    pdn = build_pdn(scenario.stack, scenario.pdn)
    for A, b in ((system.operator(), q),
                 (system.operator(dt),
                  q + system.C / dt * rng.uniform(25.0, 90.0, grid.n)),
                 (pdn.A, rng.uniform(0.0, 1.0, pdn.n))):
        assert A.E is None
        x, rounds = solve_cg(A, b, scenario.solve)
        assert rounds == 0
        np.testing.assert_array_equal(
            x, A.inverse(A.solve_modes(A.forward(b))))


@pytest.mark.parametrize("farms", [False, True], ids=["farm-free", "farm"])
def test_solve_cg_writes_only_x(demo, farms):
    """Cold and warm, on steady and step operators: solve_cg never writes
    b, and a warm start comes back as the very array it was given."""
    rng = np.random.default_rng(2)
    if farms:
        cfg, grid = random_farm_stack(rng)
        system = assemble(grid, cfg)
    else:
        _, grid, system = demo
    for dt in (None, 5e-3):
        A = system.operator(dt)
        assert (A.E is not None) == farms
        b = rng.uniform(0.0, 1.0, grid.n)
        kept = b.copy()
        b.flags.writeable = False
        cold, _ = solve_cg(A, b)
        start = rng.uniform(25.0, 90.0, grid.n)
        warm, _ = solve_cg(A, b, SolveOptions(), start)
        assert warm is start and cold is not b
        np.testing.assert_array_equal(b, kept)


@pytest.mark.parametrize("seed", range(4))
def test_farm_steps_cost_no_more_than_starting_from_previous_field(
        monkeypatch, seed):
    """On a farm stack the preconditioner is inexact; 40 steps take no
    more Thomas sweeps than the same steps started from T_prev."""
    rng = np.random.default_rng(seed)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    source = power_density_field(random_power_map(rng, cfg), grid, 0.0)
    options, dt = SolveOptions(), 5e-3
    op = system.operator(dt)
    assert op.E is not None
    reference = Counted(op)
    ops = count_operators(monkeypatch, system)
    field_t = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                               grid=grid, time=0.0)
    for _ in range(40):
        b = system.rhs(source) + system.C / dt * field_t.flat()
        expected = field_t.flat().copy()
        solve_cg(reference, b, options, expected)
        field_t = step_transient(system, field_t, source, dt, options)
        np.testing.assert_allclose(field_t.flat(), expected, rtol=1e-7)
    assert ops[dt].counts["solve_modes"] \
        <= reference.counts["solve_modes"]


@pytest.mark.parametrize("seed", range(4))
def test_farm_solve_transforms_full_field_once_each_way(monkeypatch, seed):
    """Whatever its iteration count, a farm steady solve and a
    warm-started step each transform the full field once each way (the
    round's residual in, the update out); every CG iteration is one
    transform from E's voxels, one Thomas sweep and one transform back to
    them."""
    rng = np.random.default_rng(seed)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    source = power_density_field(random_power_map(rng, cfg), grid, 0.0)
    ops = count_operators(monkeypatch, system)
    iterations = []
    for tolerance in (1e-6, 1e-12):
        options = SolveOptions(tolerance=tolerance)
        field_t = solve_steady(system, source, options)
        op = ops[None]
        assert op.E is not None
        counts = op.counts
        assert counts["gather"] >= 2
        assert counts["scatter"] == counts["gather"]
        assert counts["solve_modes"] == counts["gather"] + 1
        assert counts["forward"] == counts["inverse"] == 1
        iterations.append(counts["gather"] - 1)
        op.counts.clear()

        step_transient(system, field_t, 2 * source, 5e-3, options)
        counts = ops[5e-3].counts
        assert counts["gather"] >= 1
        assert counts["scatter"] <= counts["gather"]
        assert counts["solve_modes"] == counts["scatter"] + 1
        assert counts["forward"] == counts["inverse"] == 1
        ops[5e-3].counts.clear()
    assert iterations[1] > iterations[0]


def test_farm_march_makes_each_sources_rhs_once(monkeypatch):
    """A farm step operator, like a farm-free one, keeps the rhs of the
    last read-only source it saw: a march makes the rhs once per new
    source array, not once per step."""
    rng = np.random.default_rng(5)
    cfg, grid = random_farm_stack(rng)
    system = assemble(grid, cfg)
    dt = 1e-3
    assert system.operator(dt).E is not None
    pmap = random_power_map(rng, cfg).set_tile_power(
        0, 0, 0, Periodic(p_low=1.0, p_high=30.0, period=8 * dt, duty=0.5))
    made = []
    real = DiscreteSystem.rhs

    def rhs(self, source, out=None):
        made.append(source)
        return real(self, source, out)

    monkeypatch.setattr(DiscreteSystem, "rhs", rhs)
    field_t = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                               grid=grid, time=0.0)
    new_sources = []
    for _ in range(20):
        source = power_density_field(pmap, grid, field_t.time)
        assert not source.flags.writeable
        if not new_sources or source is not new_sources[-1]:
            new_sources.append(source)
        field_t = step_transient(system, field_t, source, dt)
    assert 2 <= len(new_sources) <= 10
    assert len(made) == len(new_sources)
    assert all(a is b for a, b in zip(made, new_sources))
