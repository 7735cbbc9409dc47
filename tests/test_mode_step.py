"""Backward-Euler steps and the step operator's caches. Every step
operator keeps the rhs of the last source it saw; a farm-free one, which
steps in cosine-mode space, also keeps the mode coefficients of that
source and of the last field. A march matches a matrix march, and a step
the caches must not serve is the step of a freshly assembled system."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stackemu.power import Periodic, power_density_field
from stackemu.scenario import (ThrottlePolicy, TransientSpec, _PolicyState,
                               solve_transient)
from stackemu.sensors import SensorNetwork, SensorSpec
from stackemu.solver import (SolveOptions, TemperatureField, assemble,
                             step_transient)
from stackemu.stack import discretize, preset_stack

from conftest import random_farm_stack, random_power_map, random_stack


def ambient_field(grid):
    return TemperatureField(values=np.full(grid.shape, grid.config.ambient_c),
                            grid=grid, time=0.0)


@pytest.mark.parametrize("stack", [random_stack, random_farm_stack],
                         ids=["farm-free", "farms"])
@pytest.mark.parametrize("seed", range(4))
def test_march_matches_a_matrix_march(seed, stack):
    """20 steps on a random stack, with a periodic tile that changes the
    source and a throttle event, against backward Euler on the assembled
    matrix with a sparse direct solve."""
    rng = np.random.default_rng(seed)
    cfg, grid = stack(rng)
    dt = float(10 ** rng.uniform(-4, -2))
    base = random_power_map(rng, cfg).set_tile_power(
        0, 0, 0, Periodic(p_low=1.0, p_high=30.0, period=12 * dt, duty=0.5))
    network = SensorNetwork(sensors=(SensorSpec(
        layer=0, x_mm=0.0, y_mm=0.0, noise_sigma=0.0,
        quantization_step=0.0),))
    policy = ThrottlePolicy(trigger_t=cfg.ambient_c + 1e-6,
                            release_t=cfg.ambient_c, throttle_factor=0.5)
    state = _PolicyState(policy, base, network, 4)
    sources = []

    def pmap(step, field_t):
        step_map = state(step, field_t)
        sources.append(power_density_field(step_map, grid, field_t.time))
        return step_map

    system = assemble(grid, cfg)
    # A farm step's CG leaves an error of about its tolerance in the
    # field; a farm-free step is exact, and served from its caches.
    options = SolveOptions(tolerance=1e-10 if stack is random_stack
                           else 1e-12)
    marched, _, _ = solve_transient(system, ambient_field(grid), pmap,
                                    TransientSpec(t_end=20 * dt, dt=dt),
                                    options)
    assert [e.action for e in state.events] == ["throttle"]
    assert len({s.tobytes() for s in sources}) >= 3

    lu = spla.splu(sp.csc_matrix(system.G + sp.diags(system.C / dt)))
    t = ambient_field(grid).flat()
    for source, got in zip(sources, marched):
        t = lu.solve(system.rhs(source) + system.C / dt * t)
        np.testing.assert_allclose(got.flat(), t, rtol=1e-10)


def step_from_ambient(cfg, grid, rng):
    """The system, a source and one step from ambient."""
    source = power_density_field(random_power_map(rng, cfg), grid, 0.0)
    system = assemble(grid, cfg)
    first = step_transient(system, ambient_field(grid), source, 1e-3)
    return cfg, grid, system, source, first


@pytest.fixture
def stepped():
    """A small farm-free system, a source and one step from ambient."""
    cfg = preset_stack(3)
    stepped = step_from_ambient(cfg, discretize(cfg, 8, 6, 2),
                                np.random.default_rng(11))
    assert stepped[2].operator(1e-3).E is None
    return stepped


@pytest.fixture
def farm_stepped():
    """The same on a small random stack with TSV farms."""
    rng = np.random.default_rng(11)
    stepped = step_from_ambient(*random_farm_stack(rng), rng)
    assert stepped[2].operator(1e-3).E is not None
    return stepped


def fresh_step(cfg, grid, field_t, source, options=SolveOptions()):
    return step_transient(assemble(grid, cfg), field_t, source, 1e-3,
                          options)


@pytest.mark.parametrize("case", ["stepped", "farm_stepped"])
def test_writable_source_mutated_in_place(case, request):
    cfg, grid, system, source, first = request.getfixturevalue(case)
    writable = np.array(source)
    second = step_transient(system, first, writable, 1e-3)
    writable *= 2.0
    got = step_transient(system, second, writable, 1e-3)
    want = fresh_step(cfg, grid, second, writable)
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12)
    unchanged = fresh_step(cfg, grid, second, source)
    assert np.max(np.abs(got.values - unchanged.values)) > 1e-3


def test_field_equal_to_the_cached_one_is_transformed(stepped):
    cfg, grid, system, source, first = stepped
    assert not first.values.flags.writeable
    with pytest.raises(ValueError):
        first.values[0, 0, 0] = 0.0
    twin = TemperatureField(values=first.values.copy(), grid=grid,
                            time=first.time)
    got = step_transient(system, twin, source, 1e-3)
    np.testing.assert_array_equal(got.values,
                                  fresh_step(cfg, grid, twin, source).values)
    # The field the operator made is served from its mode coefficients.
    np.testing.assert_allclose(
        step_transient(system, got, source, 1e-3).values,
        fresh_step(cfg, grid, got, source).values, rtol=1e-13)


def test_step_that_needs_a_cg_round_drops_its_modes(stepped):
    cfg, grid, system, source, first = stepped
    tight = SolveOptions(tolerance=1e-15)
    corrected = step_transient(system, first, source, 1e-3, tight)
    assert system.operator(1e-3).field is None   # a round corrected it
    assert corrected.values.flags.writeable
    got = step_transient(system, corrected, source, 1e-3, tight)
    np.testing.assert_array_equal(
        got.values, fresh_step(cfg, grid, corrected, source, tight).values)
