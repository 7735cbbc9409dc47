import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from stackemu.config import scenario_from_document
from stackemu.materials import (BOND_UNDERFILL, COPPER, SILICON, SIO2,
                                TUNGSTEN, Material)
from stackemu.power import BUILTIN_PRESETS, Constant, Periodic, PowerMap, \
    power_density_field, total_power
from stackemu.solver import (ENERGY_BALANCE_LIMIT, ConvergenceError,
                             LayerStats, NumericalError, SolveOptions,
                             TemperatureField, assemble, energy_balance_error,
                             layer_summary, solve_cg, solve_steady,
                             step_transient)
from stackemu.scenario import TransientSpec, solve_transient
from stackemu.stack import (LayerRole, LayerSpec, StackConfig, TsvFarmSpec,
                            discretize, preset_stack, with_layer)

from conftest import (column_stack, correction_matrix, random_farm_stack,
                      random_power_map, random_stack)
from test_config import _workloads
from test_operator import assert_products_match

TIGHT = SolveOptions(tolerance=1e-13)


def dense_solve(system, source):
    """Independent oracle: dense direct solve of the assembled system."""
    b = system.rhs(source)
    return np.linalg.solve(system.G.toarray(), b).reshape(system.grid.shape)


def test_two_cell_stencil_conductance():
    cfg = column_stack(k=120.0, thickness_um=400.0)
    grid = discretize(cfg, 2, 2, 2)
    system = assemble(grid, cfg)
    # vertical face between slabs: k*A/dz with A one lateral cell
    a_cell = grid.dx_m * grid.dy_m
    dz = grid.dz_m[0]
    expected = 120.0 * a_cell / dz
    i = 0                       # voxel (0, 0, 0)
    j = grid.ny * grid.nx       # voxel (1, 0, 0)
    assert -system.G[i, j] == pytest.approx(expected, rel=1e-12)


def test_operator_symmetry():
    cfg = preset_stack(3)
    grid = discretize(cfg, 4, 3, 1)
    system = assemble(grid, cfg)
    diff = (system.G - system.G.T).tocoo()
    max_asym = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    assert max_asym == 0.0


def test_interior_row_sums_zero_before_boundary():
    cfg = preset_stack(2)
    grid = discretize(cfg, 4, 3, 1)
    system = assemble(grid, cfg)
    row_sums = np.asarray(system.G.sum(axis=1)).reshape(-1)
    np.testing.assert_allclose(row_sums, system.boundary_g,
                               rtol=1e-9, atol=1e-12)


def test_zero_source_gives_ambient():
    cfg = preset_stack(2)
    grid = discretize(cfg, 4, 3, 1)
    system = assemble(grid, cfg)
    field = solve_steady(system, np.zeros(grid.shape), TIGHT)
    np.testing.assert_allclose(field.values, cfg.ambient_c, atol=1e-8)


@pytest.mark.parametrize("n_sub", [1, 6])
def test_1d_column_matches_resistor_chain(n_sub):
    """Closed-form resistor-chain oracle: heat q injected at the bottom
    voxel of a uniform column splits between the top (conduction + h)
    and bottom (conduction + package resistance) paths. With one slab
    the same voxel carries both boundary paths."""
    k, h, p_res, thick = 80.0, 900.0, 2e-3, 600.0
    cfg = column_stack(k=k, h=h, package_resistance=p_res,
                       thickness_um=thick)
    grid = discretize(cfg, 2, 2, n_sub)
    system = assemble(grid, cfg)

    q_density = 5e8  # W/m^3 in the bottom slab, laterally uniform
    source = np.zeros(grid.shape)
    source[0] = q_density

    field = solve_steady(system, source, TIGHT)

    # per-column chain (laterally uniform, so no lateral flow)
    a = grid.dx_m * grid.dy_m
    dz = grid.dz_m[0]
    q = q_density * a * dz
    r_up = (n_sub - 1) * dz / (k * a) + dz / (2 * k * a) + 1 / (h * a)
    r_down = dz / (2 * k * a) + p_res / a
    t_bottom = cfg.ambient_c + q * r_up * r_down / (r_up + r_down)
    q_up = q * r_down / (r_up + r_down)

    expected = [t_bottom]
    for j in range(1, n_sub):
        expected.append(expected[-1] - q_up * dz / (k * a))
    for j in range(n_sub):
        got = field.values[j, 0, 0]
        assert got == pytest.approx(expected[j], rel=1e-9)


def test_steady_matches_dense_oracle_3x3x3():
    rng = np.random.default_rng(11)
    mats = [Material(f"m{i}", k=float(rng.uniform(1, 300)),
                     volumetric_heat_capacity=float(rng.uniform(1e6, 3e6)))
            for i in range(3)]
    layers = (LayerSpec(LayerRole.SP, 70.0, mats[0], has_tsvs=True),
              LayerSpec(LayerRole.SN1, 120.0, mats[1], has_tsvs=True),
              LayerSpec(LayerRole.S0, 300.0, mats[2]))
    cfg = StackConfig(1.5, 1.5, layers, ambient_c=30.0, heat_sink_h=2000.0)
    grid = discretize(cfg, 3, 3, 1)
    system = assemble(grid, cfg)
    source = rng.uniform(0, 1e8, size=grid.shape)
    field = solve_steady(system, source, TIGHT)
    oracle = dense_solve(system, source)
    assert np.max(np.abs(field.values - oracle)) < 1e-6


def test_nonconvergence_raises():
    # The layered preconditioner inverts a farm-free stack exactly, so a
    # Cu farm on SP keeps CG from converging in two iterations.
    cfg = preset_stack(2)
    farm = TsvFarmSpec(3.0, 1.5, 9.0, 4.5, 5.0, 10.0, COPPER)
    cfg = with_layer(cfg, cfg.device_layer_indices[0], tsv_farms=(farm,))
    grid = discretize(cfg, 4, 3, 1)
    system = assemble(grid, cfg)
    source = np.full(grid.shape, 1e7)
    with pytest.raises(ConvergenceError):
        solve_steady(system, source,
                     SolveOptions(tolerance=1e-13, max_iterations=2))


def test_transient_fixed_point_at_steady_state():
    cfg = preset_stack(2)
    grid = discretize(cfg, 3, 2, 1)
    system = assemble(grid, cfg)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(2.0))
    source = power_density_field(pmap, grid, 0.0)
    steady = solve_steady(system, source, TIGHT)
    stepped = step_transient(system, steady, source, dt=1e-3, options=TIGHT)
    assert np.max(np.abs(stepped.values - steady.values)) < 1e-7


@pytest.mark.parametrize("farm, limit", [(False, 1.25), (True, 1.5)])
def test_step_allocates_its_answer_and_no_field_temporary(farm, limit):
    """After the first step, which builds the step operator and its work
    buffers, a step allocates at most `limit` fields at once (tracemalloc
    sees numpy's buffers): its answer, and no field-sized temporary. A
    farm step also allocates its CG vectors on E's voxels S, about a
    dozen of |S| each, and plane-sized temporaries; the one Cu farm here
    keeps |S| at 2 % of n."""
    cfg = preset_stack(4)
    if farm:
        cfg = with_layer(cfg, 1, tsv_farms=(
            TsvFarmSpec(1.0, 1.0, 3.0, 3.0, 5.0, 10.0, COPPER),))
    grid = discretize(cfg, 128, 64, 1)
    system = assemble(grid, cfg)
    source = power_density_field(PowerMap.zeros(cfg).apply_preset(
        0, BUILTIN_PRESETS["cpu_core"]), grid, 0.0)
    field_t = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                               grid=grid, time=0.0)
    field_t = step_transient(system, field_t, source, 5e-3)
    assert (system.operator(5e-3).E is not None) == farm
    for _ in range(3):
        tracemalloc.start()
        try:
            field_t = step_transient(system, field_t, source, 5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * field_t.values.nbytes


def test_model_keeps_about_five_fields():
    """The grid, the assembled system, the source and the steady answer
    of the steady_tsv benchmark stack at 64x32 (n = 18,432, with farms)
    hold at most 4.4 field-sized arrays (4.17 measured): source, answer,
    E's slot layout (about 1.6 fields at this farm density) and the
    boundary conductance of the two end slabs, 2 of its 9 planes (4.95
    fields when the system kept it for every slab). The system keeps no
    steady operator, whose factorization the one steady solve of a run
    used (8.09 fields when it was kept), and no per-voxel copy of a
    per-slab value such as the conductivities, the heat capacity, C or
    the ambient inflow (10.08 fields when the grid kept per-voxel kx and
    kz, 13.08 when the model also kept the other three)."""
    scenario = scenario_from_document(_workloads()["steady_tsv"](7)[0])
    tracemalloc.start()
    try:
        grid = discretize(scenario.stack, 64, 32)
        system = assemble(grid, scenario.stack)
        source = power_density_field(scenario.power, grid, 0.0)
        steady = solve_steady(system, source, scenario.solve)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grid.n == 18_432 and system.operator().E is not None
    assert system.boundary_planes.shape == (2, 32, 64)
    assert held <= 4.4 * steady.values.nbytes


def _steady_tsv_64x32():
    """The steady_tsv seed-7 benchmark stack at 64x32 (n = 18,432; E's
    voxels S are 11 % of n): scenario, grid, system and source."""
    scenario = scenario_from_document(_workloads()["steady_tsv"](7)[0])
    grid = discretize(scenario.stack, 64, 32)
    system = assemble(grid, scenario.stack)
    return (scenario, grid, system,
            power_density_field(scenario.power, grid, 0.0))


def test_steady_solve_works_in_two_mode_buffers():
    """The steady solve of the steady_tsv stack at 64x32 peaks at most
    8.0 fields above its inputs (7.90 measured; tracemalloc): b, x, the
    operator's one factorization array, the two mode-shaped buffers
    every CG round works in, and the vectors on S, updated in place
    (10.37 when the operator also stored its LDL^T factors and each
    transform and iteration allocated fresh fields). No operator keeps
    a factor array, and a step operator's work holds only its rhs,
    residual, source and mode buffers and the stencil's faces."""
    scenario, grid, system, source = _steady_tsv_64x32()
    tracemalloc.start()
    try:
        steady = solve_steady(system, source, scenario.solve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steady.solve.rounds == 0 and steady.solve.sweeps > 2
    assert peak <= 8.0 * steady.values.nbytes
    assert not any(hasattr(system.operator(dt), "factor")
                   for dt in (None, 5e-3))
    assert set(system.operator(5e-3).work) == {
        "rhs", "residual", "source", "modes", "faces"}


def test_farm_step_updates_its_cg_vectors_in_place():
    """A farm step on the steady_tsv stack at 64x32, after the first and
    from far off the steady state, so that each runs a CG round of
    several iterations, allocates at most 2.25 fields at once (2.18
    measured; 2.50 when each update of a CG vector on S made a new
    array): its answer, the round's eight vectors on S, about 0.9 field,
    and the plane-sized blocks of the transforms at S."""
    scenario, grid, system, source = _steady_tsv_64x32()
    field_t = TemperatureField(values=np.full(grid.shape,
                                              scenario.stack.ambient_c),
                               grid=grid)
    field_t = step_transient(system, field_t, source, 5e-3, scenario.solve)
    for _ in range(3):
        tracemalloc.start()
        try:
            field_t = step_transient(system, field_t, source, 5e-3,
                                     scenario.solve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field_t.solve.rounds == 1 and field_t.solve.sweeps >= 4
        assert peak <= 2.25 * field_t.values.nbytes


def test_heat_capacity_is_stored_per_slab():
    """On a farm stack the grid keeps one heat capacity per slab, its
    layer's; C is the per-voxel product the grid used to store, bit for
    bit, and a step operator's cap is C/dt of each slab with C's bits."""
    cfg, grid = random_farm_stack(np.random.default_rng(24))
    per_slab = np.array([cfg.layers[i].material.volumetric_heat_capacity
                         for i in grid.slab_layer])
    assert grid.vhc.shape == (grid.nz,) and np.array_equal(grid.vhc, per_slab)
    per_voxel = np.empty(grid.shape)   # the array discretize used to fill
    per_voxel[:] = per_slab[:, None, None]
    system = assemble(grid, cfg)
    assert system.correction.index.size
    C = system.C
    assert np.array_equal(C, (per_voxel * grid.voxel_volume).reshape(-1))
    for dt in (5e-3, 5e-6):
        cap = system.operator(dt).cap.reshape(-1)
        assert np.array_equal(cap, C.reshape(grid.nz, -1)[:, 0] / dt)


def test_transient_decays_without_source():
    cfg = preset_stack(2)
    grid = discretize(cfg, 3, 2, 1)
    system = assemble(grid, cfg)
    hot = TemperatureField(values=np.full(grid.shape, 80.0), grid=grid,
                           time=0.0)
    stepped = step_transient(system, hot, np.zeros(grid.shape), dt=1e-4,
                             options=TIGHT)
    assert stepped.values.max() <= hot.values.max()
    assert stepped.values.min() >= cfg.ambient_c - 1e-9


def _small_transient_fixture():
    mat = Material("thick", k=5.0, volumetric_heat_capacity=2.0e6)
    layers = (LayerSpec(LayerRole.S0, 2000.0, mat),)
    cfg = StackConfig(1.0, 1.0, layers, ambient_c=25.0, heat_sink_h=300.0,
                      package_resistance=5e-2)
    grid = discretize(cfg, 2, 2, 3)
    system = assemble(grid, cfg)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(2.0))
    source = power_density_field(pmap, grid, 0.0)
    return cfg, grid, system, source, pmap


def exact_transient(system, source, t0_values, t):
    """Matrix-exponential oracle: T(t) = T_ss + expm(-C^-1 G t)(T0-T_ss)."""
    G = system.G.toarray()
    c_inv = 1.0 / system.C
    t_ss = np.linalg.solve(G, system.rhs(source))
    A = -c_inv[:, None] * G
    return t_ss + scipy.linalg.expm(A * t) @ (t0_values.reshape(-1) - t_ss)


def test_backward_euler_first_order_convergence():
    cfg, grid, system, source, _ = _small_transient_fixture()
    t_end = 2.0
    t0 = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                          grid=grid, time=0.0)
    exact = exact_transient(system, source, t0.values, t_end)

    errors = []
    for dt in (0.25, 0.125, 0.0625):
        field = t0
        steps = int(round(t_end / dt))
        for _ in range(steps):
            field = step_transient(system, field, source, dt, TIGHT)
        errors.append(np.max(np.abs(field.flat() - exact)))
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    assert 1.8 <= r1 <= 2.2
    assert 1.8 <= r2 <= 2.2


def test_long_horizon_matches_steady():
    cfg, grid, system, source, pmap = _small_transient_fixture()
    steady = solve_steady(system, source, SolveOptions(tolerance=1e-10))
    # time constant estimate: total capacity / total sink conductance;
    # run well past it (backward Euler's fixed point is the steady state)
    tau = system.C.sum() / system.boundary_g.sum()
    t0 = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                          grid=grid, time=0.0)
    final = solve_transient(system, t0, pmap,
                            TransientSpec(t_end=50 * tau, dt=tau / 2),
                            options=SolveOptions(tolerance=1e-12))[0][-1]
    scale = max(1.0, np.max(np.abs(steady.values - cfg.ambient_c)))
    assert np.max(np.abs(final.values - steady.values)) / scale < 1e-9 * 10


def test_periodic_source_oscillates_at_period():
    cfg, grid, system, _, _ = _small_transient_fixture()
    period = 1.0
    pmap = PowerMap.zeros(cfg).set_uniform(
        0, Periodic(0.0, 4.0, period=period, duty=0.5))
    t0 = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                          grid=grid, time=0.0)
    dt = period / 20
    fields, _, _ = solve_transient(system, t0, pmap,
                                   TransientSpec(t_end=6 * period, dt=dt),
                                   options=SolveOptions(tolerance=1e-10))
    trace = np.array([f.values.mean() for f in fields])
    # first differences kill the slow heating drift, keep the oscillation
    diff = np.diff(trace)
    diff = diff - diff.mean()
    lags = list(range(5, len(diff) // 2))
    ac = [float(np.dot(diff[:-lag], diff[lag:])) for lag in lags]
    best_lag = lags[int(np.argmax(ac))]
    assert abs(best_lag * dt - period) <= dt + 1e-12


@pytest.mark.parametrize("bad, error, message", [
    ("cropped", ValueError, "field shape does not match grid"),
    ("flat", ValueError, "field shape does not match grid"),
    (np.nan, NumericalError, "non-finite temperatures in field"),
    (-np.inf, NumericalError, "non-finite temperatures in field")])
def test_temperature_field_rejects_bad_values(bad, error, message):
    """A field of another shape, or with one non-finite voxel, is never
    built."""
    grid = discretize(preset_stack(2), 4, 3, 1)
    values = np.full(grid.shape, 25.0)
    if bad == "cropped":
        values = values[:, :, :-1]
    elif bad == "flat":
        values = values.reshape(-1)
    else:
        values[0, 1, 2] = bad
    with pytest.raises(error, match=message):
        TemperatureField(values=values, grid=grid)


def test_layer_summary_uniform_field():
    cfg = preset_stack(2)
    grid = discretize(cfg, 4, 3, 1)
    field = TemperatureField(values=np.full(grid.shape, 42.0), grid=grid)
    for stats in layer_summary(field):
        assert stats.mean == stats.max == stats.min == 42.0


def test_layer_summary_slice_matches_fancy_indexed_read():
    """The per-layer slice view gives the stats of the fancy-indexed copy,
    ties in the hotspot included (coarse values repeat)."""
    rng = np.random.default_rng(3)
    subs = set()
    for _ in range(12):
        cfg, grid = random_stack(rng)
        subs.add(len(grid.slab_layer) // len(cfg.layers))
        values = np.round(rng.uniform(25.0, 90.0, grid.shape), 0)
        field = TemperatureField(values=values, grid=grid)
        expected = []
        for layer_index in grid.config.device_layer_indices:
            slabs = grid.layer_slabs(layer_index)
            vals = values[slabs]
            local = np.unravel_index(int(np.argmax(vals)), vals.shape)
            expected.append(LayerStats(
                layer_index, cfg.layers[layer_index].role.value,
                float(vals.mean()), float(vals.max()), float(vals.min()),
                (int(slabs[local[0]]), int(local[1]), int(local[2]))))
        assert layer_summary(field) == expected
    assert subs == {1, 2}


def test_layer_summary_hotspot_inside_heated_tile():
    cfg = preset_stack(2)
    grid = discretize(cfg, 16, 8, 1)
    system = assemble(grid, cfg)
    pmap = PowerMap.zeros(cfg).set_tile_power(0, 2, 5, Constant(10.0))
    field = solve_steady(system, power_density_field(pmap, grid, 0.0),
                         SolveOptions(tolerance=1e-10))
    stats = layer_summary(field)[0]
    _, iy, ix = stats.hotspot
    x_mm = (ix + 0.5) * grid.dx_m * 1e3
    y_mm = (iy + 0.5) * grid.dy_m * 1e3
    # tile (2, 5): x in [7.5, 9.0), y in [3.0, 4.5)
    assert 7.5 <= x_mm <= 9.0
    assert 3.0 <= y_mm <= 4.5


def test_monotone_layer_ordering_4l():
    cfg = preset_stack(4)
    grid = discretize(cfg, 16, 8, 1)
    system = assemble(grid, cfg)
    pmap = PowerMap.zeros(cfg)
    for layer in range(4):
        pmap = pmap.set_uniform(layer, Constant(5.0))
    field = solve_steady(system, power_density_field(pmap, grid, 0.0),
                         SolveOptions(tolerance=1e-10))
    maxes = [s.max for s in layer_summary(field)]
    # bottom (SP) hottest, strictly decreasing toward the heat sink (S0)
    for a, b in zip(maxes, maxes[1:]):
        assert a > b + 1e-6


def test_energy_balance_random_stacks():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cfg, grid = random_stack(rng)
        system = assemble(grid, cfg)
        pmap = random_power_map(rng, cfg)
        injected = total_power(pmap, 0.0)
        if injected == 0.0:
            continue
        field = solve_steady(system, power_density_field(pmap, grid, 0.0),
                             SolveOptions(tolerance=1e-11))
        outflux = float(np.dot(system.boundary_g,
                               field.flat() - cfg.ambient_c))
        assert outflux == pytest.approx(injected, rel=1e-3)


@pytest.mark.parametrize("seed", range(6))
def test_energy_balance_check_flags_planted_imbalance(monkeypatch, seed):
    """Converged steady fields on farm and farm-free stacks balance to
    far below the limit; the same field with 1 mK added, or with one
    voxel 1 K off, does not, and solve_steady raises on it."""
    import stackemu.solver as solver
    rng = np.random.default_rng(seed)
    cfg, grid = (random_farm_stack if seed % 2 else random_stack)(rng)
    system = assemble(grid, cfg)
    source = power_density_field(random_power_map(rng, cfg), grid, 0.0)
    field = solve_steady(system, source)
    assert energy_balance_error(system, source, field.values) <= 1e-10
    top = grid.n - 1       # a voxel with a heat-sink boundary
    for plant in (np.full(grid.n, 1e-3), np.eye(1, grid.n, top)[0]):
        planted = field.flat() + plant
        assert energy_balance_error(system, source, planted) \
            > ENERGY_BALANCE_LIMIT
        monkeypatch.setattr(solver, "solve_cg",
                            lambda *args, **kw: (planted.copy(), 0))
        with pytest.raises(NumericalError, match="energy balance"):
            solve_steady(system, source)
        monkeypatch.setattr(solver, "solve_cg", solve_cg)


def test_energy_balance_without_power_uses_boundary_scale():
    """With no power the field is ambient to rounding: the gap is measured
    against the boundary terms, not divided by zero."""
    cfg = preset_stack(2)
    grid = discretize(cfg, 4, 3, 1)
    system = assemble(grid, cfg)
    source = np.zeros(grid.shape)
    field = solve_steady(system, source)
    assert energy_balance_error(system, source, field.values) <= 1e-12
    hot = field.values + 1e-3
    assert energy_balance_error(system, source, hot) > ENERGY_BALANCE_LIMIT


def test_maximum_principle():
    rng = np.random.default_rng(21)
    cfg, grid = random_stack(rng)
    system = assemble(grid, cfg)
    pmap = random_power_map(rng, cfg)
    field = solve_steady(system, power_density_field(pmap, grid, 0.0),
                         SolveOptions(tolerance=1e-10))
    assert field.values.min() >= cfg.ambient_c - 1e-6


def test_superposition_linearity():
    rng = np.random.default_rng(5)
    cfg = preset_stack(3)
    grid = discretize(cfg, 6, 4, 1)
    system = assemble(grid, cfg)
    m1 = random_power_map(rng, cfg)
    m2 = random_power_map(rng, cfg)
    s1 = power_density_field(m1, grid, 0.0)
    s2 = power_density_field(m2, grid, 0.0)
    t1 = solve_steady(system, s1, TIGHT).values - cfg.ambient_c
    t2 = solve_steady(system, s2, TIGHT).values - cfg.ambient_c
    t12 = solve_steady(system, s1 + s2, TIGHT).values - cfg.ambient_c
    np.testing.assert_allclose(t12, t1 + t2, rtol=1e-6, atol=1e-8)
    t_scaled = solve_steady(system, 3.0 * s1, TIGHT).values - cfg.ambient_c
    np.testing.assert_allclose(t_scaled, 3.0 * t1, rtol=1e-6, atol=1e-8)


def test_non_finite_inputs_rejected():
    cfg = preset_stack(2)
    grid = discretize(cfg, 4, 3, 1)
    system = assemble(grid, cfg)
    source = np.full(grid.shape, 1e7)
    source[0, 1, 2] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        solve_steady(system, source)
    t0 = TemperatureField(values=np.full(grid.shape, 25.0), grid=grid,
                          time=0.0)
    for dt in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="dt"):
            step_transient(system, t0, np.zeros(grid.shape), dt)


def test_non_finite_start_rejected():
    """A warm start from a guess holding inf fails its first residual
    check, on a farm-free stack and on one with farms."""
    cfg = preset_stack(2)
    for cfg, grid in ((cfg, discretize(cfg, 4, 3, 1)),
                      random_farm_stack(np.random.default_rng(11))):
        system = assemble(grid, cfg)
        b = system.rhs(np.full(grid.shape, 1e7))
        x = np.full(grid.n, 25.0)
        x[5] = np.inf
        with pytest.raises(NumericalError, match="^non-finite residual$"):
            solve_cg(system.operator(), b, SolveOptions(), x)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_farm_stacks_match_dense_oracle(seed):
    """Steady solve and one backward-Euler step on random stacks with Cu
    and W+SiO2-liner farms, where the preconditioner is approximate."""
    rng = np.random.default_rng(seed)
    cfg, grid = random_farm_stack(rng)
    assert any(grid.farm_lateral_mask(i).any()
               for i in cfg.device_layer_indices)
    system = assemble(grid, cfg)
    source = power_density_field(random_power_map(rng, cfg), grid, 0.0)
    options = SolveOptions(tolerance=1e-12)
    G = system.G.toarray()

    oracle = np.linalg.solve(G, system.rhs(source))
    scale = max(1.0, np.max(np.abs(oracle - cfg.ambient_c)))
    steady = solve_steady(system, source, options)
    assert np.max(np.abs(steady.flat() - oracle)) <= 1e-8 * scale

    dt = float(10 ** rng.uniform(-5, 0))
    t0 = TemperatureField(values=rng.uniform(25.0, 90.0, grid.shape),
                          grid=grid, time=0.0)
    cap = system.C / dt
    oracle = np.linalg.solve(G + np.diag(cap),
                             system.rhs(source) + cap * t0.flat())
    stepped = step_transient(system, t0, source, dt, options)
    assert np.max(np.abs(stepped.flat() - oracle)) \
        <= 1e-8 * np.max(np.abs(oracle))


@pytest.mark.parametrize("sub_slabs", [1, 2])
def test_farm_die_on_the_package_face(sub_slabs):
    """A farm die as the bottom layer, with no package slab: the package
    conductance of its farm voxels differs from the host slab's, so E holds
    boundary entries in slab 0. Those are its only rows that do not sum to
    zero. Products with A, a steady solve and one step match the oracle."""
    farms = (TsvFarmSpec(1.0, 1.0, 3.0, 3.0, 5.0, 10.0, COPPER),
             TsvFarmSpec(7.0, 2.0, 9.0, 4.0, 5.0, 10.0, TUNGSTEN, 0.5, SIO2))
    cfg = StackConfig(12.0, 6.0, (
        LayerSpec(LayerRole.SP, 50.0, SILICON, has_tsvs=True,
                  tsv_farms=farms),
        LayerSpec(LayerRole.BOND_INTERFACE, 20.0, BOND_UNDERFILL),
        LayerSpec(LayerRole.S0, 500.0, SILICON)))
    grid = discretize(cfg, 24, 12, sub_slabs)
    system = assemble(grid, cfg)
    index, E = system.correction.index, correction_matrix(system.correction)
    slab = index // (grid.ny * grid.nx)
    assert (slab == 0).any()
    row_sums = np.asarray(E.sum(axis=1)).reshape(-1)
    assert set(slab[np.abs(row_sums) > 1e-12]) == {0}

    rng = np.random.default_rng(sub_slabs)
    dt = 5e-3
    cap = system.C / dt
    assert_products_match(system.operator(), system.G, rng)
    assert_products_match(system.operator(dt), system.G + sp.diags(cap), rng)

    pmap = PowerMap.zeros(cfg).apply_preset(
        0, BUILTIN_PRESETS["cpu_core"]).set_uniform(1, Constant(10.0))
    source = power_density_field(pmap, grid, 0.0)
    options = SolveOptions(tolerance=1e-12)
    G = system.G.toarray()
    oracle = np.linalg.solve(G, system.rhs(source))
    steady = solve_steady(system, source, options)
    np.testing.assert_allclose(steady.flat(), oracle, rtol=1e-10)
    t0 = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                          grid=grid, time=0.0)
    oracle = np.linalg.solve(G + np.diag(cap),
                             system.rhs(source) + cap * t0.flat())
    stepped = step_transient(system, t0, source, dt, options)
    np.testing.assert_allclose(stepped.flat(), oracle, rtol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_preconditioner_inverts_farm_free_operator(seed):
    rng = np.random.default_rng(seed)
    cfg, grid = random_stack(rng, max_unknowns=400)
    system = assemble(grid, cfg)
    for dt in (None, float(10 ** rng.uniform(-5, 0))):
        op = system.operator(dt)
        assert op.E is None
        A = system.G if dt is None else system.G + sp.diags(system.C / dt)
        # A is symmetric: its rows are its columns.
        product = np.column_stack([op.inverse(op.solve_modes(op.forward(col)))
                                   for col in A.toarray()])
        np.testing.assert_allclose(product, np.eye(system.n),
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("call, fragment", [
    (lambda system: SolveOptions(0.0), "tolerance must be in (0, 1)"),
    (lambda system: SolveOptions(1.0), "tolerance must be in (0, 1)"),
    (lambda system: system.rhs(np.zeros(system.n - 1)),
     "source length does not match system size"),
    (lambda system: system.rhs(np.full(system.n, -1.0)),
     "volumetric sources must be >= 0"),
    (lambda system: assemble(system.grid, preset_stack(3)),
     "grid was not built from this config"),
], ids=["tolerance-0", "tolerance-1", "source-length", "negative-source",
        "config-mismatch"])
def test_solver_rules(call, fragment):
    system = assemble(discretize(preset_stack(2), 4, 4), preset_stack(2))
    with pytest.raises(ValueError) as exc:
        call(system)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("max_iterations", [0, -3, 2.5, 1.0, True])
def test_max_iterations_is_none_or_a_positive_integer(max_iterations):
    with pytest.raises(ValueError, match="max_iterations must be None or "
                       "an integer >= 1"):
        SolveOptions(max_iterations=max_iterations)


def test_system_keeps_only_the_last_step_operator():
    """A system keeps one step operator: the last dt's. Asking again for
    that dt returns the same operator."""
    cfg = preset_stack(2)
    grid = discretize(cfg, 8, 4)
    system = assemble(grid, cfg)
    source = power_density_field(
        PowerMap.zeros(cfg).set_uniform(0, Constant(10.0)), grid, 0.0)
    field = TemperatureField(np.full(grid.shape, cfg.ambient_c), grid)
    for dt in (1e-3, 2e-3, 5e-3):
        field = step_transient(system, field, source, dt)
        assert list(system._operators) == [dt]
    op = system.operator(5e-3)
    step_transient(system, field, source, 5e-3)
    assert list(system._operators) == [5e-3]
    assert system.operator(5e-3) is op


@pytest.mark.parametrize("time", [-1.0, -1e-300, float("nan"), float("inf")])
def test_field_time_is_finite_and_non_negative(time):
    grid = discretize(preset_stack(2), 4, 4)
    with pytest.raises(ValueError, match="time must be >= 0"):
        TemperatureField(np.full(grid.shape, 25.0), grid, time)


def test_steady_field_is_the_field_at_time_zero():
    cfg = preset_stack(2)
    grid = discretize(cfg, 4, 4)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(10.0))
    steady = solve_steady(assemble(grid, cfg),
                          power_density_field(pmap, grid, 0.0))
    assert steady.time == 0.0
    assert TemperatureField(steady.values, grid).time == 0.0
