import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackemu.config import scenario_from_document
from stackemu.power import power_density_field
from stackemu.reliability import (ReliabilityParams, cycling_damage,
                                  em_acceleration, extract_extrema,
                                  percentile, rainflow_cycles,
                                  reliability_report, stress_proxy)
from stackemu.solver import (LayerStats, TemperatureField, assemble,
                             layer_summary, solve_steady)
from stackemu.stack import TsvFarmSpec, discretize, preset_stack, with_layer
from stackemu.materials import COPPER

from conftest import random_farm_stack, random_stack
from test_config import _workloads


def rainflow_oracle(extrema):
    """Independent O(n^2) rainflow: repeatedly rescan from the left for
    the first inner range enclosed by the next one, close it as a full
    cycle, restart; leftover adjacent pairs are half cycles."""
    seq = list(extrema)
    cycles = []
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 2):
            y = abs(seq[i + 1] - seq[i])
            x = abs(seq[i + 2] - seq[i + 1])
            if x >= y:
                cycles.append((y, 1.0))
                del seq[i:i + 2]
                changed = True
                break
    for a, b in zip(seq, seq[1:]):
        if a != b:
            cycles.append((abs(b - a), 0.5))
    return cycles


def damage_of(cycles, params=ReliabilityParams()):
    return sum(c * (r / params.delta_t_ref) ** params.cycling_exponent
               for r, c in cycles)


def test_af_is_one_at_reference():
    assert em_acceleration(105.0) == pytest.approx(1.0, rel=1e-12)


def test_af_frozen_value_125c():
    """exp((0.7 eV / kB) * (1/378.15 - 1/398.15)), evaluated
    independently."""
    assert em_acceleration(125.0) == pytest.approx(2.9419035558725977,
                                                   rel=1e-9)


def test_af_monotone_in_temperature():
    temps = [25.0, 60.0, 85.0, 105.0, 125.0, 150.0]
    afs = [em_acceleration(t) for t in temps]
    assert all(a < b for a, b in zip(afs, afs[1:]))


def test_af_monotone_in_activation_energy():
    hot = 125.0
    prev = 0.0
    for ea in (0.3, 0.5, 0.7, 0.9):
        af = em_acceleration(hot, ReliabilityParams(ea_ev=ea))
        assert af > prev
        prev = af


def test_af_rejects_nonphysical_temperature():
    with pytest.raises(ValueError, match="nonphysical"):
        em_acceleration(-300.0)


def test_extrema_alternate_and_keep_endpoints():
    trace = [20, 30, 40, 35, 35, 35, 50, 10, 10, 15]
    assert extract_extrema(trace) == [20, 40, 35, 50, 10, 15]


def test_extrema_flat_trace_collapses():
    assert extract_extrema([40.0, 40.0, 40.0]) == [40.0]
    assert cycling_damage([40.0, 40.0, 40.0]) == 0.0


def test_single_full_range_cycle_scores_one():
    # one closed 100 K cycle at dT_ref = 100: two half cycles of range 100
    assert cycling_damage([25.0, 125.0, 25.0]) == pytest.approx(1.0)


def test_n_square_cycles_score_n():
    trace = [25.0]
    for _ in range(7):
        trace += [125.0, 25.0]
    assert cycling_damage(trace) == pytest.approx(7.0)


def test_damage_quadratic_in_range():
    # half the swing, exponent 2 -> quarter the damage
    full = cycling_damage([25.0, 125.0, 25.0])
    half = cycling_damage([25.0, 75.0, 25.0])
    assert half == pytest.approx(full / 4.0)


def test_damage_additive_at_cycle_boundary():
    a = [25.0, 80.0, 25.0]
    b = [25.0, 110.0, 25.0]
    joined = a + b[1:]
    assert cycling_damage(joined) == pytest.approx(
        cycling_damage(a) + cycling_damage(b), rel=1e-12)


def test_nested_cycle_extracted():
    # the small inner reversal closes first; the outer swing then closes
    # as a full cycle because the enclosing range matches it exactly
    extrema = [0.0, 100.0, 60.0, 90.0, 0.0]
    cycles = sorted(rainflow_cycles(extrema))
    assert cycles == [(30.0, 1.0), (100.0, 1.0)]


def test_rainflow_matches_oracle_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        trace = rng.uniform(20.0, 130.0, n)
        extrema = extract_extrema(trace)
        got = rainflow_cycles(extrema)
        want = rainflow_oracle(extrema)
        assert sorted(got) == pytest.approx(sorted(want))
        assert damage_of(got) == pytest.approx(damage_of(want), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(trace=st.lists(st.floats(0.0, 200.0), min_size=2, max_size=25))
def test_rainflow_oracle_property(trace):
    extrema = extract_extrema(trace)
    got = sorted(rainflow_cycles(extrema))
    want = sorted(rainflow_oracle(extrema))
    assert got == pytest.approx(want)
    # total half-cycle weight is bounded by the number of reversals
    assert sum(2 * c for _, c in got) <= max(len(extrema) - 1, 0) + 1e-9


def test_short_trace_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        cycling_damage([40.0])


@pytest.fixture
def farm_grid():
    cfg = preset_stack(2)
    farm = TsvFarmSpec(3.0, 1.5, 6.0, 4.5, 5.0, 10.0, COPPER)
    cfg = with_layer(cfg, 1, tsv_farms=(farm,))
    return cfg, discretize(cfg, 16, 8, 1)


def test_stress_uniform_field_no_hotspots(farm_grid):
    cfg, grid = farm_grid
    field = TemperatureField(values=np.full(grid.shape, 60.0), grid=grid)
    voxels, scores = stress_proxy(field)
    assert voxels.shape == (0, 3) and scores.shape == (0,)


def test_stress_farm_voxels_outrank_equal_gradient_far_away(farm_grid):
    """Two identical lateral bumps, one over the farm and one far away:
    the mismatch weighting puts the farm-side voxel on top."""
    cfg, grid = farm_grid
    x = grid.x_centers_m()[None, :] * 1e3
    y = grid.y_centers_m()[:, None] * 1e3
    bump_on_farm = 10.0 * np.exp(-((x - 4.5) ** 2 + (y - 3.0) ** 2) / 2.0)
    bump_far = 10.0 * np.exp(-((x - 10.0) ** 2 + (y - 3.0) ** 2) / 2.0)
    # same lateral pattern on every slab, so vertical gradients vanish
    values = np.broadcast_to(40.0 + bump_on_farm + bump_far,
                             grid.shape).copy()
    field = TemperatureField(values=values, grid=grid)
    voxels, _ = stress_proxy(field, ReliabilityParams(stress_percentile=90))
    assert len(voxels), "expected hotspots above the percentile"
    mask = grid.farm_lateral_mask(1)
    top_iz, top_iy, top_ix = voxels[0]
    assert top_iz in grid.layer_slabs(1)
    near = mask.copy()
    near[1:, :] |= mask[:-1, :]
    near[:-1, :] |= mask[1:, :]
    near[:, 1:] |= mask[:, :-1]
    near[:, :-1] |= mask[:, 1:]
    assert near[top_iy, top_ix]


def test_stress_scores_linear_in_field(farm_grid):
    cfg, grid = farm_grid
    rng = np.random.default_rng(5)
    bump = rng.uniform(0, 10, grid.shape)
    params = ReliabilityParams(stress_percentile=95)
    f1 = TemperatureField(values=40.0 + bump, grid=grid)
    f2 = TemperatureField(values=40.0 + 2 * bump, grid=grid)
    v1, s1 = stress_proxy(f1, params)
    v2, s2 = stress_proxy(f2, params)
    assert np.array_equal(v1, v2)
    for a, b in zip(s1, s2):
        assert b == pytest.approx(2 * a, rel=1e-12)


def test_stress_invariant_to_constant_shift(farm_grid):
    cfg, grid = farm_grid
    rng = np.random.default_rng(6)
    bump = rng.uniform(0, 10, grid.shape)
    params = ReliabilityParams(stress_percentile=95)
    v1, s1 = stress_proxy(TemperatureField(values=40.0 + bump, grid=grid),
                          params)
    v2, s2 = stress_proxy(TemperatureField(values=65.0 + bump, grid=grid),
                          params)
    assert np.array_equal(v1, v2)
    np.testing.assert_allclose(s1, s2, rtol=1e-9)


def reference_stress_proxy(field_t, grid, config,
                           params=ReliabilityParams()):
    """stress_proxy with its former tail: a Python sort keyed on
    (-score, linear index) and one unravel_index per hotspot, gathered
    into the same two arrays."""
    z_mm = grid.z_centers_m() * 1e3
    y_mm = grid.y_centers_m() * 1e3
    x_mm = grid.x_centers_m() * 1e3
    if grid.nz > 1:
        gz = np.gradient(field_t.values, z_mm, axis=0)
    else:
        gz = np.zeros(grid.shape)
    gy = np.gradient(field_t.values, y_mm, axis=1)
    gx = np.gradient(field_t.values, x_mm, axis=2)
    score = np.sqrt(gx**2 + gy**2 + gz**2)
    weight = np.ones(grid.shape)
    for i, layer in enumerate(config.layers):
        if not layer.tsv_farms:
            continue
        mask = grid.farm_lateral_mask(i)
        ring = mask.copy()
        ring[1:, :] |= mask[:-1, :]
        ring[:-1, :] |= mask[1:, :]
        ring[:, 1:] |= mask[:, :-1]
        ring[:, :-1] |= mask[:, 1:]
        for iz in grid.layer_slabs(i):
            weight[iz][ring] = params.stress_cte_weight
    score = score * weight
    flat = score.reshape(-1)
    threshold = np.percentile(flat, params.stress_percentile)
    above = np.nonzero((flat > threshold) & (flat > 1e-9))[0]
    order = sorted(above, key=lambda i: (-flat[i], i))
    voxels = np.array([np.unravel_index(i, grid.shape) for i in order],
                      dtype=np.intp).reshape(-1, 3)
    return voxels, np.array([flat[i] for i in order], dtype=np.float64)


def assert_same_hotspots(got, want):
    (got_v, got_s), (want_v, want_s) = got, want
    k = len(want_s)
    assert got_v.dtype == np.intp and got_v.shape == (k, 3)
    assert got_s.dtype == np.float64 and got_s.shape == (k,)
    assert np.array_equal(got_v, want_v)
    assert np.array_equal(got_s, want_s)


@pytest.mark.parametrize("seed", range(8))
def test_stress_order_matches_reference_on_random_fields(seed):
    rng = np.random.default_rng(200 + seed)
    for cfg, grid in (random_stack(rng), random_farm_stack(rng)):
        field = TemperatureField(
            values=40.0 + rng.uniform(0, 30, grid.shape), grid=grid)
        for pct in (50.0, 99.0):
            params = ReliabilityParams(stress_percentile=pct)
            got = stress_proxy(field, params)
            assert len(got[1])
            assert_same_hotspots(
                got, reference_stress_proxy(field, grid, cfg, params))


@pytest.mark.parametrize("seed", range(8))
def test_stress_ties_keep_linear_index_order(seed):
    """Integer temperature steps on a uniform lateral pitch give many
    exactly equal scores; ties must come out in linear-index order."""
    rng = np.random.default_rng(300 + seed)
    cfg, grid = random_farm_stack(rng)
    field = TemperatureField(
        values=40.0 + rng.integers(0, 3, grid.shape).astype(float),
        grid=grid)
    params = ReliabilityParams(stress_percentile=20.0)
    got = stress_proxy(field, params)
    scores = got[1]
    assert len(set(scores.tolist())) < len(scores), "expected tied scores"
    assert_same_hotspots(
        got, reference_stress_proxy(field, grid, cfg, params))


def test_percentile_is_numpys_bit_for_bit():
    """20,000 cases of sizes 1..60, shapes flat and 3-D: normal values,
    heavy ties, all-equal values and a mixed-sign spread, at q = 0 and
    100, a whole q (an int, as YAML gives it) and a random q; the input
    is left as it was."""
    rng = np.random.default_rng(0)
    cases = 0
    for trial in range(5000):
        n = int(rng.integers(1, 61))
        values = (rng.standard_normal(n),
                  rng.integers(0, 3, n).astype(float),
                  np.full(n, rng.uniform(-5, 5)),
                  rng.uniform(-1e3, 1e3, n) * rng.integers(0, 2, n))[trial % 4]
        if trial % 3 == 0 and n % 2 == 0:
            values = values.reshape(2, 1, -1)
        before = values.copy()
        for q in (0.0, 100.0, int(rng.integers(0, 101)),
                  float(rng.uniform(0, 100))):
            want = np.float64(np.percentile(values, q)).tobytes()
            assert np.float64(percentile(values, q)).tobytes() == want
            cases += 1
        np.testing.assert_array_equal(values, before)
    assert cases == 20000


def test_report_min_mttf_is_hottest_layer(farm_grid):
    cfg, grid = farm_grid
    stats = [
        LayerStats(layer_index=1, role="sp", mean=80.0, max=95.0, min=70.0,
                   hotspot=(0, 0, 0)),
        LayerStats(layer_index=3, role="s0", mean=60.0, max=72.0, min=55.0,
                   hotspot=(0, 0, 0)),
    ]
    field = TemperatureField(values=np.full(grid.shape, 60.0), grid=grid)
    report = reliability_report(stats, {}, field)
    assert report.min_mttf_layer == 1
    by_index = {l.layer_index: l for l in report.layers}
    assert by_index[1].em_af > by_index[3].em_af
    assert by_index[1].em_af == pytest.approx(em_acceleration(95.0))
    # no trace supplied -> flat trace -> zero cycling damage
    assert by_index[1].cycling_damage == 0.0


def test_report_uses_traces_for_damage(farm_grid):
    cfg, grid = farm_grid
    stats = [LayerStats(layer_index=1, role="sp", mean=80.0, max=125.0,
                        min=25.0, hotspot=(0, 0, 0))]
    field = TemperatureField(values=np.full(grid.shape, 60.0), grid=grid)
    report = reliability_report(stats, {1: [25.0, 125.0, 25.0]}, field)
    assert report.layers[0].cycling_damage == pytest.approx(1.0)


def test_report_af_tie_goes_to_lowest_layer(farm_grid):
    cfg, grid = farm_grid
    stats = [
        LayerStats(layer_index=1, role="sp", mean=80.0, max=90.0, min=70.0,
                   hotspot=(0, 0, 0)),
        LayerStats(layer_index=3, role="s0", mean=80.0, max=90.0, min=70.0,
                   hotspot=(0, 0, 0)),
    ]
    field = TemperatureField(values=np.full(grid.shape, 60.0), grid=grid)
    report = reliability_report(stats, {}, field)
    assert report.min_mttf_layer == 1


def test_params_validation():
    with pytest.raises(ValueError):
        ReliabilityParams(ea_ev=0.0)
    with pytest.raises(ValueError):
        ReliabilityParams(cycling_exponent=-1.0)
    with pytest.raises(ValueError):
        ReliabilityParams(delta_t_ref=0.0)
    with pytest.raises(ValueError):
        ReliabilityParams(stress_percentile=101.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(ea_ev=NAN), "ea_ev must be a finite number"),
    (dict(reference_t_c=NAN), "reference_t_c must be a finite number"),
    (dict(reference_t_c=INF), "reference_t_c must be a finite number"),
    (dict(cycling_exponent=NAN), "cycling_exponent must be a finite number"),
    (dict(delta_t_ref=INF), "delta_t_ref must be a finite number"),
    (dict(stress_cte_weight=NAN), "stress_cte_weight must be a finite number"),
    (dict(reference_t_c=-300.0), "reference_t_c must be above -273.15"),
    (dict(reference_t_c=-273.15), "reference_t_c must be above -273.15"),
    (dict(stress_cte_weight=0.0), "stress_cte_weight must be positive"),
    (dict(stress_cte_weight=-1.0), "stress_cte_weight must be positive"),
], ids=["ea-nan", "reference-nan", "reference-inf", "exponent-nan",
        "delta-inf", "weight-nan", "reference-300", "reference-zero-k",
        "weight-0", "weight-negative"])
def test_params_reject_non_finite_and_out_of_range(kwargs, fragment):
    """Every field is finite, the reference temperature is above absolute
    zero and the stress weight is positive, checked when the parameters
    are built rather than in the report they would otherwise reach."""
    with pytest.raises(ValueError, match=fragment):
        ReliabilityParams(**kwargs)


def test_report_keeps_its_hotspots_as_two_arrays():
    """On the steady_tsv benchmark stack at 64x32 (n = 18,432, with
    farms), a report at percentile 0 keeps every scored voxel, nearly all
    n of them, as a (k, 3) intp array and a (k,) float64 array: at most 5
    field-sized arrays held after it returns (4.0 measured) and 12 at its
    peak (10.1 measured). One record per hotspot held 23.0 and peaked at
    31.1."""
    scenario = scenario_from_document(_workloads()["steady_tsv"](7)[0])
    grid = discretize(scenario.stack, 64, 32)
    steady = solve_steady(assemble(grid, scenario.stack),
                          power_density_field(scenario.power, grid, 0.0),
                          scenario.solve)
    stats = layer_summary(steady)
    params = ReliabilityParams(stress_percentile=0.0)
    tracemalloc.start()
    try:
        report = reliability_report(stats, {}, steady, params)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    k = len(report.stress_scores)
    assert grid.n == 18_432 and k > 0.9 * grid.n
    assert report.stress_voxels.shape == (k, 3)
    assert held <= 5 * steady.values.nbytes
    assert peak <= 12 * steady.values.nbytes
