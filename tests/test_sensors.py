import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackemu.sensors import (SensorNetwork, SensorSpec, UNOBSERVED,
                              hotspot_error, place_sensors_greedy,
                              placement_objective, quantize, read_sensors,
                              tile_center_candidates)
from stackemu.solver import TemperatureField
from stackemu.stack import discretize, preset_stack


@pytest.fixture
def grid():
    return discretize(preset_stack(2), 16, 8, 1)


def gaussian_field(grid, layer_ordinal, cx_mm, cy_mm, peak, sigma_mm=1.0,
                   base=25.0):
    """Synthetic field: Gaussian bump on one device layer, flat elsewhere."""
    values = np.full(grid.shape, base)
    x = grid.x_centers_m() * 1e3
    y = grid.y_centers_m() * 1e3
    bump = peak * np.exp(-((x[None, :] - cx_mm) ** 2
                           + (y[:, None] - cy_mm) ** 2) / (2 * sigma_mm**2))
    layer_index = grid.config.device_layer_indices[layer_ordinal]
    for iz in grid.layer_slabs(layer_index):
        values[iz] += bump
    return TemperatureField(values=values, grid=grid)


def test_quantize_rounding():
    assert quantize(30.12, 0.25) == pytest.approx(30.00)
    assert quantize(30.13, 0.25) == pytest.approx(30.25)
    assert quantize(30.125, 0.25) == pytest.approx(30.25)   # tie away from 0
    assert quantize(-30.125, 0.25) == pytest.approx(-30.25)
    assert quantize(7.3, 0.0) == 7.3


def test_noiseless_reading_is_voxel_temperature(grid):
    field = gaussian_field(grid, 0, 6.0, 3.0, 20.0)
    sensor = SensorSpec(layer=0, x_mm=6.0, y_mm=3.0, noise_sigma=0.0,
                        quantization_step=0.0)
    net = SensorNetwork(sensors=(sensor,))
    [reading] = read_sensors(net, field)
    iz = grid.layer_slabs(grid.config.device_layer_indices[0])[0]
    ix = min(int(6.0e-3 / grid.dx_m), grid.nx - 1)
    iy = min(int(3.0e-3 / grid.dy_m), grid.ny - 1)
    assert reading == field.values[iz, iy, ix]


def test_quantization_applied(grid):
    field = gaussian_field(grid, 0, 0.0, 0.0, 0.0, base=30.12)
    sensor = SensorSpec(layer=0, x_mm=1.0, y_mm=1.0, noise_sigma=0.0,
                        quantization_step=0.25)
    net = SensorNetwork(sensors=(sensor,))
    assert read_sensors(net, field) == [30.00]


def test_readings_deterministic_per_seed_and_sample(grid):
    field = gaussian_field(grid, 0, 6.0, 3.0, 20.0)
    sensor = SensorSpec(layer=0, x_mm=6.0, y_mm=3.0, noise_sigma=1.0,
                        quantization_step=0.0, sample_period=1e-3)
    net = SensorNetwork(sensors=(sensor,))
    r1 = read_sensors(net, replace(field, time=0.0015), 99)
    r2 = read_sensors(net, replace(field, time=0.0015), 99)
    assert r1 == r2
    # different sample index -> (almost surely) different noise draw
    r3 = read_sensors(net, replace(field, time=0.0025), 99)
    assert r1 != r3
    # different seed -> different reading
    assert read_sensors(net, replace(field, time=0.0015), 100) != r1


def test_duplicate_sites_rejected():
    s = SensorSpec(layer=0, x_mm=1.0, y_mm=1.0)
    with pytest.raises(ValueError, match="same site"):
        SensorNetwork(sensors=(s, s))


def test_out_of_die_site_rejected(grid):
    field = gaussian_field(grid, 0, 6.0, 3.0, 20.0)
    net = SensorNetwork(sensors=(SensorSpec(layer=0, x_mm=50.0, y_mm=1.0),))
    with pytest.raises(ValueError, match="outside"):
        read_sensors(net, field)


def test_reconstruct_underestimates_true_max(grid):
    field = gaussian_field(grid, 0, 6.0, 3.0, 20.0)
    for d in (0.0, 1.0, 2.0, 3.0):
        err = hotspot_error([(0, 6.0 + d, 3.0)], [field])
        assert err[0] >= -1e-12
    # error grows with sensor offset from the hotspot
    errs = [hotspot_error([(0, 6.0 + d, 3.0)], [field])[0]
            for d in (0.0, 1.5, 3.0)]
    assert errs[0] < errs[1] < errs[2]


def test_hotspot_error_empty_placement_is_unobserved(grid):
    field = gaussian_field(grid, 0, 6.0, 3.0, 20.0)
    assert hotspot_error([], [field]) == (UNOBSERVED, UNOBSERVED)


def test_hotspot_error_uniform_field_zero(grid):
    flat = TemperatureField(values=np.full(grid.shape, 40.0), grid=grid)
    mean_e, max_e = hotspot_error([(0, 1.0, 1.0)], [flat])
    assert mean_e == 0.0 and max_e == 0.0


def test_greedy_k1_picks_candidate_nearest_hotspot(grid):
    field = gaussian_field(grid, 0, 4.5, 2.2, 25.0)
    candidates = [(0, x, 2.2) for x in (0.5, 2.0, 4.4, 7.0, 10.0)]
    chosen = place_sensors_greedy(candidates, 1, [field])
    assert chosen == [(0, 4.4, 2.2)]


def test_greedy_full_candidate_set_is_floor(grid):
    fields = [gaussian_field(grid, 0, 4.0, 2.0, 25.0),
              gaussian_field(grid, 0, 9.0, 4.0, 15.0)]
    candidates = [(0, x, y) for x in (2.0, 4.0, 9.0) for y in (2.0, 4.0)]
    all_obj = placement_objective(candidates, fields)
    for k in (1, 2, 3):
        chosen = place_sensors_greedy(candidates, k, fields)
        assert placement_objective(chosen, fields) >= all_obj - 1e-12
    full = place_sensors_greedy(candidates, len(candidates), fields)
    assert placement_objective(full, fields) == pytest.approx(all_obj)


def test_greedy_objective_monotone_in_k(grid):
    rng = np.random.default_rng(4)
    fields = [gaussian_field(grid, 0, rng.uniform(1, 11), rng.uniform(1, 5),
                             rng.uniform(5, 30)) for _ in range(4)]
    candidates = tile_center_candidates(grid.config)[:16]
    prev = np.inf
    for k in range(1, 7):
        chosen = place_sensors_greedy(candidates, k, fields)
        obj = placement_objective(chosen, fields)
        assert obj <= prev + 1e-12
        prev = obj


def test_greedy_within_20pct_of_exhaustive(grid):
    """Brute-force oracle over all C(12, 3) subsets."""
    rng = np.random.default_rng(8)
    fields = [gaussian_field(grid, 0, rng.uniform(1, 11), rng.uniform(1, 5),
                             rng.uniform(5, 30), sigma_mm=rng.uniform(0.5, 2))
              for _ in range(5)]
    candidates = [(0, x, y) for x in (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)
                  for y in (1.5, 4.5)]
    assert len(candidates) == 12
    for k in (1, 2, 3):
        greedy = place_sensors_greedy(candidates, k, fields)
        greedy_obj = placement_objective(greedy, fields)
        best = min(placement_objective(list(sub), fields)
                   for sub in itertools.combinations(candidates, k))
        assert greedy_obj <= 1.2 * best + 1e-12


def test_greedy_deterministic(grid):
    fields = [gaussian_field(grid, 0, 5.0, 3.0, 20.0)]
    candidates = tile_center_candidates(grid.config)
    a = place_sensors_greedy(candidates, 4, fields)
    b = place_sensors_greedy(candidates, 4, fields)
    assert a == b


def test_greedy_input_validation(grid):
    field = gaussian_field(grid, 0, 5.0, 3.0, 20.0)
    with pytest.raises(ValueError):
        place_sensors_greedy([(0, 1.0, 1.0)], 0, [field])
    with pytest.raises(ValueError):
        place_sensors_greedy([(0, 1.0, 1.0)], 1, [])
    with pytest.raises(ValueError):
        place_sensors_greedy([(0, 1.0, 1.0)], 2, [field])


@settings(max_examples=25, deadline=None)
@given(value=st.floats(-1e4, 1e4), step=st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_quantize_nearest_multiple(value, step):
    q = quantize(value, step)
    assert abs(q - value) <= step / 2 + 1e-9
    assert abs(q / step - round(q / step)) < 1e-6


def reference_greedy(candidates, k, training_fields):
    """The former per-candidate loop: one np.mean per candidate and round."""
    from stackemu.sensors import _true_values
    candidates = [tuple(c) for c in candidates]
    true_max = np.array([f.values.max() for f in training_fields])
    vals = _true_values(candidates, training_fields)
    chosen = []
    est = np.full(len(training_fields), -np.inf)
    remaining = list(range(len(candidates)))
    for _ in range(k):
        best_idx, best_obj = None, np.inf
        for c in remaining:
            obj = float(np.mean(np.abs(true_max - np.maximum(est, vals[c]))))
            if obj < best_obj - 1e-15:
                best_idx, best_obj = c, obj
        chosen.append(best_idx)
        est = np.maximum(est, vals[best_idx])
        remaining.remove(best_idx)
    return [candidates[i] for i in chosen]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_fields", [1, 3, 9, 130])
def test_greedy_matches_reference_loop(seed, n_fields):
    rng = np.random.default_rng(seed)
    grid = discretize(preset_stack(int(rng.integers(2, 5))),
                      int(rng.integers(4, 20)), int(rng.integers(2, 10)), 1)
    fields = [TemperatureField(values=rng.uniform(25.0, 90.0, grid.shape),
                               grid=grid) for _ in range(n_fields)]
    candidates = tile_center_candidates(grid.config)
    k = int(rng.integers(1, len(candidates) + 1))
    assert place_sensors_greedy(candidates, k, fields) == \
        reference_greedy(candidates, k, fields)


@pytest.mark.parametrize("seed", range(8))
def test_greedy_matches_reference_loop_on_ties(seed):
    """Integer-step fields over few distinct levels: many candidates score
    exactly the same, so every round exercises the lowest-index rule."""
    rng = np.random.default_rng(seed)
    grid = discretize(preset_stack(3), 16, 8, 1)
    fields = [TemperatureField(
        values=25.0 + rng.integers(0, 3, grid.shape).astype(float),
        grid=grid) for _ in range(int(rng.integers(1, 6)))]
    candidates = tile_center_candidates(grid.config)
    for k in (1, 5, len(candidates)):
        assert place_sensors_greedy(candidates, k, fields) == \
            reference_greedy(candidates, k, fields)


def test_site_voxel_cached_per_grid(grid):
    from stackemu.sensors import _locate, _site_voxel
    site = (1, 6.0, 3.0)
    first = _site_voxel(site, grid)
    assert first == _locate(site, grid)
    assert _site_voxel(list(site), grid) is first
    other = discretize(preset_stack(2), 8, 4, 1)
    assert _site_voxel(site, other) == _locate(site, other) != first
    with pytest.raises(ValueError, match="outside"):
        _site_voxel((0, 13.0, 1.0), grid)


@pytest.mark.parametrize("field_name", ["x_mm", "y_mm", "noise_sigma",
                                        "quantization_step",
                                        "sample_period"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_sensor_spec_rejects_non_finite(field_name, value):
    with pytest.raises(ValueError, match="finite"):
        SensorSpec(layer=0, **{"x_mm": 1.0, "y_mm": 1.0, field_name: value})


def test_greedy_keeps_earlier_candidate_within_tolerance(grid):
    """A later candidate better by less than 1e-15 does not displace an
    earlier one: the rule is a scan, not an argmin."""
    from stackemu.sensors import _site_voxel
    candidates = tile_center_candidates(grid.config)[:3]
    values = np.full(grid.shape, 1.0)
    values[0, 0, 0] = 3.0                               # the true maximum
    for site, v in zip(candidates, (2.0, np.nextafter(2.0, 3.0), 1.5)):
        values[_site_voxel(site, grid)] = v
    fields = [TemperatureField(values=values, grid=grid)]
    chosen = place_sensors_greedy(candidates, 2, fields)
    assert chosen == reference_greedy(candidates, 2, fields)
    assert chosen[0] == candidates[0]


@pytest.mark.parametrize("call, fragment", [
    (lambda grid: read_sensors(
        SensorNetwork((SensorSpec(0, 6.0, 3.0),)),
        TemperatureField(np.full(grid.shape, 25.0), grid, time=-1.0)),
     "time must be >= 0"),
    (lambda grid: placement_objective([], [gaussian_field(grid, 0, 6.0, 3.0,
                                                          10.0)]),
     "placement is empty"),
    (lambda grid: hotspot_error([(0, 6.0, 3.0)], []),
     "need at least one evaluation field"),
], ids=["negative-time", "empty-placement", "no-fields"])
def test_sensor_rules(grid, call, fragment):
    with pytest.raises(ValueError) as exc:
        call(grid)
    assert fragment in str(exc.value)
