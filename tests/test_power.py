import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackemu.power import (BUILTIN_PRESETS, Constant, CoreProxyPreset,
                            Periodic, PowerMap, Step, Trace, _overlap_weights,
                            load_trace_csv, power_density_field, total_power)
from stackemu.stack import discretize, preset_stack

from conftest import random_power_map


@pytest.fixture
def cfg():
    return preset_stack(2)


def test_set_tile_round_trip(cfg):
    pmap = PowerMap.zeros(cfg)
    profile = Step(1.0, 2.0, 0.5)
    pmap2 = pmap.set_tile_power(0, 1, 2, profile)
    assert pmap2.profile(0, 1, 2) == profile
    # original untouched
    assert pmap.profile(0, 1, 2) == Constant(0.0)


def test_equal_map_gets_the_cached_field(cfg):
    """The grid's last source field is keyed by the densities alone: an
    equal map that is another object gets the very same array back."""
    grid = discretize(cfg, 8, 4)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(9.0))
    field = power_density_field(pmap, grid, 0.0)
    twin = PowerMap(pmap.config, pmap.profiles)
    assert twin == pmap and twin is not pmap
    assert power_density_field(twin, grid, 0.0) is field
    half = pmap.set_uniform(0, Constant(4.5))
    assert np.array_equal(power_density_field(half, grid, 0.0), field / 2)


def test_set_tile_locality(cfg):
    pmap = PowerMap.zeros(cfg).set_uniform(1, Constant(1.0))
    before = total_power(pmap, 0.0)
    pmap2 = pmap.set_tile_power(0, 0, 0, Constant(7.0))
    tile_area_cm2 = (1.2 / 8) * (0.6 / 4)
    assert total_power(pmap2, 0.0) == pytest.approx(
        before + 7.0 * tile_area_cm2)


def test_set_tile_last_write_wins(cfg):
    pmap = PowerMap.zeros(cfg) \
        .set_tile_power(0, 0, 0, Constant(1.0)) \
        .set_tile_power(0, 0, 0, Constant(2.0))
    assert pmap.profile(0, 0, 0) == Constant(2.0)


def test_set_tile_rejects_bad_index(cfg):
    pmap = PowerMap.zeros(cfg)
    with pytest.raises(IndexError):
        pmap.set_tile_power(0, 4, 0, Constant(1.0))
    with pytest.raises(IndexError):
        pmap.set_tile_power(5, 0, 0, Constant(1.0))


def test_idle_preset_all_zero(cfg):
    pmap = PowerMap.zeros(cfg).apply_preset(0, BUILTIN_PRESETS["idle"])
    assert np.all(pmap.densities(0, 0.0) == 0.0)


def test_uniform_preset(cfg):
    preset = CoreProxyPreset("u", tuple(tuple(1.0 for _ in range(8))
                                        for _ in range(4)), 0.5)
    pmap = PowerMap.zeros(cfg).apply_preset(0, preset)
    assert np.all(pmap.densities(0, 0.0) == 0.5)


def test_gpu_preset_center_hotter_than_edge(cfg):
    pmap = PowerMap.zeros(cfg).apply_preset(0, BUILTIN_PRESETS["gpu_sm"])
    dens = pmap.densities(0, 0.0)
    assert dens[1, 3] == pytest.approx(4.0 * dens[0, 0])


def test_preset_shape_mismatch_rejected(cfg):
    bad = CoreProxyPreset("bad", ((1.0, 1.0),), 1.0)
    with pytest.raises(ValueError, match="shape"):
        PowerMap.zeros(cfg).apply_preset(0, bad)


def test_zero_map_zero_field(cfg):
    grid = discretize(cfg, 4, 2, 1)
    field = power_density_field(PowerMap.zeros(cfg), grid, 0.0)
    assert np.all(field == 0.0)


def test_unit_conversion_50um_slab():
    # 1 W/cm^2 over a 50 um die -> 1e4 / 50e-6 = 2e8 W/m^3
    cfg = preset_stack(2)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(1.0))
    grid = discretize(cfg, 8, 4, 1)
    field = power_density_field(pmap, grid, 0.0)
    sp_slab = grid.layer_slabs(1)[0]
    assert np.all(field[sp_slab] == pytest.approx(2e8, rel=1e-12))
    assert np.all(field[grid.layer_slabs(3)] == 0.0)   # S0 unpowered
    assert np.all(field[grid.layer_slabs(0)] == 0.0)   # package slab


def test_step_profile_field_case_split(cfg):
    grid = discretize(cfg, 4, 2, 1)
    pmap = PowerMap.zeros(cfg).set_tile_power(0, 0, 0, Step(1.0, 3.0, 0.1))
    before = power_density_field(pmap, grid, 0.05)
    after = power_density_field(pmap, grid, 0.2)
    p0 = power_density_field(
        PowerMap.zeros(cfg).set_tile_power(0, 0, 0, Constant(1.0)), grid, 0.0)
    p1 = power_density_field(
        PowerMap.zeros(cfg).set_tile_power(0, 0, 0, Constant(3.0)), grid, 0.0)
    np.testing.assert_array_equal(before, p0)
    np.testing.assert_array_equal(after, p1)


def _overlap_weights_loop(n_cells, cell_size, n_tiles, extent):
    """Reference: the per-cell, per-tile interval intersection."""
    tile_size = extent / n_tiles
    w = np.zeros((n_cells, n_tiles))
    for i in range(n_cells):
        lo, hi = i * cell_size, (i + 1) * cell_size
        for j in range(n_tiles):
            tlo, thi = j * tile_size, (j + 1) * tile_size
            ov = min(hi, thi) - max(lo, tlo)
            if ov > 0:
                w[i, j] = ov / cell_size
    return w


@pytest.mark.parametrize("n_cells,n_tiles,extent", [
    (32, 8, 12e-3), (16, 4, 6e-3), (7, 3, 12e-3), (13, 5, 6e-3),
    (3, 8, 10e-3), (1, 1, 1e-3), (128, 8, 12e-3), (11, 7, 7.3e-3)])
def test_overlap_weights_match_loop_exactly(n_cells, n_tiles, extent):
    cell_size = extent / n_cells
    got = _overlap_weights(n_cells, cell_size, n_tiles, extent)
    assert np.array_equal(got, _overlap_weights_loop(n_cells, cell_size,
                                                     n_tiles, extent))


def test_total_power_uniform_layer(cfg):
    # 0.5 W/cm^2 over 12 mm x 6 mm = 0.72 cm^2 -> 0.36 W
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(0.5))
    assert total_power(pmap, 0.0) == pytest.approx(0.36, rel=1e-12)


def test_total_power_two_layers_additive(cfg):
    one = PowerMap.zeros(cfg).set_uniform(0, Constant(0.7))
    two = one.set_uniform(1, Constant(0.7))
    assert total_power(two, 0.0) == pytest.approx(
        2 * total_power(one, 0.0), rel=1e-12)


def test_zero_map_zero_power(cfg):
    assert total_power(PowerMap.zeros(cfg), 0.0) == 0.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 10.0),
       nx=st.integers(3, 13), ny=st.integers(2, 9))
def test_field_integral_matches_total_power(seed, t, nx, ny):
    """Volume integral of the source field equals tile-sum total power,
    including grids that do not divide the tile grid evenly."""
    cfg = preset_stack(3)
    rng = np.random.default_rng(seed)
    pmap = random_power_map(rng, cfg)
    grid = discretize(cfg, nx, ny, 1)
    field = power_density_field(pmap, grid, t)
    integral = float((field * grid.voxel_volume).sum())
    assert integral == pytest.approx(total_power(pmap, t),
                                     rel=1e-9, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.0, 100.0))
def test_profiles_nonnegative(t):
    profiles = [Constant(0.3), Step(0.0, 2.0, 1.0),
                Periodic(0.1, 5.0, 0.7, 0.4),
                Trace(((0.0, 1.0), (1.0, 0.0), (2.5, 3.0)))]
    for p in profiles:
        assert p.power_at(t) >= 0.0


def test_trace_holds_last_value():
    tr = Trace(((0.0, 1.0), (1.0, 4.0)))
    assert tr.power_at(5.0) == 4.0
    assert tr.power_at(1e9) == 4.0


def test_trace_rejects_nonmonotone_time():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trace(((0.0, 1.0), (0.0, 2.0)))


def test_periodic_square_wave():
    p = Periodic(1.0, 9.0, period=2.0, duty=0.25)
    assert p.power_at(0.0) == 9.0
    assert p.power_at(0.49) == 9.0
    assert p.power_at(0.51) == 1.0
    assert p.power_at(2.1) == 9.0


def test_trace_csv_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_seconds,power_w_per_cm2\n0.0,1.5\n0.5,2.5\n")
    tr = load_trace_csv(path)
    assert tr.power_at(0.0) == 1.5
    assert tr.power_at(0.6) == 2.5


def test_trace_csv_requires_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("0.0,1.5\n0.5,2.5\n")
    with pytest.raises(ValueError, match="header"):
        load_trace_csv(path)


def test_negative_time_rejected(cfg):
    grid = discretize(cfg, 4, 2, 1)
    with pytest.raises(ValueError):
        power_density_field(PowerMap.zeros(cfg), grid, -1.0)


def test_map_of_another_stack_rejected(cfg):
    """A map is rasterized only on a grid of its own stack or an equal
    one."""
    grid = discretize(cfg, 4, 2, 1)
    with pytest.raises(ValueError, match="different stacks"):
        power_density_field(PowerMap.zeros(preset_stack(4)), grid, 0.0)
    equal = PowerMap.zeros(preset_stack(2))
    assert equal.config is not cfg
    assert not power_density_field(equal, grid, 0.0).any()


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("make", [
    lambda v: Constant(v),
    lambda v: Step(v, 1.0, 0.1), lambda v: Step(1.0, v, 0.1),
    lambda v: Step(1.0, 2.0, v),
    lambda v: Periodic(v, 1.0, 0.1, 0.5), lambda v: Periodic(1.0, v, 0.1, 0.5),
    lambda v: Periodic(1.0, 2.0, v, 0.5), lambda v: Periodic(1.0, 2.0, 0.1, v),
    lambda v: Trace(((0.0, v),)), lambda v: Trace(((v, 1.0),)),
    lambda v: Trace(((0.0, 1.0), (v, 2.0))),
], ids=["constant", "step-p0", "step-p1", "step-t", "periodic-low",
        "periodic-high", "periodic-period", "periodic-duty", "trace-p",
        "trace-t0", "trace-t1"])
def test_profiles_reject_non_finite(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)
