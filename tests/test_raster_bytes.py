"""Rasterization with per-grid cached weights against the former
per-call implementations, kept here as the references: the source field
and the PDN currents must be equal bit for bit."""

import numpy as np
import pytest

from stackemu.pdn import PdnParams, build_pdn, currents_from_power
from stackemu.power import (Constant, Periodic, PowerMap, Step, Trace,
                            _overlap_weights, power_density_field)
from stackemu.scenario import ThrottlePolicy, _PolicyState
from stackemu.sensors import SensorNetwork, SensorSpec
from stackemu.stack import discretize

from conftest import random_farm_stack, random_stack

TIMES = (0.0, 0.013, 0.05, 0.25, 0.37, 2.0)


def reference_power_density_field(pmap, grid, t):
    config = grid.config
    field = np.zeros(grid.shape)
    w_m = config.die_width_mm * 1e-3
    l_m = config.die_length_mm * 1e-3
    for ordinal, layer_index in enumerate(config.device_layer_indices):
        layer = config.layers[layer_index]
        dens = pmap.densities(ordinal, t) * 1e4
        if not dens.any():
            continue
        wx = _overlap_weights(grid.nx, grid.dx_m, layer.tile_cols, w_m)
        wy = _overlap_weights(grid.ny, grid.dy_m, layer.tile_rows, l_m)
        areal = wy @ dens @ wx.T
        thickness = layer.thickness_um * 1e-6
        for iz in np.nonzero(grid.slab_layer == layer_index)[0]:
            field[iz] += areal / thickness
    return field


def reference_currents_from_power(pmap, pdn, t):
    config = pdn.config
    out = np.zeros((pdn.n_planes, pdn.ny, pdn.nx))
    w_m = config.die_width_mm * 1e-3
    l_m = config.die_length_mm * 1e-3
    cell_area = (w_m / pdn.nx) * (l_m / pdn.ny)
    for ordinal, layer_index in enumerate(config.device_layer_indices):
        layer = config.layers[layer_index]
        dens = pmap.densities(ordinal, t) * 1e4
        if not dens.any():
            continue
        wx = _overlap_weights(pdn.nx, w_m / pdn.nx, layer.tile_cols, w_m)
        wy = _overlap_weights(pdn.ny, l_m / pdn.ny, layer.tile_rows, l_m)
        areal = wy @ dens @ wx.T
        out[ordinal] = areal * cell_area / pdn.params.vdd
    return out


def _random_profile(rng):
    kind = int(rng.integers(0, 4))
    p = lambda: float(rng.uniform(0.0, 80.0))  # noqa: E731
    if kind == 0:
        return Constant(p())
    if kind == 1:
        return Step(p(), p(), float(rng.uniform(0.0, 0.5)))
    if kind == 2:
        return Periodic(p(), p(), float(rng.uniform(0.01, 0.2)),
                        float(rng.uniform(0.0, 1.0)))
    ts = np.cumsum(rng.uniform(0.01, 0.3, size=4))
    return Trace(tuple((float(t), p()) for t in ts))


def random_timed_map(rng, cfg):
    """Random tiles, whole layers left idle at random, so that layers
    without power are skipped as before."""
    pmap = PowerMap.zeros(cfg)
    for layer in range(pmap.n_device_layers):
        if rng.uniform() < 0.25:
            continue
        rows, cols = pmap.tile_shape(layer)
        for _ in range(int(rng.integers(1, 8))):
            pmap = pmap.set_tile_power(layer, int(rng.integers(0, rows)),
                                       int(rng.integers(0, cols)),
                                       _random_profile(rng))
    return pmap


def _draws():
    for i in range(20):
        yield pytest.param(random_stack, 100 + i, id=f"plain-{i}")
        yield pytest.param(random_farm_stack, 200 + i, id=f"farms-{i}")


@pytest.mark.parametrize("make, seed", list(_draws()))
def test_source_field_matches_reference(make, seed):
    rng = np.random.default_rng(seed)
    cfg, grid = make(rng)
    pmap = random_timed_map(rng, cfg)
    # the drawn grid, then sizes that the 8 x 4 tile grid does not divide
    grids = [grid] + [discretize(cfg, int(rng.integers(2, 20)),
                                 int(rng.integers(2, 12)),
                                 int(rng.integers(1, 3))) for _ in range(2)]
    for g in grids:
        for t in TIMES:
            got = power_density_field(pmap, g, t)
            ref = reference_power_density_field(pmap, g, t)
            assert np.array_equal(got, ref), (g.shape, t)
    # a throttled layer (the policy path) through the same cached weights
    policy = ThrottlePolicy(trigger_t=30.0, release_t=28.0,
                            throttle_factor=0.6)
    network = SensorNetwork(sensors=(SensorSpec(0, 0.0, 0.0),))
    state = _PolicyState(policy, pmap, network, 1)
    state.evaluate(0.0, [31.0])
    assert state.on == {0}
    assert np.array_equal(power_density_field(state, grid, 0.05),
                          reference_power_density_field(state, grid, 0.05))


@pytest.mark.parametrize("make, seed", list(_draws()))
def test_pdn_currents_match_reference(make, seed):
    rng = np.random.default_rng(seed)
    cfg, _ = make(rng)
    pmap = random_timed_map(rng, cfg)
    for _ in range(3):
        pdn = build_pdn(cfg, PdnParams(nx=int(rng.integers(1, 14)),
                                       ny=int(rng.integers(1, 10))))
        for t in TIMES:
            assert np.array_equal(currents_from_power(pmap, pdn, t),
                                  reference_currents_from_power(pmap, pdn, t))
