import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackemu.materials import COPPER, SILICON, SIO2, TUNGSTEN
from stackemu.stack import (LayerRole, LayerSpec, StackConfig, TsvFarmSpec,
                            _device_order_ok, discretize, preset_stack,
                            validate_stack, with_layer)
from stackemu.tsv import effective_conductivity


def test_preset_2l_roles_bottom_to_top():
    cfg = preset_stack(2)
    assert [l.role for l in cfg.layers] == [
        LayerRole.PACKAGE_INTERFACE, LayerRole.SP, LayerRole.BOND_INTERFACE,
        LayerRole.S0, LayerRole.HEAT_SINK_INTERFACE]


def test_preset_4l_device_order():
    cfg = preset_stack(4)
    assert [l.role for l in cfg.device_layers] == [
        LayerRole.SP, LayerRole.SN2, LayerRole.SN1, LayerRole.S0]


def test_preset_thinned_dies_are_50um():
    cfg = preset_stack(4)
    for layer in cfg.device_layers:
        if layer.role != LayerRole.S0:
            assert layer.thickness_um == 50.0
            assert layer.has_tsvs


def test_preset_die_size_and_s0():
    cfg = preset_stack(3)
    assert cfg.die_width_mm == 12.0 and cfg.die_length_mm == 6.0
    s0 = cfg.device_layers[-1]
    assert s0.role == LayerRole.S0
    assert s0.thickness_um == 500.0
    assert not s0.has_tsvs


def test_preset_device_order_prefix_consistent():
    orders = {n: [l.role for l in preset_stack(n).device_layers]
              for n in (2, 3, 4)}
    assert orders[2] == [orders[4][0], orders[4][-1]]
    assert orders[3] == [orders[4][0], orders[4][2], orders[4][3]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_presets_validate_clean(n):
    assert validate_stack(preset_stack(n)) == []


@pytest.mark.parametrize("n", [0, 1, 5])
def test_preset_rejects_out_of_range(n):
    with pytest.raises(ValueError):
        preset_stack(n)


def test_validate_flags_s0_with_tsvs():
    cfg = preset_stack(2)
    s0_index = cfg.device_layer_indices[-1]
    bad = with_layer(cfg, s0_index, has_tsvs=True)
    violations = validate_stack(bad)
    assert [v.code for v in violations] == ["s0-tsv"]
    assert violations[0].layer_index == s0_index


def test_validate_flags_overlapping_farms():
    cfg = preset_stack(2)
    farm = dict(via_diameter_um=5.0, via_pitch_um=10.0, fill_material=COPPER)
    farms = (TsvFarmSpec(1.0, 1.0, 3.0, 3.0, **farm),
             TsvFarmSpec(2.0, 2.0, 4.0, 4.0, **farm))
    bad = with_layer(cfg, 1, tsv_farms=farms)
    assert any(v.code == "farm-overlap" for v in validate_stack(bad))


def test_validate_flags_farm_outside_die():
    cfg = preset_stack(2)
    farm = TsvFarmSpec(11.0, 5.0, 13.0, 7.0, 5.0, 10.0, COPPER)
    bad = with_layer(cfg, 1, tsv_farms=(farm,))
    assert any(v.code == "farm-outside-die" for v in validate_stack(bad))


def test_validate_flags_missing_s0():
    layers = (LayerSpec(LayerRole.SP, 50.0, SILICON, has_tsvs=True),)
    cfg = StackConfig(12.0, 6.0, layers)
    assert any(v.code == "s0-count" for v in validate_stack(cfg))


ROLE_LETTERS = {LayerRole.SP: "P", LayerRole.SN2: "2", LayerRole.SN1: "1",
                LayerRole.S0: "0"}


def test_device_order_matches_its_stated_rule():
    """Every sequence of the four device roles up to length 5, bottom to
    top, against the rule in _device_order_ok's comment: SN layers in any
    order under the one S0, on top, and an SP at the bottom if there is
    one; a second SP is left to sp-count."""
    checked = 0
    for length in range(6):
        for roles in itertools.product(ROLE_LETTERS, repeat=length):
            text = "".join(ROLE_LETTERS[r] for r in roles)
            stated = re.fullmatch(r"(P[P12]*|[12]*)0", text) is not None
            assert _device_order_ok(list(roles)) == stated, text
            checked += 1
    assert checked == sum(4 ** k for k in range(6))


def test_validate_flags_device_order():
    """SN1 under SP: one SP and one S0, in the wrong order."""
    cfg = preset_stack(3)
    bad = with_layer(with_layer(cfg, 1, role=LayerRole.SN1), 3,
                     role=LayerRole.SP)
    violations = validate_stack(bad)
    assert [v.code for v in violations] == ["device-order"]
    assert violations[0].layer_index == -1


def test_validate_flags_second_sp():
    """SP, SP, S0: in order, but one SP too many."""
    cfg = preset_stack(3)
    bad = with_layer(cfg, 3, role=LayerRole.SP)
    violations = validate_stack(bad)
    assert [v.code for v in violations] == ["sp-count"]
    assert violations[0].layer_index == -1


def test_validate_flags_farms_without_tsv_flag():
    cfg = preset_stack(2)
    farm = TsvFarmSpec(1.0, 1.0, 2.0, 2.0, 5.0, 10.0, COPPER)
    bad = with_layer(cfg, 1, has_tsvs=False, tsv_farms=(farm,))
    assert any(v.code == "farms-without-tsvs" for v in validate_stack(bad))


def test_discretize_voxel_count():
    grid = discretize(preset_stack(2), 4, 2, 1)
    assert grid.n == 4 * 2 * 5
    assert grid.shape == (5, 2, 4)


def test_discretize_uniform_layer_is_homogeneous(single_layer_stack):
    grid = discretize(single_layer_stack, 4, 4, 3)
    assert np.all(grid.kx == SILICON.k)
    assert np.all(grid.kz == SILICON.k)
    assert np.all(grid.vhc == SILICON.volumetric_heat_capacity)


def test_discretize_rejects_invalid_config():
    cfg = preset_stack(2)
    bad = with_layer(cfg, cfg.device_layer_indices[-1], has_tsvs=True)
    with pytest.raises(ValueError, match="s0-tsv"):
        discretize(bad, 4, 4, 1)


def test_discretize_farm_voxels_match_homogenization():
    cfg = preset_stack(2)
    farm = TsvFarmSpec(0.0, 0.0, 6.0, 3.0, 5.0, 10.0, COPPER)
    cfg = with_layer(cfg, 1, tsv_farms=(farm,))
    grid = discretize(cfg, 4, 4, 1)
    eff = effective_conductivity(farm, SILICON)
    sp_slab = grid.layer_slabs(1)[0]
    # farm covers x < 6 mm, y < 3 mm: lower-left quadrant of voxel centers
    assert grid.kz[sp_slab, 0, 0] == pytest.approx(eff.kz)
    assert grid.kx[sp_slab, 0, 0] == pytest.approx(eff.kxy)
    assert eff.kz > SILICON.k
    assert grid.kz[sp_slab, 3, 3] == SILICON.k
    # heat capacity untouched by conductivity homogenization
    assert np.all(grid.vhc[sp_slab] == SILICON.volumetric_heat_capacity)


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 7), sub=st.integers(1, 3),
       n_layers=st.sampled_from([2, 3, 4]))
def test_discretization_resolution_consistency(nx, ny, sub, n_layers):
    cfg = preset_stack(n_layers)
    grid = discretize(cfg, nx, ny, sub)
    area = cfg.die_width_mm * cfg.die_length_mm * 1e-6
    exact_volume = area * sum(l.thickness_um for l in cfg.layers) * 1e-6
    exact_capacity = area * sum(
        l.thickness_um * 1e-6 * l.material.volumetric_heat_capacity
        for l in cfg.layers)
    assert float(grid.voxel_volume.sum()) == pytest.approx(
        exact_volume, rel=1e-9)
    capacity = np.sum(grid.vhc[:, None, None] * grid.voxel_volume)
    assert float(capacity) == pytest.approx(exact_capacity, rel=1e-9)


def test_slab_thicknesses_sum_to_stack_thickness():
    cfg = preset_stack(4)
    grid = discretize(cfg, 4, 4, 3)
    assert float(grid.dz_m.sum()) == pytest.approx(
        sum(l.thickness_um for l in cfg.layers) * 1e-6, rel=1e-9)


def test_farm_spec_rejects_degenerate_pitch():
    with pytest.raises(ValueError, match="pitch"):
        TsvFarmSpec(0.0, 0.0, 1.0, 1.0, 9.0, 10.0, TUNGSTEN, 1.0, SIO2)


@pytest.mark.parametrize("index", range(7))
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_farm_spec_rejects_non_finite(index, value):
    args = [1.0, 1.0, 2.0, 2.0, 5.0, 10.0, TUNGSTEN, 0.5, SIO2]
    args[index if index < 6 else 7] = value
    with pytest.raises(ValueError, match="finite"):
        TsvFarmSpec(*args)


def test_grid_lookups_built_once_and_read_only():
    import dataclasses
    cfg = preset_stack(3)
    grid = discretize(cfg, 6, 4, 2)
    slabs = grid.layer_slabs(3)
    assert grid.layer_slabs(3) is slabs
    assert np.array_equal(slabs, np.nonzero(grid.slab_layer == 3)[0])
    vol = grid.voxel_volume
    expected = np.broadcast_to(
        ((grid.dx_m * grid.dy_m) * grid.dz_m)[:, None, None], grid.shape)
    assert np.array_equal(vol, expected)
    for shared in (slabs, vol):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0
    # a replaced grid starts with an empty cache
    coarse = dataclasses.replace(grid, dx_m=2 * grid.dx_m)
    assert coarse.layer_slabs(3) is not slabs
    assert np.array_equal(coarse.voxel_volume, 2 * vol)
