import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackemu.materials import SILICON
from stackemu.pdn import (PdnConfigError, PdnParams, build_pdn,
                          coupling_report, currents_from_power,
                          droop_from_drop, solve_ir_drop)
from stackemu.power import Constant, PowerMap, total_power
from stackemu.solver import SolveOptions
from stackemu.stack import (LayerRole, LayerSpec, StackConfig, preset_stack,
                            with_layer)


def supply_conductance(params, n_planes):
    """(n,) conductance to the Vdd rail, built from the parameters alone:
    the package path 1 / (r_c4 + r_pkg) under every node of plane 0."""
    g = np.zeros((n_planes, params.ny * params.nx))
    g[0] = 1.0 / (params.r_c4 + params.r_pkg)
    return g.reshape(-1)


@pytest.fixture
def pdn2():
    return build_pdn(preset_stack(2))


def test_zero_currents_zero_drop(pdn2):
    drop = solve_ir_drop(pdn2, np.zeros((2, 8, 16)))
    assert np.allclose(drop, 0.0, atol=1e-12)


def test_single_node_ohms_law():
    """1x1 node grid on a single-plane stack: the full drop is
    I * (r_c4 + r_pkg), an exact closed form."""
    params = PdnParams(nx=1, ny=1, r_c4=0.005, r_pkg=0.001)
    cfg = preset_stack(2)
    # detach the upper plane's vertical link by removing the lower die's
    # current path is irrelevant here: use both planes but load only plane 0
    pdn = build_pdn(cfg, params)
    currents = np.zeros((2, 1, 1))
    currents[0, 0, 0] = 2.0
    drop = solve_ir_drop(pdn, currents)
    assert drop[0, 0, 0] == pytest.approx(2.0 * 0.006, rel=1e-9)
    # the unloaded upper plane floats at the lower plane's potential
    assert drop[1, 0, 0] == pytest.approx(drop[0, 0, 0], rel=1e-9)


def test_upper_plane_pays_tsv_resistance():
    params = PdnParams(nx=1, ny=1)
    pdn = build_pdn(preset_stack(2), params)
    currents = np.zeros((2, 1, 1))
    currents[1, 0, 0] = 1.0
    drop = solve_ir_drop(pdn, currents)
    r_supply = params.r_c4 + params.r_pkg
    r_vert = params.r_uc4 + params.r_tsv
    assert drop[0, 0, 0] == pytest.approx(r_supply, rel=1e-9)
    assert drop[1, 0, 0] == pytest.approx(r_supply + r_vert, rel=1e-9)


def test_superposition(pdn2):
    rng = np.random.default_rng(11)
    opts = SolveOptions(tolerance=1e-13)
    i1 = rng.uniform(0, 0.5, (2, 8, 16))
    i2 = rng.uniform(0, 0.5, (2, 8, 16))
    d1 = solve_ir_drop(pdn2, i1, opts)
    d2 = solve_ir_drop(pdn2, i2, opts)
    d12 = solve_ir_drop(pdn2, i1 + i2, opts)
    assert np.allclose(d12, d1 + d2, rtol=1e-9, atol=1e-12)


def test_scaling_linearity(pdn2):
    rng = np.random.default_rng(12)
    opts = SolveOptions(tolerance=1e-13)
    i1 = rng.uniform(0, 0.5, (2, 8, 16))
    d1 = solve_ir_drop(pdn2, i1, opts)
    d3 = solve_ir_drop(pdn2, 3.0 * i1, opts)
    assert np.allclose(d3, 3.0 * d1, rtol=1e-9, atol=1e-12)


def test_current_conservation(pdn2):
    """Total current through the supply conductances equals total draw."""
    rng = np.random.default_rng(13)
    currents = rng.uniform(0, 0.3, (2, 8, 16))
    drop = solve_ir_drop(pdn2, currents).reshape(-1)
    supply_g = supply_conductance(pdn2.params, pdn2.n_planes)
    supply_current = float((supply_g * drop).sum())
    assert supply_current == pytest.approx(float(currents.sum()), rel=1e-3)


def test_drop_positive_under_load(pdn2):
    currents = np.full((2, 8, 16), 0.1)
    drop = solve_ir_drop(pdn2, currents)
    assert np.all(drop > 0)


def test_negative_currents_rejected(pdn2):
    currents = np.zeros((2, 8, 16))
    currents[0, 0, 0] = -1.0
    with pytest.raises(ValueError, match=">= 0"):
        solve_ir_drop(pdn2, currents)


def test_disconnected_plane_rejected():
    cfg = preset_stack(2)
    bad = with_layer(cfg, cfg.device_layer_indices[0], has_tsvs=False,
                     tsv_farms=())
    with pytest.raises(PdnConfigError) as exc:
        build_pdn(bad)
    # every node of the orphaned upper plane is reported
    assert len(exc.value.nodes) == 8 * 16
    assert all(plane == 1 for plane, _, _ in exc.value.nodes)


def test_planes_above_die_without_tsvs_rejected():
    cfg = preset_stack(4)
    bad = with_layer(cfg, cfg.device_layer_indices[1], has_tsvs=False,
                     tsv_farms=())
    with pytest.raises(PdnConfigError) as exc:
        build_pdn(bad, PdnParams(nx=3, ny=2))
    # planes 0 and 1 stay supplied; exactly planes 2 and 3, in index order
    assert exc.value.nodes == tuple((p, y, x) for p in (2, 3)
                                    for y in range(2) for x in range(3))


def test_currents_from_power_conserve_total():
    cfg = preset_stack(2)
    pdn = build_pdn(cfg)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(0.5)) \
        .set_tile_power(1, 2, 5, Constant(3.0))
    currents = currents_from_power(pmap, pdn, 0.0)
    expected = total_power(pmap, 0.0) / pdn.params.vdd
    assert float(currents.sum()) == pytest.approx(expected, rel=1e-9)


def test_currents_localized_to_tile():
    cfg = preset_stack(2)
    pdn = build_pdn(cfg)
    pmap = PowerMap.zeros(cfg).set_tile_power(0, 0, 0, Constant(1.0))
    currents = currents_from_power(pmap, pdn, 0.0)
    assert currents[1].sum() == 0.0
    # tile (0, 0) covers x < 1.5 mm, y < 1.5 mm: nodes x < 2, y < 2
    mask = np.zeros((8, 16), dtype=bool)
    mask[:2, :2] = True
    assert currents[0][~mask].sum() == 0.0
    assert currents[0][mask].min() > 0.0


def test_drop_grows_with_distance_from_center(pdn2):
    """Uniform load: the die-center node sees the deepest drop because it
    is farthest (in the lateral grid) from the edges' return diversity...
    for a uniform C4 array under every node the drop is in fact nearly
    uniform; check instead that a corner-localized load decays
    monotonically along the row away from the injection corner."""
    currents = np.zeros((2, 8, 16))
    currents[0, 0, 0] = 1.0
    drop = solve_ir_drop(pdn2, currents)
    row = drop[0, 0, :]
    assert np.all(np.diff(row) < 0)


def test_droop_at_least_static_drop(pdn2):
    rng = np.random.default_rng(14)
    before = rng.uniform(0, 0.2, (2, 8, 16))
    after = before + rng.uniform(0, 0.2, (2, 8, 16))
    droop = droop_from_drop(solve_ir_drop(pdn2, after), before, after,
                            pdn2.params)
    static = solve_ir_drop(pdn2, after).reshape(2, -1).max(axis=1)
    assert np.all(droop >= static - 1e-15)


def test_droop_monotone_in_decap():
    cfg = preset_stack(2)
    before = np.zeros((2, 8, 16))
    after = np.full((2, 8, 16), 0.1)
    prev = None
    for decap in (0.5e-9, 1e-9, 2e-9, 4e-9):
        pdn = build_pdn(cfg, PdnParams(decap_per_node=decap))
        droop = droop_from_drop(solve_ir_drop(pdn, after), before, after,
                                pdn.params)
        if prev is not None:
            assert np.all(droop <= prev + 1e-15)
        prev = droop


def test_droop_no_step_equals_static(pdn2):
    currents = np.full((2, 8, 16), 0.05)
    droop = droop_from_drop(solve_ir_drop(pdn2, currents), currents,
                            currents, pdn2.params)
    static = solve_ir_drop(pdn2, currents).reshape(2, -1).max(axis=1)
    assert np.allclose(droop, static, atol=1e-15)


def test_run_scenario_solves_the_pdn_once(monkeypatch):
    """The droop reuses the drop the run has already solved."""
    import stackemu.pdn
    import stackemu.scenario
    from stackemu.scenario import GridSpec, Scenario, run_scenario
    calls = []
    real = stackemu.pdn.solve_ir_drop

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    for module in (stackemu.pdn, stackemu.scenario):
        monkeypatch.setattr(module, "solve_ir_drop", counted)
    cfg = preset_stack(3)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(30.0)) \
        .set_uniform(2, Constant(10.0))
    report = run_scenario(Scenario(name="pdn", stack=cfg, power=pmap,
                                   grid=GridSpec(nx=8, ny=4),
                                   pdn=PdnParams(nx=8, ny=4)))
    assert len(calls) == 1
    pdn = build_pdn(cfg, PdnParams(nx=8, ny=4))
    currents = currents_from_power(pmap, pdn, 0.0)
    assert report.pdn_summary.droop_per_plane == tuple(
        droop_from_drop(solve_ir_drop(pdn, currents), np.zeros_like(currents),
                        currents, pdn.params).tolist())


def test_coupling_aggressor_to_victim_positive():
    """A current step on the top plane pulls the bottom plane down too:
    the shared supply path couples them. The unloaded victim never drops
    more than the aggressor."""
    pdn = build_pdn(preset_stack(2))
    induced = coupling_report(pdn, aggressor_plane=1, step=0.1,
                              options=SolveOptions(tolerance=1e-13))
    assert induced[0] > 0.0
    assert induced[1] >= induced[0] - 1e-12


def test_coupling_zero_step(pdn2):
    assert np.all(coupling_report(pdn2, 0, 0.0) == 0.0)


@pytest.mark.parametrize("step", [float("nan"), float("inf")])
def test_coupling_step_must_be_finite_and_non_negative(pdn2, step):
    """A NaN step once gave zero coupling on every victim plane."""
    with pytest.raises(ValueError, match="step must be >= 0 and finite"):
        coupling_report(pdn2, 0, step)


@pytest.mark.parametrize("plane", [1.5, True])
def test_coupling_aggressor_must_be_an_int(pdn2, plane):
    """A plane index is an int: not a float (1.5 once raised numpy's
    IndexError) or a bool (True once meant plane 1)."""
    with pytest.raises(ValueError,
                       match=r"out of range \(an int in \[0, 2\)\)"):
        coupling_report(pdn2, plane, 0.1)


def test_coupling_linear_in_step(pdn2):
    a = coupling_report(pdn2, 1, 0.05)
    b = coupling_report(pdn2, 1, 0.10)
    assert np.allclose(b, 2 * a, rtol=1e-8)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        PdnParams(sheet_ohm_sq=0.0)
    with pytest.raises(ValueError):
        PdnParams(r_pkg=-0.001)
    with pytest.raises(ValueError):
        PdnParams(nx=0)
    pdn = build_pdn(preset_stack(2))
    with pytest.raises(ValueError, match="out of range"):
        coupling_report(pdn, 5, 0.1)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_layers=st.sampled_from([2, 3, 4]))
def test_drop_bounded_by_worst_series_path(seed, n_layers):
    """No node can drop more than total current times the resistance of
    the worst single series path (supply + all vertical hops)."""
    cfg = preset_stack(n_layers)
    params = PdnParams(nx=6, ny=4)
    pdn = build_pdn(cfg, params)
    rng = np.random.default_rng(seed)
    currents = rng.uniform(0, 0.1, (n_layers, 4, 6))
    drop = solve_ir_drop(pdn, currents)
    i_tot = float(currents.sum())
    r_worst = (params.r_c4 + params.r_pkg
               + (n_layers - 1) * (params.r_uc4 + params.r_tsv))
    assert drop.max() <= i_tot * r_worst + 1e-12
    assert drop.min() >= -1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_layers=st.sampled_from([2, 3, 4]),
       nx=st.integers(1, 12), ny=st.integers(1, 8))
def test_ir_drop_matches_dense_oracle(seed, n_layers, nx, ny):
    rng = np.random.default_rng(seed)
    params = PdnParams(nx=nx, ny=ny,
                       sheet_ohm_sq=float(rng.uniform(0.005, 0.1)),
                       r_c4=float(rng.uniform(0.001, 0.02)),
                       r_uc4=float(rng.uniform(0.001, 0.05)),
                       r_tsv=float(rng.uniform(0.001, 0.05)))
    pdn = build_pdn(preset_stack(n_layers), params)
    currents = rng.uniform(0, 0.2, (n_layers, ny, nx))
    drop = solve_ir_drop(pdn, currents, SolveOptions(tolerance=1e-12))
    v = np.linalg.solve(pdn.G.toarray(),
                        supply_conductance(params, n_layers) * params.vdd
                        - currents.reshape(-1))
    np.testing.assert_allclose(drop.reshape(-1), params.vdd - v,
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("call, fragment", [
    (lambda pdn: build_pdn(StackConfig(12.0, 6.0, (
        LayerSpec(LayerRole.BEOL, 10.0, SILICON),))),
     "stack has no device layers"),
    (lambda pdn: solve_ir_drop(pdn, np.zeros(pdn.n - 1)),
     "current map size does not match PDN"),
    (lambda pdn: coupling_report(pdn, 0, -1.0), "step must be >= 0"),
], ids=["no-device-layers", "current-map-size", "negative-step"])
def test_pdn_rules(pdn2, call, fragment):
    with pytest.raises(ValueError) as exc:
        call(pdn2)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("kwargs", [
    dict(decap_per_node=float("nan")), dict(l_loop_proxy=float("inf")),
    dict(vdd=float("inf")), dict(sheet_ohm_sq=float("nan")),
    dict(r_pkg=float("nan")), dict(r_tsv=float("inf"))],
    ids=["decap-nan", "loop-inf", "vdd-inf", "sheet-nan", "r_pkg-nan",
         "r_tsv-inf"])
def test_params_reject_non_finite(kwargs):
    """A non-finite parameter would reach the report as a nan droop or
    drop; it fails when the parameters are built."""
    with pytest.raises(ValueError, match="PDN parameters must be finite"):
        PdnParams(**kwargs)
