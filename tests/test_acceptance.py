"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every numeric bound here is pinned; loosening one is a red flag."""

import itertools
import math
import time

import numpy as np

from stackemu.materials import COPPER, Material, SILICON, SIO2, TUNGSTEN
from stackemu.pdn import (PdnParams, build_pdn, coupling_report,
                          solve_ir_drop)
from stackemu.power import Constant, PowerMap, power_density_field, total_power
from stackemu.reliability import (cycling_damage, em_acceleration,
                                  extract_extrema, rainflow_cycles)
from stackemu.scenario import (GridSpec, Scenario, ThrottlePolicy,
                               TransientSpec, render_report, run_scenario,
                               solve_transient)
from stackemu.sensors import (SensorNetwork, SensorSpec, place_sensors_greedy,
                              placement_objective)
from stackemu.solver import (SolveOptions, TemperatureField, assemble,
                             layer_summary, solve_steady, step_transient)
from stackemu.stack import (LayerRole, LayerSpec, StackConfig, TsvFarmSpec,
                            discretize, preset_stack)

from conftest import column_stack, random_power_map, random_stack

TIGHT = SolveOptions(tolerance=1e-12)


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_solver_matches_dense_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        cfg, grid = random_stack(rng, max_unknowns=1000)
        system = assemble(grid, cfg)
        pmap = random_power_map(rng, cfg)
        source = power_density_field(pmap, grid, 0.0)
        field = solve_steady(system, source, TIGHT)
        oracle = np.linalg.solve(system.G.toarray(), system.rhs(source))
        worst = max(worst, float(np.max(np.abs(field.flat() - oracle))))
    elapsed = time.perf_counter() - start
    _verdict(1, "iterative solve matches dense oracle on 20 random stacks",
             worst < 1e-6 and elapsed < 30.0,
             f"max|dT|={worst:.3g} K, {elapsed:.1f} s")


def test_criterion_02_energy_balance_at_scale():
    rng = np.random.default_rng(102)
    cfg = preset_stack(4)
    grid = discretize(cfg, 64, 32, 2)
    system = assemble(grid, cfg)
    worst_rel = 0.0
    worst_time = 0.0
    for _ in range(2):
        pmap = random_power_map(rng, cfg)
        injected = total_power(pmap, 0.0)
        source = power_density_field(pmap, grid, 0.0)
        start = time.perf_counter()
        field = solve_steady(system, source, SolveOptions(tolerance=1e-10))
        worst_time = max(worst_time, time.perf_counter() - start)
        outflux = float(np.dot(system.boundary_g,
                               field.flat() - cfg.ambient_c))
        worst_rel = max(worst_rel, abs(outflux - injected) / injected)
    _verdict(2, "energy balance on 4L preset at 64x32x2",
             worst_rel < 1e-3 and worst_time < 10.0,
             f"rel err={worst_rel:.3g}, {worst_time:.1f} s/solve")


def test_criterion_03_monotone_layer_ordering():
    cfg = preset_stack(4)
    pmap = PowerMap.zeros(cfg)
    for ordinal in range(len(cfg.device_layer_indices)):
        pmap = pmap.set_uniform(ordinal, Constant(10.0))
    grid = discretize(cfg, 32, 16, 1)
    system = assemble(grid, cfg)
    field = solve_steady(system, power_density_field(pmap, grid, 0.0),
                         SolveOptions(tolerance=1e-10))
    stats = {s.role: s.max for s in layer_summary(field)
             if s.role in ("SP", "SN2", "SN1", "S0")}
    order = [stats["SP"], stats["SN2"], stats["SN1"], stats["S0"]]
    gaps = [a - b for a, b in zip(order, order[1:])]
    _verdict(3, "per-layer max strictly decreases SP > SN2 > SN1 > S0",
             all(g >= 1e-6 for g in gaps),
             "gaps " + ", ".join(f"{g:.3f} K" for g in gaps))


def _tsv_fixture_peak(farm):
    """Strip-die fixture: 10 um thinned device layer, a 1 W/cm^2 hotspot
    tile at x < 1 mm, a 1x1 mm farm right next to it (x in [1, 2] mm),
    and deliberately weak vertical paths so the lateral route through the
    farm carries the heat. Peak is the device-layer max."""
    weak = Material("weak_bond", k=0.001, volumetric_heat_capacity=1.8e6)
    layers = (
        LayerSpec(LayerRole.PACKAGE_INTERFACE, 80.0, weak),
        LayerSpec(LayerRole.SP, 10.0, SILICON, has_tsvs=farm is not None,
                  tsv_farms=(farm,) if farm else (),
                  tile_rows=1, tile_cols=6),
        LayerSpec(LayerRole.BOND_INTERFACE, 20.0, weak),
        LayerSpec(LayerRole.S0, 500.0, SILICON, tile_rows=1, tile_cols=6),
    )
    cfg = StackConfig(6.0, 1.0, layers, ambient_c=25.0, heat_sink_h=8700.0,
                      package_resistance=1.0)
    grid = discretize(cfg, 48, 8, 1)
    system = assemble(grid, cfg)
    pmap = PowerMap.zeros(cfg).set_tile_power(0, 0, 0, Constant(1.0))
    field = solve_steady(system, power_density_field(pmap, grid, 0.0),
                         SolveOptions(tolerance=1e-10))
    return float(field.values[grid.layer_slabs(1)].max())


def test_criterion_04_tsv_lateral_blockage():
    copper_farm = TsvFarmSpec(1.0, 0.0, 2.0, 1.0, 5.0, 10.0, COPPER)
    tungsten_farm = TsvFarmSpec(1.0, 0.0, 2.0, 1.0, 5.0, 10.0, TUNGSTEN,
                                0.5, SIO2)
    peak = {"none": _tsv_fixture_peak(None),
            "cu": _tsv_fixture_peak(copper_farm),
            "w": _tsv_fixture_peak(tungsten_farm)}
    ordering = peak["w"] > peak["none"] > peak["cu"]
    gap = peak["w"] - peak["cu"]
    _verdict(4, "tungsten farm > no farm > copper farm, W-Cu gap >= 2 K",
             ordering and gap >= 2.0,
             f"W={peak['w']:.2f} none={peak['none']:.2f} "
             f"Cu={peak['cu']:.2f}, gap={gap:.2f} K")


def test_criterion_05_1d_resistor_chain():
    k, h, p_res, thick = 80.0, 900.0, 2e-3, 600.0
    cfg = column_stack(k=k, h=h, package_resistance=p_res,
                       thickness_um=thick)
    n_sub = 6
    grid = discretize(cfg, 2, 2, n_sub)
    system = assemble(grid, cfg)
    source = np.zeros(grid.shape)
    source[0] = 5e8
    field = solve_steady(system, source, TIGHT)

    a = grid.dx_m * grid.dy_m
    dz = grid.dz_m[0]
    q = 5e8 * a * dz
    r_up = (n_sub - 1) * dz / (k * a) + dz / (2 * k * a) + 1 / (h * a)
    r_down = dz / (2 * k * a) + p_res / a
    t_bottom = cfg.ambient_c + q * r_up * r_down / (r_up + r_down)
    q_up = q * r_down / (r_up + r_down)
    expected = [t_bottom]
    for _ in range(1, n_sub):
        expected.append(expected[-1] - q_up * dz / (k * a))
    rel = max(abs(field.values[j, 0, 0] - expected[j]) / abs(expected[j])
              for j in range(n_sub))
    _verdict(5, "single column matches closed-form resistor chain",
             rel < 1e-9, f"max rel err={rel:.3g}")


def test_criterion_06_transient_convergence():
    import scipy.linalg

    mat = Material("thick", k=5.0, volumetric_heat_capacity=2.0e6)
    layers = (LayerSpec(LayerRole.S0, 2000.0, mat),)
    cfg = StackConfig(1.0, 1.0, layers, ambient_c=25.0, heat_sink_h=300.0,
                      package_resistance=5e-2)
    grid = discretize(cfg, 2, 2, 3)
    system = assemble(grid, cfg)
    pmap = PowerMap.zeros(cfg).set_uniform(0, Constant(2.0))
    source = power_density_field(pmap, grid, 0.0)
    t0 = TemperatureField(values=np.full(grid.shape, cfg.ambient_c),
                          grid=grid, time=0.0)

    # matrix-exponential oracle
    G = system.G.toarray()
    t_ss = np.linalg.solve(G, system.rhs(source))
    A = -(1.0 / system.C)[:, None] * G
    t_end = 2.0
    exact = t_ss + scipy.linalg.expm(A * t_end) @ (t0.flat() - t_ss)

    errors = []
    for dt in (0.25, 0.125, 0.0625):
        field = t0
        for _ in range(int(round(t_end / dt))):
            field = step_transient(system, field, source, dt, TIGHT)
        errors.append(np.max(np.abs(field.flat() - exact)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    first_order = all(1.8 <= r <= 2.2 for r in ratios)

    tol = 1e-10
    steady = solve_steady(system, source, SolveOptions(tolerance=tol))
    tau = system.C.sum() / system.boundary_g.sum()
    final = solve_transient(system, t0, pmap,
                            TransientSpec(t_end=50 * tau, dt=tau / 2),
                            options=SolveOptions(tolerance=tol))[0][-1]
    residual = float(np.max(np.abs(final.values - steady.values)))
    long_ok = residual < 10 * tol * max(
        1.0, float(np.max(np.abs(steady.values))))
    _verdict(6, "backward Euler is first order and settles to steady state",
             first_order and long_ok,
             f"ratios={ratios[0]:.2f},{ratios[1]:.2f}, "
             f"long-horizon residual={residual:.3g} K")


def test_criterion_07_greedy_vs_exhaustive():
    rng = np.random.default_rng(107)
    cfg = preset_stack(2)
    grid = discretize(cfg, 16, 8, 1)
    system = assemble(grid, cfg)
    fields = []
    for _ in range(4):
        pmap = random_power_map(rng, cfg)
        fields.append(solve_steady(
            system, power_density_field(pmap, grid, 0.0),
            SolveOptions(tolerance=1e-9)))
    candidates = [(0, x, y) for x in (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)
                  for y in (1.5, 4.5)]
    assert len(candidates) == 12
    start = time.perf_counter()
    worst_ratio = 1.0
    for k in (1, 2, 3):
        greedy = place_sensors_greedy(candidates, k, fields)
        greedy_obj = placement_objective(greedy, fields)
        best = min(placement_objective(list(sub), fields)
                   for sub in itertools.combinations(candidates, k))
        ratio = 1.0 if greedy_obj <= best + 1e-15 else greedy_obj / best
        worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - start
    _verdict(7, "greedy placement within 1.2x of exhaustive optimum",
             worst_ratio <= 1.2 and elapsed < 5.0,
             f"worst ratio={worst_ratio:.3f}, {elapsed:.1f} s")


def test_criterion_08_pdn_oracles():
    opts = SolveOptions(tolerance=1e-13)
    # single-resistor Ohm's-law fixtures on a 1x1 node grid
    params = PdnParams(nx=1, ny=1)
    pdn1 = build_pdn(preset_stack(2), params)
    bottom = np.array([[[2.0]], [[0.0]]])
    top = np.array([[[0.0]], [[1.0]]])
    drop_b = solve_ir_drop(pdn1, bottom, opts)
    drop_t = solve_ir_drop(pdn1, top, opts)
    r_supply = params.r_c4 + params.r_pkg
    r_vert = params.r_uc4 + params.r_tsv
    ohm_rel = max(
        abs(drop_b[0, 0, 0] - 2.0 * r_supply) / (2.0 * r_supply),
        abs(drop_t[0, 0, 0] - r_supply) / r_supply,
        abs(drop_t[1, 0, 0] - (r_supply + r_vert)) / (r_supply + r_vert))

    # superposition on the default 16x8 grid
    pdn = build_pdn(preset_stack(2))
    rng = np.random.default_rng(108)
    i1 = rng.uniform(0, 0.5, (2, 8, 16))
    i2 = rng.uniform(0, 0.5, (2, 8, 16))
    d12 = solve_ir_drop(pdn, i1 + i2, opts)
    d_sum = solve_ir_drop(pdn, i1, opts) + solve_ir_drop(pdn, i2, opts)
    superpose = np.allclose(d12, d_sum, rtol=1e-9, atol=1e-12)

    # SP aggressor (plane 0) induces a strictly positive drop on S0
    induced = coupling_report(pdn, aggressor_plane=0, step=0.1, options=opts)
    _verdict(8, "PDN Ohm's-law fixtures, superposition, SP->S0 coupling",
             ohm_rel < 1e-9 and superpose and induced[1] > 0.0,
             f"ohm rel={ohm_rel:.3g}, S0 induced={induced[1]:.4g} V")


def test_criterion_09_reliability_oracles():
    # one-line Arrhenius oracle, evaluated independently of the module
    kb = 8.617333262e-5
    af_oracle = math.exp((0.7 / kb) * (1 / (105 + 273.15) - 1 / (125 + 273.15)))
    af_ok = abs(em_acceleration(125.0) - af_oracle) / af_oracle < 1e-9
    # one-line damage oracle: one closed 100 K cycle at dT_ref=100, m=2
    dmg = cycling_damage([25.0, 125.0, 25.0])
    dmg_ok = abs(dmg - 1.0) < 1e-9

    def brute_force(extrema):
        seq = list(extrema)
        cycles = []
        changed = True
        while changed:
            changed = False
            for i in range(len(seq) - 2):
                y = abs(seq[i + 1] - seq[i])
                if abs(seq[i + 2] - seq[i + 1]) >= y:
                    cycles.append((y, 1.0))
                    del seq[i:i + 2]
                    changed = True
                    break
        cycles += [(abs(b - a), 0.5) for a, b in zip(seq, seq[1:]) if a != b]
        return sorted(cycles)

    rng = np.random.default_rng(109)
    rainflow_ok = True
    for _ in range(50):
        trace = rng.uniform(20.0, 130.0, int(rng.integers(2, 40)))
        extrema = extract_extrema(trace)
        got = sorted(rainflow_cycles(extrema))
        want = brute_force(extrema)
        if len(got) != len(want) or not all(
                abs(g[0] - w[0]) < 1e-12 and g[1] == w[1]
                for g, w in zip(got, want)):
            rainflow_ok = False
            break

    # 4L uniform scenario: the layer farthest from the sink wears fastest
    from stackemu.reliability import ReliabilityParams
    stack = preset_stack(4)
    power = PowerMap.zeros(stack)
    for ordinal in range(len(stack.device_layer_indices)):
        power = power.set_uniform(ordinal, Constant(10.0))
    report = run_scenario(Scenario(
        name="4l-uniform", stack=stack, power=power,
        grid=GridSpec(nx=16, ny=8), reliability=ReliabilityParams()))
    sp_index = stack.device_layer_indices[0]
    mttf_ok = report.reliability.min_mttf_layer == sp_index
    _verdict(9, "reliability oracles and 4L min-MTTF layer",
             af_ok and dmg_ok and rainflow_ok and mttf_ok,
             f"AF={em_acceleration(125.0):.6f}, damage={dmg:.6f}, "
             f"min-MTTF layer={report.reliability.min_mttf_layer}")


def test_criterion_10_harness_determinism_and_dtm():
    rng = np.random.default_rng(110)
    stack = preset_stack(2)
    net = SensorNetwork(sensors=(
        SensorSpec(layer=0, x_mm=6.0, y_mm=3.0, noise_sigma=0.0,
                   quantization_step=0.0),
        SensorSpec(layer=1, x_mm=3.0, y_mm=1.5, noise_sigma=0.0,
                   quantization_step=0.0)))
    tr = TransientSpec(t_end=0.2, dt=0.02)
    policy = ThrottlePolicy(trigger_t=28.0, release_t=27.0,
                            throttle_factor=0.5)
    deterministic = True
    never_worse = True
    for i in range(20):
        power = PowerMap.zeros(stack).set_uniform(
            0, Constant(float(rng.uniform(20.0, 80.0))))
        seed = int(rng.integers(0, 2**31))
        managed = Scenario(name=f"dtm-{i}", stack=stack, power=power,
                           grid=GridSpec(nx=8, ny=4), sensors=net,
                           transient=tr, policy=policy, policy_period=2,
                           seed=seed)
        unmanaged = Scenario(name=f"raw-{i}", stack=stack, power=power,
                             grid=GridSpec(nx=8, ny=4), sensors=net,
                             transient=tr, seed=seed)
        rep_a = run_scenario(managed)
        rep_b = run_scenario(managed)
        if render_report(rep_a) != render_report(rep_b):
            deterministic = False
        rep_u = run_scenario(unmanaged)
        if max(rep_a.sensor_readings) > max(rep_u.sensor_readings) + 1e-12:
            never_worse = False
    _verdict(10, "byte-identical reports; throttle never worse",
             deterministic and never_worse,
             f"deterministic={deterministic}, never_worse={never_worse}")
