import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import stackemu
from stackemu.cli import _apply_thread_cap, main
from stackemu.config import (ConfigError, _schema, load_scenario,
                             scenario_from_document)
from stackemu.fields_io import field_from_csv
from stackemu.materials import Material
from stackemu.pdn import PdnParams
from stackemu.power import (Constant, Periodic, PowerMap, Step,
                            load_trace_csv)
from stackemu.reliability import ReliabilityParams
from stackemu.scenario import (AutoPlace, CoreSwapPolicy, ExportError,
                               GridSpec, Scenario, StageError, ThrottlePolicy,
                               TransientSpec, compare_scenarios, export,
                               render_comparison, render_report, run_scenario,
                               scenario_hash)
from stackemu.sensors import (SensorNetwork, SensorSpec, place_sensors_greedy,
                              tile_center_candidates)
from stackemu.solver import SolveOptions
from stackemu.stack import (LayerSpec, StackConfig, TsvFarmSpec, discretize,
                            preset_stack, with_layer)


def make_scenario(name="base", n_layers=2, p=20.0, seed=7, transient=None,
                  policy=None, sensors=None, **kw):
    stack = preset_stack(n_layers)
    power = PowerMap.zeros(stack).set_uniform(0, Constant(p))
    return Scenario(name=name, stack=stack, power=power,
                    grid=GridSpec(nx=8, ny=4), transient=transient,
                    policy=policy, sensors=sensors, seed=seed, **kw)


def hot_sensor_net():
    return SensorNetwork(sensors=(
        SensorSpec(layer=0, x_mm=6.0, y_mm=3.0, noise_sigma=0.0,
                   quantization_step=0.0),))


def test_run_scenario_steady_only():
    report = run_scenario(make_scenario())
    assert report.final_field is None
    assert report.total_power_w == pytest.approx(20.0 * 0.72)
    assert len(report.steady_stats) == 2
    assert all(s.max > 25.0 for s in report.steady_stats)


def test_report_byte_identical_for_same_scenario_and_seed():
    sc = make_scenario(sensors=hot_sensor_net())
    a = render_report(run_scenario(sc))
    b = render_report(run_scenario(sc))
    assert a == b
    assert "== provenance ==" in a and "== sensors ==" in a


def test_seed_changes_noisy_readings():
    net = SensorNetwork(sensors=(
        SensorSpec(layer=0, x_mm=6.0, y_mm=3.0, noise_sigma=1.0,
                   quantization_step=0.0),))
    r1 = run_scenario(make_scenario(sensors=net, seed=1))
    r2 = run_scenario(make_scenario(sensors=net, seed=2))
    assert r1.sensor_readings != r2.sensor_readings
    # the report embeds the seed, so the text differs too
    assert render_report(r1) != render_report(r2)


def test_scenario_hash_stable_and_distinct():
    a = make_scenario()
    assert scenario_hash(a) == scenario_hash(make_scenario())
    assert scenario_hash(a) != scenario_hash(make_scenario(p=21.0))
    assert len(scenario_hash(a)) == 16


def test_throttle_policy_never_worse_than_unmanaged():
    tr = TransientSpec(t_end=0.4, dt=0.01)
    policy = ThrottlePolicy(trigger_t=30.0, release_t=28.0,
                            throttle_factor=0.5)
    unmanaged = run_scenario(make_scenario(p=60.0, transient=tr))
    managed = run_scenario(make_scenario(p=60.0, transient=tr, policy=policy,
                                         sensors=hot_sensor_net(),
                                         policy_period=2))
    t_un = max(s.max for s in unmanaged.final_stats)
    t_m = max(s.max for s in managed.final_stats)
    assert managed.events, "expected at least one throttle event"
    assert managed.events[0].action == "throttle"
    assert t_m < t_un


def test_throttle_events_alternate_with_hysteresis():
    tr = TransientSpec(t_end=0.4, dt=0.01)
    policy = ThrottlePolicy(trigger_t=30.0, release_t=28.0,
                            throttle_factor=0.2)
    report = run_scenario(make_scenario(p=60.0, transient=tr, policy=policy,
                                        sensors=hot_sensor_net(),
                                        policy_period=1))
    per_layer = {}
    for e in report.events:
        assert e.action in ("throttle", "release")
        last = per_layer.get(e.layer)
        assert e.action != last, "same action twice in a row"
        per_layer[e.layer] = e.action
        if e.action == "throttle":
            assert e.reading >= policy.trigger_t
        else:
            assert e.reading < policy.release_t


def test_policy_without_sensors_rejected():
    tr = TransientSpec(t_end=0.02, dt=0.01)
    policy = ThrottlePolicy(trigger_t=30.0, release_t=28.0,
                            throttle_factor=0.5)
    with pytest.raises(ValueError, match="requires a sensor network"):
        make_scenario(transient=tr, policy=policy)


def test_invalid_stack_fails_in_the_stack_stage():
    """discretize is the one stack check of a run; its ValueError is what
    the command line maps to exit code 1."""
    stack = preset_stack(2)
    bad = with_layer(stack, stack.device_layer_indices[-1], has_tsvs=True)
    with pytest.raises(StageError, match="'stack'.*s0-tsv") as info:
        run_scenario(replace(make_scenario(), stack=bad))
    assert type(info.value.cause) is ValueError


def test_policy_map_rebuilt_only_when_state_changes():
    from stackemu.scenario import _PolicyState
    stack = preset_stack(2)
    pmap = PowerMap.zeros(stack).set_uniform(0, Constant(9.0))
    policy = ThrottlePolicy(trigger_t=30.0, release_t=28.0,
                            throttle_factor=0.5)
    state = _PolicyState(policy, pmap, hot_sensor_net(), 1)
    assert state.map is pmap
    state.evaluate(0.0, [29.0])          # below trigger: no event
    assert not state.events and state.map is pmap
    state.evaluate(0.1, [31.0])          # throttle
    throttled = state.map
    assert throttled == pmap.scaled({0: 0.5})
    state.evaluate(0.2, [29.0])          # in the hysteresis band
    assert state.map is throttled
    state.evaluate(0.3, [27.0])          # release
    assert [e.action for e in state.events] == ["throttle", "release"]
    assert state.map == pmap


def test_coreswap_swaps_profiles():
    policy = CoreSwapPolicy(trigger_t=30.0, release_t=28.0,
                            pairing=(((0, 0, 0), (0, 3, 7)),))
    from stackemu.scenario import _PolicyState
    stack = preset_stack(2)
    pmap = PowerMap.zeros(stack).set_tile_power(0, 0, 0, Constant(9.0))
    state = _PolicyState(policy, pmap, hot_sensor_net(), 1)
    state.evaluate(0.0, [31.0])
    eff = state.map
    assert eff.profile(0, 0, 0) == Constant(0.0)
    assert eff.profile(0, 3, 7) == Constant(9.0)


def test_policy_validation():
    with pytest.raises(ValueError, match="hysteresis"):
        ThrottlePolicy(trigger_t=30.0, release_t=30.0, throttle_factor=0.5)
    with pytest.raises(ValueError, match="throttle_factor"):
        ThrottlePolicy(trigger_t=30.0, release_t=28.0, throttle_factor=1.5)
    with pytest.raises(ValueError, match="disjoint"):
        CoreSwapPolicy(trigger_t=30.0, release_t=28.0,
                       pairing=(((0, 0, 0), (0, 0, 0)),))


@pytest.mark.parametrize("period", [0, -3, 2.5, 5.0, True])
def test_policy_period_must_be_a_positive_integer(period):
    """As the YAML schema's "integer": an int, not 5.0 or True."""
    with pytest.raises(ValueError, match="policy_period"):
        make_scenario(policy_period=period)


def test_compare_2l_cooler_than_4l():
    scenarios = []
    for n in (2, 4):
        stack = preset_stack(n)
        power = PowerMap.zeros(stack)
        for ordinal in range(len(stack.device_layer_indices)):
            power = power.set_uniform(ordinal, Constant(10.0))
        scenarios.append(Scenario(name=f"{n}layer", stack=stack, power=power,
                                  grid=GridSpec(nx=8, ny=4)))
    rows = compare_scenarios(scenarios)
    assert [r.name for r in rows] == ["2layer", "4layer"]
    assert max(rows[0].per_layer_max) < max(rows[1].per_layer_max)
    text = render_comparison(rows)
    assert text.startswith("scenario\t")
    assert len(text.splitlines()) == 3


def test_compare_requires_two():
    with pytest.raises(ValueError, match="at least two"):
        compare_scenarios([make_scenario()])


def test_export_text_and_overwrite_guard(tmp_path):
    report = run_scenario(make_scenario())
    prefix = str(tmp_path / "run")
    written = export(report, "text", prefix)
    assert written == [f"{prefix}_report.txt"]
    with open(written[0]) as fh:
        assert fh.read() == render_report(report)
    with pytest.raises(ExportError, match="refusing to overwrite"):
        export(report, "text", prefix)
    export(report, "text", prefix, force=True)   # force allows it


def test_export_csv_round_trips_field(tmp_path):
    sc = make_scenario()
    report = run_scenario(sc)
    prefix = str(tmp_path / "run")
    written = export(report, "csv", prefix)
    grid = discretize(sc.stack, sc.grid.nx, sc.grid.ny,
                      sc.grid.sub_slabs_per_layer)
    back = field_from_csv(f"{prefix}_steady_field.csv", grid)
    np.testing.assert_array_equal(back.values, report.steady_field.values)
    assert all(os.path.exists(p) for p in written)


def test_export_pgm_per_device_layer(tmp_path):
    report = run_scenario(make_scenario())
    prefix = str(tmp_path / "run")
    written = export(report, "pgm", prefix)
    assert f"{prefix}_steady_L1.pgm" in written
    assert f"{prefix}_steady_L3.pgm" in written
    for p in written:
        with open(p) as fh:
            assert fh.readline().strip() == "P2"


def test_export_unknown_format(tmp_path):
    report = run_scenario(make_scenario())
    with pytest.raises(ValueError, match="unknown export format"):
        export(report, "json", str(tmp_path / "x"))


BASE_YAML = """\
name: yaml-demo
seed: 3
stack:
  preset: 2
grid:
  nx: 8
  ny: 4
power:
  assignments:
    - layer: 0
      uniform: {kind: constant, p: 20.0}
    - layer: 1
      preset: cache
sensors:
  noise_sigma: 0.0
  quantization_step: 0.25
  placements:
    - {layer: 0, x_mm: 6.0, y_mm: 3.0}
pdn:
  nx: 8
  ny: 4
reliability: {}
transient: steady-only
policy: none
"""


def write_yaml(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_scenario_from_yaml(tmp_path):
    sc = load_scenario(write_yaml(tmp_path, BASE_YAML))
    assert sc.name == "yaml-demo"
    assert sc.seed == 3
    assert sc.transient is None and sc.policy is None
    assert sc.pdn.nx == 8
    assert len(sc.sensors.sensors) == 1
    report = run_scenario(sc)
    assert report.pdn_summary is not None
    assert report.reliability is not None


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="bogus_key"):
        load_scenario(write_yaml(tmp_path, BASE_YAML + "bogus_key: 1\n"))


def test_config_rejects_unknown_nested_key():
    doc = {"name": "x", "stack": {"preset": 2, "frobnicate": 1},
           "grid": {"nx": 4, "ny": 4}}
    with pytest.raises(ConfigError, match="stack"):
        scenario_from_document(doc)


def test_config_requires_preset_xor_layers():
    doc = {"name": "x", "stack": {}, "grid": {"nx": 4, "ny": 4}}
    with pytest.raises(ConfigError, match="preset"):
        scenario_from_document(doc)


def test_config_unknown_material():
    doc = {"name": "x",
           "stack": {"layers": [{"role": "S0", "thickness_um": 500.0,
                                 "material": "unobtanium"}]},
           "grid": {"nx": 4, "ny": 4}}
    with pytest.raises(ConfigError, match="unobtanium"):
        scenario_from_document(doc)


def test_config_auto_place(tmp_path):
    yaml_text = BASE_YAML.replace(
        "  placements:\n    - {layer: 0, x_mm: 6.0, y_mm: 3.0}\n",
        "  auto_place: {k: 3}\n")
    sc = run_scenario(load_scenario(write_yaml(tmp_path, yaml_text))).scenario
    assert len(sc.sensors.sensors) == 3
    assert len(set(s.site for s in sc.sensors.sensors)) == 3


def test_config_rejects_placements_with_auto_place(tmp_path, capsys):
    yaml_text = BASE_YAML.replace("  placements:\n",
                                  "  auto_place: {k: 3}\n  placements:\n")
    path = write_yaml(tmp_path, yaml_text)
    with pytest.raises(ConfigError, match="auto_place"):
        load_scenario(path)
    assert main(["--config", path, "validate"]) == 1
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ({"noise_sigma": -1.0}, "noise_sigma and quantization_step must be >= 0"),
    ({"quantization_step": np.nan}, "must be finite"),
    ({"sample_period": 0.0}, "sample_period must be positive")])
def test_auto_place_checks_its_sensor_settings_when_built(setting, message):
    """Every placed sensor gets AutoPlace's fields after k, SensorSpec's
    last three in order, so they fail with SensorSpec's message when the
    AutoPlace is built, not in the sensors stage after the steady solve."""
    assert [f.name for f in fields(AutoPlace)][1:] == \
        [f.name for f in fields(SensorSpec)][3:]
    with pytest.raises(ValueError, match=message):
        AutoPlace(k=3, **setting)


def test_auto_place_is_one_stage_of_the_run(tmp_path):
    demo = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "demo_2layer.yaml")
    sc = load_scenario(demo)
    assert sc.sensors == AutoPlace(k=6, noise_sigma=0.5,
                                   quantization_step=0.25)
    report = run_scenario(sc)
    grid = report.steady_field.grid
    expected = place_sensors_greedy(tile_center_candidates(grid.config), 6,
                                    [report.steady_field])
    assert [s.site for s in report.scenario.sensors.sensors] == expected

    out = str(tmp_path / "demo")
    assert main(["--config", demo, "--out", out, "report"]) == 0
    assert main(["--config", demo, "--out", out, "place-sensors",
                 "--k", "6"]) == 0
    with open(f"{out}_sensors.csv") as a, open(f"{out}_placement.csv") as b:
        assert a.read() == b.read()


def test_every_seed_has_its_own_noise(tmp_path, capsys):
    """Seeds s and s + 2^31 draw different sensor noise; a seed below 2^31
    keeps its readings (these are the ones seed 5 always gave); a negative
    seed is rejected, also from the command line."""
    demo = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "demo_2layer.yaml")
    sc = replace(load_scenario(demo), transient=None, policy=None)
    low, high = (run_scenario(replace(sc, seed=s)).sensor_readings
                 for s in (5, 5 + 2 ** 31))
    assert low == [57.75, 44.75, 47.0, 47.5, 49.75, 49.25]
    assert high != low
    with pytest.raises(ValueError, match="seed must be >= 0"):
        replace(sc, seed=-1)
    assert main(["--config", demo, "--out", str(tmp_path / "run"),
                 "--seed", "-1", "steady"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_explicit_placements_read_with_the_run_seed(tmp_path):
    """Two explicit-placement documents that differ only in their seed,
    both run with --seed 5, are one scenario: the same config_hash and
    the same noisy readings, in the same report."""
    noisy = BASE_YAML.replace("noise_sigma: 0.0", "noise_sigma: 2.0")
    reports = []
    for seed in (3, 42):
        path = write_yaml(tmp_path, noisy.replace("seed: 3", f"seed: {seed}"),
                          f"seed{seed}.yaml")
        out = str(tmp_path / f"seed{seed}")
        assert main(["--config", path, "--out", out, "--seed", "5",
                     "steady"]) == 0
        with open(f"{out}_report.txt") as fh:
            reports.append(fh.read())
    assert "config_hash" in reports[0] and "== sensors ==" in reports[0]
    assert reports[0] == reports[1]
    sc = replace(load_scenario(path), seed=5)
    assert reports[0] == render_report(run_scenario(sc))
    assert run_scenario(replace(sc, seed=3)).sensor_readings \
        != run_scenario(sc).sensor_readings


def test_cli_validate_ok(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML)
    assert main(["--config", path, "validate"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_cli_invalid_config_exit_1(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML + "bogus_key: 1\n")
    assert main(["--config", path, "validate"]) == 1
    assert "validation error" in capsys.readouterr().err


def _keys(built_with) -> set[str]:
    """The keyword names of a dataclass, a function or a method (without
    self), or the union over a tuple of them; a string in the tuple is a
    key the mapping consumes itself."""
    if isinstance(built_with, tuple):
        return set().union(*map(_keys, built_with))
    if isinstance(built_with, str):
        return {built_with}
    if is_dataclass(built_with):
        return {f.name for f in fields(built_with)}
    return set(inspect.signature(built_with).parameters) - {"self"}


def _object_schema(block: str) -> dict:
    """The object branch of a top-level section or a $defs entry; a
    layer's farm is `tsv_farms`."""
    schema = _schema()
    spec = (schema["properties"].get(block) or schema["$defs"].get(block)
            or schema["$defs"]["layer"]["properties"][block]["items"])
    (obj,) = [b for b in spec.get("oneOf", [spec]) if b["type"] == "object"]
    return obj


@pytest.mark.parametrize("block, cls", [
    ("solve", SolveOptions), ("pdn", PdnParams),
    ("reliability", ReliabilityParams), ("transient", TransientSpec),
    ("grid", GridSpec), ("stack", (StackConfig, "preset")),
    ("layer", LayerSpec), ("tsv_farms", TsvFarmSpec),
    ("material", Material),
    ("profile", (Constant, Step, Periodic, load_trace_csv, "kind")),
    ("policy", (ThrottlePolicy, CoreSwapPolicy, "kind", "period_steps")),
    ("assignment", (PowerMap.apply_preset, PowerMap.set_tile_power,
                    PowerMap.set_uniform, "uniform")),
], ids=lambda v: v if isinstance(v, str) else "+".join(
    getattr(c, "__name__", c) for c in (v if isinstance(v, tuple) else (v,))))
def test_schema_blocks_match_dataclass_fields(block, cls):
    """Each section is built as cls(**section): a schema key without a
    field fails every load that sets it; a field without a schema key is
    a knob that YAML cannot reach. A per-kind section holds the union of
    its kinds' keys plus the keys the mapping consumes."""
    obj = _object_schema(block)
    assert set(obj["properties"]) == _keys(cls)


def test_sensor_keys_match_sensor_classes():
    """The section's shared keys go to every AutoPlace and SensorSpec."""
    shared = set(_object_schema("sensors")["properties"]) - {
        "placements", "auto_place"}
    props = _object_schema("sensors")["properties"]
    assert shared | set(props["auto_place"]["properties"]) == \
        _keys(AutoPlace)
    assert shared | set(props["placements"]["items"]["properties"]) == \
        _keys(SensorSpec)


@pytest.mark.parametrize("solve", ["{method: cg}", "{sor_omega: 1.5}"])
def test_cli_rejects_retired_solve_keys(tmp_path, capsys, solve):
    path = write_yaml(tmp_path, BASE_YAML + f"solve: {solve}\n")
    assert main(["--config", path, "validate"]) == 1
    assert "validation error" in capsys.readouterr().err


def test_cli_steady_writes_report(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML)
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "steady"]) == 0
    assert os.path.exists(f"{out}_report.txt")
    assert os.path.exists(f"{out}_steady_field.csv")
    assert "== steady state ==" in capsys.readouterr().out


def test_cli_overwrite_without_force_exit_3(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML)
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "steady"]) == 0
    assert main(["--config", path, "--out", out, "steady"]) == 3
    assert "io error" in capsys.readouterr().err
    assert main(["--config", path, "--out", out, "--force", "steady"]) == 0


@pytest.mark.parametrize("command, suffix", [
    ("place-sensors", "_placement.csv"), ("compare", "_comparison.tsv")])
def test_cli_single_file_commands_overwrite_only_with_force(
        tmp_path, capsys, command, suffix):
    path = write_yaml(tmp_path, BASE_YAML)
    args = {"place-sensors": ["place-sensors", "--k", "2"],
            "compare": ["compare", "--with", path]}[command]
    fresh = str(tmp_path / "fresh")
    assert main(["--config", path, "--out", fresh, *args]) == 0
    out = str(tmp_path / "run")
    target = tmp_path / f"run{suffix}"
    target.write_bytes(b"existing\r\n")
    assert main(["--config", path, "--out", out, *args]) == 3
    assert "refusing to overwrite" in capsys.readouterr().err
    assert target.read_bytes() == b"existing\r\n"
    assert main(["--config", path, "--out", out, "--force", *args]) == 0
    assert target.read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()


def test_cli_missing_config_exit_3(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.yaml"), "validate"]) == 3


@pytest.mark.parametrize("text, message", [
    ("name: [unclosed\n", "malformed YAML"),
    ("- a\n- list\n", "top level must be a mapping")])
def test_cli_unreadable_document_exit_1(tmp_path, capsys, text, message):
    path = write_yaml(tmp_path, text)
    assert main(["--config", path, "validate"]) == 1
    assert message in capsys.readouterr().err


def test_failed_write_is_an_export_error_exit_3(tmp_path, capsys):
    """--out into a directory that does not exist: the run completes and
    its first write fails."""
    path = write_yaml(tmp_path, BASE_YAML)
    out = str(tmp_path / "missing" / "run")
    assert main(["--config", path, "--out", out, "steady"]) == 3
    assert "io error: failed writing" in capsys.readouterr().err
    with pytest.raises(ExportError, match="failed writing"):
        export(run_scenario(make_scenario()), "text", out)
    assert not (tmp_path / "missing").exists()


def test_cli_transient_requires_section(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML)
    assert main(["--config", path, "transient"]) == 1
    assert "no transient section" in capsys.readouterr().err


def test_cli_pdn_reports_the_drop_per_plane(tmp_path, capsys):
    """`pdn` drops the transient, policy, sensor and reliability stages,
    writes the report and the PGM maps, and prints one line per plane."""
    path = write_yaml(tmp_path, BASE_YAML)
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "pdn"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for p, line in enumerate(lines):
        assert re.fullmatch(rf"plane {p}: max_drop_v=\S+", line)
    assert sorted(os.listdir(tmp_path)) == [
        "run_pdn_drop_P0.pgm", "run_pdn_drop_P1.pgm", "run_report.txt",
        "run_steady_L1.pgm", "run_steady_L3.pgm", "scenario.yaml"]
    report = (tmp_path / "run_report.txt").read_text()
    assert "== pdn ==" in report
    assert "== sensors ==" not in report
    assert "== reliability ==" not in report


def test_cli_pdn_requires_section(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML.replace(
        "pdn:\n  nx: 8\n  ny: 4\n", "pdn: disabled\n"))
    assert main(["--config", path, "pdn"]) == 1
    assert "no pdn section" in capsys.readouterr().err


def test_cli_validate_prints_each_violation(tmp_path, capsys):
    text = BASE_YAML.replace("stack:\n  preset: 2\n", """\
stack:
  die_width_mm: 12.0
  die_length_mm: 6.0
  layers:
    - {role: SP, thickness_um: 50.0, material: silicon}
    - {role: S0, thickness_um: 500.0, material: silicon, has_tsvs: true}
""")
    path = write_yaml(tmp_path, text)
    assert main(["--config", path, "validate"]) == 1
    assert capsys.readouterr().out == (
        "layer 1: [s0-tsv] S0 (heat-sink-adjacent die) carries no TSVs\n")


def test_steady_without_sensors_reports_unobserved_hotspot(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML.replace(
        "  placements:\n    - {layer: 0, x_mm: 6.0, y_mm: 3.0}\n",
        "  placements: []\n"))
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "steady"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("== sensors ==")
    assert lines[at + 1] == "hotspot_error: unobserved"


def _demo_with_p_high(tmp_path, p_high):
    demo = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "demo_2layer.yaml")
    with open(demo) as fh:
        text = fh.read()
    assert "p_high: 60.0" in text
    return write_yaml(tmp_path, text.replace("p_high: 60.0",
                                             f"p_high: {p_high}"))


def test_cli_nan_power_exit_1(tmp_path, capsys):
    """A NaN is rejected when the document is loaded, before any solve."""
    path = _demo_with_p_high(tmp_path, ".nan")
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "steady"]) == 1
    assert ("power/assignments/2/profile/p_high: nan is not of type "
            "'number'") in capsys.readouterr().err
    assert not os.path.exists(f"{out}_report.txt")


def test_cli_overflowing_power_exit_2(tmp_path, capsys):
    """A finite density whose W/m^2 value overflows reaches the solver as
    a non-finite source: a numerical failure, and no report."""
    path = _demo_with_p_high(tmp_path, "1.0e+308")
    out = str(tmp_path / "run")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["--config", path, "--out", out, "steady"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(f"{out}_report.txt")


def test_cli_unbalanced_steady_field_exit_2(tmp_path, capsys,
                                            monkeypatch):
    """A steady field whose boundary outflux misses the injected power
    (planted: 1 mK added to a converged solve) is a numerical failure,
    and no report is written."""
    import stackemu.solver as solver
    real = solver.solve_cg
    monkeypatch.setattr(solver, "solve_cg",
                        lambda *args, **kw: real(*args, **kw) + 1e-3)
    path = _demo_with_p_high(tmp_path, "60.0")
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "steady"]) == 2
    assert "energy balance" in capsys.readouterr().err
    assert not os.path.exists(f"{out}_report.txt")


def test_cli_report_checks_every_target_before_writing(tmp_path, capsys):
    """A stale PGM fails the report before the text and CSV files, which
    come first, are written."""
    yaml_text = BASE_YAML.replace("transient: steady-only",
                                  "transient: {t_end: 0.02, dt: 0.01}")
    path = write_yaml(tmp_path, yaml_text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    stale = out_dir / "run_steady_L1.pgm"
    stale.write_text("stale")
    before = {p.name: (p.stat().st_mtime_ns, p.read_bytes())
              for p in out_dir.iterdir()}
    assert main(["--config", path, "--out", str(out_dir / "run"),
                 "report"]) == 3
    assert "refusing to overwrite" in capsys.readouterr().err
    assert {p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in out_dir.iterdir()} == before
    assert main(["--config", path, "--out", str(out_dir / "run"),
                 "--force", "report"]) == 0
    assert stale.read_text().startswith("P2")


def test_transient_spec_rejects_non_finite():
    for t_end, dt in ((1.0, float("nan")), (1.0, float("inf")),
                      (float("nan"), 0.1), (float("inf"), 0.1)):
        with pytest.raises(ValueError, match="finite"):
            TransientSpec(t_end=t_end, dt=dt)


def test_stackemu_threads_overrides_blas_variables(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.setenv("STACKEMU_THREADS", "1")
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    _apply_thread_cap()
    assert [os.environ[var] for var in ("OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")] == ["1", "1", "1"]


def test_cli_seed_override_changes_hash(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["--config", path, "--out", out1, "--seed", "11",
                 "steady"]) == 0
    assert main(["--config", path, "--out", out2, "--seed", "12",
                 "steady"]) == 0
    with open(f"{out1}_report.txt") as fa, open(f"{out2}_report.txt") as fb:
        a, b = fa.read(), fb.read()
    assert "seed: 11" in a and "seed: 12" in b


def test_cli_place_sensors(tmp_path, capsys):
    path = write_yaml(tmp_path, BASE_YAML)
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "place-sensors",
                 "--k", "2"]) == 0
    assert os.path.exists(f"{out}_placement.csv")
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_cli_compare(tmp_path, capsys):
    p1 = write_yaml(tmp_path, BASE_YAML, "a.yaml")
    p2 = write_yaml(tmp_path, BASE_YAML.replace("preset: 2", "preset: 4")
                    .replace("yaml-demo", "zz-4layer"), "b.yaml")
    out = str(tmp_path / "cmp")
    assert main(["--config", p1, "--out", out, "compare",
                 "--with", p2]) == 0
    with open(f"{out}_comparison.tsv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("yaml-demo\t")
    assert lines[2].startswith("zz-4layer\t")


def test_cli_report_full_pipeline(tmp_path, capsys):
    yaml_text = BASE_YAML.replace(
        "transient: steady-only",
        "transient: {t_end: 0.05, dt: 0.01}").replace(
        "policy: none",
        "policy: {kind: throttle, trigger_t: 26.0, release_t: 25.5,\n"
        "         period_steps: 1}")
    path = write_yaml(tmp_path, yaml_text)
    out = str(tmp_path / "run")
    assert main(["--config", path, "--out", out, "report"]) == 0
    with open(f"{out}_report.txt") as fh:
        text = fh.read()
    assert "== transient final ==" in text
    assert "== policy events ==" in text


def test_pyproject_version_is_the_package_version():
    """Both are bumped by hand whenever reported values move; a regex, not
    tomllib, so the test runs on Python 3.10."""
    path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(path) as fh:
        match = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.M)
    assert match and match.group(1) == stackemu.__version__


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Under the repository's pytest settings (warnings are errors), a
    failing @given test is reported as one failure and the tests after it
    still run."""
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_passes():\n"
        "    pass\n")
    config = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", config, "-q",
         "-p", "no:cacheprovider", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
