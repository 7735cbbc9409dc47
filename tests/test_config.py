import copy
import hashlib
import importlib.util
import os
import subprocess
import sys

import jsonschema
import pytest
import yaml

from stackemu.cli import main
from stackemu.config import (ConfigError, _schema, _validator,
                             load_scenario, scenario_from_document,
                             validate_document)
from stackemu.materials import Material
from stackemu.scenario import run_scenario, scenario_hash

DEMO = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                    "demo_2layer.yaml")


def demo_doc() -> dict:
    with open(DEMO) as fh:
        return yaml.safe_load(fh)


def farm_doc() -> dict:
    """An explicit four-die stack with a Cu and a lined W farm per thinned
    die, steady only. Each die has its own farm dicts, so editing one leaf
    edits one die (shared dicts would also dump as YAML aliases)."""
    cu = {"x0_mm": 1.0, "y0_mm": 1.0, "x1_mm": 3.0, "y1_mm": 3.0,
          "via_diameter_um": 5.0, "via_pitch_um": 10.0,
          "fill_material": "copper"}
    w = {"x0_mm": 7.0, "y0_mm": 2.0, "x1_mm": 9.0, "y1_mm": 4.0,
         "via_diameter_um": 5.0, "via_pitch_um": 10.0,
         "fill_material": "tungsten", "liner_thickness_um": 0.5,
         "liner_material": "sio2"}
    layers = [{"role": "package_interface", "thickness_um": 80.0,
               "material": "package_bumps"}]
    for role in ("SP", "SN2", "SN1"):
        layers += [{"role": role, "thickness_um": 50.0, "material": "silicon",
                    "has_tsvs": True, "tsv_farms": [dict(cu), dict(w)]},
                   {"role": "bond_interface", "thickness_um": 20.0,
                    "material": "bond_underfill"}]
    layers += [{"role": "S0", "thickness_um": 500, "material": "silicon"},
               {"role": "heat_sink_interface", "thickness_um": 30.0,
                "material": "tim"}]
    return {"name": "farms", "seed": 7,
            "stack": {"die_width_mm": 12.0, "die_length_mm": 6.0,
                      "layers": layers},
            "grid": {"nx": 24, "ny": 12},
            "power": {"assignments": [{"layer": 0, "preset": "cpu_core"}]},
            "sensors": {"auto_place": {"k": 4}},
            "pdn": {"nx": 24, "ny": 12},
            "reliability": {},
            "transient": "steady-only"}


def test_bundled_schema_is_valid_for_its_meta_schema():
    schema = _schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_validator_is_built_once():
    assert _validator() is _validator()


@pytest.mark.parametrize("doc", [demo_doc(), farm_doc()],
                         ids=["demo", "farms"])
def test_valid_documents_load(doc):
    validate_document(doc)
    scenario_from_document(doc)


def _unknown_key(doc):
    doc["bogus_key"] = 1


def _wrong_type(doc):
    doc["grid"]["nx"] = "32"


def _below_minimum(doc):
    doc["grid"]["ny"] = 1


def _missing_required(doc):
    del doc["grid"]


def _bad_enum(doc):
    doc["stack"]["preset"] = 5


def _bad_one_of(doc):
    doc["pdn"] = "enabled"


def _farm_missing_pitch(doc):
    del doc["stack"]["layers"][3]["tsv_farms"][1]["via_pitch_um"]


def _farm_negative_diameter(doc):
    doc["stack"]["layers"][1]["tsv_farms"][0]["via_diameter_um"] = -5.0


@pytest.mark.parametrize("base, edit", [
    (demo_doc, _unknown_key), (demo_doc, _wrong_type),
    (demo_doc, _below_minimum), (demo_doc, _missing_required),
    (demo_doc, _bad_enum), (demo_doc, _bad_one_of),
    (farm_doc, _farm_missing_pitch), (farm_doc, _farm_negative_diameter),
], ids=lambda v: v.__name__.strip("_"))
def test_messages_match_jsonschema_validate(base, edit):
    """The cached validator raises the same error jsonschema.validate
    raises, so every ConfigError message is unchanged."""
    doc = base()
    edit(doc)
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(doc, _schema())
    path = "/".join(str(p) for p in ref.value.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        validate_document(doc)
    assert str(got.value) == f"config invalid at {path}: {ref.value.message}"


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, path + (key,))


def _with_leaf(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


NUMERIC_LEAVES = list(_numeric_leaves(demo_doc()))
INTEGER_LEAVES = [p for p in NUMERIC_LEAVES
                  if isinstance(_leaf(demo_doc(), p), int)]


def _report(tmp_path, doc, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["--config", str(path), "--out", str(tmp_path / "run"),
                 "report"])
    out, err = capsys.readouterr()
    return code, out, err


def test_malformed_yaml_exits_1_without_traceback(tmp_path):
    """The command line, as its own process, on a document that is not
    YAML: a validation error, no traceback and no output file."""
    path = tmp_path / "scenario.yaml"
    path.write_text("stack: [1, 2\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(__file__), "..", "src"),
        os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "stackemu.cli", "--config", str(path),
         "--out", str(tmp_path / "run"), "report"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "validation error" in done.stderr
    assert "malformed YAML" in done.stderr
    assert "Traceback" not in done.stderr
    assert os.listdir(tmp_path) == ["scenario.yaml"]


def test_demo_has_the_numeric_leaves_the_fuzz_expects():
    assert len(NUMERIC_LEAVES) == 23 and len(INTEGER_LEAVES) == 12


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("leaf", NUMERIC_LEAVES,
                         ids=lambda p: "/".join(map(str, p)))
def test_non_finite_leaf_never_reports(tmp_path, capsys, leaf, value):
    code, out, err = _report(tmp_path, _with_leaf(demo_doc(), leaf, value),
                             capsys)
    assert code in (1, 2)
    assert ": nan" not in out and "=nan" not in out
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "run_report.txt")


def small_farm_doc() -> dict:
    doc = farm_doc()
    doc["grid"] = {"nx": 12, "ny": 6}
    doc["pdn"] = {"nx": 12, "ny": 6}
    return doc


FARM_LEAVES = [p for p in _numeric_leaves(small_farm_doc())
               if "tsv_farms" in p]


def test_small_farm_doc_reports(tmp_path, capsys):
    """The unedited document the farm fuzz starts from reports."""
    assert len(FARM_LEAVES) == 3 * (6 + 7)
    code, _, err = _report(tmp_path, small_farm_doc(), capsys)
    assert code == 0, err
    assert os.path.exists(tmp_path / "run_report.txt")


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("leaf", FARM_LEAVES,
                         ids=lambda p: "/".join(map(str, p)))
def test_non_finite_farm_leaf_rejected_at_load(tmp_path, capsys, leaf,
                                               value):
    code, _, err = _report(
        tmp_path, _with_leaf(small_farm_doc(), leaf, value), capsys)
    assert code == 1
    assert f"config invalid at {'/'.join(map(str, leaf))}: " in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "run_report.txt")


def _assert_float_for_integer_rejected(tmp_path, capsys, doc, leaf):
    """The integer at leaf given as the equal float: exit 1 naming the
    leaf, and no report."""
    doc = _with_leaf(doc, leaf, float(_leaf(doc, leaf)))
    code, _, err = _report(tmp_path, doc, capsys)
    assert code == 1
    path = "/".join(map(str, leaf))
    assert f"config invalid at {path}: " in err
    assert "is not of type 'integer'" in err
    assert not os.path.exists(tmp_path / "run_report.txt")


@pytest.mark.parametrize("leaf", INTEGER_LEAVES,
                         ids=lambda p: "/".join(map(str, p)))
def test_float_for_integer_rejected_at_load(tmp_path, capsys, leaf):
    _assert_float_for_integer_rejected(tmp_path, capsys, demo_doc(), leaf)


def _schema_type(path):
    """The type the bundled schema gives the document leaf at path,
    through its $refs and the object branch of a oneOf."""
    schema = node = _schema()
    for key in path + (None,):
        while "$ref" in node or "oneOf" in node:
            node = (schema["$defs"][node["$ref"].rsplit("/", 1)[1]]
                    if "$ref" in node else next(
                        b for b in node["oneOf"] if b.get("type") == "object"))
        if key is None:
            return node["type"]
        node = node["items"] if isinstance(key, int) \
            else node["properties"][key]


# The farm document writes one number key as an int (S0's thickness_um),
# so its integer leaves are the schema's, not the ints it holds.
FARM_INTEGER_LEAVES = [p for p in _numeric_leaves(small_farm_doc())
                       if _schema_type(p) == "integer"]


def test_farm_doc_has_the_integer_leaves_the_fuzz_expects():
    assert FARM_INTEGER_LEAVES == [
        ("seed",), ("grid", "nx"), ("grid", "ny"),
        ("power", "assignments", 0, "layer"),
        ("sensors", "auto_place", "k"), ("pdn", "nx"), ("pdn", "ny")]
    assert all(_schema_type(p) == "integer" for p in INTEGER_LEAVES)


@pytest.mark.parametrize("leaf", FARM_INTEGER_LEAVES,
                         ids=lambda p: "/".join(map(str, p)))
def test_float_for_integer_farm_leaf_rejected_at_load(tmp_path, capsys,
                                                     leaf):
    _assert_float_for_integer_rejected(tmp_path, capsys, small_farm_doc(),
                                       leaf)


def test_bool_is_not_an_integer():
    doc = demo_doc()
    doc["grid"]["sub_slabs_per_layer"] = True
    with pytest.raises(ConfigError, match="True is not of type 'integer'"):
        validate_document(doc)


SIC_YAML = """\
name: sic
stack:
  die_width_mm: 12.0
  die_length_mm: 6.0
  layers:
    - role: SP
      thickness_um: 50.0
      material: {name: sic, k: 370.0, volumetric_heat_capacity: 2.2e+6,
                 k_lateral: 390.0}
    - {role: S0, thickness_um: 500.0, material: silicon}
grid: {nx: 8, ny: 4}
"""


def test_material_mapping_loads_as_that_material(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SIC_YAML)
    assert load_scenario(str(path)).stack.layers[0].material == Material(
        "sic", k=370.0, volumetric_heat_capacity=2.2e6, k_lateral=390.0)


def test_exponent_without_sign_is_a_string(tmp_path, capsys):
    """PyYAML reads YAML 1.1, where a float needs a dot and a signed
    exponent: `2.2e6` loads as a string and fails the schema."""
    path = tmp_path / "scenario.yaml"
    path.write_text(SIC_YAML.replace("2.2e+6", "2.2e6"))
    assert main(["--config", str(path), "validate"]) == 1
    assert "'2.2e6' is not of type 'number'" in capsys.readouterr().err


def _add_assignment(doc, **assignment):
    doc["power"]["assignments"].append({"layer": 1, **assignment})


def _no_die_size(doc):
    doc["stack"] = copy.deepcopy(farm_doc()["stack"])
    del doc["stack"]["die_width_mm"], doc["stack"]["die_length_mm"]


def _coreswap(doc, pairing, **extra):
    doc["policy"] = {"kind": "coreswap", "trigger_t": 55.0,
                     "release_t": 50.0, "pairing": pairing, **extra}


# (edit of the demo document, trace CSV written beside it or None, the
# fragment stderr must hold). Each loads without complaint or ends in a
# traceback unless every section is built with exactly its class's keys.
MALFORMED = {
    "step-without-p1": (lambda d: _add_assignment(
        d, row=0, col=0, profile={"kind": "step", "p0": 1.0,
                                  "t_switch": 0.1}),
        None, "power/assignments/3/profile: Step.__init__() missing"),
    "periodic-without-period": (lambda d: _add_assignment(
        d, row=0, col=0, profile={"kind": "periodic", "p_low": 1.0,
                                  "p_high": 2.0}),
        None, "power/assignments/3/profile: Periodic.__init__() missing"),
    "trace-without-path": (lambda d: _add_assignment(
        d, uniform={"kind": "trace_csv"}),
        None, "power/assignments/3/uniform: load_trace_csv() missing"),
    "layers-without-die-size": (_no_die_size, None,
                                "config invalid at stack: "),
    "tile-row-out-of-range": (lambda d: _add_assignment(
        d, row=99, col=0, profile={"kind": "constant", "p": 1.0}),
        None, "power/assignments/3: tile (99, 0) out of range"),
    "constant-with-p0": (lambda d: _add_assignment(
        d, uniform={"kind": "constant", "p0": 3.0}),
        None, "power/assignments/3/uniform: Constant.__init__() got an "
              "unexpected keyword argument 'p0'"),
    "uniform-with-row-col": (lambda d: _add_assignment(
        d, row=0, col=0, uniform={"kind": "constant", "p": 3.0}),
        None, "power/assignments/3: PowerMap.set_uniform() got an "
              "unexpected keyword argument"),
    "coreswap-with-throttle-factor": (lambda d: _coreswap(
        d, [[[0, 1, 3], [1, 0, 0]]], throttle_factor=0.6),
        None, "config invalid at policy: CoreSwapPolicy.__init__() got an "
              "unexpected keyword argument 'throttle_factor'"),
    "step-count-not-finite": (lambda d: d["transient"].update(
        t_end=1.0e+300, dt=1.0e-300), None, "not a finite step count"),
    "pairing-tile-out-of-range": (lambda d: _coreswap(
        d, [[[0, 9, 9], [1, 0, 0]]]),
        None, "policy/pairing: tile (9, 9) out of range for 4x8 grid"),
    "assignment-with-only-layer": (_add_assignment, None,
        "config invalid at power/assignments/3: needs one of 'preset', "
        "'uniform' or 'profile'"),
    "short-trace-row": (lambda d: _add_assignment(
        d, uniform={"kind": "trace_csv", "path": "trace.csv"}),
        "t_seconds,power_w_per_cm2\n0.0,1.0\n0.1\n",
        "trace.csv line 3: expected 2 fields, got 1"),
    "non-numeric-trace-cell": (lambda d: _add_assignment(
        d, uniform={"kind": "trace_csv", "path": "trace.csv"}),
        "t_seconds,power_w_per_cm2\n0.0,1.0\n0.1,abc\n",
        "trace.csv line 3: could not convert string to float: 'abc'"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_section_exits_1_at_load(tmp_path, capsys, case):
    """A key of another kind, a missing required key, an out-of-range
    tile, a step count that is not finite, a short trace row or a trace
    cell that is not a number: exit 1
    naming the problem, no traceback and no output file."""
    edit, trace, fragment = MALFORMED[case]
    doc = demo_doc()
    edit(doc)
    inputs = ["scenario.yaml"]
    if trace is not None:
        (tmp_path / "trace.csv").write_text(trace)
        inputs.append("trace.csv")
    code, _, err = _report(tmp_path, doc, capsys)
    assert code == 1
    assert "validation error" in err and fragment in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == sorted(inputs)


@pytest.mark.parametrize("row, message", [
    ("0.1,nan", "power profile values must be finite"),
    ("0.1,inf", "power profile values must be finite"),
    ("0.0,2.0", "trace timestamps must be strictly increasing")],
    ids=["nan", "inf", "repeated-time"])
def test_trace_content_error_names_key_file_and_line(tmp_path, capsys, row,
                                                     message):
    """A trace cell that is not finite, or a timestamp that does not
    increase, is a validation error (exit 1, no output file) that names
    the YAML key, the trace file and its line."""
    doc = demo_doc()
    _add_assignment(doc, row=0, col=0,
                    profile={"kind": "trace_csv", "path": "trace.csv"})
    trace = tmp_path / "trace.csv"
    trace.write_text(f"t_seconds,power_w_per_cm2\n0.0,1.0\n{row}\n")
    code, _, err = _report(tmp_path, doc, capsys)
    assert code == 1
    assert (f"validation error: config invalid at power/assignments/3/"
            f"profile: {trace} line 3: {message}") in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["scenario.yaml", "trace.csv"]


@pytest.mark.parametrize("edit", [
    lambda d: None,
    lambda d: _coreswap(d, [[[0, 1, 3], [1, 1, 3]]])],
    ids=["throttle", "coreswap"])
def test_policy_without_sensors_exits_1(tmp_path, capsys, edit):
    """A policy acts on sensor readings, so with no sensor it could never
    act: the document fails at load, before any file is written."""
    doc = demo_doc()
    doc["sensors"] = {"placements": []}
    edit(doc)
    code, _, err = _report(tmp_path, doc, capsys)
    assert code == 1
    assert "a DTM policy requires a sensor network" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["scenario.yaml"]


@pytest.mark.parametrize("command", ["validate", "report"])
def test_policy_without_transient_exits_1(tmp_path, capsys, command):
    """A policy acts only in the transient march, so a steady-only document
    with a policy fails at load rather than report no events."""
    doc = demo_doc()
    doc["transient"] = "steady-only"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["--config", str(path), "--out", str(tmp_path / "run"),
                 command])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "a DTM policy needs a transient section" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["scenario.yaml"]


def _placements(*sites):
    return {"placements": [dict(zip(("layer", "x_mm", "y_mm"), site))
                           for site in sites]}


@pytest.mark.parametrize("sensors, rule", [
    (_placements(), "a DTM policy requires a sensor network"),
    (_placements((0, 50.0, 3.0)),
     "sensor site (50.0, 3.0) mm outside the die"),
    (_placements((5, 6.0, 3.0)), "device layer 5 out of range"),
    ({"auto_place": {"k": 500}}, "k exceeds candidate count")],
    ids=["no-sensors", "off-die", "no-such-layer", "k-over-candidates"])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_sensor_rules_fail_at_load(tmp_path, capsys, command, sensors, rule):
    """Each sensor rule that the run would break is checked when the
    document loads: `validate` and `report` both exit 1 naming it, and
    nothing is written."""
    doc = demo_doc()
    doc["sensors"] = sensors
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["--config", str(path), "--out", str(tmp_path / "run"),
                 command])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert f"validation error: {rule}" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["scenario.yaml"]


def test_step_count_over_the_cap_fails_validate(tmp_path, capsys):
    """`validate` only loads the document, so a 10^9-step march is
    rejected without a step being run."""
    doc = demo_doc()
    doc["transient"].update(t_end=1.0, dt=1.0e-9)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["--config", str(path), "validate"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "validation error" in err and "MAX_STEPS = 10000000" in err
    assert "Traceback" not in err


def test_one_step_transient_reports_reliability(tmp_path, capsys):
    """A one-step march gives each layer trace a single sample: a flat
    trace, as in a steady-only run, so the cycling damage is 0."""
    doc = {"name": "one-step", "stack": {"preset": 2},
           "grid": {"nx": 16, "ny": 8},
           "power": {"assignments": [{"layer": 0, "preset": "cpu_core"}]},
           "reliability": {}, "transient": {"t_end": 0.005, "dt": 0.005}}
    code, out, err = _report(tmp_path, doc, capsys)
    assert code == 0, err
    damage = [line for line in out.splitlines() if "cycling_damage=" in line]
    assert len(damage) == 2
    assert all(line.endswith(" cycling_damage=0.0") for line in damage)


@pytest.mark.parametrize("command", ["validate", "report"])
def test_disconnected_pdn_fails_before_any_solve(tmp_path, capsys,
                                                 monkeypatch, command):
    """The demo with an SP die without TSVs leaves its upper PDN plane with
    no path to the supply: `validate` and `report` both exit 1 naming it,
    before the steady solve, and nothing is written."""
    import stackemu.scenario

    solves = []
    monkeypatch.setattr(stackemu.scenario, "solve_steady",
                        lambda *args: solves.append(args))
    doc = demo_doc()
    doc["stack"] = {"die_width_mm": 12.0, "die_length_mm": 6.0, "layers": [
        {"role": role, "thickness_um": um, "material": material}
        for role, um, material in (
            ("package_interface", 80.0, "package_bumps"),
            ("SP", 50.0, "silicon"),
            ("bond_interface", 20.0, "bond_underfill"),
            ("S0", 500.0, "silicon"), ("heat_sink_interface", 30.0, "tim"))]}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["--config", str(path), "--out", str(tmp_path / "run"),
                 command])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "128 PDN nodes have no path to the supply" in err
    assert "Traceback" not in err
    assert solves == []
    assert os.listdir(tmp_path) == ["scenario.yaml"]


def _workloads():
    """perfbench/workloads.py, imported from its file and only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(os.path.dirname(__file__), "..",
                                            "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


# sha256 of the space-joined scenario_hash of each workload document, per
# (workload, seed).
WORKLOAD_DIGESTS = {
    ("transient_dtm", 0): "e225ea0c68eeaa44",
    ("transient_dtm", 1): "2020f85aa4de4b63",
    ("transient_dtm", 2): "44224b11fb800208",
    ("transient_dtm", 3): "9fb98d11430b6e0a",
    ("steady_tsv", 0): "9ae2178af19e72ab",
    ("steady_tsv", 1): "4a0d2f12e7f5d186",
    ("steady_tsv", 2): "8304541d826f4e4d",
    ("steady_tsv", 3): "be20fba282644cbe",
    ("sweep_small", 0): "03fcd95dc039ebeb",
    ("sweep_small", 1): "dc128d576907592e",
    ("sweep_small", 2): "886116018b0e937a",
    ("sweep_small", 3): "2d68fe19434246c2",
}


@pytest.mark.parametrize("workload, seed", WORKLOAD_DIGESTS,
                         ids=lambda v: str(v))
def test_benchmark_documents_map_to_the_same_scenarios(workload, seed):
    """Every document the benchmark feeds load_scenario (after the same
    YAML round trip) loads, and its Scenario repr, hence config_hash, is
    pinned."""
    docs = _workloads()[workload](seed)
    hashes = " ".join(
        scenario_hash(scenario_from_document(yaml.safe_load(
            yaml.safe_dump(doc)))) for doc in docs)
    assert hashlib.sha256(hashes.encode()).hexdigest()[:16] == \
        WORKLOAD_DIGESTS[workload, seed]


def test_demo_report_config_hash_is_pinned():
    assert scenario_hash(run_scenario(load_scenario(DEMO)).scenario) == \
        "4a9470b38d27db18"
