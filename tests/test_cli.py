"""The command line's run commands: each loads the document once, makes
one `run_scenario` call with the sections it does not report cleared,
and writes exactly its own outputs."""

import os

import pytest

import stackemu.scenario
from stackemu.cli import main
from stackemu.config import load_scenario
from stackemu.scenario import AutoPlace

# Every optional section present, so that each command's clears show.
DOC = """\
name: cli-runs
seed: 3
stack:
  preset: 2
grid:
  nx: 8
  ny: 4
power:
  assignments:
    - layer: 0
      uniform: {kind: constant, p: 40.0}
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
transient:
  t_end: 0.02
  dt: 0.005
policy:
  kind: throttle
  trigger_t: 40.0
  release_t: 35.0
  throttle_factor: 0.6
  period_steps: 1
"""

SECTIONS = ("transient", "policy", "sensors", "pdn", "reliability")
FIELDS = ("run_steady_field.csv", "run_sensors.csv",
          "run_stress_hotspots.csv", "run_report.txt")
PDN_MAPS = ("run_pdn_drop_P0.pgm", "run_pdn_drop_P1.pgm")
LAYER_MAPS = ("run_steady_L1.pgm", "run_steady_L3.pgm")


@pytest.mark.parametrize("args, cleared, written", [
    (["steady"], {"transient", "policy"}, FIELDS),
    (["transient"], set(), FIELDS + ("run_final_field.csv",)),
    (["report"], set(),
     FIELDS + ("run_final_field.csv",) + PDN_MAPS + LAYER_MAPS),
    (["pdn"], {"transient", "policy", "sensors", "reliability"},
     ("run_report.txt",) + PDN_MAPS + LAYER_MAPS),
    (["place-sensors", "--k", "2"],
     {"transient", "policy", "pdn", "reliability"}, ("run_placement.csv",)),
], ids=["steady", "transient", "report", "pdn", "place-sensors"])
def test_run_command_makes_one_run_and_writes_its_files(
        tmp_path, monkeypatch, capsys, args, cleared, written):
    config = tmp_path / "scenario.yaml"
    config.write_text(DOC)
    loaded = load_scenario(config)
    calls = []
    real = stackemu.scenario.run_scenario

    def run_scenario(scenario):
        calls.append(scenario)
        return real(scenario)

    monkeypatch.setattr(stackemu.scenario, "run_scenario", run_scenario)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--config", str(config), "--out", str(out / "run"),
                 *args]) == 0
    assert len(calls) == 1
    (run,) = calls
    for section in SECTIONS:
        expected = None if section in cleared else getattr(loaded, section)
        if args[0] == "place-sensors" and section == "sensors":
            expected = AutoPlace(2)
        assert getattr(run, section) == expected, section
    assert sorted(os.listdir(out)) == sorted(written)
    assert capsys.readouterr().err == ""


# A TSV farm makes the steady solve iterate, which one iteration cannot
# finish.
FARM_DOC = """\
name: cli-farm
seed: 3
stack:
  die_width_mm: 12.0
  die_length_mm: 6.0
  layers:
    - {role: package_interface, thickness_um: 80.0, material: package_bumps}
    - role: SP
      thickness_um: 50.0
      material: silicon
      has_tsvs: true
      tsv_farms:
        - {x0_mm: 1.0, y0_mm: 1.0, x1_mm: 3.0, y1_mm: 3.0,
           via_diameter_um: 5.0, via_pitch_um: 10.0, fill_material: copper}
    - {role: bond_interface, thickness_um: 20.0, material: bond_underfill}
    - {role: S0, thickness_um: 500.0, material: silicon}
    - {role: heat_sink_interface, thickness_um: 30.0, material: tim}
grid: {nx: 32, ny: 16}
power:
  assignments:
    - {layer: 0, preset: cpu_core}
    - {layer: 1, preset: cache}
pdn: {}
solve: {max_iterations: 1}
"""


def test_unconverged_solve_exits_2_and_writes_nothing(tmp_path, capsys):
    """A solve that runs out of iterations fails its stage: exit 2, the
    stage and the cause on stderr, and no report."""
    config = tmp_path / "scenario.yaml"
    config.write_text(FARM_DOC)
    assert main(["--config", str(config), "--out", str(tmp_path / "run"),
                 "steady"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: scenario failed in stage 'steady-solve': "
        "linear solve did not converge")
    assert os.listdir(tmp_path) == ["scenario.yaml"]


def test_reference_temperature_at_or_below_absolute_zero_exits_1(
        tmp_path, capsys):
    """The bound sits in the schema too, so the error names the key."""
    config = tmp_path / "scenario.yaml"
    config.write_text(DOC.replace("reliability: {}",
                                  "reliability: {reference_t_c: -300.0}"))
    for command in ("validate", "report"):
        assert main(["--config", str(config), "--out",
                     str(tmp_path / "run"), command]) == 1
        assert "config invalid at reliability/reference_t_c" in \
            capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scenario.yaml"]
