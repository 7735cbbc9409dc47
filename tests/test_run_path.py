"""The run path imports nothing it does not need: scipy only inside the
matrix oracles (`lattice_matrix`), and no module at all between loading a
scenario and the end of its export. Each check runs in a fresh
interpreter, so that what earlier tests imported cannot hide an import."""

import json
import os
import subprocess
import sys

import pytest
import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO = os.path.join(ROOT, "scenarios", "demo_2layer.yaml")


def _farm(x0, y0, **fill):
    return {"x0_mm": x0, "y0_mm": y0, "x1_mm": x0 + 2.0, "y1_mm": y0 + 2.0,
            "via_diameter_um": 5.0, "via_pitch_um": 10.0, **fill}


# A small farm transient: Cu and W + SiO2-liner TSV farms on the SP die,
# 8 steps under a throttle policy that fires, with every report section.
FARM_TRANSIENT = {
    "name": "farm-throttle", "seed": 7,
    "stack": {"die_width_mm": 12.0, "die_length_mm": 6.0, "layers": [
        {"role": "package_interface", "thickness_um": 80.0,
         "material": "package_bumps"},
        {"role": "SP", "thickness_um": 50.0, "material": "silicon",
         "has_tsvs": True, "tsv_farms": [
             _farm(1.0, 1.0, fill_material="copper"),
             _farm(7.0, 2.0, fill_material="tungsten",
                   liner_thickness_um=0.5, liner_material="sio2")]},
        {"role": "bond_interface", "thickness_um": 20.0,
         "material": "bond_underfill"},
        {"role": "S0", "thickness_um": 500.0, "material": "silicon"},
        {"role": "heat_sink_interface", "thickness_um": 30.0,
         "material": "tim"}]},
    "grid": {"nx": 32, "ny": 16},
    "power": {"assignments": [{"layer": 0, "preset": "cpu_core"},
                              {"layer": 1, "preset": "cache"}]},
    "sensors": {"noise_sigma": 0.5, "quantization_step": 0.25,
                "auto_place": {"k": 4}},
    "pdn": {"nx": 16, "ny": 8},
    "reliability": {},
    "transient": {"t_end": 0.04, "dt": 0.005},
    "policy": {"kind": "throttle", "trigger_t": 27.0, "release_t": 26.0,
               "throttle_factor": 0.6, "period_steps": 2},
}

# Makes every import of scipy or a scipy submodule raise.
BLOCK_SCIPY = """
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, BlockScipy())
"""


def run_python(code: str, *args) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports stackemu from src."""
    src = os.path.join(ROOT, "src")
    prelude = f"import sys\nsys.path.insert(0, {src!r})\n"
    return subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(params=["demo", "farm"])
def document(request, tmp_path):
    if request.param == "demo":
        return DEMO
    path = tmp_path / "farm.yaml"
    path.write_text(yaml.safe_dump(FARM_TRANSIENT))
    return str(path)


def test_importing_the_cli_and_runner_leaves_scipy_out():
    proc = run_python("import stackemu.cli, stackemu.scenario\n"
                      "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_report_runs_with_scipy_blocked(document, tmp_path):
    """`stackemu report` exits 0 with scipy imports made to raise, and
    writes the same artifacts and stdout as a run that may import it."""
    outputs = {}
    for blocked in (True, False):
        out = tmp_path / ("blocked" if blocked else "free")
        out.mkdir()
        code = (BLOCK_SCIPY if blocked else "") + (
            "from stackemu.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
        proc = run_python(code, "--config", document, "--out",
                          str(out / "run"), "report")
        assert proc.returncode == 0, proc.stderr
        files = {p: (out / p).read_bytes() for p in sorted(os.listdir(out))}
        outputs[blocked] = (proc.stdout, files)
    assert len(outputs[True][1]) >= 9
    assert outputs[True] == outputs[False]


def test_nothing_is_imported_while_a_scenario_runs(document, tmp_path):
    """After load_scenario, run_scenario and the export of every format add
    no entry to sys.modules: no import lands inside a timed run."""
    proc = run_python(
        "import json\n"
        "from stackemu.config import load_scenario\n"
        "from stackemu.scenario import export, run_scenario\n"
        "scenario = load_scenario(sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "export(run_scenario(scenario), ('text', 'csv', 'pgm'), sys.argv[2])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n",
        document, str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
