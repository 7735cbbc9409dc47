"""The run path imports nothing it does not need: scipy only inside the
matrix oracles (`lattice_matrix`), and no module at all between loading a
scenario and the end of its export. Each check runs in a fresh
interpreter, so that what earlier tests imported cannot hide an import.
On the numeric host the digests were recorded on, the report's bytes are
pinned too, so a refactor that moves any answer fails here. On any host
they must not depend on the BLAS thread count."""

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np

import pytest
import yaml
from test_config import _workloads

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

def block(*packages: str) -> str:
    """Code that makes every import of the packages, or of a submodule of
    one, raise. Every run here also blocks jsonschema: the package needs
    no schema library."""
    return f"""
class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in {("jsonschema", *packages)!r}:
            raise ImportError(f"{{name}} is blocked")
sys.meta_path.insert(0, Block())
"""


def run_python(code: str, *args, **env) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports stackemu from src,
    with env added to the environment."""
    src = os.path.join(ROOT, "src")
    prelude = f"import sys\nsys.path.insert(0, {src!r})\n"
    return subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, **env))


# The first 16 hex digits of the SHA-256 of `stackemu report`'s stdout and
# of each artifact (output prefix "run"), per document, on REPORT_HOST.
# Only a change that moves an answer or config_hash changes them, and it
# says so.
REPORT_DIGESTS = {
    "demo": {
        "stdout": "dc07c75531f1535c",
        "run_final_field.csv": "05e3b0c27b312c6f",
        "run_pdn_drop_P0.pgm": "640978b8f6b477cd",
        "run_pdn_drop_P1.pgm": "d9a60ef92adf023a",
        "run_report.txt": "dc07c75531f1535c",
        "run_sensors.csv": "a4d68146e6315b1d",
        "run_steady_L1.pgm": "808f654bef840a42",
        "run_steady_L3.pgm": "520c1ce208aa11f9",
        "run_steady_field.csv": "8214e00cb40b62ff",
        "run_stress_hotspots.csv": "dc0387aebd68a92f",
    },
    "farm": {
        "stdout": "bb730727f70d5b2e",
        "run_final_field.csv": "761f6458ffb3c9ef",
        "run_pdn_drop_P0.pgm": "d32a5651df561b8f",
        "run_pdn_drop_P1.pgm": "2ebf9e089a54d79f",
        "run_report.txt": "bb730727f70d5b2e",
        "run_sensors.csv": "86638343cd836e22",
        "run_steady_L1.pgm": "e262dc97823e2990",
        "run_steady_L3.pgm": "0c60718096ccb504",
        "run_steady_field.csv": "6250a0204d4bcb46",
        "run_stress_hotspots.csv": "604a8b5e1148b468",
    },
}




def _numeric_host() -> dict:
    """What the last bits of a report depend on besides the code: numpy's
    version and the CPU features its own kernels dispatch on, the
    OpenBLAS build and the core kernel it picked for this CPU (at run
    time), and the C library."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    openblas = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__),
                                      os.pardir, "numpy.libs", "*openblas*")):
        get_config = getattr(ctypes.CDLL(lib),
                             "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            openblas = get_config().decode()
    return {"numpy": np.__version__,
            "numpy_cpu": [f for f in __cpu_dispatch__
                          if __cpu_features__.get(f)],
            "openblas": openblas, "libc": "-".join(platform.libc_ver()),
            "machine": platform.machine()}


# The host REPORT_DIGESTS were recorded on, as _numeric_host() gives it.
# OpenBLAS picks its matmul kernel by CPU, so on another host the fields
# may differ in their last digits without any change to the code.
REPORT_HOST = {
    "numpy": "2.4.6",
    "numpy_cpu": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "openblas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                "NO_AFFINITY SkylakeX MAX_THREADS=64",
    "libc": "glibc-2.36", "machine": "x86_64",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _document(name: str, directory, doc: dict = FARM_TRANSIENT) -> str:
    if name == "demo":
        return DEMO
    path = directory / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture(params=["demo", "farm"])
def document(request, tmp_path):
    return _document(request.param, tmp_path)


@pytest.fixture(scope="module", params=["demo", "farm"])
def reports(request, tmp_path_factory):
    """(name, {blocked: {"stdout" or artifact name: bytes}}) of `stackemu
    report` on the demo or FARM_TRANSIENT, with scipy imports made to
    raise (blocked True) and free to run; jsonschema is blocked in both."""
    tmp = tmp_path_factory.mktemp(request.param)
    document = _document(request.param, tmp)
    outputs = {}
    for blocked in (True, False):
        out = tmp / ("blocked" if blocked else "free")
        out.mkdir()
        code = block(*["scipy"] * blocked) + (
            "from stackemu.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
        proc = run_python(code, "--config", document, "--out",
                          str(out / "run"), "report")
        assert proc.returncode == 0, proc.stderr
        outputs[blocked] = {p: (out / p).read_bytes()
                            for p in os.listdir(out)}
        outputs[blocked]["stdout"] = proc.stdout.encode()
    return request.param, outputs


def test_importing_the_cli_and_runner_leaves_scipy_out():
    proc = run_python(block() + "import stackemu.cli, stackemu.scenario\n"
                      "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_report_runs_with_scipy_blocked(reports):
    """`stackemu report` exits 0 with scipy imports made to raise, and
    writes the same artifacts and stdout as a run that may import it."""
    _, outputs = reports
    assert len(outputs[True]) >= 10
    assert outputs[True] == outputs[False]


@pytest.mark.skipif(_numeric_host() != REPORT_HOST,
                    reason="REPORT_DIGESTS belong to another numeric host")
def test_report_bytes_match_their_digests(reports):
    """On REPORT_HOST the report's stdout and every artifact have the
    bytes of REPORT_DIGESTS."""
    name, outputs = reports
    assert {p: _digest(data) for p, data in outputs[True].items()} == \
        REPORT_DIGESTS[name]


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


@pytest.mark.parametrize("name, doc", [
    ("farm", dict(FARM_TRANSIENT, grid={"nx": 64, "ny": 32})),
    ("steady_tsv", _workloads()["steady_tsv"](7)[0]),
    ("steady_tsv", _workloads()["steady_tsv"](2)[0])],
    ids=["farm-64x32", "steady_tsv-7-256x128", "steady_tsv-2-256x128"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(name, doc,
                                                             tmp_path):
    """`stackemu report` writes the same stdout and artifacts at 1 and 2
    OpenBLAS threads: on a farm transient at 64x32, and on two seeds of
    the steady_tsv benchmark document at 256x128x9, whose farm blocks
    have rows and columns of many lengths, in products that OpenBLAS
    splits across threads."""
    document = _document(name, tmp_path, doc)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        proc = run_python("from stackemu.cli import main\n"
                          "sys.exit(main(sys.argv[1:]))\n",
                          "--config", document, "--out", str(out / "run"),
                          "report", OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p: (out / p).read_bytes() for p in os.listdir(out)})
        outputs[-1]["stdout"] = proc.stdout.encode()
    one, two = outputs
    assert len(one) >= 10 and one.keys() == two.keys()
    assert [p for p in one if one[p] != two[p]] == []
