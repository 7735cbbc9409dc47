"""The example scripts run end to end as separate processes and print
what they printed when their numbers were last checked."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def run_script(*argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable,
                           os.path.join(ROOT, "scripts", argv[0]),
                           *argv[1:]],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_4layer_demo():
    out = run_script("run_4layer_demo.py")
    lines = out.splitlines()
    assert lines[0] == "total power: 28.80 W, ambient 25.0 C"
    rows = [line.split() for line in lines[2:]]
    assert [row[1] for row in rows] == ["SP", "SN2", "SN1", "S0"]
    peaks = [float(row[-1]) for row in rows]
    assert peaks == sorted(peaks, reverse=True)   # hottest far from sink


def test_tsv_blockage_study_peaks():
    out = run_script("tsv_blockage_study.py")
    peaks = {line[:16].strip(): line.split()[-1]
             for line in out.splitlines()[1:4]}
    assert peaks == {"no farm": "67.19", "copper": "66.66",
                     "tungsten+liner": "69.36"}
    assert "tungsten-vs-copper peak gap: 2.70 K" in out


def test_placement_study():
    out = run_script("placement_study.py", "--max-k", "4")
    rows = [line.split() for line in out.splitlines()
            if line.strip()[:1].isdigit() and "+=" in line]
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4]
    errors = [float(row[1]) for row in rows]
    assert errors == sorted(errors, reverse=True)
