"""One benchmark pass in a fresh process: load -> run -> export for each
document, as ``stackemu report`` does, then the output checks.

Usage: python3 perfbench/worker.py MANIFEST.json

The manifest names the mode ("pass" or "selftest"), the workload and seed,
the YAML documents, the output directory and whether to trace. A traced
pass writes its spans to the manifest's "spans_path" when it ends. The
result is printed as one JSON line. The parent sets the BLAS thread variables
before this process starts, so they apply when numpy loads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import stackemu  # noqa: E402
from stackemu import config, scenario  # noqa: E402
from stackemu.solver import TemperatureField  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FORMATS = ("text", "csv", "pgm")


def _check_exports(report, files: list[str]) -> list[str]:
    problems = [f"empty export {p}" for p in files
                if os.path.getsize(p) == 0]
    text = next(p for p in files if p.endswith("_report.txt"))
    with open(text) as fh:
        if fh.read() != scenario.render_report(report):
            problems.append(f"{text} differs from render_report")
    steady_csv = next(p for p in files if p.endswith("_steady_field.csv"))
    with open(steady_csv, "rb") as fh:
        rows = sum(1 for _ in fh)
    if rows != report.steady_field.grid.n + 1:
        problems.append(f"{steady_csv} has {rows} lines, expected "
                        f"{report.steady_field.grid.n + 1}")
    return problems


def run_pass(manifest: dict) -> dict:
    tracer = spans.Tracer() if manifest["trace"] else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    reports, files = [], []
    setup_s = run_s = export_s = 0.0
    with installed:
        start = time.perf_counter()
        for path in manifest["docs"]:
            t0 = time.perf_counter()
            with span("config.load"):
                sc = config.load_scenario(path)
            t1 = time.perf_counter()
            with span("scenario.run"):
                report = scenario.run_scenario(sc)
            t2 = time.perf_counter()
            prefix = os.path.join(manifest["out_dir"], sc.name)
            with span("scenario.export"):
                written = [p for fmt in FORMATS
                           for p in scenario.export(report, fmt, prefix,
                                                    force=True)]
            t3 = time.perf_counter()
            setup_s += t1 - t0
            run_s += t2 - t1
            export_s += t3 - t2
            reports.append(report)
            files.append(written)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    refs = check.load_references().get(manifest["workload"], {}).get(
        str(manifest["seed"]))
    problems, balances = [], []
    digest = hashlib.sha256()
    for i, (report, written) in enumerate(zip(reports, files)):
        found, balance = check.check_report(report, refs[i] if refs else None)
        found += _check_exports(report, written)
        problems += [f"{report.scenario.name}: {p}" for p in found]
        balances.append(balance)
        with open(written[0], "rb") as fh:
            digest.update(fh.read())

    result = {
        "wall_s": wall_s, "setup_s": setup_s, "run_s": run_s,
        "export_s": export_s, "peak_rss_mb": peak_rss_mb,
        "problems": problems, "referenced": refs is not None,
        "report_sha256": digest.hexdigest(),
    }
    if tracer is not None:
        with open(manifest["spans_path"], "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans}, fh)
        layers = tracer.layer_metrics()
        layers.update({
            "pdn.nodes": max((r.pdn_summary.drop_map.size for r in reports
                              if r.pdn_summary is not None), default=0),
            "scenario.policy_events": sum(len(r.events) for r in reports),
            "fields_io.bytes_written": sum(os.path.getsize(p)
                                           for w in files for p in w),
            "solver.energy_balance_rel": max(balances),
            "trace.self_coverage": layers.pop("trace.self_sum_s") / wall_s,
        })
        result["layers"] = layers
    return result


def _detected(report, ref) -> bool:
    try:
        problems, _ = check.check_report(report, ref)
    except (ValueError, ArithmeticError) as e:
        problems = [repr(e)]
    return bool(problems)


def self_test(manifest: dict) -> dict:
    """Plant three faults that the checks must each detect: a steady field
    shifted by 1 K and the demo with a NaN hotspot power (both by the
    invariants alone), and a dropped policy event (by the reference). Also
    report any problem the checks find in the demo itself."""
    ref = check.load_references()["demo"]
    paths = {}
    for case, p_high in (("demo", 60.0), ("nan", float("nan"))):
        doc = workloads.demo()
        doc["power"]["assignments"][2]["profile"]["p_high"] = p_high
        paths[case] = os.path.join(manifest["out_dir"], f"{case}.yaml")
        with open(paths[case], "w") as fh:
            yaml.safe_dump(doc, fh)

    report = scenario.run_scenario(config.load_scenario(paths["demo"]))
    clean, _ = check.check_report(report, ref)
    steady = report.steady_field
    shifted = dataclasses.replace(report, steady_field=TemperatureField(
        values=steady.values + 1.0, grid=steady.grid, time=steady.time))
    dropped = dataclasses.replace(report, events=report.events[:-1])
    try:
        nan_report = scenario.run_scenario(config.load_scenario(paths["nan"]))
        nan_detected = _detected(nan_report, None)
    except (ValueError, ArithmeticError, RuntimeError):
        nan_detected = True   # rejected by the program: also a failure
    detected = {
        "steady field shifted by 1 K": _detected(shifted, None),
        "last policy event dropped": _detected(dropped, ref),
        "demo with p_high = NaN": nan_detected,
    }
    return {"undetected": [k for k, ok in detected.items() if not ok],
            "demo_problems": clean}


def facts() -> dict:
    from importlib.metadata import version
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "stackemu": stackemu.__version__,
        "stackemu_path": os.path.relpath(stackemu.__file__, ROOT),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        manifest = json.load(fh)
    if manifest["mode"] == "selftest":
        result = {**self_test(manifest), "facts": facts()}
    else:
        result = run_pass(manifest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
