"""stackemu benchmark: the ``stackemu report`` pipeline on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload transient_dtm --seed 1 \\
        --seconds 50 --trace 0

Workloads (documents generated from --seed in workloads.py):

- transient_dtm: the demo at 128x64 (n = 40,960), 100 backward-Euler steps
  under a throttle policy, auto-placement k = 6, 16x8 PDN, reliability.
- steady_tsv: explicit 4-layer stack with Cu and W+SiO2-liner TSV farms on
  SP, SN2 and SN1, 256x128 (n = 294,912), steady only, auto-placement
  k = 8, 256x128 PDN per plane (131,072 nodes), reliability.
- sweep_small: 48 demo variants at 32x16 (n = 2,560), 20 steps each.
  Not listed in BENCHMARK.json: with passes of 7-14 s, a run long enough
  to be steady on a noisy 2-core host makes a 22-run-per-workload
  campaign of three workloads take over an hour. Run it by name; list it
  again once passes are shorter.

Closed loop, one client: each pass runs load -> run -> export (text, csv,
pgm) for every document of the workload, in a fresh single-process worker
with BLAS threads pinned to 1; the next pass starts when it ends. Passes
repeat until --seconds is spent (at least MIN_PASSES). Package import is
outside the timers. Every pass's outputs are checked (check.py); a pass
that raises or fails a check counts as failed.

--trace 0 reports the end-to-end metrics (median over passes);
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (spans.py), its own overhead, and checks that
the traced reports are byte-identical to the untraced ones. The raw spans
of each traced pass are written to .perfbench-spans/.

Every run first runs a self-test of the output check (worker.py) and exits
with code 1, printing no result, if the check misses a planted fault; a
problem the check finds in the self-test's demo makes the result incorrect.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import yaml

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Traced passes leave their raw spans here (one JSON file per pass).
SPANS_DIR = os.path.join(ROOT, ".perfbench-spans")
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3
# Every pass must have started and ended this long after the run began,
# so that a run ends well within 180 s even when a pass is slow.
HARD_LIMIT_S = 165.0
# Share of the traced wall time that the traced spans must account for.
MIN_SELF_COVERAGE = 0.99


class BenchError(RuntimeError):
    pass


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    def __init__(self, args, workdir: str, deadline: float):
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.n_workers = 0

    def worker(self, mode: str, docs: list[str], trace: bool) -> dict:
        """Run one worker process to completion and return its JSON line;
        an exception or a crash becomes {"error": ...}. Every pass of a run
        writes its outputs to the same paths, overwriting the last pass's,
        as ``stackemu report --force`` does when it is run again."""
        self.n_workers += 1
        out_dir = os.path.join(self.workdir, "out")
        os.makedirs(out_dir, exist_ok=True)
        manifest = os.path.join(self.workdir, f"manifest{self.n_workers}.json")
        spans_path = os.path.join(
            SPANS_DIR, f"{self.args.workload}-seed{self.args.seed}-"
                       f"pass{self.n_workers - 1}.json") if trace else None
        with open(manifest, "w") as fh:
            json.dump({"mode": mode, "workload": self.args.workload,
                       "seed": self.args.seed, "docs": docs,
                       "out_dir": out_dir, "trace": trace,
                       "spans_path": spans_path}, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, manifest], cwd=ROOT,
                env={**os.environ, **BLAS_ENV}, capture_output=True,
                text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-3000:]}"}
        return json.loads(lines[-1])


def _write_docs(workload: str, seed: int, workdir: str) -> list[str]:
    paths = []
    for i, doc in enumerate(workloads.WORKLOADS[workload](seed)):
        path = os.path.join(workdir, f"doc{i:02d}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        paths.append(path)
    return paths


def measure(bench: Bench, docs: list[str]) -> tuple[list, list]:
    """Run passes until --seconds is spent; return (untraced, traced)
    pass results. With --trace 1 passes alternate between the two kinds,
    the kind going first alternating too."""
    args = bench.args
    plan = [False] if not args.trace else [False, True, True, False]
    untraced, traced, durations = [], [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        est = statistics.median(durations) if durations else 0.0
        done = len(untraced) + len(traced)
        enough = done >= (MIN_PASSES if not args.trace else 2) \
            and done % len(plan) in (0, 2)
        if (enough and elapsed + est > args.seconds) \
                or time.monotonic() + est > bench.deadline:
            break
        trace = plan[done % len(plan)]
        t0 = time.monotonic()
        result = bench.worker("pass", docs, trace)
        durations.append(time.monotonic() - t0)
        (traced if trace else untraced).append(result)
    return untraced, traced


def _failures(results: list[dict]) -> list[str]:
    out = []
    for r in results:
        if "error" in r:
            out.append(r["error"])
        out += r.get("problems", [])
    return out


def _check_traced(untraced: list[dict], traced: list[dict]) -> None:
    """Add to each completed traced pass the problems of tracing itself:
    a report text that differs from the untraced passes', or spans that
    do not account for the traced wall time."""
    digests = {r["report_sha256"] for r in untraced if "error" not in r}
    for r in traced:
        if "error" in r:
            continue
        if digests != {r["report_sha256"]}:
            r["problems"].append("traced render_report output differs from "
                                 "the untraced passes'")
        cov = r["layers"]["trace.self_coverage"]
        if not cov >= MIN_SELF_COVERAGE:
            r["problems"].append(f"traced spans cover {cov:.4f} of the "
                                 f"traced wall time (< {MIN_SELF_COVERAGE})")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "stackemu",
                                       "__init__.py")):
        raise BenchError(f"no stackemu sources under {ROOT}/src")
    spec = _load_spec()
    started = time.monotonic()
    load_start = os.getloadavg()
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
    try:
        bench = Bench(args, workdir, started + HARD_LIMIT_S)
        selftest = bench.worker("selftest", [], False)
        if "error" in selftest or selftest["undetected"]:
            raise BenchError(f"output check self-test failed: {selftest}")
        docs = _write_docs(args.workload, args.seed, workdir)
        untraced, traced = measure(bench, docs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _check_traced(untraced, traced)
    attempted = untraced + traced
    failures = _failures(attempted) + [
        f"self-test demo: {p}" for p in selftest["demo_problems"]]
    failed = sum(1 for r in attempted if "error" in r or r["problems"])
    ok = [r for r in untraced if "error" not in r]
    ok_traced = [r for r in traced if "error" not in r]
    if not ok or (args.trace and not ok_traced):
        raise BenchError("no pass completed:\n" + "\n".join(failures))

    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} closed-loop "
          f"clients=1 passes={len(attempted)} docs/pass={len(docs)}")
    e2e = {}
    for name in metrics.E2E:
        samples = [r[name] for r in ok]
        q1, med, q3 = _quartiles(samples)
        e2e[name] = med
        print(f"  {name:<12} {med:10.4f} {spec['end_to_end'][name]:<4} "
              f"q1={q1:.4f} q3={q3:.4f} n={len(ok)}"
              + ("  (untraced)" if args.trace else "")
              + f"  samples={[round(v, 4) for v in samples]}")
    result_metrics = {k: {"value": e2e[k], "unit": u}
                      for k, u in spec["end_to_end"].items()}
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in ok_traced)
                  for k in ok_traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in ok_traced) - e2e["wall_s"]
        print(f"  per-layer metrics, median of {len(ok_traced)} traced "
              f"passes (-> what each should move); spans in {SPANS_DIR}:")
        for name in sorted(layers):
            print(f"  {name:<28} {layers[name]:14.6g} "
                  f"{spec['per_layer'][name]:<10} -> {metrics.MOVES[name]}")
        if set(layers) != set(spec["per_layer"]):
            raise BenchError("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(layers) ^ set(spec['per_layer']))}")
        result_metrics = {k: {"value": layers[k], "unit": u}
                          for k, u in spec["per_layer"].items()}
    referenced = all(r.get("referenced") for r in ok + ok_traced)
    print(f"  fail_rate    {failed / len(attempted):10.4f} "
          f"({failed}/{len(attempted)} passes; outputs compared with "
          f"references: {'yes' if referenced else 'no, invariants only'})")
    for f in failures:
        print(f"  FAILED: {f}")
    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **selftest["facts"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "bench_elapsed_s": time.monotonic() - started,
    }
    print("facts " + json.dumps(facts))
    print(json.dumps({"correct": not failures, "attempted": len(attempted),
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(1)
