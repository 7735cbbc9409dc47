"""Record the reference outputs that check.py compares passes against.

Usage (from the repository root, on a build whose outputs are trusted):

    python3 perfbench/record_references.py --seeds 0-15 [--workload NAME]

Writes perfbench/references.json, merging with what is already there. Each
entry holds, per document, the values that check.extract() keeps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import yaml  # noqa: E402

from stackemu import config, scenario  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def record(doc: dict) -> dict:
    # The YAML round trip matches what the benchmark feeds load_scenario.
    doc = yaml.safe_load(yaml.safe_dump(doc))
    report = scenario.run_scenario(config.scenario_from_document(doc))
    problems, _ = check.check_report(report)
    if problems:
        raise SystemExit(f"{doc['name']}: refusing to record a failing "
                         f"report: {problems}")
    return check.extract(report)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-15", help="inclusive range A-B")
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    refs = check.load_references() if os.path.exists(
        check.REFERENCES_PATH) else {}
    refs["demo"] = record(workloads.demo())
    for name in args.workload or sorted(workloads.WORKLOADS):
        per_seed = refs.setdefault(name, {})
        for seed in range(lo, hi + 1):
            per_seed[str(seed)] = [record(d) for d in
                                   workloads.WORKLOADS[name](seed)]
            print(f"recorded {name} seed {seed}", flush=True)
    with open(check.REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
