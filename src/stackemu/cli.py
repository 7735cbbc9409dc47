"""Command-line interface.

Subcommands: validate, steady, transient, place-sensors, pdn, compare,
report. Exit codes: 0 success, 1 validation failure, 2 numerical
failure, 3 IO failure. STACKEMU_THREADS caps BLAS worker count and
overrides an already-set OMP_NUM_THREADS and the like (0 = auto).
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _apply_thread_cap():
    cap = os.environ.get("STACKEMU_THREADS")
    if cap and cap != "0":
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = cap


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stackemu",
        description="3D chip-stack thermal/noise/reliability scenario "
                    "runner")
    p.add_argument("--config", required=True, help="scenario YAML path")
    p.add_argument("--out", default="stackemu_out",
                   help="output path prefix")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="check the configuration and stack")
    sub.add_parser("steady", help="steady-state solve and report")
    sub.add_parser("transient", help="transient run (with policy) and report")
    pl = sub.add_parser("place-sensors", help="greedy sensor placement")
    pl.add_argument("--k", type=int, default=8, help="sensor count")
    sub.add_parser("pdn", help="IR-drop analysis only")
    cmp_p = sub.add_parser("compare", help="compare multiple scenarios")
    cmp_p.add_argument("--with", dest="others", action="append", default=[],
                       help="additional scenario YAML (repeatable)")
    sub.add_parser("report", help="full pipeline and all exports")
    return p


def main(argv=None) -> int:
    _apply_thread_cap()
    args = _parser().parse_args(argv)

    from .scenario import ExportError, StageError
    from .solver import ConvergenceError, NumericalError

    try:
        return _dispatch(args)
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, NumericalError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StageError as e:
        kind = EXIT_NUMERICAL if isinstance(
            e.cause, (ConvergenceError, NumericalError)) else EXIT_VALIDATION
        print(f"error: {e}", file=sys.stderr)
        return kind
    except (ExportError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


# The sections each run command clears before its one run.
_CLEARS = {"steady": ("transient", "policy"),
           "pdn": ("transient", "policy", "sensors", "reliability"),
           "place-sensors": ("transient", "policy", "pdn", "reliability")}


def _dispatch(args) -> int:
    from dataclasses import replace

    from .config import load_scenario
    from .pdn import check_connected
    from .scenario import (AutoPlace, compare_scenarios, export,
                           render_comparison, render_report, run_scenario,
                           write_targets, write_text)
    from .sensors import placement_to_csv
    from .stack import validate_stack

    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)

    if args.command == "validate":
        violations = validate_stack(scenario.stack)
        if violations:
            for v in violations:
                print(f"layer {v.layer_index}: [{v.code}] {v.message}")
            return EXIT_VALIDATION
        if scenario.pdn is not None:
            check_connected(scenario.stack, scenario.pdn)
        print("ok")
        return EXIT_OK

    if args.command == "compare":
        scenarios = [scenario] + [load_scenario(p) for p in args.others]
        rows = compare_scenarios(scenarios)
        text = render_comparison(rows)
        write_targets([(f"{args.out}_comparison.tsv",
                        lambda p: write_text(p, text))], args.force)
        print(text, end="")
        return EXIT_OK

    # steady, transient, report, pdn, place-sensors
    if args.command in ("transient", "pdn") and \
            getattr(scenario, args.command) is None:
        raise ValueError(f"scenario has no {args.command} section")
    changes = dict.fromkeys(_CLEARS.get(args.command, ()))
    if args.command == "place-sensors":
        changes["sensors"] = AutoPlace(args.k)
    report = run_scenario(replace(scenario, **changes))

    if args.command == "place-sensors":
        chosen = [s.site for s in report.scenario.sensors.sensors]
        write_targets([(f"{args.out}_placement.csv",
                        lambda p: placement_to_csv(chosen, p))], args.force)
        for layer, x, y in chosen:
            print(f"layer={layer} x_mm={x:.3f} y_mm={y:.3f}")
    elif args.command == "pdn":
        export(report, ("text", "pgm"), args.out, args.force)
        for p, d in enumerate(report.pdn_summary.max_drop_per_plane):
            print(f"plane {p}: max_drop_v={d!r}")
    else:
        export(report, ("text", "csv", "pgm") if args.command == "report"
               else ("text", "csv"), args.out, args.force)
        print(render_report(report), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
