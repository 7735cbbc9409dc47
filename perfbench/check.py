"""Output checks applied to every benchmark pass.

Invariants hold for any seed: finite fields and outputs, the steady
relative residual recomputed outside the solver, the steady energy
balance, and hysteresis-consistent policy events. For the (workload, seed)
pairs in ``references.json`` the outputs must also match values recorded
from a known-good build, within the tolerances below.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Recomputed ||b - G T|| / ||b|| may exceed the solver's own (recursive)
# residual by rounding; allow ten times the scenario's tolerance.
RESIDUAL_FACTOR = 10.0
# |injected W - boundary outflux W| / injected W of the steady field.
ENERGY_BALANCE_LIMIT = 1e-6
# Layer mean/max/min temperatures against the references, K.
TOL_K = 1e-3
# Sensor readings are quantized; a reading may move by one step (K).
TOL_READING_K = 0.25
TOL_REL_POWER = 1e-9
TOL_TIME_S = 1e-9

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "references.json")


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def _round(x: float) -> float:
    return round(float(x), 6)


def extract(report) -> dict:
    """The reference-checked summary of one scenario report."""
    def stats(rows):
        if rows is None:
            return None
        return [[s.layer_index, _round(s.mean), _round(s.max), _round(s.min)]
                for s in rows]
    sensors = report.scenario.sensors
    return {
        "total_power_w": _round(report.total_power_w),
        "steady": stats(report.steady_stats),
        "final": stats(report.final_stats),
        "events": [[_round(e.t), e.action, e.layer, e.sensor_index,
                    _round(e.reading)] for e in report.events],
        "placement": None if sensors is None else
        [[s.layer, _round(s.x_mm), _round(s.y_mm)] for s in sensors.sensors],
    }


def compare(ref: dict, got: dict) -> list[str]:
    problems = []
    if not math.isclose(got["total_power_w"], ref["total_power_w"],
                        rel_tol=TOL_REL_POWER):
        problems.append(f"total_power_w {got['total_power_w']!r} != "
                        f"reference {ref['total_power_w']!r}")
    for key in ("steady", "final"):
        a, b = ref[key], got[key]
        if (a is None) != (b is None) or (a and len(a) != len(b)):
            problems.append(f"{key} stats: layer set differs from reference")
            continue
        for ra, rb in zip(a or (), b or ()):
            if ra[0] != rb[0] or any(abs(x - y) > TOL_K
                                     for x, y in zip(ra[1:], rb[1:])):
                problems.append(f"{key} stats of layer {ra[0]}: {rb[1:]} "
                                f"vs reference {ra[1:]} (tol {TOL_K} K)")
    if len(ref["events"]) != len(got["events"]):
        problems.append(f"{len(got['events'])} policy events, reference "
                        f"has {len(ref['events'])}")
    else:
        for ea, eb in zip(ref["events"], got["events"]):
            if (ea[1:4] != eb[1:4] or abs(ea[0] - eb[0]) > TOL_TIME_S
                    or abs(ea[4] - eb[4]) > TOL_READING_K):
                problems.append(f"policy event {eb} vs reference {ea}")
    if ref["placement"] != got["placement"]:
        problems.append(f"sensor placement {got['placement']} vs reference "
                        f"{ref['placement']}")
    return problems


def _event_problems(report) -> list[str]:
    from stackemu.scenario import ThrottlePolicy

    policy = report.scenario.policy
    if not isinstance(policy, ThrottlePolicy):
        return []
    problems = []
    throttled: set[int] = set()
    for e in report.events:
        if e.action == "throttle" and e.layer not in throttled \
                and e.reading >= policy.trigger_t:
            throttled.add(e.layer)
        elif e.action == "release" and e.layer in throttled \
                and e.reading < policy.release_t:
            throttled.discard(e.layer)
        else:
            problems.append(f"policy event {e} breaks the hysteresis order")
    return problems


def steady_invariants(report) -> tuple[float, float]:
    """(relative residual, relative energy balance error) of the steady
    field, recomputed from the stack, grid and power map."""
    from stackemu.power import power_density_field
    from stackemu.solver import assemble

    field = report.steady_field
    grid = field.grid
    stack = report.scenario.stack
    system = assemble(grid, stack)
    source = power_density_field(report.scenario.power, grid, 0.0)
    b = system.rhs(source)
    t = field.flat()
    residual = float(np.linalg.norm(b - system.G @ t) / np.linalg.norm(b))
    injected = float(np.sum(source * grid.voxel_volume))
    outflux = float(np.sum(system.boundary_g * (t - stack.ambient_c)))
    balance = abs(injected - outflux) / injected if injected else math.inf
    return residual, balance


def check_report(report, ref: dict | None = None) -> tuple[list[str], float]:
    """Problems found in one report (empty when it passes) and its energy
    balance error. Comparisons are written so that NaN fails them."""
    problems = []
    fields = [report.steady_field, report.final_field,
              *report.sampled_fields]
    if not all(np.isfinite(f.values).all() for f in fields if f is not None):
        problems.append("non-finite temperature field")
    if not report.total_power_w > 0:
        problems.append(f"total_power_w = {report.total_power_w!r}")
    scalars = list(report.sensor_readings or ())
    if report.pdn_summary is not None:
        scalars += [*report.pdn_summary.max_drop_per_plane,
                    *report.pdn_summary.droop_per_plane]
    if report.reliability is not None:
        scalars += [v for lr in report.reliability.layers
                    for v in (lr.em_af, lr.cycling_damage)]
    if not np.isfinite(scalars).all():
        problems.append("non-finite sensor, PDN or reliability output")

    residual, balance = steady_invariants(report)
    limit = RESIDUAL_FACTOR * report.scenario.solve.tolerance
    if not residual <= limit:
        problems.append(f"steady relative residual {residual:.3e} > "
                        f"{limit:.1e}")
    if not balance <= ENERGY_BALANCE_LIMIT:
        problems.append(f"steady energy balance error {balance:.3e} > "
                        f"{ENERGY_BALANCE_LIMIT:.0e}")
    problems += _event_problems(report)
    if ref is not None:
        problems += compare(ref, extract(report))
    return problems, balance
