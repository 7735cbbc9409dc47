"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: every
public entry point is wrapped where its caller looks it up (a module
attribute), so no file of the program changes. A span is (name, start, end,
parent); a layer's self time is its span time minus the time its direct
child spans cover. Calls are single-threaded and nest, so the children of a
span never overlap.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# Span name -> the module attributes through which callers reach the layer.
# ``config._auto_place`` and ``worst_case_droop`` import their callees at
# call time or through their own module, hence the second entries.
WRAPPED = {
    "config.validate": ["stackemu.config.validate_document"],
    "stack.discretize": ["stackemu.scenario.discretize",
                         "stackemu.stack.discretize"],
    "tsv.homogenize": ["stackemu.stack.effective_conductivity"],
    "solver.assemble": ["stackemu.scenario.assemble",
                        "stackemu.solver.assemble"],
    "solver.steady": ["stackemu.scenario.solve_steady",
                      "stackemu.solver.solve_steady"],
    "solver.step": ["stackemu.scenario.step_transient"],
    "solver.summary": ["stackemu.scenario.layer_summary"],
    "power.rasterize": ["stackemu.scenario.power_density_field",
                        "stackemu.power.power_density_field"],
    "sensors.place": ["stackemu.sensors.place_sensors_greedy"],
    "sensors.read": ["stackemu.scenario.read_sensors"],
    "sensors.hotspot_error": ["stackemu.scenario.hotspot_error"],
    "pdn.build": ["stackemu.scenario.build_pdn"],
    "pdn.currents": ["stackemu.scenario.currents_from_power"],
    "pdn.solve": ["stackemu.scenario.solve_ir_drop",
                  "stackemu.pdn.solve_ir_drop"],
    "reliability.report": ["stackemu.scenario.reliability_report"],
    "scenario.render": ["stackemu.scenario.render_report"],
    "fields_io.csv": ["stackemu.scenario.field_to_csv"],
    "fields_io.pgm": ["stackemu.scenario.layer_to_pgm",
                      "stackemu.scenario.plane_to_pgm"],
}

def _steady_residual(out, system, source, *args, **kwargs):
    b = system.rhs(source)
    r = b - system.G @ out.flat()
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def _step_residual(out, system, field_t, source, dt, *args, **kwargs):
    cap = system.C / dt
    b = system.rhs(source) + cap * field_t.flat()
    x = out.flat()
    r = b - (system.G @ x + cap * x)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


# Recomputed outside the solver after each solve, in a "trace.check" span
# so that the check's time is kept out of the solver's and the caller's.
RESIDUALS = {"solver.steady": _steady_residual,
             "solver.step": _step_residual}


def _percentile(values: list[float], p: float) -> float:
    return float(np.percentile(values, p)) if values else 0.0


class Tracer:
    """Spans of one pass. Besides the WRAPPED layers, the worker opens
    "config.load", "scenario.run" and "scenario.export" around its own calls
    into the program; those are the top-level spans."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._open: list[int] = []
        self.residuals: dict[str, list[float]] = {k: [] for k in RESIDUALS}
        self.unknowns = 0               # sum of n over linear solves

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        residual = RESIDUALS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if residual is not None:
                with self.span("trace.check"):
                    self.residuals[name].append(residual(out, *args, **kwargs))
                    self.unknowns += args[0].n
            return out
        return traced

    @contextmanager
    def installed(self):
        """Replace every WRAPPED attribute with a traced wrapper; restore
        the originals on exit."""
        saved = []
        try:
            for name, targets in WRAPPED.items():
                for target in targets:
                    mod_name, attr = target.rsplit(".", 1)
                    mod = importlib.import_module(mod_name)
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, self.wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def self_times(self) -> list[float]:
        self_t = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (one pass)."""
        self_t = self.self_times()
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, *_), t in zip(self.spans, self_t):
            total[name] = total.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1

        def s(name):
            return total.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        steps_ms = [1e3 * (end - start) for name, start, end, _
                    in self.spans if name == "solver.step"]
        solve_busy = s("solver.steady") + s("solver.step")
        return {
            "config.validate_s": s("config.validate"),
            "config.validate_calls": n("config.validate"),
            "config.load_self_s": s("config.load"),
            "stack.discretize_s": s("stack.discretize"),
            "stack.discretize_calls": n("stack.discretize"),
            "tsv.homogenize_s": s("tsv.homogenize"),
            "tsv.homogenize_calls": n("tsv.homogenize"),
            "solver.assemble_s": s("solver.assemble"),
            "solver.assemble_calls": n("solver.assemble"),
            "solver.steady_s": s("solver.steady"),
            "solver.steady_calls": n("solver.steady"),
            "solver.steady_residual_max": max(
                self.residuals["solver.steady"], default=0.0),
            "solver.step_s": s("solver.step"),
            "solver.step_calls": n("solver.step"),
            "solver.step_ms_p50": _percentile(steps_ms, 50),
            "solver.step_ms_p90": _percentile(steps_ms, 90),
            "solver.step_residual_max": max(
                self.residuals["solver.step"], default=0.0),
            "solver.unknowns_per_s": self.unknowns / solve_busy
            if solve_busy > 0 else 0.0,
            "solver.summary_s": s("solver.summary"),
            "solver.summary_calls": n("solver.summary"),
            "power.rasterize_s": s("power.rasterize"),
            "power.rasterize_calls": n("power.rasterize"),
            "sensors.place_s": s("sensors.place"),
            "sensors.read_s": s("sensors.read"),
            "sensors.read_calls": n("sensors.read"),
            "sensors.hotspot_error_s": s("sensors.hotspot_error"),
            "pdn.build_s": s("pdn.build"),
            "pdn.currents_s": s("pdn.currents"),
            "pdn.solve_s": s("pdn.solve"),
            "pdn.solve_calls": n("pdn.solve"),
            "reliability.report_s": s("reliability.report"),
            "scenario.run_self_s": s("scenario.run"),
            "scenario.render_s": s("scenario.render"),
            "scenario.export_self_s": s("scenario.export"),
            "fields_io.csv_s": s("fields_io.csv"),
            "fields_io.pgm_s": s("fields_io.pgm"),
            "trace.check_s": s("trace.check"),
            "trace.self_sum_s": sum(self_t),
        }
