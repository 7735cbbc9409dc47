"""Scenario runner: stack build -> power map -> solves -> sensors ->
PDN -> reliability, with run-time thermal-management policies in the
transient loop and deterministic, machine-diffable reports.

Policies act on sensor readings, never on ground-truth voxel
temperatures, so placement quality is visible in management outcomes.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import __version__
from .fields_io import field_to_csv, layer_to_pgm, plane_to_pgm, rows_to_csv
from .pdn import (PdnParams, build_pdn, check_connected, currents_from_power,
                  droop_from_drop, solve_ir_drop)
from .power import PowerMap, power_density_field, total_power
from .reliability import (ReliabilityParams, ReliabilityReport,
                          reliability_report)
from .sensors import (SensorNetwork, SensorSpec, check_k, check_site,
                      hotspot_error, place_sensors_greedy, placement_to_csv,
                      read_sensors, tile_center_candidates)
from .solver import (DiscreteSystem, LayerStats, SolveOptions,
                     TemperatureField, assemble, layer_summary, solve_steady,
                     step_transient)
from .stack import StackConfig, discretize, is_int


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"scenario failed in stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as StageError(name, cause)."""
    try:
        yield
    except Exception as e:
        raise StageError(name, e)


@dataclass(frozen=True)
class _Hysteresis:
    """A DTM policy acts at trigger_t and undoes it below release_t."""

    trigger_t: float
    release_t: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.trigger_t, self.release_t))):
            raise ValueError("trigger_T and release_T must be finite")
        if not self.release_t < self.trigger_t:
            raise ValueError("release_T must be below trigger_T (hysteresis)")


@dataclass(frozen=True)
class ThrottlePolicy(_Hysteresis):
    throttle_factor: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.throttle_factor < 1.0:
            raise ValueError("throttle_factor must be in (0, 1)")


@dataclass(frozen=True)
class CoreSwapPolicy(_Hysteresis):
    # pairs of (device layer, row, col) tiles whose profiles get swapped
    pairing: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "pairing", tuple(
            (tuple(a), tuple(b)) for a, b in self.pairing))
        tiles = [t for pair in self.pairing for t in pair]
        if len(set(tiles)) != len(tiles):
            raise ValueError("swap pairs must be disjoint")


MAX_STEPS = 10_000_000   # the longest march TransientSpec accepts


@dataclass(frozen=True)
class TransientSpec:
    t_end: float
    dt: float
    sample_stride: int = 1

    def __post_init__(self):
        if not (0 < self.t_end < np.inf and 0 < self.dt < np.inf):
            raise ValueError("t_end and dt must be positive and finite")
        if not self.t_end / self.dt < np.inf:
            raise ValueError(f"t_end / dt = {self.t_end} / {self.dt} is "
                             "not a finite step count")
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"t_end / dt = {self.t_end} / {self.dt} is "
                             f"over {MAX_STEPS = } steps")
        if not is_int(self.sample_stride) or self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1 and an integer")

    @property
    def n_steps(self) -> int:
        """ceil(t_end / dt), a ratio within 1e-9 (relative) of a whole
        number counting as that number: in floating point 0.07 / 0.01 is
        7.000000000000001, which is 7 steps, not 8."""
        return math.ceil(self.t_end / self.dt * (1.0 - 1e-9))


@dataclass(frozen=True)
class GridSpec:
    nx: int = 32
    ny: int = 16
    sub_slabs_per_layer: int = 1

    def __post_init__(self):   # their ranges are discretize's
        if not all(map(is_int, astuple(self))):
            raise ValueError("nx, ny and sub_slabs_per_layer must be integers")


@dataclass(frozen=True)
class AutoPlace:
    """Greedy placement of k sensors on the tile centers, trained on the
    run's own steady field; every placed sensor gets the fields after k,
    which are SensorSpec's last three, in order."""

    k: int
    noise_sigma: float = SensorSpec.noise_sigma
    quantization_step: float = SensorSpec.quantization_step
    sample_period: float = SensorSpec.sample_period

    def __post_init__(self):   # the placed sensors' checks, at load
        if not is_int(self.k):
            raise ValueError("k must be an integer")
        SensorSpec(0, 0.0, 0.0, *astuple(self)[1:])


@dataclass(frozen=True)
class Scenario:
    name: str
    stack: StackConfig
    power: PowerMap
    grid: GridSpec = GridSpec()
    sensors: SensorNetwork | AutoPlace | None = None
    pdn: PdnParams | None = None
    reliability: ReliabilityParams | None = None
    solve: SolveOptions = SolveOptions()
    transient: TransientSpec | None = None
    policy: ThrottlePolicy | CoreSwapPolicy | None = None
    policy_period: int = 10   # transient steps between policy evaluations
    seed: int = 0

    def __post_init__(self):
        if self.policy is not None and self.transient is None:
            raise ValueError("a DTM policy needs a transient section")
        if not is_int(self.seed):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not is_int(self.policy_period) or self.policy_period < 1:
            raise ValueError("policy_period must be an integer >= 1")
        network = self.sensors
        if isinstance(network, AutoPlace):
            check_k(network.k, len(tile_center_candidates(self.stack)))
        elif self.policy is not None and not (network and network.sensors):
            raise ValueError("a DTM policy requires a sensor network")
        elif network is not None:
            for sensor in network.sensors:
                check_site(sensor.site, self.stack)
        try:   # every swap tile is a tile of the power map
            for tile in sum(getattr(self.policy, "pairing", ()), ()):
                self.power.check_tile(*tile)
        except IndexError as e:
            raise ValueError(f"policy/pairing: {e}") from None


@dataclass(frozen=True)
class PolicyEvent:
    t: float
    action: str          # "throttle" / "release" / "swap" / "swap_back"
    layer: int           # device ordinal (-1 for global coreswap events)
    sensor_index: int
    reading: float


@dataclass(frozen=True)
class PdnSummary:
    max_drop_per_plane: tuple[float, ...]
    droop_per_plane: tuple[float, ...]
    drop_map: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ScenarioReport:
    scenario: Scenario = field(repr=False)
    steady_stats: tuple[LayerStats, ...]
    final_stats: tuple[LayerStats, ...] | None
    steady_field: TemperatureField = field(repr=False)
    final_field: TemperatureField | None = field(repr=False)
    # kept only while perfbench/check.py reads it (ROADMAP items 7 and 8)
    sampled_fields: tuple[TemperatureField, ...] = field(repr=False)
    sensor_readings: list[float] | None
    sensor_hotspot_error: tuple[float | None, float | None] | None
    pdn_summary: PdnSummary | None
    reliability: ReliabilityReport | None
    events: tuple[PolicyEvent, ...]
    total_power_w: float


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(repr(scenario).encode()).hexdigest()[:16]


class _PolicyState:
    """The march's power map under a DTM policy. Called as (step, field),
    every period-th step it reads the sensors and applies one hysteresis
    rule per key: a device ordinal (its layer's hottest sensor) for
    throttling, -1 (the hottest sensor overall) for coreswap; the first
    index wins a tie. The readings' noise comes from the scenario seed.
    It returns itself, with live densities: read them before the next
    call."""

    def __init__(self, policy, base_map: PowerMap,
                 network: SensorNetwork, period: int, seed: int = 0):
        self.policy = policy
        self.base_map = base_map
        self.config = base_map.config
        self.network = network
        self.period = period
        self.seed = seed
        self.on: set[int] = set()
        self.events: list[PolicyEvent] = []

    def __call__(self, step: int, field_t: TemperatureField):
        if step % self.period == 0:
            self.evaluate(field_t.time,
                          read_sensors(self.network, field_t, self.seed))
        return self

    def densities(self, layer: int, t: float) -> np.ndarray:
        """The base map's densities at t, a throttled layer's times the
        factor and each swapped pair's two tiles exchanged."""
        base, p = self.base_map, self.policy
        dens = base.densities(layer, t)
        if isinstance(p, ThrottlePolicy):
            return dens * p.throttle_factor if layer in self.on else dens
        if self.on:
            for a, b in p.pairing:
                for (ordinal, row, col), other in ((a, b), (b, a)):
                    if ordinal == layer:
                        dens[row, col] = base.profile(*other).power_at(t)
        return dens

    def evaluate(self, t: float, readings: list[float]):
        p = self.policy
        throttle = isinstance(p, ThrottlePolicy)
        hottest: dict[int, int] = {}   # key -> index of its hottest sensor
        for i, sensor in enumerate(self.network.sensors):
            key = sensor.layer if throttle else -1
            if key not in hottest or readings[i] > readings[hottest[key]]:
                hottest[key] = i
        for key, i in sorted(hottest.items()):
            if key not in self.on and readings[i] >= p.trigger_t:
                self.on.add(key)
                action = "throttle" if throttle else "swap"
            elif key in self.on and readings[i] < p.release_t:
                self.on.discard(key)
                action = "release" if throttle else "swap_back"
            else:
                continue
            self.events.append(PolicyEvent(t, action, key, i, readings[i]))


def solve_transient(system: DiscreteSystem, t0_field: TemperatureField,
                    pmap, spec: TransientSpec,
                    options: SolveOptions = SolveOptions(),
                    on_step=None) -> TemperatureField:
    """March backward Euler from t0_field to spec.t_end in spec.n_steps
    steps of spec.dt; returns the final field.

    pmap is a PowerMap, or a function (step, field) -> map called at each
    step start with the field so far, which is how thermal-management
    policies (_PolicyState) act; that step's map is read before the next
    call. The source is the map's power at the step start time.
    on_step(step, field) is called with every new field."""
    field_t = t0_field
    for step in range(spec.n_steps):
        step_map = pmap(step, field_t) if callable(pmap) else pmap
        source = power_density_field(step_map, system.grid, field_t.time)
        field_t = step_transient(system, field_t, source, spec.dt, options)
        if on_step is not None:
            on_step(step, field_t)
    return field_t


def run_scenario(scenario: Scenario) -> ScenarioReport:
    with _stage("stack"):
        grid = discretize(scenario.stack, scenario.grid.nx, scenario.grid.ny,
                          scenario.grid.sub_slabs_per_layer)
        if scenario.pdn is not None:   # before any solve
            check_connected(scenario.stack, scenario.pdn)

    with _stage("steady-solve"):
        system = assemble(grid, scenario.stack)
        source0 = power_density_field(scenario.power, grid, 0.0)
        steady = solve_steady(system, source0, scenario.solve)
        steady_stats = tuple(layer_summary(steady))

    # The scenario seed governs all stochastic behavior, including sensor noise.
    network = scenario.sensors
    with _stage("sensors"):
        if isinstance(network, AutoPlace):
            candidates = tile_center_candidates(scenario.stack)
            sites = place_sensors_greedy(candidates, network.k, [steady])
            network = SensorNetwork(sensors=tuple(
                SensorSpec(*site, *astuple(network)[1:]) for site in sites))
            scenario = replace(scenario, sensors=network)

    final_field = final_stats = None
    sampled: list[TemperatureField] = []
    layer_traces: dict[int, list[float]] = {   # kept for reliability only
        idx: [] for idx in grid.config.device_layer_indices
        if scenario.reliability is not None}
    events: tuple[PolicyEvent, ...] = ()

    if scenario.transient is not None:
        with _stage("transient"):
            spec = scenario.transient
            pmap = scenario.power
            if scenario.policy is not None:
                pmap = _PolicyState(scenario.policy, scenario.power, network,
                                    scenario.policy_period, scenario.seed)

            def observe(step, field_t):   # layer maxima: LayerStats.max bits
                if (step + 1) % spec.sample_stride == 0 \
                        or step == spec.n_steps - 1:
                    sampled.append(field_t)
                for idx, maxima in layer_traces.items():
                    s = grid.layer_slabs(idx)
                    maxima.append(float(field_t.values[s[0]:s[-1] + 1].max()))

            t0 = TemperatureField(
                np.full(grid.shape, scenario.stack.ambient_c), grid)
            final_field = solve_transient(system, t0, pmap, spec,
                                          scenario.solve, observe)
            final_stats = tuple(layer_summary(final_field))
            if scenario.policy is not None:
                events = tuple(pmap.events)
    del system   # the last solve is done: free its kept step operator

    readings = hs_error = None
    if network is not None:
        with _stage("sensors"):
            observe_field = final_field if final_field is not None else steady
            readings = read_sensors(network, observe_field, scenario.seed)
            placement = [s.site for s in network.sensors]
            hs_error = hotspot_error(placement, sampled or [steady])

    pdn_summary = None
    if scenario.pdn is not None:
        with _stage("pdn"):
            pdn = build_pdn(scenario.stack, scenario.pdn)
            currents = currents_from_power(scenario.power, pdn, 0.0)
            drop = solve_ir_drop(pdn, currents, scenario.solve)
            droop = droop_from_drop(drop, np.zeros_like(currents), currents,
                                    pdn.params)
            pdn_summary = PdnSummary(
                max_drop_per_plane=tuple(
                    float(v) for v in drop.reshape(pdn.n_planes, -1).max(1)),
                droop_per_plane=tuple(float(v) for v in droop),
                drop_map=drop)

    rel = None
    if scenario.reliability is not None:
        with _stage("reliability"):
            rel = reliability_report(list(steady_stats), layer_traces, steady,
                                     scenario.reliability)

    return ScenarioReport(
        scenario=scenario,
        steady_stats=steady_stats,
        final_stats=final_stats,
        steady_field=steady,
        final_field=final_field,
        sampled_fields=tuple(sampled),
        sensor_readings=readings,
        sensor_hotspot_error=hs_error,
        pdn_summary=pdn_summary,
        reliability=rel,
        events=events,
        total_power_w=total_power(scenario.power, 0.0))


def _fmt(x: float) -> str:
    return repr(float(x))


def _layer_rows(title: str, stats: tuple[LayerStats, ...]) -> list[str]:
    """A blank line, the section title and one row per device layer."""
    return ["", f"== {title} =="] + [
        f"layer {s.layer_index} ({s.role}): mean={_fmt(s.mean)} "
        f"max={_fmt(s.max)} min={_fmt(s.min)} hotspot={s.hotspot}"
        for s in stats]


def render_report(report: ScenarioReport) -> str:
    """Deterministic text report; byte-identical for identical
    (scenario, seed). Section order is stable."""
    lines = ["== provenance ==",
             f"scenario: {report.scenario.name}",
             f"config_hash: {scenario_hash(report.scenario)}",
             f"seed: {report.scenario.seed}",
             f"version: {__version__}",
             "", "== power ==",
             f"total_power_w: {_fmt(report.total_power_w)}"]
    lines += _layer_rows("steady state", report.steady_stats)
    if report.final_stats is not None:
        lines += _layer_rows("transient final", report.final_stats)
    if report.sensor_readings is not None:
        lines += ["", "== sensors =="]
        net = report.scenario.sensors
        for sensor, r in zip(net.sensors, report.sensor_readings):
            lines.append(f"sensor layer={sensor.layer} "
                         f"x={_fmt(sensor.x_mm)} y={_fmt(sensor.y_mm)}: "
                         f"{_fmt(r)}")
        mean_e, max_e = report.sensor_hotspot_error
        lines.append("hotspot_error: unobserved" if mean_e is None else
                     f"hotspot_error: mean={_fmt(mean_e)} max={_fmt(max_e)}")
    if report.pdn_summary is not None:
        lines += ["", "== pdn =="]
        for p, (drop, droop) in enumerate(zip(
                report.pdn_summary.max_drop_per_plane,
                report.pdn_summary.droop_per_plane)):
            lines.append(f"plane {p}: max_drop_v={_fmt(drop)} "
                         f"droop_v={_fmt(droop)}")
    rel = report.reliability
    if rel is not None:
        lines += ["", "== reliability =="]
        for lr in rel.layers:
            lines.append(f"layer {lr.layer_index} ({lr.role}): "
                         f"max_t_c={_fmt(lr.max_t_c)} em_af={_fmt(lr.em_af)} "
                         f"cycling_damage={_fmt(lr.cycling_damage)}")
        lines.append(f"min_mttf_layer: {rel.min_mttf_layer}")
        lines.append(f"stress_hotspots: {len(rel.stress_scores)}")
        for v, s in zip(rel.stress_voxels[:10].tolist(), rel.stress_scores):
            lines.append(f"  voxel={tuple(v)} score={_fmt(s)}")
    lines += ["", "== policy events =="]
    lines += [f"t={_fmt(e.t)} action={e.action} layer={e.layer} "
              f"sensor={e.sensor_index} reading={_fmt(e.reading)}"
              for e in report.events] or ["(none)"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    per_layer_max: tuple[float, ...]
    max_pdn_drop: float | None
    min_mttf_layer: int | None


def compare_scenarios(scenarios: list[Scenario]) -> list[ComparisonRow]:
    """Rows of steady values, sorted by name: each run is steady-only."""
    if len(scenarios) < 2:
        raise ValueError("need at least two scenarios to compare")
    rows = []
    for sc in scenarios:
        rep = run_scenario(replace(sc, transient=None, policy=None,
                                   sensors=None))
        pdn_max = (max(rep.pdn_summary.max_drop_per_plane)
                   if rep.pdn_summary is not None else None)
        mttf = rep.reliability.min_mttf_layer if rep.reliability else None
        rows.append(ComparisonRow(
            name=sc.name,
            per_layer_max=tuple(s.max for s in rep.steady_stats),
            max_pdn_drop=pdn_max,
            min_mttf_layer=mttf))
    return sorted(rows, key=lambda r: r.name)


def render_comparison(rows: list[ComparisonRow]) -> str:
    lines = ["scenario\tper_layer_max_c\tmax_pdn_drop_v\tmin_mttf_layer"]
    for r in rows:
        temps = ",".join(_fmt(t) for t in r.per_layer_max)
        drop = _fmt(r.max_pdn_drop) if r.max_pdn_drop is not None else "-"
        mttf = str(r.min_mttf_layer) if r.min_mttf_layer is not None else "-"
        lines.append(f"{r.name}\t{temps}\t{drop}\t{mttf}")
    return "\n".join(lines) + "\n"


class ExportError(OSError):
    pass


def write_targets(targets: list[tuple[str, callable]],
                  force: bool = False) -> list[str]:
    """Call writer(path) for each (path, writer) target in order. Unless
    force is set, any existing path fails with ExportError before a file
    is written; a failed write raises ExportError too. Returns the paths."""
    for path, _ in targets:
        if os.path.exists(path) and not force:
            raise ExportError(f"refusing to overwrite {path} without force")
    for path, writer in targets:
        try:
            writer(path)
        except OSError as e:
            raise ExportError(f"failed writing {path}: {e}")
    return [path for path, _ in targets]


def export(report: ScenarioReport, formats: str | tuple[str, ...],
           prefix: str, force: bool = False) -> list[str]:
    """Write the report artifacts of one format ("text", "csv" or "pgm")
    or of a tuple of them with the given path prefix, through
    write_targets. Returns written paths."""
    if isinstance(formats, str):
        formats = (formats,)
    return write_targets(
        [t for fmt in formats for t in _targets(report, fmt, prefix)], force)


def _targets(report: ScenarioReport, fmt: str,
             prefix: str) -> list[tuple[str, callable]]:
    """(path, writer) of every artifact of one format."""
    grid = report.steady_field.grid
    targets: list[tuple[str, callable]] = []

    if fmt == "text":
        targets.append((f"{prefix}_report.txt",
                        lambda p: write_text(p, render_report(report))))
    elif fmt == "csv":
        targets.append((f"{prefix}_steady_field.csv",
                        lambda p: field_to_csv(report.steady_field, p)))
        if report.final_field is not None:
            targets.append((f"{prefix}_final_field.csv",
                            lambda p: field_to_csv(report.final_field, p)))
        if report.scenario.sensors is not None:
            placement = [s.site for s in report.scenario.sensors.sensors]
            targets.append((f"{prefix}_sensors.csv",
                            lambda p: placement_to_csv(placement, p)))
        if report.reliability is not None:
            targets.append((f"{prefix}_stress_hotspots.csv",
                            lambda p: _stress_csv(report, p)))
    elif fmt == "pgm":
        for layer_index in grid.config.device_layer_indices:
            targets.append((
                f"{prefix}_steady_L{layer_index}.pgm",
                lambda p, li=layer_index: layer_to_pgm(
                    report.steady_field, li, p)))
        if report.pdn_summary is not None:
            for plane in range(report.pdn_summary.drop_map.shape[0]):
                targets.append((
                    f"{prefix}_pdn_drop_P{plane}.pgm",
                    lambda p, pl=plane: plane_to_pgm(
                        report.pdn_summary.drop_map[pl] * 1e3, p,
                        floor=0.0, unit="mV")))
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return targets


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _stress_csv(report: ScenarioReport, path):
    rel = report.reliability
    rows_to_csv(path, ["z", "y", "x", "score"], rel.stress_voxels,
                rel.stress_scores[:, None])
