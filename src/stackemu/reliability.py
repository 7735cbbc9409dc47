"""Lifetime-reliability screening metrics from thermal results.

Electromigration acceleration uses the thermal Arrhenius term only (no
per-wire current densities exist in this model). Thermal-cycling damage
uses simplified three-point rainflow over the extrema sequence with a
Coffin-Manson power law. Thermomechanical stress near via farms is a
unitless gradient-times-mismatch proxy, not MPa; its hotspots stay two
arrays, (k, 3) voxels and their (k,) scores, from the gradient to the CSV.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
import math

import numpy as np

from .solver import LayerStats, TemperatureField

BOLTZMANN_EV = 8.617333262e-5  # eV/K
ZERO_C_IN_K = 273.15


@dataclass(frozen=True)
class ReliabilityParams:
    ea_ev: float = 0.7
    reference_t_c: float = 105.0
    cycling_exponent: float = 2.0
    delta_t_ref: float = 100.0       # K; one full-range cycle scores 1
    stress_cte_weight: float = 3.0   # mismatch weight at/near via farms
    stress_percentile: float = 99.0

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("reliability parameters must be finite")
        if not self.ea_ev > 0:
            raise ValueError("activation energy must be positive")
        if not self.reference_t_c > -ZERO_C_IN_K:
            raise ValueError("reference_t_c must be above -273.15 C")
        if not self.cycling_exponent > 0:
            raise ValueError("cycling exponent must be positive")
        if not self.delta_t_ref > 0:
            raise ValueError("delta_t_ref must be positive")
        if not self.stress_cte_weight > 0:
            raise ValueError("stress_cte_weight must be positive")
        if not 0 <= self.stress_percentile <= 100:
            raise ValueError("stress percentile must be in [0, 100]")


def em_acceleration(t_c: float,
                    params: ReliabilityParams = ReliabilityParams()) -> float:
    """Arrhenius acceleration factor relative to the reference
    temperature: AF = exp((Ea/kB) (1/T_ref - 1/T)), temperatures in K."""
    if t_c <= -ZERO_C_IN_K:
        raise ValueError(f"nonphysical temperature {t_c} C")
    t_k = t_c + ZERO_C_IN_K
    t_ref_k = params.reference_t_c + ZERO_C_IN_K
    return math.exp((params.ea_ev / BOLTZMANN_EV)
                    * (1.0 / t_ref_k - 1.0 / t_k))


def extract_extrema(trace) -> list[float]:
    """Strictly alternating local extrema of a time series, endpoints
    included; flat runs collapse."""
    vals = [float(v) for v in trace]
    out: list[float] = []
    for v in vals:
        if out and v == out[-1]:
            continue
        if len(out) >= 2 and (out[-1] - out[-2]) * (v - out[-1]) > 0:
            out[-1] = v
        else:
            out.append(v)
    return out


def rainflow_cycles(extrema: list[float]) -> list[tuple[float, float]]:
    """Simplified three-point rainflow on an extrema sequence.

    Stack method: whenever the middle range of the last three points is
    enclosed by the incoming range, that middle pair closes one full
    cycle and is removed. Leftover residual pairs count as half cycles.
    Returns (range, count) with count 1.0 or 0.5.
    """
    cycles: list[tuple[float, float]] = []
    stack: list[float] = []
    for v in extrema:
        stack.append(v)
        while len(stack) >= 3:
            x = abs(stack[-1] - stack[-2])
            y = abs(stack[-2] - stack[-3])
            if x < y:
                break
            cycles.append((y, 1.0))
            del stack[-3:-1]
    for a, b in zip(stack, stack[1:]):
        if a != b:
            cycles.append((abs(b - a), 0.5))
    return cycles


def cycling_damage(trace,
                   params: ReliabilityParams = ReliabilityParams()) -> float:
    """Coffin-Manson damage index: sum of count * (dT/dT_ref)^m over
    rainflow cycles. Flat traces score 0."""
    if len(trace) < 2:
        raise ValueError("trace needs at least 2 samples")
    cycles = rainflow_cycles(extract_extrema(trace))
    m = params.cycling_exponent
    return float(sum(count * (rng / params.delta_t_ref) ** m
                     for rng, count in cycles))


def percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) of values without NaN, bit for bit, with
    numpy's partition and linear rule (np.percentile imports numpy.ma)."""
    n = values.size
    at = (n - 1) * (q / 100)
    lo = -1 if at >= n - 1 else math.floor(at)   # numpy's: -1 at the end
    hi = -1 if lo == -1 else lo + 1
    # numpy's partition points, which also decide +0.0 against -0.0
    a, b = np.partition(values.reshape(-1), sorted({0, -1, lo, hi}))[[lo, hi]]
    t, diff = at - lo, b - a   # numpy's _lerp
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def stress_proxy(field_t: TemperatureField,
                 params: ReliabilityParams = ReliabilityParams()
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-magnitude stress scores on the field's own grid, weighted
    up inside and one voxel ring around the via-farm footprints of its
    stack. Returns (voxels, scores) above the configured percentile, sorted
    descending, ties by linear index: a (k, 3) intp array of (iz, iy, ix)
    and their (k,) float64 |grad T| (K/mm) x mismatch weight."""
    grid = field_t.grid
    # |grad T|^2 = (gx^2 + gy^2) + gz^2 accumulated in one buffer, one
    # gradient alive at a time; nz == 1 has gz = 0, which adds nothing.
    score = None
    for axis, centers_m in ((2, grid.x_centers_m()), (1, grid.y_centers_m()),
                            (0, grid.z_centers_m())):
        if grid.shape[axis] > 1:
            g = np.gradient(field_t.values, centers_m * 1e3, axis=axis)
            np.square(g, out=g)
            score = g if score is None else np.add(score, g, out=score)
    np.sqrt(score, out=score)

    for i, layer in enumerate(grid.config.layers):
        if not layer.tsv_farms:
            continue
        mask = grid.farm_lateral_mask(i)
        ring = mask.copy()
        ring[1:, :] |= mask[:-1, :]
        ring[:-1, :] |= mask[1:, :]
        ring[:, 1:] |= mask[:, :-1]
        ring[:, :-1] |= mask[:, 1:]
        for iz in grid.layer_slabs(i):
            score[iz][ring] *= params.stress_cte_weight

    flat = score.reshape(-1)
    threshold = percentile(flat, params.stress_percentile)
    # floor filters gradient roundoff on (near-)isothermal fields
    above = np.flatnonzero(flat > max(threshold, 1e-9))
    order = above[np.argsort(-flat[above], kind="stable")]
    return np.column_stack(np.unravel_index(order, grid.shape)), flat[order]


@dataclass(frozen=True)
class LayerReliability:
    layer_index: int
    role: str
    max_t_c: float
    em_af: float
    cycling_damage: float


@dataclass(frozen=True)
class ReliabilityReport:
    """stress_voxels and stress_scores are stress_proxy's two arrays."""
    layers: tuple[LayerReliability, ...]
    stress_voxels: np.ndarray = field(repr=False)
    stress_scores: np.ndarray = field(repr=False)
    min_mttf_layer: int   # physical layer index of the worst (hottest) die


def reliability_report(layer_stats: list[LayerStats],
                       layer_traces: dict[int, list[float]],
                       field_t: TemperatureField,
                       params: ReliabilityParams = ReliabilityParams()
                       ) -> ReliabilityReport:
    """Aggregate EM, cycling and stress scores per device layer.

    layer_traces maps physical layer index -> time series of that layer's
    max temperature; one of under 2 samples (steady-only, one-step runs)
    scores 0. The min-MTTF layer is the highest-AF layer; ties go to the layer
    farthest from the heat sink (lowest index)."""
    layers = []
    for stats in layer_stats:
        trace = layer_traces.get(stats.layer_index, ())
        layers.append(LayerReliability(
            layer_index=stats.layer_index,
            role=stats.role,
            max_t_c=stats.max,
            em_af=em_acceleration(stats.max, params),
            cycling_damage=(cycling_damage(trace, params)
                            if len(trace) > 1 else 0.0)))
    best = max(range(len(layers)),
               key=lambda i: (layers[i].em_af, -layers[i].layer_index))
    return ReliabilityReport(tuple(layers), *stress_proxy(field_t, params),
                             min_mttf_layer=layers[best].layer_index)
