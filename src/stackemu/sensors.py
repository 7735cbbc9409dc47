"""Virtual thermal sensors: noisy, quantized, sampled point probes, plus
greedy placement for hotspot tracking and its noiseless error.

Noise is counter-based: each (scenario seed, sensor index, sample index)
triple seeds its own generator, so any reading is reproducible without
storing streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng   # loaded here, not inside a run

from .fields_io import rows_to_csv
from .solver import TemperatureField
from .stack import StackConfig, VoxelGrid, is_int


@dataclass(frozen=True)
class SensorSpec:
    """Location is (device layer ordinal, x mm, y mm)."""

    layer: int
    x_mm: float
    y_mm: float
    noise_sigma: float = 0.5        # K
    quantization_step: float = 0.25  # K
    sample_period: float = 1e-3      # s

    def __post_init__(self):
        if not is_int(self.layer):
            raise ValueError("sensor layer must be an integer")
        if not all(map(math.isfinite, (self.x_mm, self.y_mm, self.noise_sigma,
                                        self.quantization_step,
                                        self.sample_period))):
            raise ValueError("sensor site, noise, quantization and sample "
                             "period must be finite")
        if self.noise_sigma < 0 or self.quantization_step < 0:
            raise ValueError("noise_sigma and quantization_step must be >= 0")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")

    @property
    def site(self) -> tuple[int, float, float]:
        return (self.layer, self.x_mm, self.y_mm)


@dataclass(frozen=True)
class SensorNetwork:
    sensors: tuple[SensorSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        sites = [s.site for s in self.sensors]
        if len(set(sites)) != len(sites):
            raise ValueError("two sensors share the same site")


def quantize(value: float, step: float) -> float:
    """Round to the nearest multiple of step, ties away from zero."""
    if step <= 0:
        return value
    return math.copysign(math.floor(abs(value) / step + 0.5), value) * step


def _site_voxel(site: tuple[int, float, float],
                grid: VoxelGrid) -> tuple[int, int, int]:
    """(iz, iy, ix) of the voxel a site reads: the middle slab of its
    layer; computed once per (site, grid)."""
    site = tuple(site)
    return grid.cached(("site_voxel", site), lambda: _locate(site, grid))


def check_site(site, config: StackConfig) -> None:
    """Raise ValueError unless the site is on a device layer of the stack
    and inside its die."""
    layer, x_mm, y_mm = site
    if not 0 <= layer < len(config.device_layer_indices):
        raise ValueError(f"device layer {layer} out of range")
    if not (0 <= x_mm <= config.die_width_mm
            and 0 <= y_mm <= config.die_length_mm):
        raise ValueError(f"sensor site ({x_mm}, {y_mm}) mm outside the die")


def _locate(site, grid: VoxelGrid) -> tuple[int, int, int]:
    check_site(site, grid.config)
    layer, x_mm, y_mm = site
    slabs = grid.layer_slabs(grid.config.device_layer_indices[layer])
    iz = int(slabs[len(slabs) // 2])
    ix = min(int(x_mm * 1e-3 / grid.dx_m), grid.nx - 1)
    iy = min(int(y_mm * 1e-3 / grid.dy_m), grid.ny - 1)
    return iz, iy, ix


def read_sensors(network: SensorNetwork, field_t: TemperatureField,
                 seed: int = 0) -> list[float]:
    """Quantized noisy readings at the field's own time (0 for a steady
    field) on its own grid, one per sensor, deg C; seed is the scenario's."""
    readings = []
    for s_idx, sensor in enumerate(network.sensors):
        true_t = float(field_t.values[_site_voxel(sensor.site, field_t.grid)])
        if sensor.noise_sigma > 0:
            sample_idx = int(field_t.time // sensor.sample_period)
            rng = default_rng([seed, s_idx, sample_idx])
            true_t += float(rng.standard_normal()) * sensor.noise_sigma
        readings.append(quantize(true_t, sensor.quantization_step))
    return readings


UNOBSERVED = None  # sentinel for the error of an empty placement


def _true_values(sites, fields: list[TemperatureField]) -> np.ndarray:
    """(n_sites, n_fields) noiseless site temperatures, each field read
    on its own grid: one gather per field."""
    return np.array([f.values[tuple(np.transpose(
        [_site_voxel(s, f.grid) for s in sites]))] for f in fields]).T


def placement_objective(sites, fields: list[TemperatureField]) -> float:
    """Mean absolute hotspot-tracking error of a placement over fields,
    with noiseless readings."""
    if not sites:
        raise ValueError("placement is empty")
    return hotspot_error(sites, fields)[0]


def check_k(k: int, n_candidates: int) -> None:
    """Raise ValueError unless 1 <= k <= n_candidates."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n_candidates:
        raise ValueError("k exceeds candidate count")


def place_sensors_greedy(candidates, k: int,
                         training_fields: list[TemperatureField]
                         ) -> list[tuple[int, float, float]]:
    """Greedy hotspot-tracking placement. Each round adds the candidate
    giving the lowest objective; ties go to the lowest candidate index.
    Deterministic; returns exactly k sites in selection order."""
    candidates = [tuple(c) for c in candidates]
    check_k(k, len(candidates))
    if not training_fields:
        raise ValueError("need at least one training field")

    true_max = np.array([f.values.max() for f in training_fields])
    vals = _true_values(candidates, training_fields)

    chosen: list[int] = []
    est = np.full(len(training_fields), -np.inf)
    remaining = list(range(len(candidates)))
    for _ in range(k):
        objs = np.mean(np.abs(true_max - np.maximum(est, vals[remaining])),
                       axis=1)
        best_idx, best_obj = None, np.inf
        for c, obj in zip(remaining, objs.tolist()):
            if obj < best_obj - 1e-15:
                best_idx, best_obj = c, obj
        chosen.append(best_idx)
        est = np.maximum(est, vals[best_idx])
        remaining.remove(best_idx)
    return [candidates[i] for i in chosen]


def hotspot_error(placement, evaluation_fields: list[TemperatureField]):
    """(mean, max) absolute hotspot error with noiseless readings, K.
    Empty placement reports (UNOBSERVED, UNOBSERVED), never zero."""
    if not evaluation_fields:
        raise ValueError("need at least one evaluation field")
    if not placement:
        return (UNOBSERVED, UNOBSERVED)
    true_max = np.array([f.values.max() for f in evaluation_fields])
    vals = _true_values([tuple(p) for p in placement], evaluation_fields)
    err = np.abs(true_max - vals.max(axis=0))
    return (float(err.mean()), float(err.max()))


def tile_center_candidates(config: StackConfig
                           ) -> list[tuple[int, float, float]]:
    """Default candidate set: every tile center of every device layer."""
    out = []
    for ordinal, layer_index in enumerate(config.device_layer_indices):
        layer = config.layers[layer_index]
        tw = config.die_width_mm / layer.tile_cols
        th = config.die_length_mm / layer.tile_rows
        for r in range(layer.tile_rows):
            for c in range(layer.tile_cols):
                out.append((ordinal, (c + 0.5) * tw, (r + 0.5) * th))
    return out


def placement_to_csv(placement, path) -> None:
    sites = np.reshape(placement, (-1, 3))   # (layer, x_mm, y_mm) rows
    rows_to_csv(path, ["layer", "x_mm", "y_mm"], sites[:, :1], sites[:, 1:])
