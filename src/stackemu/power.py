"""Configurable tile-level heat generators.

Each device layer carries a tile grid; each tile holds a temporal power
density profile in W/cm^2. Profiles convert to volumetric sources by
spreading a tile's areal density through the full thickness of its die.
Voxel assignment is overlap-weighted, so the volume integral of the
source field equals the tile-sum total power exactly, for any grid
resolution.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .stack import StackConfig, VoxelGrid, is_int


class Profile:
    """Base temporal power-density profile, W/cm^2."""

    def power_at(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


def _check_profile(densities, others=()) -> None:
    """Every profile's rule: its densities and other values (times,
    duty) are finite, and its densities are >= 0."""
    if not all(map(math.isfinite, (*densities, *others))):
        raise ValueError("power profile values must be finite")
    if min(densities) < 0:
        raise ValueError("power densities must be >= 0")


@dataclass(frozen=True)
class Constant(Profile):
    p: float = 0.0

    def __post_init__(self):
        _check_profile((self.p,))

    def power_at(self, t: float) -> float:
        return self.p


@dataclass(frozen=True)
class Step(Profile):
    p0: float
    p1: float
    t_switch: float

    def __post_init__(self):
        _check_profile((self.p0, self.p1), (self.t_switch,))

    def power_at(self, t: float) -> float:
        return self.p0 if t < self.t_switch else self.p1


@dataclass(frozen=True)
class Periodic(Profile):
    """Square wave: p_high for the first duty fraction of each period."""

    p_low: float
    p_high: float
    period: float
    duty: float = 0.5

    def __post_init__(self):
        _check_profile((self.p_low, self.p_high), (self.period, self.duty))
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must be in [0, 1]")

    def power_at(self, t: float) -> float:
        phase = (t % self.period) / self.period
        return self.p_high if phase < self.duty else self.p_low


_NOT_INCREASING = "trace timestamps must be strictly increasing"


@dataclass(frozen=True)
class Trace(Profile):
    """Piecewise-constant samples (t, p); holds the last value forever."""

    samples: tuple[tuple[float, float], ...]
    _times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(map(tuple, self.samples)))
        if not self.samples:
            raise ValueError("trace needs at least one sample")
        ts, densities = zip(*self.samples)
        _check_profile(densities, ts)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(_NOT_INCREASING)
        object.__setattr__(self, "_times", np.array(ts))

    def power_at(self, t: float) -> float:
        if t <= self.samples[0][0]:
            return self.samples[0][1]
        idx = np.searchsorted(self._times, t, side="right") - 1
        return self.samples[idx][1]


def load_trace_csv(path) -> Trace:
    """Two columns `t_seconds,power_w_per_cm2`, header required. Each row
    is checked as it is read, by Trace's rules, so an error names its
    line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != \
                ["t_seconds", "power_w_per_cm2"]:
            raise ValueError(
                f"{path}: expected header 't_seconds,power_w_per_cm2'")
        samples = []
        try:
            for row in filter(None, reader):
                if len(row) != 2:
                    raise ValueError(f"expected 2 fields, got {len(row)}")
                t, p = float(row[0]), float(row[1])
                _check_profile((p,), (t,))
                if samples and t <= samples[-1][0]:
                    raise ValueError(_NOT_INCREASING)
                samples.append((t, p))
        except ValueError as e:
            raise ValueError(f"{path} line {reader.line_num}: {e}") from None
    return Trace(tuple(samples))


@dataclass(frozen=True)
class CoreProxyPreset:
    """Spatial activity pattern scaled by a base density."""

    name: str
    spatial_pattern: tuple[tuple[float, ...], ...]  # (rows, cols) multipliers
    base_density: float                             # W/cm^2

    def __post_init__(self):
        pat = np.asarray(self.spatial_pattern, dtype=float)
        if (pat < 0).any():
            raise ValueError("pattern multipliers must be >= 0")
        if self.name != "idle" and not (pat > 0).any():
            raise ValueError("pattern needs at least one positive entry")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.spatial_pattern), len(self.spatial_pattern[0]))


def _pattern(rows):
    return tuple(tuple(float(v) for v in row) for row in rows)


def _center_hotspot(rows, cols, edge, center):
    pat = np.full((rows, cols), edge)
    pat[rows // 4: rows - rows // 4, cols // 4: cols - cols // 4] = center
    return _pattern(pat)


# Preset pattern tables for the default 4x8 tile grid (data, not code).
BUILTIN_PRESETS = {
    "cpu_core": CoreProxyPreset("cpu_core", _center_hotspot(4, 8, 0.5, 2.0), 20.0),
    "gpu_sm": CoreProxyPreset("gpu_sm", _center_hotspot(4, 8, 1.0, 4.0), 15.0),
    "cache": CoreProxyPreset("cache", _pattern(np.full((4, 8), 1.0)), 3.0),
    "dram": CoreProxyPreset("dram", _pattern(np.full((4, 8), 1.0)), 1.5),
    "accelerator": CoreProxyPreset(
        "accelerator", _center_hotspot(4, 8, 0.25, 3.0), 25.0),
    "idle": CoreProxyPreset("idle", _pattern(np.zeros((4, 8))), 0.0),
}


@dataclass(frozen=True)
class PowerMap:
    """Per (device layer, tile) temporal profiles. Immutable; setters
    return new maps."""

    config: StackConfig
    profiles: tuple[tuple[tuple[Profile, ...], ...], ...]  # [layer][row][col]

    @staticmethod
    def zeros(config: StackConfig) -> "PowerMap":
        layers = []
        for layer in config.device_layers:
            layers.append(tuple(
                tuple(Constant(0.0) for _ in range(layer.tile_cols))
                for _ in range(layer.tile_rows)))
        return PowerMap(config=config, profiles=tuple(layers))

    @property
    def n_device_layers(self) -> int:
        return len(self.profiles)

    def tile_shape(self, layer: int) -> tuple[int, int]:
        return (len(self.profiles[layer]), len(self.profiles[layer][0]))

    def profile(self, layer: int, row: int, col: int) -> Profile:
        return self.profiles[layer][row][col]

    def check_tile(self, layer: int, row: int, col: int):
        if not all(map(is_int, (layer, row, col))):
            raise IndexError(f"tile ({layer}, {row}, {col}) needs integers")
        if not 0 <= layer < self.n_device_layers:
            raise IndexError(f"device layer {layer} out of range")
        rows, cols = self.tile_shape(layer)
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(f"tile ({row}, {col}) out of range for "
                             f"{rows}x{cols} grid")

    def _edit(self, layer: int, tile) -> "PowerMap":
        """A map with one layer's tiles rebuilt as tile(row, col, profile)."""
        layers = list(self.profiles)
        layers[layer] = tuple(tuple(tile(r, c, p) for c, p in enumerate(row))
                              for r, row in enumerate(layers[layer]))
        return replace(self, profiles=tuple(layers))

    def set_tile_power(self, layer: int, row: int, col: int,
                       profile: Profile) -> "PowerMap":
        self.check_tile(layer, row, col)
        return self._edit(layer, lambda r, c, p:
                          profile if (r, c) == (row, col) else p)

    def apply_preset(self, layer: int, preset: CoreProxyPreset) -> "PowerMap":
        self.check_tile(layer, 0, 0)
        if preset.shape != self.tile_shape(layer):
            raise ValueError(
                f"preset shape {preset.shape} does not match layer tile grid "
                f"{self.tile_shape(layer)}")
        return self._edit(layer, lambda r, c, p: Constant(
            preset.base_density * preset.spatial_pattern[r][c]))

    def set_uniform(self, layer: int, profile: Profile) -> "PowerMap":
        self.check_tile(layer, 0, 0)
        return self._edit(layer, lambda r, c, p: profile)

    def densities(self, layer: int, t: float) -> np.ndarray:
        """(rows, cols) float array of densities at time t, W/cm^2."""
        if t < 0:
            raise ValueError("time must be >= 0")
        return np.array([[p.power_at(t) for p in row]
                         for row in self.profiles[layer]], dtype=float)


def _overlap_weights(n_cells: int, cell_size: float, n_tiles: int,
                     extent: float) -> np.ndarray:
    """(n_cells, n_tiles) fractional overlap of each grid cell with each
    tile interval along one axis; rows sum to 1."""
    cells = np.arange(n_cells + 1) * cell_size
    tiles = np.arange(n_tiles + 1) * (extent / n_tiles)
    ov = (np.minimum(cells[1:, None], tiles[None, 1:])
          - np.maximum(cells[:-1, None], tiles[None, :-1]))
    return np.where(ov > 0, ov / cell_size, 0.0)


def tile_weights(config: StackConfig, nx: int,
                 ny: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per device layer, the overlap weights (wy (ny, tile_rows), wx (nx,
    tile_cols)) of an nx x ny cell grid over the die with the layer's
    tiles."""
    w_m = config.die_width_mm * 1e-3
    l_m = config.die_length_mm * 1e-3
    return tuple((_overlap_weights(ny, l_m / ny, layer.tile_rows, l_m),
                  _overlap_weights(nx, w_m / nx, layer.tile_cols, w_m))
                 for layer in config.device_layers)


def areal_density(densities, weights):
    """Yield (device ordinal, (ny, nx) areal power density in W/m^2) for
    every device layer that draws power; densities holds each layer's
    (rows, cols) tile densities in W/cm^2 at one time, and weights come
    from tile_weights."""
    for ordinal, (dens, (wy, wx)) in enumerate(zip(densities, weights)):
        dens = dens * 1e4  # W/cm^2 -> W/m^2
        if dens.any():
            yield ordinal, wy @ dens @ wx.T


def _raster_plan(grid: VoxelGrid):
    """Tile weights, slabs and thickness (m) of each device layer."""
    config = grid.config
    device = config.device_layer_indices
    return (tile_weights(config, grid.nx, grid.ny),
            tuple(grid.layer_slabs(i) for i in device),
            tuple(config.layers[i].thickness_um * 1e-6 for i in device))


def power_density_field(pmap: PowerMap, grid: VoxelGrid,
                        t: float) -> np.ndarray:
    """Volumetric heat source (nz, ny, nx), W/m^3, read-only; nonzero only
    in device slabs. Tile areal density spreads through the full die
    thickness. pmap has a PowerMap's `config` and `densities(layer, t)`.
    The grid's last field comes back while the densities at t have the
    same bits, all it depends on once the stacks match."""
    if grid.config is not pmap.config and grid.config != pmap.config:
        raise ValueError("power map and grid come from different stacks")
    weights, slabs, thickness = grid.cached("raster",
                                            lambda: _raster_plan(grid))
    densities = [pmap.densities(o, t) for o in range(len(weights))]
    key = [dens.tobytes() for dens in densities]
    last = grid.cached("power", lambda: [None, None])   # key, field
    if last[0] == key:
        return last[1]
    field = np.zeros(grid.shape)
    for ordinal, areal in areal_density(densities, weights):
        field[slabs[ordinal]] += areal / thickness[ordinal]
    field.setflags(write=False)
    last[:] = key, field
    return field


def total_power(pmap: PowerMap, t: float) -> float:
    """Total injected power of the map's own stack at time t, W."""
    config = pmap.config
    total = 0.0
    for ordinal, layer in enumerate(config.device_layers):
        tile_area_cm2 = (config.die_width_mm / 10.0 / layer.tile_cols) * \
                        (config.die_length_mm / 10.0 / layer.tile_rows)
        total += float(pmap.densities(ordinal, t).sum()) * tile_area_cm2
    return total
