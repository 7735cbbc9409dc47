"""Field export/import: CSV (full precision, round-trippable) and
PGM P2 grayscale heatmaps per layer. The CSV has the header
`layer,z,y,x,temperature_c`, one row per voxel in (z, y, x) order, CRLF
line ends and temperatures as `repr` floats (finite, so never quoted)."""

from __future__ import annotations

import csv

import numpy as np

from .solver import TemperatureField
from .stack import VoxelGrid

FIELD_CSV_HEADER = ["layer", "z", "y", "x", "temperature_c"]
# str(v) for every PGM pixel value, looked up per row instead of formatted.
_PIXEL_TEXT = np.array([str(v) for v in range(256)], dtype=object)


def field_to_csv(field_t: TemperatureField, path) -> None:
    grid = field_t.grid
    cells = [f"{iy},{ix}," for iy in range(grid.ny) for ix in range(grid.nx)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FIELD_CSV_HEADER) + "\r\n")
        for iz, layer in enumerate(grid.slab_layer.tolist()):
            zh = f"{layer},{iz},"
            temps = field_t.values[iz].astype(float).ravel().tolist()
            fh.write("".join([f"{zh}{c}{t!r}\r\n"  # one slab per write
                              for c, t in zip(cells, temps)]))


def field_from_csv(path, grid: VoxelGrid,
                   time: float | None = None) -> TemperatureField:
    values = np.empty(grid.shape)
    seen = np.zeros(grid.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FIELD_CSV_HEADER:
            raise ValueError(f"{path}: expected header "
                             f"{','.join(FIELD_CSV_HEADER)}")
        for row in reader:
            if not row:
                continue
            layer, iz, iy, ix, t = row
            voxel = (int(iz), int(iy), int(ix))
            if not all(0 <= i < n for i, n in zip(voxel, grid.shape)):
                raise ValueError(f"{path}: voxel {voxel} is outside the "
                                 f"grid {grid.shape}")
            if seen[voxel]:
                raise ValueError(f"{path}: duplicate voxel {voxel}")
            if int(layer) != grid.slab_layer[voxel[0]]:
                raise ValueError(f"{path}: voxel {voxel} has layer {layer}, "
                                 f"slab {voxel[0]} is layer "
                                 f"{grid.slab_layer[voxel[0]]}")
            values[voxel] = float(t)
            seen[voxel] = True
    if not seen.all():
        raise ValueError(f"{path}: field is missing voxels")
    return TemperatureField(values=values, grid=grid, time=time)


def plane_to_pgm(plane: np.ndarray, path, floor: float,
                 unit: str = "C") -> None:
    """Write a 2D (ny, nx) plane as ASCII PGM, linearly mapping
    [floor, max] to [0, 255]; the comment line carries the max."""
    vmax = float(plane.max())
    span = vmax - floor
    if span <= 0:
        pix = np.zeros(plane.shape, dtype=int)
    else:
        pix = np.clip(np.rint((plane - floor) / span * 255), 0, 255).astype(int)
    ny, nx = plane.shape
    lines = [f"P2", f"# max={vmax!r} floor={floor!r} unit={unit}",
             f"{nx} {ny}", "255"]
    lines.extend(" ".join(row) for row in _PIXEL_TEXT[pix].tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def layer_to_pgm(field_t: TemperatureField, grid: VoxelGrid,
                 layer_index: int, path, ambient_c: float) -> None:
    """Per-layer heatmap: per-(y,x) max over the layer's slabs."""
    slabs = grid.layer_slabs(layer_index)
    if len(slabs) == 0:
        raise ValueError(f"layer {layer_index} has no slabs")
    plane = field_t.values[slabs].max(axis=0)
    plane_to_pgm(plane, path, floor=ambient_c, unit="C")
