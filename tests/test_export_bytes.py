"""The field writers against the csv.writer / per-voxel writers they
replaced, kept here as the reference: every CSV and PGM file must be
equal byte for byte."""

import csv
import dataclasses

import numpy as np
import pytest

from stackemu.fields_io import field_to_csv, layer_to_pgm, plane_to_pgm
from stackemu.solver import TemperatureField
from stackemu.stack import discretize, preset_stack

from conftest import column_stack, random_farm_stack, random_stack

FIELD_CSV_HEADER = ["layer", "z", "y", "x", "temperature_c"]

# reprs in exponent form, signed zero and the smallest subnormal
ODD_VALUES = [1e-05, 1e-07, 2.5e+16, -0.0, 5e-324, 1e+16, -1.5e-300,
              123456789012345.67, 0.1, 100.0]


def reference_field_to_csv(field_t, path):
    grid = field_t.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELD_CSV_HEADER)
        for iz in range(grid.nz):
            layer = int(grid.slab_layer[iz])
            for iy in range(grid.ny):
                for ix in range(grid.nx):
                    writer.writerow([layer, iz, iy, ix,
                                     repr(float(field_t.values[iz, iy, ix]))])


def reference_plane_to_pgm(plane, path, floor, unit="C"):
    vmax = float(plane.max())
    span = vmax - floor
    if span <= 0:
        pix = np.zeros(plane.shape, dtype=int)
    else:
        pix = np.clip(np.rint((plane - floor) / span * 255), 0, 255).astype(int)
    ny, nx = plane.shape
    lines = [f"P2", f"# max={vmax!r} floor={floor!r} unit={unit}",
             f"{nx} {ny}", "255"]
    for iy in range(ny):
        lines.append(" ".join(str(v) for v in pix[iy]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def random_values(rng, shape):
    """17-digit temperatures with the odd reprs sprinkled in."""
    values = 25.0 + rng.uniform(0, 60, shape)
    flat = values.reshape(-1)
    at = rng.choice(flat.size, size=min(flat.size, len(ODD_VALUES)),
                    replace=False)
    flat[at] = ODD_VALUES[:len(at)]
    return values


def lateral_slice(grid, nx, ny):
    """The grid cut to its first ny x nx cells (discretize needs >= 2)."""
    return dataclasses.replace(grid, nx=nx, ny=ny,
                               kx=grid.kx[:, :ny, :nx],
                               kz=grid.kz[:, :ny, :nx])


def assert_same_csv(grid, rng, tmp_path):
    field = TemperatureField(values=random_values(rng, grid.shape),
                             grid=grid)
    field_to_csv(field, tmp_path / "got.csv")
    reference_field_to_csv(field, tmp_path / "want.csv")
    assert ((tmp_path / "got.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def assert_same_pgm(plane, floor, unit, tmp_path):
    plane_to_pgm(plane, tmp_path / "got.pgm", floor=floor, unit=unit)
    reference_plane_to_pgm(plane, tmp_path / "want.pgm", floor=floor,
                           unit=unit)
    assert ((tmp_path / "got.pgm").read_bytes()
            == (tmp_path / "want.pgm").read_bytes())


@pytest.mark.parametrize("seed", range(12))
def test_csv_matches_reference_on_random_stacks(seed, tmp_path):
    rng = np.random.default_rng(seed)
    size = int(rng.choice([60, 400, 3000]))
    for _, grid in (random_stack(rng, size), random_farm_stack(rng, size)):
        assert_same_csv(grid, rng, tmp_path)


@pytest.mark.parametrize("nx, ny", [(1, 3), (4, 1), (1, 1)])
def test_csv_matches_reference_on_one_cell_wide_grids(nx, ny, tmp_path):
    grid = lateral_slice(discretize(preset_stack(3), 4, 3, 1), nx, ny)
    assert grid.shape[1:] == (ny, nx)
    assert_same_csv(grid, np.random.default_rng(nx * 10 + ny), tmp_path)


def test_csv_matches_reference_on_one_slab_column(tmp_path):
    grid = discretize(column_stack(), 3, 2, 1)
    assert grid.nz == 1
    assert_same_csv(grid, np.random.default_rng(1), tmp_path)


def test_csv_matches_reference_with_sub_slabs(tmp_path):
    grid = discretize(preset_stack(4), 7, 5, 2)
    assert grid.nz == 2 * len(grid.config.layers)
    assert_same_csv(grid, np.random.default_rng(2), tmp_path)


@pytest.mark.parametrize("seed", range(6))
def test_pgm_matches_reference_on_random_planes(seed, tmp_path):
    rng = np.random.default_rng(100 + seed)
    ny, nx = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    plane = random_values(rng, (ny, nx))
    assert_same_pgm(plane, 25.0, "C", tmp_path)
    assert_same_pgm(plane * 1e-3, 0.0, "mV", tmp_path)


def test_pgm_matches_reference_on_flat_plane(tmp_path):
    assert_same_pgm(np.full((3, 5), 25.0), 25.0, "C", tmp_path)


def test_pgm_matches_reference_below_floor(tmp_path):
    plane = np.random.default_rng(7).uniform(10.0, 20.0, (4, 6))
    assert_same_pgm(plane, 25.0, "C", tmp_path)


def test_layer_pgm_matches_reference_on_multi_slab_layer(tmp_path):
    grid = discretize(preset_stack(2), 9, 4, 3)
    rng = np.random.default_rng(8)
    field = TemperatureField(values=random_values(rng, grid.shape),
                             grid=grid)
    for layer in grid.config.device_layer_indices:
        slabs = grid.layer_slabs(layer)
        assert len(slabs) == 3
        layer_to_pgm(field, layer, tmp_path / "got.pgm")
        reference_plane_to_pgm(field.values[slabs].max(axis=0),
                               tmp_path / "want.pgm", floor=25.0)
        assert ((tmp_path / "got.pgm").read_bytes()
                == (tmp_path / "want.pgm").read_bytes())
