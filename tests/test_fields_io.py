from dataclasses import replace

import numpy as np
import pytest

from stackemu.fields_io import (field_from_csv, field_to_csv, layer_to_pgm,
                                plane_to_pgm)
from stackemu.solver import TemperatureField
from stackemu.stack import discretize, preset_stack


@pytest.fixture
def grid():
    return discretize(preset_stack(2), 6, 3, 1)


def test_csv_round_trip_bit_exact(grid, tmp_path):
    rng = np.random.default_rng(3)
    field = TemperatureField(values=25.0 + rng.uniform(0, 60, grid.shape),
                             grid=grid, time=1.25)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    back = field_from_csv(path, grid, time=1.25)
    np.testing.assert_array_equal(back.values, field.values)
    assert back.time == 1.25


def test_csv_round_trip_skips_blank_lines(grid, tmp_path):
    rng = np.random.default_rng(4)
    field = TemperatureField(values=rng.uniform(25, 90, grid.shape),
                             grid=grid)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(lines[:5] + [b""] + lines[5:]) + b"\r\n")
    back = field_from_csv(path, grid)
    np.testing.assert_array_equal(back.values, field.values)


def test_csv_header_and_layer_column(grid, tmp_path):
    field = TemperatureField(values=np.full(grid.shape, 30.0), grid=grid)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "layer,z,y,x,temperature_c"
    # one row per voxel plus the header
    assert len(lines) == 1 + grid.n
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "0", "0"]


def test_csv_rejects_bad_header(grid, tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        field_from_csv(path, grid)


def test_csv_rejects_missing_voxels(grid, tmp_path):
    field = TemperatureField(values=np.full(grid.shape, 30.0), grid=grid)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="missing"):
        field_from_csv(path, grid)


def test_pgm_format_and_scaling(tmp_path):
    plane = np.array([[25.0, 50.0], [75.0, 125.0]])
    path = tmp_path / "plane.pgm"
    plane_to_pgm(plane, path, floor=25.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "# max=125.0 floor=25.0 unit=C"
    assert lines[2] == "2 2"
    assert lines[3] == "255"
    pix = [int(v) for line in lines[4:] for v in line.split()]
    # (T - 25) / 100 * 255, rounded
    assert pix == [0, 64, 128, 255]


def test_pgm_flat_plane_all_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    plane_to_pgm(np.full((2, 3), 25.0), path, floor=25.0)
    lines = path.read_text().splitlines()
    pix = [int(v) for line in lines[4:] for v in line.split()]
    assert pix == [0] * 6


def test_layer_pgm_takes_max_over_slabs(grid, tmp_path):
    cfg = preset_stack(2)
    g = discretize(cfg, 4, 2, 2)
    values = np.full(g.shape, 25.0)
    slabs = g.layer_slabs(1)
    assert len(slabs) == 2
    values[slabs[0], 0, 0] = 40.0
    values[slabs[1], 0, 0] = 60.0     # hotter slab should win
    field = TemperatureField(values=values, grid=g)
    path = tmp_path / "layer.pgm"
    layer_to_pgm(field, 1, path)
    lines = path.read_text().splitlines()
    assert "max=60.0" in lines[1]
    pix = [int(v) for line in lines[4:] for v in line.split()]
    assert pix[0] == 255 and all(v == 0 for v in pix[1:])


def test_layer_pgm_floor_is_the_stack_ambient(tmp_path):
    cfg = replace(preset_stack(2), ambient_c=40.0)
    g = discretize(cfg, 4, 2, 1)
    values = np.full(g.shape, 40.0)
    [iz] = g.layer_slabs(1)
    values[iz, 0, 0] = 60.0
    values[iz, 0, 1] = 50.0      # halfway from the 40 C floor to the max
    values[iz, 1, 0] = 30.0      # below the floor clips to 0
    path = tmp_path / "layer.pgm"
    layer_to_pgm(TemperatureField(values=values, grid=g), 1, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "# max=60.0 floor=40.0 unit=C"
    pix = [int(v) for line in lines[4:] for v in line.split()]
    assert pix == [255, 128, 0, 0, 0, 0, 0, 0]


@pytest.fixture
def csv_path(grid, tmp_path):
    field = TemperatureField(values=np.full(grid.shape, 30.0), grid=grid)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    return path


def _append_row(path, row):
    with open(path, "a") as fh:
        fh.write(row + "\n")


@pytest.mark.parametrize("voxel", [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                                   (5, 0, 0), (0, 3, 0), (0, 0, 6)])
def test_csv_rejects_out_of_range_voxel(grid, csv_path, voxel):
    # A negative index would wrap and silently overwrite another voxel.
    z, y, x = voxel
    _append_row(csv_path, f"{grid.slab_layer[z % grid.nz]},{z},{y},{x},999")
    with pytest.raises(ValueError, match="outside the grid"):
        field_from_csv(csv_path, grid)


def test_csv_rejects_duplicate_voxel(grid, csv_path):
    _append_row(csv_path, "0,0,0,0,31.0")
    with pytest.raises(ValueError, match="duplicate"):
        field_from_csv(csv_path, grid)


def test_csv_rejects_wrong_layer(grid, csv_path):
    assert grid.slab_layer[0] != 1
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "0,0,0,0,30.0"
    lines[1] = "1,0,0,0,30.0"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="layer"):
        field_from_csv(csv_path, grid)


@pytest.mark.parametrize("row, message", [
    ("0,0,0,2", r"not enough values to unpack \(expected 5, got 4\)"),
    ("0,0,0,zero,30.0", "invalid literal for int"),
    ("0,0,0,2,warm", "could not convert string to float"),
    ("0,0,0,0,30.0", r"duplicate voxel \(0, 0, 0\)")],
    ids=["short-row", "non-integer-index", "non-numeric-temperature",
         "duplicate-voxel"])
def test_csv_row_errors_name_the_file_and_line(grid, csv_path, row,
                                               message):
    """A bad row on line 4, where voxel (0, 0, 2) was: the error names
    the file and the line, whatever the row's fault."""
    lines = csv_path.read_text().splitlines()
    assert lines[3] == "0,0,0,2,30.0"
    lines[3] = row
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"field.csv line 4: {message}"):
        field_from_csv(csv_path, grid)


def test_layer_pgm_rejects_an_unknown_layer(grid, tmp_path):
    field = TemperatureField(np.full(grid.shape, 25.0), grid)
    with pytest.raises(ValueError, match="layer 99 has no slabs"):
        layer_to_pgm(field, 99, tmp_path / "l99.pgm")
    assert not (tmp_path / "l99.pgm").exists()
