"""The field CSV's number text: `_repr_bytes` must give repr(float(v))
byte for byte on every double, and `field_to_csv` must write the same
bytes as the csv.writer reference on fields made of its edge cases."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackemu import fields_io
from stackemu.fields_io import _repr_bytes, field_from_csv, field_to_csv
from stackemu.solver import TemperatureField
from stackemu.stack import discretize, preset_stack

from test_export_bytes import reference_field_to_csv


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    out = _repr_bytes(values)
    assert out.shape == (values.size, 24) and out.dtype == np.uint8
    got = [bytes(row).rstrip(b"\0").decode() for row in out]
    assert got == [repr(v) for v in values.tolist()]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


POWERS_OF_TWO = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
POWERS_OF_TEN = with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
# the ends of the fast path and of its point positions
DOMAIN_ENDS = with_neighbours([1.0, 1e13, 2.0, 9.999999999999998, 10.0,
                               99.99999999999999, 1e12, 2.0**43])
# exact binary fractions ending in 5: half-way in their last decimal.
# From 1.0000152587890625 on they are exact at 17 digits, which end in 5,
# 50 or 500: ties of the 16-, 15- and 14-digit roundings derived from
# them. At 8.0000152587890625 and 8.0000457763671875 both 16-digit
# neighbours read back, and repr takes the even one.
DECIMAL_TIES = with_neighbours([
    100.125, 0.5, 2.5, 1.5, 1.25, 10.375, 1234.5, 85.0625,
    4503599627370495.5, 1e12 + 0.5, 25.5, 1.0000152587890625,
    4096.0001220703125, 123456.00048828125, 1.000030517578125,
    1234.000244140625, 85.00006103515625, 1.00006103515625,
    7.00006103515625, 8.0000152587890625, 8.0000457763671875])
ODD = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
       1e-05, 1.5e-07, 1e+16, 2.5e+16, 1e+22, 1.7976931348623157e+308,
       123456789012345.67, 9999999999999.998, 0.1, 0.3, 2.0 / 3.0,
       float("inf"), float("-inf"), float("nan")]


def short_decimals(rng, n_digits, size):
    """Doubles nearest to decimals of 1-14 significant digits."""
    mantissa = rng.integers(10 ** (n_digits - 1), 10 ** n_digits, size)
    exponent = rng.integers(-n_digits - 3, 14 - n_digits, size)
    return [float(f"{m}e{e}") for m, e in zip(mantissa.tolist(),
                                               exponent.tolist())]


@pytest.mark.parametrize("values", [POWERS_OF_TWO, POWERS_OF_TEN,
                                    DOMAIN_ENDS, DECIMAL_TIES, ODD],
                         ids=["powers_of_two", "powers_of_ten",
                              "domain_ends", "decimal_ties", "odd"])
def test_edge_values_match_repr(values):
    assert_reprs(values)
    assert_reprs(np.negative(values))


@pytest.mark.parametrize("n_digits", range(1, 15))
def test_short_decimals_match_repr(n_digits):
    values = short_decimals(np.random.default_rng(n_digits), n_digits, 400)
    assert_reprs(values)
    assert_reprs(np.negative(values))


def test_subnormals_match_repr():
    rng = np.random.default_rng(5)
    bits = rng.integers(1, 1 << 52, 500, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))


@pytest.mark.parametrize("seed", range(3))
def test_random_doubles_in_the_fast_path_domain_match_repr(seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.array([1.0, 1e13]).view(np.int64)
    bits = rng.integers(lo, hi, 20000)
    assert_reprs(bits.view(np.float64))
    temps = rng.uniform(25.0, 85.0, 20000)
    assert_reprs(temps)
    assert_reprs([np.round(temps[:2000], d) for d in range(16)])


def test_tie_rich_binary_fractions_match_repr():
    """m * 2**-k, m < 2**40 and k < 30, is exact in few decimal digits:
    about one in twenty is a 16-digit tie (17 significant digits, the last
    a 5), which goes to repr, and as many a 17-digit tie (18 digits),
    which the fast path rounds to even."""
    rng = np.random.default_rng(32)
    m = rng.integers(1, 2**40, 200_000)
    k = rng.integers(0, 30, 200_000)
    values = np.ldexp(m.astype(np.float64), -k)
    keep = (values >= 1.0) & (values < 1e13)
    digits = Counter()
    for mm, kk in zip(m[keep].tolist(), k[keep].tolist()):
        while kk and mm % 2 == 0:   # lowest terms
            mm, kk = mm // 2, kk - 1
        if kk:   # exactly mm * 5**kk / 10**kk, whose last digit is a 5
            digits[len(str(mm * 5**kk))] += 1
    assert min(digits[17], digits[18]) > 0.04 * keep.sum()
    assert_reprs(values[keep])


def test_any_shape_and_float32_widen_like_float():
    values = np.random.default_rng(6).uniform(25.0, 85.0, (3, 4, 5))
    assert_reprs(values)
    assert_reprs(values.astype(np.float32))
    assert _repr_bytes(np.empty(0)).shape == (0, 24)


@settings(max_examples=300, deadline=None)
@given(st.floats())
def test_any_double_matches_repr(value):
    assert_reprs([value])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1.0, 1e13), min_size=1, max_size=40))
def test_doubles_near_the_domain_match_repr(values):
    assert_reprs(values)
    assert_reprs(np.nextafter(values, np.inf))


def test_most_temperatures_take_the_fast_path(monkeypatch):
    """A fallback to repr for every value would still be correct; this
    catches it anyway."""
    calls = []
    monkeypatch.setattr(fields_io, "repr", lambda v: calls.append(v)
                        or repr(v), raising=False)
    values = np.random.default_rng(7).uniform(25.0, 85.0, 50000)
    assert_reprs(values)
    assert len(calls) <= 0.05 * values.size


# --- field_to_csv on fields made of fallback and boundary values --------

@pytest.fixture
def grid():
    return discretize(preset_stack(2), 8, 5, 2)


def tiled(values, shape):
    return np.resize(np.asarray(values, dtype=np.float64), shape)


def assert_writes_reference_and_reads_back(field, tmp_path):
    field_to_csv(field, tmp_path / "got.csv")
    reference_field_to_csv(field, tmp_path / "want.csv")
    assert ((tmp_path / "got.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())
    back = field_from_csv(tmp_path / "got.csv", field.grid)
    want = np.asarray(field.values, dtype=np.float64)
    assert np.array_equal(back.values.view(np.uint64), want.view(np.uint64))


def test_csv_of_fallback_values(grid, tmp_path):
    rng = np.random.default_rng(8)
    for values in (np.full(grid.shape, 25.0),
                   -rng.uniform(1.0, 60.0, grid.shape),
                   1e13 * rng.uniform(1.0, 1e3, grid.shape),
                   tiled([25.0, -40.0, 1e13, 3e15, 0.5, -0.0, 64.0],
                         grid.shape)):
        assert_writes_reference_and_reads_back(
            TemperatureField(values=values, grid=grid), tmp_path)


def test_csv_of_fast_path_boundaries(grid, tmp_path):
    edges = np.concatenate([DOMAIN_ENDS, with_neighbours(
        np.ldexp(1.0, np.arange(0, 44))), with_neighbours(
        [float(f"1e{k}") for k in range(13)])])
    assert grid.n >= edges.size
    assert_writes_reference_and_reads_back(
        TemperatureField(values=tiled(edges, grid.shape), grid=grid),
        tmp_path)


def test_csv_of_float32_field(grid, tmp_path):
    values = np.random.default_rng(9).uniform(25.0, 85.0, grid.shape)
    assert_writes_reference_and_reads_back(
        TemperatureField(values=values.astype(np.float32), grid=grid),
        tmp_path)


@pytest.mark.parametrize("nx, ny", [(64, 50), (128, 72)])
def test_csv_in_blocks_of_slabs(nx, ny, tmp_path):
    """At 8192 rows per block: two slabs per block and a one-slab last
    block, and slabs longer than a block."""
    grid = discretize(preset_stack(2), nx, ny, 1)
    assert grid.nz % 2 == 1
    values = np.random.default_rng(nx).uniform(25.0, 85.0, grid.shape)
    assert_writes_reference_and_reads_back(
        TemperatureField(values=values, grid=grid), tmp_path)


def test_csv_cell_text_is_built_once_per_grid(grid, tmp_path):
    rng = np.random.default_rng(10)
    for name in ("steady.csv", "final.csv"):
        field = TemperatureField(values=rng.uniform(25.0, 85.0, grid.shape),
                                 grid=grid)
        field_to_csv(field, tmp_path / name)
    cells = grid.cached("csv_cells",
                        lambda: pytest.fail("the writer did not cache it"))
    assert not cells.flags.writeable
    assert bytes(cells[grid.nx + 1]).rstrip(b"\0") == b"1,1,"
