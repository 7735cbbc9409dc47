"""Field export/import: CSV (full precision, round-trippable) and
PGM P2 grayscale heatmaps per layer. The CSV has the header
`layer,z,y,x,temperature_c`, one row per voxel in (z, y, x) order, CRLF
line ends and temperatures as `repr` floats (finite, so never quoted).

The writer builds the rows of whole slabs as one byte block. A
temperature's text is `repr(float(v))` byte for byte, but `repr` is
called only off the fast path. The fast path takes finite 1 <= v < 1e13
that are not powers of two and finds the shortest digit string that
reads back as v, which is the rule `repr` follows (Steele & White 1990),
in exact array arithmetic with one rounding per value: it rounds
X = v * 10**(16 - floor(log10 v)) once, to the 17-digit integer D17
(Dekker's two-product makes the product exact and keeps f = X - D17),
derives the 16-, 15- and 14-digit roundings D_p from D17's last one to
three digits and the sign of f, tests whether each D_p reads back as v,
and writes the digits of the smallest p in 15..17 that does (17 always
does), with the point after floor(log10 v) + 1 of them. A value goes to
`repr` when p = 14 reads back (its repr is shorter) or X is a 16-digit
tie; so does every value outside the domain: zero, negatives, powers of
two, subnormals, >= 1e13, nan and inf."""

from __future__ import annotations

import csv

import numpy as np

from .solver import TemperatureField
from .stack import VoxelGrid

FIELD_CSV_HEADER = ["layer", "z", "y", "x", "temperature_c"]
# f"{v} " for every PGM pixel value, and f"{v}\n" for a row's last one,
# NUL-padded: a plane's text is one lookup, not a format per pixel.
_PIXELS, _ROW_ENDS = (np.array([f"{v}{end}" for v in range(256)], dtype="S4")
                      .view(np.uint8).reshape(256, 4) for end in " \n")
# The longest repr of a double: -1.2345678901234567e-308.
_TEXT_WIDTH = 24
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_POW10 = 10.0 ** np.arange(18)  # exact doubles
# "0000" ... "9999" as one uint32 each; the second table writes the
# trailing zeros of the last group as NULs.
_GROUPS = np.array([f"{g:04d}" for g in range(10000)],
                   dtype="S4").view(np.uint32)
_LAST_GROUPS = np.array([f"{g:04d}".rstrip("0") for g in range(10000)],
                        dtype="S4").view(np.uint32)
# The writer formats and writes whole slabs, as many as fit in this many
# rows and at least one: on small grids the formatter's fixed cost per
# call dominates, and on large ones a block of one slab bounds the
# buffers (about 1.5 MB at 32,768 rows).
_BLOCK_ROWS = 8192
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = hi + lo exactly, each with at most 26 bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _shortest_digits(x: np.ndarray,
                     e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For x in [1, 1e13), not a power of two, and e10 = floor(log10 x):
    (digits, ok). digits is D_p for the smallest p in 15..17 that reads
    back, padded with zeros to 17 digits. ok is False where that is not
    the repr: p = 14 reads back or X is a 16-digit tie."""
    bits = x.view(np.uint64)
    even = (bits & np.uint64(1)) == 0
    # 2**(q-1) for x = c * 2**q: x's exponent less 53, zero mantissa
    exponent = bits >> np.uint64(52)
    half_ulp = ((exponent - np.uint64(53)) << np.uint64(52)).view(np.float64)
    # X = x * scale = hi + lo exactly (Dekker's two-product). X >= 1e16 >
    # 2**53, so hi is an even integer: D17 = hi + rint(lo), a tie rounded
    # to even as repr rounds it, and f = X - D17 = lo - rint(lo) exactly.
    scale = _POW10[16 - e10]
    x_hi, x_lo = _split(x)
    s_hi, s_lo = _split(scale)
    hi = x * scale
    lo = x_hi * s_hi - hi
    lo += x_hi * s_lo
    lo += x_lo * s_hi
    lo += x_lo * s_lo
    lo_int = np.rint(lo)
    f = lo - lo_int
    d17 = hi.astype(np.int64)
    d17 += lo_int.astype(np.int64)
    # With u = 10**(17 - p), D_p reads back where |D_p * u - X| < w, or
    # = w with x's mantissa even. w > X / 2**54 > 1/2 >= |f|: D17 always
    # reads back.
    w = half_ulp * scale
    # D17 mod 1000 (int64 % is slower), exact as a double
    r = (d17 - (d17 // 1000) * 1000).astype(np.float64)
    g_best = np.zeros(x.size)
    for u in (10.0, 100.0, 1000.0):
        # m = D17 mod u. D_p = (D17 - m) / u + up, so D_p * u - X = g - f
        # with g = u * up - m. |g| <= 1000 and w has at most 38
        # significant bits: every operation and comparison is exact.
        m = r - np.floor(r / u) * u
        half = m == u / 2
        up = (m > u / 2) | (half & (f > 0))
        if u == 10.0:   # both candidates may read back; repr picks one
            tie = half & (f == 0)
        g = up * u - m
        gap = np.abs(g - f)
        reads_back = (gap < w) | (even & (gap == w))
        # the smallest p that reads back wins, 15 over 16 over 17; p = 14
        # reading back means a shorter repr, which is not written here
        if u < 1000:
            g_best += (g - g_best) * reads_back
    d17 += g_best.astype(np.int64)
    return d17, ~(reads_back | tie)


def _repr_bytes(values) -> np.ndarray:
    """(n, 24) uint8: the ASCII of repr(float(v)) for each value in
    order, NUL-padded on the right. The fast path and its fallback are
    described in the module docstring."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    mantissa = v.view(np.uint64) & np.uint64((1 << 52) - 1)
    domain = (v >= 1.0) & (v < 1e13) & (mantissa != 0)
    # Off the domain the arithmetic runs on 1.5; repr replaces its text.
    x = np.where(domain, v, 1.5)
    e10 = np.floor(np.log10(x)).astype(np.int64)
    e10 -= _POW10[e10] > x
    e10 += _POW10[e10 + 1] <= x
    digits, ok = _shortest_digits(x, e10)
    ok &= domain
    # The 17 digits as five groups of four, "000d" first. No D_p ends in
    # 0 (p is the shortest), so the zeros that pad it to 17 digits are
    # exactly the last group's trailing zeros, which its table drops.
    groups = np.empty((v.size, 5), dtype=np.uint32)
    for j, table in ((4, _LAST_GROUPS), (3, _GROUPS), (2, _GROUPS),
                     (1, _GROUPS), (0, _GROUPS)):
        top = digits // 10**4
        groups[:, j] = table[digits - top * 10**4]
        digits = top
    chars = groups.view(np.uint8)[:, 3:]
    # "." after the first e10 + 1 digits: written for the most common
    # position on every row, then redone on the rows with another one.
    out = np.zeros((v.size, _TEXT_WIDTH), dtype=np.uint8)
    point = e10 + 1
    common = int(np.bincount(point[ok], minlength=1).argmax())
    others = np.bincount(point[ok & (point != common)])
    for pt in [common] + np.flatnonzero(others).tolist():
        rows = (slice(None) if pt == common
                else np.flatnonzero(ok & (point == pt)))
        out[rows, :pt] = chars[rows, :pt]
        out[rows, pt] = ord(".")
        out[rows, pt + 1:18] = chars[rows, pt:]
    rest = np.flatnonzero(~ok)
    out[rest] = np.array([repr(t) for t in v[rest].tolist()],
                         dtype=f"S{_TEXT_WIDTH}").view(np.uint8).reshape(
                             rest.size, _TEXT_WIDTH)
    return out


def _text_rows(texts: list[str]) -> np.ndarray:
    """(len(texts), width) uint8: one ASCII text per row, NUL-padded."""
    return np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)


def _write_rows(fh, columns: list[np.ndarray]) -> None:
    """Write one CRLF-ended line per row of the NUL-padded uint8 text
    columns, set side by side, with the NULs dropped."""
    rows = np.concatenate(
        [*columns, np.broadcast_to(_CRLF, (len(columns[0]), 2))], axis=1)
    fh.write(rows[rows != 0].tobytes())


def rows_to_csv(path, header: list[str], ints: np.ndarray, floats) -> None:
    """Write a CSV as csv.writer does (CRLF line ends): the header, then
    one row per row of the (n, k) non-negative ints followed by the
    reprs of the matching row of the (n, m) floats."""
    columns = []
    for c in np.asarray(ints, dtype=np.int64).T:
        table = _text_rows([f"{i}," for i in range(c.max(initial=0) + 1)])
        columns.append(np.take(table, c, axis=0))
    for c in np.asarray(floats, dtype=np.float64).T:
        columns += [_repr_bytes(c), np.full((len(c), 1), ord(","), np.uint8)]
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        _write_rows(fh, columns[:-1])


def field_to_csv(field_t: TemperatureField, path) -> None:
    grid = field_t.grid
    cells = grid.cached("csv_cells", lambda: _text_rows(
        [f"{iy},{ix}," for iy in range(grid.ny) for ix in range(grid.nx)]))
    slabs = _text_rows([f"{layer},{iz},"
                        for iz, layer in enumerate(grid.slab_layer.tolist())])
    per_block = max(1, _BLOCK_ROWS // len(cells))
    with open(path, "wb") as fh:
        fh.write(",".join(FIELD_CSV_HEADER).encode() + b"\r\n")
        for z0 in range(0, grid.nz, per_block):
            block = slabs[z0:z0 + per_block]
            _write_rows(fh, [np.repeat(block, len(cells), axis=0),
                             np.tile(cells, (len(block), 1)),
                             _repr_bytes(field_t.values[z0:z0 + per_block])])


def field_from_csv(path, grid: VoxelGrid,
                   time: float = 0.0) -> TemperatureField:
    values = np.empty(grid.shape)
    seen = np.zeros(grid.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FIELD_CSV_HEADER:
            raise ValueError(f"{path}: expected header "
                             f"{','.join(FIELD_CSV_HEADER)}")
        try:
            for row in reader:
                if not row:
                    continue
                layer, iz, iy, ix, t = row
                voxel = (int(iz), int(iy), int(ix))
                if not all(0 <= i < n for i, n in zip(voxel, grid.shape)):
                    raise ValueError(f"voxel {voxel} is outside the grid "
                                     f"{grid.shape}")
                if seen[voxel]:
                    raise ValueError(f"duplicate voxel {voxel}")
                if int(layer) != grid.slab_layer[voxel[0]]:
                    raise ValueError(f"voxel {voxel} has layer {layer}, "
                                     f"slab {voxel[0]} is layer "
                                     f"{grid.slab_layer[voxel[0]]}")
                values[voxel] = float(t)
                seen[voxel] = True
        except ValueError as e:
            raise ValueError(f"{path} line {reader.line_num}: {e}") from None
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
    text = np.take(_PIXELS, pix, axis=0)
    text[:, -1] = np.take(_ROW_ENDS, pix[:, -1], axis=0)
    with open(path, "wb") as fh:
        fh.write(f"P2\n# max={vmax!r} floor={floor!r} unit={unit}\n"
                 f"{nx} {ny}\n255\n".encode() + text[text != 0].tobytes())


def layer_to_pgm(field_t: TemperatureField, layer_index: int, path) -> None:
    """Per-layer heatmap: per-(y,x) max over the layer's slabs, with the
    stack's ambient temperature as the floor."""
    grid = field_t.grid
    slabs = grid.layer_slabs(layer_index)
    if len(slabs) == 0:
        raise ValueError(f"layer {layer_index} has no slabs")
    plane = field_t.values[slabs[0]:slabs[-1] + 1].max(axis=0)
    plane_to_pgm(plane, path, floor=grid.config.ambient_c, unit="C")
