"""CSV tables and minimal SVG line plots.

Output is fully deterministic: floats are rendered with 17 significant
digits, rows end with '\\n', metadata lines keep their insertion order and no
timestamps or environment details are ever written. Identical inputs produce
byte-identical files.

Columns may be lists or arrays. CSV cells ('.17g') and polyline points
('.2f') go through one array renderer, `_blocks`, whose text equals Python's
formatter byte for byte. It yields the cells as ASCII bytes one block of
4,096 cells at a time, and write_tables writes each block to its file as
it comes (a polyline's points are mapped a block at a time too), so no
file's whole text is ever in memory; to_csv and to_svg join the same
stream. write_tables takes a table's rows from a source a block of rows at
a time and checks each block before it writes it, so the rows need not be
whole in memory either; write_csv and write_svg hand it a SeriesTable's
columns as one block. In a block, a '.17g' cell's digits are
|x| * 10**k, formed exactly as a double-double and rounded half-even to a
17-digit integer, and a '.2f' cell's are 100 |x| rounded to an integer,
formed from the exact fraction of |x|; their ASCII comes from tables of
4-digit groups, and so do the trailing zeros of a '.17g' cell. Each cell
is a record of byte columns (sign, '0.000' prefix, digits each with a
point slot after it, exponent suffix, separator): its class's pattern of
those columns, ANDed with its digits. A block keeps only the columns its
cells need, so its records are about as wide as their text, and one
bytes.translate removes the NUL bytes left. Each `_blocks` call lays its
blocks out in one buffer of its own.
Python's formatter writes the cells this cannot prove correct: a fraction
within 1e-6 of a half (every exact tie among them), non-finite values, and
|x| outside [1e-250, 1e250] for '.17g' (zero among them) or |x| >= 1e13 for
'.2f'.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = ["SeriesTable", "TableHead", "check_rows", "format_float", "write_tables"]

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085")
# an SVG plot's size, its margins (left, right, top, bottom) and its plot area
_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_PW, _PH = _WIDTH - _ML - _MR, _HEIGHT - _MT - _MB


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _axis_range(v0: float, v1: float, pad: float) -> tuple[float, float, float]:
    """The ends of an axis over data in [v0, v1], padded by pad of its width,
    and the scale they are in: 1, or 1/4 beyond a quarter of DBL_MAX, so that
    the width, the pad and every tick stay finite. A flat range is widened by
    max(1, |v| 2^-40) (adding 1 alone is lost once |v| >= 2^53), downwards
    where upwards would overflow."""
    top = sys.float_info.max
    if v1 == v0:
        widen = max(1.0, abs(v0) * 2.0**-40)
        v0, v1 = (v0, v0 + widen) if v0 + widen <= top else (v0 - widen, v0)
    scale = 1.0 if max(abs(v0), abs(v1)) <= top / 4 else 0.25
    v0, v1 = v0 * scale, v1 * scale
    margin = pad * (v1 - v0)
    return max(v0 - margin, -top * scale), min(v1 + margin, top * scale), scale


class TableHead(NamedTuple):
    """A table apart from its rows: x label, y label (a plot's), column names
    and metadata."""

    x_label: str
    y_label: str
    names: list[str]
    metadata: list[tuple[str, str]]


def _check_names(head: TableHead) -> None:
    for name in [head.x_label, *head.names]:
        if "," in name:
            raise DomainError(f"column name {name!r} may not contain a comma")


def _non_finite(name: str, col, start: int = 0) -> str | None:
    """The refusal of col's first non-finite cell, its row counted from
    start, or None."""
    bad = np.flatnonzero(~np.isfinite(col))
    if bad.size:
        return f"non-finite value {col[bad[0]]} at row {start + bad[0]} column {name!r}"
    return None


def _scan(heads: list[TableHead], x, cols, start: int, found: tuple | None) -> tuple | None:
    """found, a (table, column) key with its refusal, or the first
    non-finite cell of these rows (from row start) that comes before it:
    the tables in order, each its columns in order and then x."""
    for t, (head, table) in enumerate(zip(heads, cols)):
        for j, (name, col) in enumerate([*zip(head.names, table), (head.x_label, x)]):
            if found and found[0] <= (t, j):
                return found
            message = _non_finite(name, col, start)
            if message:
                return (t, j), message
    return found


def check_rows(heads: list[TableHead], x, cols) -> None:
    """Refuse the rows x, cols[t] of the tables heads, as write_tables
    does, at the first non-finite cell: the tables in order, each its
    columns in order and then x."""
    found = _scan(heads, x, cols, 0, None)
    if found:
        raise DomainError(found[1])


def _csv_head(head: TableHead) -> bytes:
    lines = [f"# {key}: {value}" for key, value in head.metadata]
    lines.append(",".join([head.x_label, *head.names]))
    return ("\n".join(lines) + "\n").encode()


def _csv_rows(x, cols) -> Iterator[bytes]:
    return _blocks([x, *cols], ".17g", b"," * len(cols) + b"\n")


def _svg_frame(head: TableHead, x_range: tuple[float, float],
               y_range: tuple[float, float]) -> tuple[bytes, tuple]:
    """The start of a 720 x 480 plot of data over x_range and y_range, each
    (min, max): axes, ticks and labels; and the maps of x and y onto it,
    elementwise over arrays."""
    x0, x1, sx = _axis_range(*x_range, 0.0)
    y0, y1, sy = _axis_range(*y_range, 0.05)

    # px and py map numbers and, elementwise, arrays, in units of sx and sy
    def px(x):
        return _ML + (x - x0) / (x1 - x0) * _PW

    def py(y):
        return _MT + _PH - (y - y0) / (y1 - y0) * _PH

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + _PH}" x2="{_ML + _PW}" y2="{_MT + _PH}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + _PH}" stroke="black"/>',
    ]
    for j in range(5):
        xt = x0 + (x1 - x0) / 4 * j
        yt = y0 + (y1 - y0) / 4 * j
        parts += [
            f'<line x1="{px(xt):.2f}" y1="{_MT + _PH}" x2="{px(xt):.2f}" '
            f'y2="{_MT + _PH + 5}" stroke="black"/>',
            f'<text x="{px(xt):.2f}" y="{_MT + _PH + 18}" font-size="11" '
            f'text-anchor="middle">{xt / sx:.4g}</text>',
            f'<line x1="{_ML - 5}" y1="{py(yt):.2f}" x2="{_ML}" y2="{py(yt):.2f}" '
            f'stroke="black"/>',
            f'<text x="{_ML - 8}" y="{py(yt) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yt / sy:.4g}</text>',
        ]
    parts.append(
        f'<text x="{_ML + _PW / 2:.2f}" y="{_HEIGHT - 10}" font-size="12" '
        f'text-anchor="middle">{head.x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + _PH / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + _PH / 2:.2f})">{head.y_label}</text>'
    )
    return ("\n".join(parts) + "\n").encode(), (lambda x: px(x * sx), lambda y: py(y * sy))


# a polyline's points follow this; then its end and legend entry (_legend)
_POINTS = b'<polyline points="'


def _legend(idx: int, name: str) -> bytes:
    """The end of column idx's polyline, after its points, and its legend entry."""
    color = _PALETTE[idx % len(_PALETTE)]
    ly = _MT + 14 + 16 * idx
    return (
        f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        f'<line x1="{_ML + _PW - 130}" y1="{ly}" x2="{_ML + _PW - 110}" y2="{ly}" '
        f'stroke="{color}" stroke-width="2"/>\n'
        f'<text x="{_ML + _PW - 104}" y="{ly + 4}" font-size="11">{name}</text>\n'
    ).encode()


def _points(x, y, maps, last: bool) -> Iterator[bytes]:
    """Polyline points (x, y), mapped by maps, each followed by ", " but the
    last of a polyline's last rows."""
    return _blocks([x, y], ".2f", b", ", last_sep=not last, maps=maps)


def _extent(arrays, extent: tuple[float, float] = (math.inf, -math.inf)) -> tuple[float, float]:
    """The (min, max) over extent and every value of arrays, as floats."""
    return (min([extent[0], *(float(np.min(a)) for a in arrays)]),
            max([extent[1], *(float(np.max(a)) for a in arrays)]))


@dataclass
class SeriesTable:
    """One x column plus one y column per series, with a metadata header."""

    x_label: str
    y_label: str
    x: list[float] | np.ndarray
    columns: list[tuple[str, list[float] | np.ndarray]]
    metadata: list[tuple[str, str]] = field(default_factory=list)

    def head(self) -> TableHead:
        return TableHead(self.x_label, self.y_label, [name for name, _ in self.columns],
                         self.metadata)

    def validate(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Reject ragged columns, non-finite cells and unquotable names;
        return x and the columns as float arrays.

        The first non-finite cell of the first column that has one is
        reported, the columns in order and x last.
        """
        _check_names(self.head())
        x = np.asarray(self.x, dtype=float)
        cols = [np.asarray(col, dtype=float) for _, col in self.columns]
        for (name, _), col in [*zip(self.columns, cols), ((self.x_label, None), x)]:
            if col.size != x.size:
                raise DomainError(f"column {name!r} has {col.size} rows, x has {x.size}")
            message = _non_finite(name, col)
            if message:
                raise DomainError(message)
        return x, cols

    def _csv(self) -> Iterator[bytes]:
        """The CSV text as a stream of bytes blocks. The table is validated
        before the stream is returned, so before any file is opened."""
        x, cols = self.validate()
        return itertools.chain([_csv_head(self.head())], _csv_rows(x, cols))

    def to_csv(self) -> str:
        return b"".join(self._csv()).decode()

    def write_csv(self, path: str) -> None:
        self._write([path], [])

    def _svg(self) -> Iterator[bytes]:
        """Minimal 720 x 480 polyline plot: axes, ticks, one legend entry per
        column, as a stream of bytes blocks. The table is validated before
        the stream is returned, so before any file is opened."""
        xs, cols = self.validate()
        start, maps = _svg_frame(self.head(), _extent([xs]), _extent(cols))

        def stream():
            yield start
            for idx, ((name, _), col) in enumerate(zip(self.columns, cols)):
                yield _POINTS
                yield from _points(xs, col, maps, True)
                yield _legend(idx, name)
            yield b"</svg>\n"

        return stream()

    def to_svg(self) -> str:
        return b"".join(self._svg()).decode()

    def write_svg(self, path: str) -> None:
        self._write([], [path])

    def _write(self, csv_paths: list[str], svg_paths: list[str]) -> None:
        """Write the table, validated first, through write_tables, as one block."""
        x, cols = self.validate()
        write_tables([self.head()], csv_paths, svg_paths, x.size, max(x.size, 1),
                     lambda start, stop, columns: (x[start:stop], [cols[columns]]))


def write_tables(heads: list[TableHead], csv_paths: list[str], svg_paths: list[str],
                 count: int, block: int, rows: Callable[[int, int, slice], tuple]) -> None:
    """Write table t of heads, of count rows, as CSV to csv_paths[t] and as
    SVG to svg_paths[t] (either list may be empty), taking its rows a block
    of at most block at a time: rows(start, stop, columns) gives x on rows
    start..stop-1 and, for each table, its columns[columns] there (every
    table has as many columns).

    Each block is checked before it is written, and the refusal is that of
    check_rows on the whole tables, given once every block has been formed.
    Each file is written as its path + ".part" and renamed to its path once
    every file is complete; a refusal or failure removes them, and the
    directories made for them. An SVG's axes span its columns over every
    row: a grid of one block is formed once, while a longer one's first
    pass keeps only each table's ranges and a second pass forms each
    column again, a block at a time, for its polyline.
    """
    for head in heads:
        _check_names(head)
    spans = [(start, min(start + block, count)) for start in range(0, max(count, 1), block)]
    files, made, complete = [], [], False
    try:
        found, cached = None, None
        ranges = [((math.inf, -math.inf),) * 2 for _ in heads]
        for start, stop in spans:
            x, cols = rows(start, stop, slice(None))
            found = _scan(heads, x, cols, start, found)
            if found:
                continue  # later blocks are still formed: a refusal there comes first
            if not files:
                for directory in dict.fromkeys(map(os.path.dirname, csv_paths + svg_paths)):
                    if directory:
                        _make_dirs(directory, made)
                for path in csv_paths + svg_paths:
                    files.append(open(path + ".part", "wb"))
                csvs, svgs = files[:len(csv_paths)], files[len(csv_paths):]
                for fh, head in zip(csvs, heads):
                    fh.write(_csv_head(head))
            for fh, table in zip(csvs, cols):
                fh.writelines(_csv_rows(x, table))
            if svgs:
                ranges = [(_extent([x], xr), _extent(table, yr))
                          for (xr, yr), table in zip(ranges, cols)]
                cached = (x, cols) if len(spans) == 1 else None
        if found:
            raise DomainError(found[1])
        frames = [_svg_frame(head, *extent) for head, extent in zip(heads, ranges) if svgs]
        for fh, (start_bytes, _) in zip(svgs, frames):
            fh.write(start_bytes)
        for j in range(len(heads[0].names) if svgs else 0):
            for fh in svgs:
                fh.write(_POINTS)
            for start, stop in spans:
                x, cols = (rows(start, stop, slice(j, j + 1)) if cached is None
                           else (cached[0], [table[j:j + 1] for table in cached[1]]))
                for fh, (_, maps), (col,) in zip(svgs, frames, cols):
                    fh.writelines(_points(x, col, maps, stop == count))
            for fh, head in zip(svgs, heads):
                fh.write(_legend(j, head.names[j]))
        for fh in svgs:
            fh.write(b"</svg>\n")
        for fh in files:
            fh.close()
        complete = True
    finally:
        if not complete:
            _discard(files, made)
    for path in csv_paths + svg_paths:
        os.replace(path + ".part", path)


def _make_dirs(path: str, made: list[str]) -> None:
    """Make the directory path and its missing parents, as os.makedirs(path,
    exist_ok=True) does, adding each to made once it is made: a failure part
    way (a later name too long, or under a regular file through "..")
    leaves in made every directory made so far."""
    missing, head = [], path
    while head and not os.path.isdir(head):
        missing.append(head)
        head = os.path.dirname(head)
    for directory in reversed(missing):
        # a ".." name, or a file that the next mkdir fails under
        with contextlib.suppress(FileExistsError):
            os.mkdir(directory)
            made.append(directory)
    os.makedirs(path, exist_ok=True)  # refuses a path that is a file


def _discard(files: list, made: list[str]) -> None:
    """Close and remove the files begun, then the directories made for them,
    the last made first."""
    for fh in files:
        with contextlib.suppress(OSError):
            fh.close()
        with contextlib.suppress(OSError):
            os.remove(fh.name)
    for path in reversed(made):
        with contextlib.suppress(OSError):
            os.rmdir(path)


# cells per block: a block's temporaries stay in cache
_BLOCK = 4096
# the '.17g' fast path's range of |x|, and the decimal scales k it needs
_G_MIN, _G_MAX = 1e-250, 1e250
_K_MIN, _K_MAX = 16 - 252, 16 + 252
# a '.2f' cell's integer part has one digit, plus one per step <= it
_F_STEPS = 10 ** np.arange(1, 16)
_ASCII_DIGITS = np.frombuffer(b"0123456789", np.uint8)
# the widest record of either layout
_WIDEST = 46


def _split(a):
    """Dekker's split of a into a 26-bit high part and the exact rest."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _two_product(a, b, b_high, b_low):
    """p and err with a * b == p + err exactly (Dekker); b_high, b_low split b."""
    p = a * b
    a_high, a_low = _split(a)
    return p, ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low


def _power_of_ten(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi is 10**k rounded to a double, lo the rounded rest."""
    n = 10 ** abs(k)
    if k >= 0:
        hi = float(n)
        return hi, float(n - int(hi))
    hi = 1 / n
    a, b = hi.as_integer_ratio()
    return hi, (b - a * n) / n / b


@functools.cache
def _tables() -> tuple:
    """The renderer's look-up tables, built on its first call.

    powers: hi, its Dekker split and lo in row k - _K_MIN, with hi + lo =
    10**k within 2**-102 relative, as 10**(32 j) times 10**i, i < 32, each
    exact to 2**-106 from Python ints. quads: 0..9999 as four ASCII digits
    (uint32); pointed: the same digits, each followed by a 0xFF point slot
    (uint64); trailing: the trailing zeros of each, 4 for 0; pairs: 0..99
    as two digits (uint16).
    g_patterns has the 46 columns a '.17g' record may have: the sign, the
    '0.000' prefix (5), 17 digits each followed by a point slot, the
    exponent suffix (5) and the separator. Its row g_base[k - _K_MIN] - tz
    holds the bytes of a cell with tz trailing zeros in its 17 digits, in
    class c = (g_base - 16) / 17: fixed notation with exponent c - 4, or
    the e-form at c = 21. Digit columns are 0xFF (kept) or 0, point slots
    '.' or 0, and the suffix columns 0xFF, to be ANDed with the digits and
    with g_suffix[k - _K_MIN], the suffix in bytes 2..6 of 8.
    f_patterns has the 21 columns a '.2f' record may have: the sign, 16
    integer digits, the point, 2 digits and the separator; row n is a cell
    with n + 1 integer digits. In both, the sign column is written apart.
    A block's records keep only the columns its cells need: records holds
    the patterns of each layout in use (_g_record, _layout_f), at most 128.
    """
    ks = np.arange(_K_MIN, _K_MAX + 1)
    # 10**i for i < 32, then 10**(32 j) from j = _K_MIN // 32 on
    parts = np.array([_power_of_ten(k)
                      for k in [*range(32), *range(_K_MIN // 32 * 32, _K_MAX, 32)]])
    (c_hi, c_lo), (f_hi, f_lo) = parts[32:][ks // 32 - _K_MIN // 32].T, parts[ks % 32].T
    hi, err = _two_product(c_hi, f_hi, *_split(f_hi))
    lo = err + (c_hi * f_lo + c_lo * f_hi)
    digits = np.full((10, 10, 10, 10, 4, 2), 0xFF, np.uint8)
    for j in range(4):
        digits[..., j, 0] = np.arange(48, 58, dtype=np.uint8).reshape(-1, *[1] * (3 - j))
    digits = digits.reshape(10000, 8)
    trailing = np.zeros(10000, np.uint8)
    for j in range(1, 5):
        trailing[::10**j] += 1

    i = np.arange(17)
    # '.17g' class c: fixed notation with exponent c - 4, or the e-form (c = 21)
    point = np.arange(-4, 18)[:, None, None]
    point[-1] = 0
    shown = np.maximum(np.arange(1, 18)[:, None], point + 1)
    g = np.full((22, 17, 46), 0xFF, np.uint8)
    g[..., 1:6] = 0
    prefixes = b"0.000" b"0.00\x00" b"0.0\x00\x00" b"0.\x00\x00\x00"
    g[:4, :, 1:6] = np.frombuffer(prefixes, np.uint8).reshape(4, 1, 5)
    g[..., 6:40:2] = np.where(i < shown, 0xFF, 0)
    g[..., 7:40:2] = np.where((i == point) & (i + 1 < shown), ord("."), 0)
    e = 16 - ks
    fixed = (e >= -4) & (e < 17)
    suffix = np.full((e.size, 8), 0xFF, np.uint8)
    suffix[:, 2] = ord("e")
    suffix[:, 3] = np.where(e < 0, ord("-"), ord("+"))
    suffix[:, 4:7] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    suffix[np.abs(e) < 100, 4] = 0
    suffix[fixed, 2:7] = 0
    f = np.full((16, 21), 0xFF, np.uint8)
    f[:, 1:17] = np.where(i[:16] >= 15 - np.arange(16)[:, None], 0xFF, 0)
    f[:, 17] = ord(".")
    return (np.stack([hi, *_split(hi), lo], axis=1),
            np.ascontiguousarray(digits[:, ::2]).view(np.uint32).ravel(),
            digits.view(np.uint64).ravel(), trailing,
            digits[:100, 4::2].copy().view(np.uint16).ravel(),
            g.reshape(374, 46), np.where(fixed, e + 4, 21) * 17 + 16,
            suffix.view(np.uint64).ravel(), f, {})


def _scaled(ax, row, powers):
    """floor(ax * 10**k) as int64 and the fraction above it, within 1e-13,
    where ax * 10**k >= 2**53 and row = k - _K_MIN: ax * hi is exactly
    p + err, p an integer, and ax * lo adds the rest of 10**k."""
    hi, hi_high, hi_low, lo = powers.take(row, axis=0).T
    p, err = _two_product(ax, hi, hi_high, hi_low)
    s = err + ax * lo
    floor_s = np.floor(s)
    return p.astype(np.int64) + floor_s.astype(np.int64), s - floor_s


def _digits(d, trailing):
    """The 17 digits of each d: its lead digit and four groups of four, and
    how many of them are trailing zeros, looked for past the last group
    only where it is 0000."""
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = [high // 10**4, None, low // 10**4, None]
    groups[1], groups[3] = high - groups[0] * 10**4, low - groups[2] * 10**4
    tz = trailing.take(groups[3])
    ends = np.flatnonzero(groups[3] == 0)
    for group in groups[2::-1]:
        tz[ends] += trailing.take(group[ends])
        ends = ends[group[ends] == 0]
    return lead, groups, tz


def _g_record(tables, row, signed):
    """The layout of a block's '.17g' records, from the rows k - _K_MIN of
    its cells and whether one is negative: the patterns of its columns, the
    byte offsets of its lead digit and of its four 4-digit groups, and how
    many of its first digits have a point slot and whether it has the
    exponent suffix. A block keeps the sign column if a cell is negative,
    the '0.000' prefix as far as its smallest fixed-notation cell needs, the
    point slots up to its last point shown in groups of four, so 0, 1, 5,
    9, 13 or 17 of them, and the suffix if a cell takes the e-form."""
    # fixed notation has exponent e = 16 - k in -4..16, and the e-form the rest
    k_low, k_high = int(row.min()) + _K_MIN, int(row.max()) + _K_MIN
    eform = k_low < 0 or k_high > 20
    if eform:
        fixed = row[(row >= -_K_MIN) & (row <= 20 - _K_MIN)] + _K_MIN
        k_low, k_high = int(fixed.min(initial=16)), int(fixed.max(initial=16))
    # the last point shown is after digit e of fixed notation (e >= 0), or
    # after the lead digit of the e-form; -1 for none
    last_point = max(16 - k_low, eform - 1)
    points = 1 + 4 * -(-last_point // 4) if last_point >= 0 else 0
    key = (signed, k_high - 15 if k_high > 16 else 0, points, eform)
    *_, g_patterns, _, _, _, records = tables
    if key not in records:
        cols = [0] * signed + [*range(1, 1 + key[1])]
        offsets = []
        for group in ([0], range(1, 5), range(5, 9), range(9, 13), range(13, 17)):
            offsets.append(len(cols))
            for i in group:
                cols += [6 + 2 * i, 7 + 2 * i][:1 + (i < points)]
        cols += [*range(40, 45)] * eform + [45]
        records[key] = g_patterns[:, cols], offsets, points, eform
    return records[key]


def _and_column(buf, width, offset, values):
    """AND values into the records of width bytes at the start of buf, one
    value at byte offset of each record, through a strided (and maybe
    unaligned) view."""
    column = np.ndarray(values.shape, values.dtype, buf, offset, (width,))
    np.bitwise_and(column, values, out=column)


def _layout_g(v, tables, buf):
    """The '.17g' records of each cell, laid out in buf, and the cells they
    may get wrong."""
    powers, quads, pointed, trailing, _, _, g_base, g_suffix, *_ = tables
    ax = np.abs(v)
    slow = ~((ax >= _G_MIN) & (ax <= _G_MAX))
    ax[slow] = 1.0
    row = (16 - _K_MIN) - np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, row, powers)
    d = whole + (frac > 0.5)
    # log10 may misplace the exponent by one: rescale the cells whose
    # |x| * 10**k is not in [1e16, 1e17) before or after rounding, found
    # as whole < 1e16 or whole >= 1e17 - 1 in one unsigned comparison
    # (below 2**53, whole may be one short of the floor, still below 1e16)
    redo = np.flatnonzero((whole - 10**16).view(np.uint64) >= 9 * 10**16 - 1)
    if redo.size:
        row[redo] += (whole[redo] < 10**16).astype(np.int64) - (d[redo] >= 10**17)
        whole, frac[redo] = _scaled(ax[redo], row[redo], powers)
        d[redo] = whole + (frac[redo] > 0.5)
        slow[redo] |= (d[redo] < 10**16) | (d[redo] >= 10**17)
    slow |= np.abs(frac - 0.5) < 1e-6
    lead, groups, tz = _digits(d, trailing)
    neg = np.signbit(v)
    signed = bool(neg.any())
    patterns, (at_lead, *at_groups), points, eform = _g_record(tables, row, signed)
    rows, width = v.size, patterns.shape[1]
    out = buf[:rows * width].reshape(rows, width)
    patterns.take(g_base.take(row) - tz, axis=0, out=out, mode="clip")
    if signed:
        out[:, 0] = neg * ord("-")
    # (a slow cell's d may have 18 digits; Python's formatter writes it)
    _and_column(buf, width, at_lead, _ASCII_DIGITS.take(lead, mode="clip"))
    for j, (at, group) in enumerate(zip(at_groups, groups)):
        _and_column(buf, width, at, (pointed if 4 * j + 1 < points else quads).take(group))
    if eform:
        _and_column(buf, width, width - 8, g_suffix.take(row))
    return out, slow


def _layout_f(v, tables, buf):
    """The '.2f' records of each cell, laid out in buf, and the cells they
    may get wrong."""
    _, quads, _, _, pairs, _, _, _, f_patterns, records = tables
    ax = np.abs(v)
    slow = ~(ax < 1e13)
    ax[slow] = 0.0
    # |x| is whole + part exactly, and 100 part rounds within 2**-47 of
    # itself: its fraction is exact to far inside the 1e-6 tie guard
    whole = np.floor(ax)
    cents = (ax - whole) * 100
    floor_cents = np.floor(cents)
    frac = cents - floor_cents
    slow |= np.abs(frac - 0.5) < 1e-6
    d = (100 * whole + floor_cents).astype(np.int64) + (frac > 0.5)
    integer = d // 100
    neg = np.signbit(v)
    # the sign column if a cell is negative, then as many groups of four
    # integer digits as the widest cell needs, the point, 2 digits, the separator
    key = (bool(neg.any()), -(-len(str(integer.max(initial=0))) // 4))
    signed, groups = key
    if key not in records:
        records[key] = f_patterns[:, [0] * signed + [*range(17 - 4 * groups, 21)]]
    patterns = records[key]
    rows, width = v.size, patterns.shape[1]
    out = buf[:rows * width].reshape(rows, width)
    pattern_rows = np.searchsorted(_F_STEPS[:4 * groups - 1], integer, side="right")
    patterns.take(pattern_rows, axis=0, out=out, mode="clip")
    if signed:
        out[:, 0] = neg * ord("-")
    _and_column(buf, width, width - 3, pairs.take(d - 100 * integer))
    for at in range(width - 8, width - 8 - 4 * groups, -4):
        group = integer // 10**4
        _and_column(buf, width, at, quads.take(integer - group * 10**4))
        integer = group
    return out, slow


def _blocks(cols: list[np.ndarray], spec: str, seps: bytes, last_sep: bool = True,
            maps: tuple | None = None) -> Iterator[bytes]:
    """The cells of equal-length float columns, row after row, each as
    format(cell, spec) for spec '.17g' or '.2f' and followed by its column's
    byte of seps (but for the very last cell without last_sep), as ASCII
    bytes, one block of rows at a time; maps, if given, maps each column's
    part of a block elementwise before it is rendered. Each block's records
    are laid out in one buffer that the call owns, as wide as the block's
    cells need; a cell the layout may get wrong is marked there by a 0x01
    byte, which Python's formatter replaces."""
    layout = _layout_g if spec == ".17g" else _layout_f
    tables = _tables()
    size, width = len(cols[0]), len(cols)
    rows = max(1, min(_BLOCK // width, size))
    sep = np.frombuffer(seps * rows, np.uint8)
    cells = np.empty((rows, width))
    buf = np.empty(cells.size * _WIDEST, np.uint8)
    for start in range(0, size, rows):
        block = cells[:min(rows, size - start)]
        for j, col in enumerate(cols):
            part = col[start:start + rows]
            block[:, j] = maps[j](part) if maps else part
        v = block.ravel()
        out, slow = layout(v, tables, buf)
        marked = np.flatnonzero(slow)
        if marked.size:
            out[marked] = 0
            out[marked, 0] = 1
        out[:, -1] = sep[:v.size]
        if not last_sep and start + rows >= size:
            out[-1, -1] = 0
        text = out.tobytes().translate(None, b"\0")
        if marked.size:
            parts = text.split(b"\x01")
            for i, x in enumerate(v[marked].tolist()):
                parts[i] += format(x, spec).encode()
            text = b"".join(parts)
        yield text


def _render(cols: list[np.ndarray], spec: str, seps: bytes) -> str:
    """The text of _blocks, joined."""
    return b"".join(_blocks(cols, spec, seps)).decode("ascii")
