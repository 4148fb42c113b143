"""CSV tables and minimal SVG line plots.

Output is fully deterministic: floats are rendered with 17 significant
digits, rows end with '\\n', metadata lines keep their insertion order and no
timestamps or environment details are ever written. Identical inputs produce
byte-identical files.

Columns may be lists or arrays. CSV cells ('.17g') and polyline points
('.2f') go through one array renderer, `_render`, whose text equals Python's
formatter byte for byte. Block by block, each cell's digits are |x| * 10**k,
formed exactly as a double-double and rounded half-even to an integer, laid
out in fixed slots padded with NUL bytes that one bytes.translate removes.
Python's formatter writes the cells this cannot prove correct: a fraction
within 1e-6 of a half (every exact tie among them), non-finite values, and
|x| outside [1e-250, 1e250] for '.17g' (zero among them) or |x| >= 1e13 for
'.2f'.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SeriesTable", "format_float"]

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085")


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


@dataclass
class SeriesTable:
    """One x column plus one y column per series, with a metadata header."""

    x_label: str
    y_label: str
    x: list[float] | np.ndarray
    columns: list[tuple[str, list[float] | np.ndarray]]
    metadata: list[tuple[str, str]] = field(default_factory=list)

    def validate(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Reject ragged columns, non-finite cells and unquotable names;
        return x and the columns as float arrays.

        The first non-finite cell of the first column that has one is
        reported, the columns in order and x last.
        """
        for name in [self.x_label] + [name for name, _ in self.columns]:
            if "," in name:
                raise ValueError(f"column name {name!r} may not contain a comma")
        x = np.asarray(self.x, dtype=float)
        cols = [np.asarray(col, dtype=float) for _, col in self.columns]
        for (name, _), col in [*zip(self.columns, cols), ((self.x_label, None), x)]:
            if col.size != x.size:
                raise ValueError(f"column {name!r} has {col.size} rows, x has {x.size}")
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                i = bad[0]
                raise ValueError(f"non-finite value {col[i]} at row {i} column {name!r}")
        return x, cols

    def to_csv(self) -> str:
        x, cols = self.validate()
        lines = [f"# {key}: {value}" for key, value in self.metadata]
        lines.append(",".join([self.x_label] + [name for name, _ in self.columns]))
        return "\n".join(lines) + "\n" + _render([x] + cols, ".17g", b"," * len(cols) + b"\n")

    def write_csv(self, path: str) -> None:
        # render first: a table that fails validation leaves no file behind
        text = self.to_csv()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    def to_svg(self) -> str:
        """Minimal 720 x 480 polyline plot: axes, ticks, one legend entry per column."""
        xs, cols = self.validate()
        width, height = 720, 480
        ml, mr, mt, mb = 70, 20, 20, 50
        pw, ph = width - ml - mr, height - mt - mb
        x0, x1, sx = _axis_range(xs.min().item(), xs.max().item(), 0.0)
        y0, y1, sy = _axis_range(min(col.min() for col in cols).item(),
                                 max(col.max() for col in cols).item(), 0.05)

        # px and py map numbers and, elementwise, arrays, in units of sx and sy
        def px(x):
            return ml + (x - x0) / (x1 - x0) * pw

        def py(y):
            return mt + ph - (y - y0) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
            f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        ]
        for j in range(5):
            xt = x0 + (x1 - x0) / 4 * j
            yt = y0 + (y1 - y0) / 4 * j
            parts += [
                f'<line x1="{px(xt):.2f}" y1="{mt + ph}" x2="{px(xt):.2f}" '
                f'y2="{mt + ph + 5}" stroke="black"/>',
                f'<text x="{px(xt):.2f}" y="{mt + ph + 18}" font-size="11" '
                f'text-anchor="middle">{xt / sx:.4g}</text>',
                f'<line x1="{ml - 5}" y1="{py(yt):.2f}" x2="{ml}" y2="{py(yt):.2f}" '
                f'stroke="black"/>',
                f'<text x="{ml - 8}" y="{py(yt) + 4:.2f}" font-size="11" '
                f'text-anchor="end">{yt / sy:.4g}</text>',
            ]
        parts.append(
            f'<text x="{ml + pw / 2:.2f}" y="{height - 10}" font-size="12" '
            f'text-anchor="middle">{self.x_label}</text>'
        )
        parts.append(
            f'<text x="16" y="{mt + ph / 2:.2f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + ph / 2:.2f})">{self.y_label}</text>'
        )
        for idx, ((name, _), col) in enumerate(zip(self.columns, cols)):
            color = _PALETTE[idx % len(_PALETTE)]
            pts = _render([px(xs * sx), py(col * sy)], ".2f", b", ")[:-1]
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            ly = mt + 14 + 16 * idx
            parts.append(
                f'<line x1="{ml + pw - 130}" y1="{ly}" x2="{ml + pw - 110}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{ml + pw - 104}" y="{ly + 4}" font-size="11">{name}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write_svg(self, path: str) -> None:
        text = self.to_svg()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# cells per block: a block's temporaries stay in cache
_BLOCK = 4096
# the '.17g' fast path's range of |x|, and the decimal scales k it needs
_G_MIN, _G_MAX = 1e-250, 1e250
_K_MIN, _K_MAX = 16 - 252, 16 + 252
# '.2f' digits d = round(100 |x|) have one integer digit, plus one per step <= d
_F_STEPS = 10 ** np.arange(3, 16)
# a digit slot is two bytes: the digit, then the byte of a point after it
_ZERO = np.frombuffer(b"0\xff", np.uint16)[0]


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

    powers: hi, its Dekker split and lo at k - _K_MIN, with hi + lo = 10**k
    within 2**-102 relative, as 10**(32 j) times 10**i, i < 32, each exact
    to 2**-106 from Python ints. quads: 0..9999 as four digit slots.
    A '.17g' cell is 24 uint16 slots: sign and '0.000' prefix (3), 17 digit
    slots and the exponent suffix with the separator (4). Its first 20 are
    ANDed with g_patterns[g_base[k - _K_MIN] + sig + 374 * sign], sig
    counting the digits up to the last nonzero one. A '.2f' cell is a sign
    slot, 17 digit slots and a separator slot, ANDed with
    f_patterns[n + 14 * sign] for n + 1 integer digits.
    """
    ks = np.arange(_K_MIN, _K_MAX + 1)
    coarse = np.array([_power_of_ten(32 * j) for j in range(_K_MIN // 32, _K_MAX // 32 + 1)])
    fine = np.array([_power_of_ten(i) for i in range(32)])
    (c_hi, c_lo), (f_hi, f_lo) = coarse[ks // 32 - _K_MIN // 32].T, fine[ks % 32].T
    hi, err = _two_product(c_hi, f_hi, *_split(f_hi))
    lo = err + (c_hi * f_lo + c_lo * f_hi)
    quads = np.full((10, 10, 10, 10, 4, 2), 0xFF, np.uint8)
    for j in range(4):
        quads[..., j, 0] = np.arange(48, 58, dtype=np.uint8).reshape(-1, *[1] * (3 - j))

    i = np.arange(17)
    # '.17g' class c: fixed notation with exponent c - 4, or the e-form (c = 21)
    point = np.append(np.arange(-4, 17), 0)[:, None, None]
    shown = np.maximum(np.arange(1, 18)[:, None], point + 1)
    g = np.zeros((2, 22, 17, 40), np.uint8)
    g[1, ..., 0] = ord("-")
    prefixes = b"0.000" b"0.00\x00" b"0.0\x00\x00" b"0.\x00\x00\x00"
    g[:, :4, :, 1:6] = np.frombuffer(prefixes, np.uint8).reshape(4, 1, 5)
    g[..., 6::2] = np.where(i < shown, 0xFF, 0)
    g[..., 7::2] = np.where((i == point) & (i + 1 < shown), ord("."), 0)
    e = 16 - ks
    fixed = (e >= -4) & (e < 17)
    suffix = np.zeros((e.size, 8), np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    suffix[:, 2:5] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    suffix[np.abs(e) < 100, 2] = 0
    suffix[fixed] = 0
    f = np.zeros((2, 14, 38), np.uint8)
    f[1, :, 0] = ord("-")
    f[..., 2:36:2] = np.where(i >= 14 - np.arange(14)[:, None], 0xFF, 0)
    f[..., 31] = ord(".")
    return ((hi, *_split(hi), lo), quads.reshape(-1, 8).view(np.uint64).ravel(),
            g.reshape(748, 40).view(np.uint16), np.where(fixed, e + 4, 21) * 17 - 1,
            suffix.view(np.uint64).ravel(), f.reshape(28, 38).view(np.uint16))


def _scaled(ax, k, powers):
    """floor(ax * 10**k) as int64 and the fraction above it, within 1e-13:
    ax * hi is exactly p + err, and ax * lo adds the rest of 10**k."""
    hi, hi_high, hi_low, lo = (a.take(k - _K_MIN) for a in powers)
    p, err = _two_product(ax, hi, hi_high, hi_low)
    floor_p = np.floor(p)
    s = (p - floor_p) + (err + ax * lo)
    floor_s = np.floor(s)
    return floor_p.astype(np.int64) + floor_s.astype(np.int64), s - floor_s


def _digits(d, quads, out):
    """Write the 17 digits of each 0 <= d < 10**17 into 17 digit slots of out."""
    lead, rest = np.divmod(d, 10**16)
    out[:, 0] = quads.view(np.uint16)[3::4].take(lead)
    high, low = np.divmod(rest, 10**8)
    groups = np.stack([high // 10**4, high % 10**4, low // 10**4, low % 10**4], axis=1)
    out[:, 1:] = quads.take(groups).view(np.uint16)


def _layout_g(v, tables):
    """The '.17g' bytes of each cell, and the cells they may get wrong."""
    powers, quads, g_patterns, g_base, g_suffix, _ = tables
    ax = np.abs(v)
    slow = ~((ax >= _G_MIN) & (ax <= _G_MAX))
    ax[slow] = 1.0
    k = 16 - np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, k, powers)
    d = whole + (frac > 0.5)
    # log10 may misplace the exponent by one: rescale the cells whose
    # |x| * 10**k is not in [1e16, 1e17) before or after rounding
    step = (whole < 10**16).astype(np.int64) - (d >= 10**17)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        whole, frac[redo] = _scaled(ax[redo], k[redo], powers)
        d[redo] = whole + (frac[redo] > 0.5)
    slow |= (np.abs(frac - 0.5) < 1e-6) | (d < 10**16) | (d >= 10**17)
    out = np.full((v.size, 24), 0xFFFF, np.uint16)
    _digits(d, quads, out[:, 3:20])
    sig = 17 - (out[:, 19:2:-1] != _ZERO).argmax(axis=1)
    row = k - _K_MIN
    out[:, :20] &= g_patterns.take(g_base.take(row) + sig + 374 * np.signbit(v), axis=0)
    out.view(np.uint64)[:, 5] = g_suffix.take(row)
    return out.view(np.uint8), slow


def _layout_f(v, tables):
    """The '.2f' bytes of each cell, and the cells they may get wrong."""
    powers, quads, *_, f_patterns = tables
    ax = np.abs(v)
    slow = ~(ax < 1e13)
    ax[slow] = 0.0
    whole, frac = _scaled(ax, 2, powers)
    slow |= np.abs(frac - 0.5) < 1e-6
    d = whole + (frac > 0.5)
    out = np.full((v.size, 19), 0xFFFF, np.uint16)
    _digits(d, quads, out[:, 1:18])
    out &= f_patterns.take(np.searchsorted(_F_STEPS, d, side="right") + 14 * np.signbit(v), axis=0)
    return out.view(np.uint8), slow


def _render(cols: list[np.ndarray], spec: str, seps: bytes) -> str:
    """The cells of equal-length float columns, row after row, each as
    format(cell, spec) for spec '.17g' or '.2f', followed by its column's
    byte of seps."""
    layout = _layout_g if spec == ".17g" else _layout_f
    tables = _tables()
    rows = max(1, _BLOCK // len(cols))
    sep = np.frombuffer(seps * rows, np.uint8)
    parts = []
    for start in range(0, len(cols[0]), rows):
        v = np.column_stack([col[start:start + rows] for col in cols]).ravel()
        out, slow = layout(v, tables)
        out[:, -1] = sep[:v.size]
        for i in np.flatnonzero(slow).tolist():
            text = np.frombuffer(format(v[i].item(), spec).encode(), np.uint8)
            if text.size >= out.shape[1]:
                out = np.pad(out, ((0, 0), (text.size + 1 - out.shape[1], 0)))
            out[i, :-1] = 0
            out[i, :text.size] = text
        parts.append(out.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)
