"""CSV tables and minimal SVG line plots.

Output is fully deterministic: floats are rendered with 17 significant
digits, rows end with '\\n', metadata lines keep their insertion order and no
timestamps or environment details are ever written. Identical inputs produce
byte-identical files.

Columns may be lists or arrays. The CSV body, and each polyline, is one
%-format of a repeated row template; '%.17g' and '%.2f' give the same text
as format_float and the '.2f' spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SeriesTable", "format_float"]

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085")


def format_float(x: float) -> str:
    return f"{x:.17g}"


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
        if x.size:
            row = ",".join(["%.17g"] * (1 + len(cols)))
            lines.append("\n".join([row] * x.size) % _row_major([x] + cols))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        # render first: a table that fails validation leaves no file behind
        text = self.to_csv()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    def to_svg(self, width: int = 720, height: int = 480) -> str:
        """Minimal polyline plot: axes, ticks, one legend entry per column."""
        xs, cols = self.validate()
        ml, mr, mt, mb = 70, 20, 20, 50
        pw, ph = width - ml - mr, height - mt - mb
        x0, x1 = xs.min().item(), xs.max().item()
        y0, y1 = min(col.min() for col in cols).item(), max(col.max() for col in cols).item()
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        pad = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad

        # px and py map numbers and, elementwise, arrays
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
            xt = x0 + j * (x1 - x0) / 4
            yt = y0 + j * (y1 - y0) / 4
            parts += [
                f'<line x1="{px(xt):.2f}" y1="{mt + ph}" x2="{px(xt):.2f}" '
                f'y2="{mt + ph + 5}" stroke="black"/>',
                f'<text x="{px(xt):.2f}" y="{mt + ph + 18}" font-size="11" '
                f'text-anchor="middle">{xt:.4g}</text>',
                f'<line x1="{ml - 5}" y1="{py(yt):.2f}" x2="{ml}" y2="{py(yt):.2f}" '
                f'stroke="black"/>',
                f'<text x="{ml - 8}" y="{py(yt) + 4:.2f}" font-size="11" '
                f'text-anchor="end">{yt:.4g}</text>',
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
            pts = ("%.2f,%.2f " * xs.size % _row_major([px(xs), py(col)]))[:-1]
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

    def write_svg(self, path: str, width: int = 720, height: int = 480) -> None:
        text = self.to_svg(width, height)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _row_major(cols: list[np.ndarray]) -> tuple[float, ...]:
    """The cells of equal-length columns, row after row."""
    return tuple(np.column_stack(cols).ravel().tolist())
