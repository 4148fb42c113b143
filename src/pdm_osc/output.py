"""CSV tables and minimal SVG line plots.

Output is fully deterministic: floats are rendered with 17 significant
digits, rows end with '\\n', metadata lines keep their insertion order and no
timestamps or environment details are ever written. Identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["SeriesTable", "format_float"]

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085")


def format_float(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class SeriesTable:
    """One x column plus one y column per series, with a metadata header."""

    x_label: str
    y_label: str
    x: list[float]
    columns: list[tuple[str, list[float]]]
    metadata: list[tuple[str, str]] = field(default_factory=list)

    def validate(self) -> None:
        """Reject ragged columns, non-finite cells and unquotable names."""
        for name in [self.x_label] + [name for name, _ in self.columns]:
            if "," in name:
                raise ValueError(f"column name {name!r} may not contain a comma")
        for name, col in self.columns:
            if len(col) != len(self.x):
                raise ValueError(
                    f"column {name!r} has {len(col)} rows, x has {len(self.x)}"
                )
            for i, v in enumerate(col):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite value {v} at row {i} column {name!r}")
        for i, v in enumerate(self.x):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v} at row {i} column {self.x_label!r}")

    def to_csv(self) -> str:
        self.validate()
        lines = [f"# {key}: {value}" for key, value in self.metadata]
        lines.append(",".join([self.x_label] + [name for name, _ in self.columns]))
        for i, xv in enumerate(self.x):
            cells = [format_float(xv)] + [format_float(col[i]) for _, col in self.columns]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        # render first: a table that fails validation leaves no file behind
        text = self.to_csv()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    def to_svg(self, width: int = 720, height: int = 480) -> str:
        """Minimal polyline plot: axes, ticks, one legend entry per column."""
        self.validate()
        ml, mr, mt, mb = 70, 20, 20, 50
        pw, ph = width - ml - mr, height - mt - mb
        xs = self.x
        ys_all = [v for _, col in self.columns for v in col]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys_all), max(ys_all)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        pad = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad

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
            parts.append(
                f'<line x1="{px(xt):.2f}" y1="{mt + ph}" x2="{px(xt):.2f}" '
                f'y2="{mt + ph + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px(xt):.2f}" y="{mt + ph + 18}" font-size="11" '
                f'text-anchor="middle">{xt:.4g}</text>'
            )
            parts.append(
                f'<line x1="{ml - 5}" y1="{py(yt):.2f}" x2="{ml}" y2="{py(yt):.2f}" '
                f'stroke="black"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{py(yt) + 4:.2f}" font-size="11" '
                f'text-anchor="end">{yt:.4g}</text>'
            )
        parts.append(
            f'<text x="{ml + pw / 2:.2f}" y="{height - 10}" font-size="12" '
            f'text-anchor="middle">{self.x_label}</text>'
        )
        parts.append(
            f'<text x="16" y="{mt + ph / 2:.2f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + ph / 2:.2f})">{self.y_label}</text>'
        )
        for idx, (name, col) in enumerate(self.columns):
            color = _PALETTE[idx % len(_PALETTE)]
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, col))
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
