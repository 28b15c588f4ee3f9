"""Dependency-free SVG line charts for benchmark series.

The offline environment has no plotting stack, so this renders the
paper-figure series produced by the benchmarks as standalone SVG line
charts: linear or log axes, multiple named series, legend, ticks.

>>> chart = LineChart(title="Fig 12a", x_label="graph size",
...                   y_label="relative error", x_log=True)
>>> chart.add_series("quadtree", xs, ys)
>>> chart.render("fig12a.svg")
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

#: Colour cycle (colour-blind-safe-ish).
PALETTE = (
    "#2458a8",
    "#d4593b",
    "#3aa655",
    "#8a5bb8",
    "#c2930f",
    "#3c9ca8",
    "#b8386e",
    "#6b6f75",
)

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 40, 55


@dataclass
class _Series:
    name: str
    xs: List[float]
    ys: List[float]
    color: str


@dataclass
class LineChart:
    """A multi-series line chart with optional log axes."""

    title: str = ""
    x_label: str = ""
    y_label: str = ""
    x_log: bool = False
    y_log: bool = False
    _series: List[_Series] = field(default_factory=list)

    def add_series(
        self,
        name: str,
        xs: Sequence[float],
        ys: Sequence[float],
        color: Optional[str] = None,
    ) -> None:
        """Add one named series; NaN/None points are dropped."""
        if len(xs) != len(ys):
            raise ConfigurationError("xs and ys must have equal length")
        points = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if y is not None and y == y  # drop None and NaN
        ]
        if not points:
            return
        if self.x_log and any(x <= 0 for x, _ in points):
            raise ConfigurationError("x_log requires positive x values")
        if self.y_log and any(y <= 0 for _, y in points):
            points = [(x, y) for x, y in points if y > 0]
            if not points:
                return
        chosen = color or PALETTE[len(self._series) % len(PALETTE)]
        self._series.append(
            _Series(
                name=name,
                xs=[p[0] for p in points],
                ys=[p[1] for p in points],
                color=chosen,
            )
        )

    # ------------------------------------------------------------------
    def render(self, path: Union[str, Path]) -> Path:
        """Write the chart to ``path``; returns the path."""
        if not self._series:
            raise ConfigurationError("cannot render a chart with no series")
        x_lo, x_hi = self._extent(axis="x")
        y_lo, y_hi = self._extent(axis="y")

        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            (
                f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{WIDTH}" height="{HEIGHT}" '
                f'viewBox="0 0 {WIDTH} {HEIGHT}" '
                f'font-family="sans-serif" font-size="12">'
            ),
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        if self.title:
            lines.append(
                f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
                f'font-size="15">{html.escape(self.title)}</text>'
            )

        # Axes box.
        plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        lines.append(
            f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#444"/>'
        )

        # Ticks and gridlines.
        for value in self._ticks(x_lo, x_hi, self.x_log):
            px = self._px(value, x_lo, x_hi)
            lines.append(
                f'<line x1="{px:.1f}" y1="{MARGIN_TOP}" x2="{px:.1f}" '
                f'y2="{MARGIN_TOP + plot_h}" stroke="#eee"/>'
            )
            lines.append(
                f'<text x="{px:.1f}" y="{MARGIN_TOP + plot_h + 16}" '
                f'text-anchor="middle">{_fmt(value)}</text>'
            )
        for value in self._ticks(y_lo, y_hi, self.y_log):
            py = self._py(value, y_lo, y_hi)
            lines.append(
                f'<line x1="{MARGIN_LEFT}" y1="{py:.1f}" '
                f'x2="{MARGIN_LEFT + plot_w}" y2="{py:.1f}" stroke="#eee"/>'
            )
            lines.append(
                f'<text x="{MARGIN_LEFT - 6}" y="{py + 4:.1f}" '
                f'text-anchor="end">{_fmt(value)}</text>'
            )

        # Axis labels.
        if self.x_label:
            lines.append(
                f'<text x="{MARGIN_LEFT + plot_w / 2}" '
                f'y="{HEIGHT - 12}" text-anchor="middle">'
                f"{html.escape(self.x_label)}</text>"
            )
        if self.y_label:
            cy = MARGIN_TOP + plot_h / 2
            lines.append(
                f'<text x="16" y="{cy}" text-anchor="middle" '
                f'transform="rotate(-90 16 {cy})">'
                f"{html.escape(self.y_label)}</text>"
            )

        # Series.
        for series in self._series:
            points = " ".join(
                f"{self._px(x, x_lo, x_hi):.1f},"
                f"{self._py(y, y_lo, y_hi):.1f}"
                for x, y in zip(series.xs, series.ys)
            )
            lines.append(
                f'<polyline points="{points}" fill="none" '
                f'stroke="{series.color}" stroke-width="1.8"/>'
            )
            for x, y in zip(series.xs, series.ys):
                lines.append(
                    f'<circle cx="{self._px(x, x_lo, x_hi):.1f}" '
                    f'cy="{self._py(y, y_lo, y_hi):.1f}" r="2.6" '
                    f'fill="{series.color}"/>'
                )

        # Legend.
        legend_y = MARGIN_TOP + 8
        for series in self._series:
            lines.append(
                f'<line x1="{MARGIN_LEFT + plot_w - 130}" '
                f'y1="{legend_y}" x2="{MARGIN_LEFT + plot_w - 108}" '
                f'y2="{legend_y}" stroke="{series.color}" '
                f'stroke-width="2.4"/>'
            )
            lines.append(
                f'<text x="{MARGIN_LEFT + plot_w - 102}" '
                f'y="{legend_y + 4}">{html.escape(series.name)}</text>'
            )
            legend_y += 16

        lines.append("</svg>")
        output = Path(path)
        output.write_text("\n".join(lines))
        return output

    # ------------------------------------------------------------------
    def _extent(self, axis: str) -> Tuple[float, float]:
        values = [
            v
            for series in self._series
            for v in (series.xs if axis == "x" else series.ys)
        ]
        lo, hi = min(values), max(values)
        log = self.x_log if axis == "x" else self.y_log
        if log:
            return (lo, hi if hi > lo else lo * 10)
        if hi == lo:
            pad = abs(lo) * 0.1 or 1.0
            return (lo - pad, hi + pad)
        pad = (hi - lo) * 0.05
        return (lo - pad, hi + pad)

    def _px(self, x: float, lo: float, hi: float) -> float:
        fraction = _fraction(x, lo, hi, self.x_log)
        return MARGIN_LEFT + fraction * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def _py(self, y: float, lo: float, hi: float) -> float:
        fraction = _fraction(y, lo, hi, self.y_log)
        plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        return MARGIN_TOP + (1.0 - fraction) * plot_h

    def _ticks(self, lo: float, hi: float, log: bool) -> List[float]:
        if log:
            start = math.floor(math.log10(lo))
            stop = math.ceil(math.log10(hi))
            return [
                10.0**e for e in range(start, stop + 1)
                if lo <= 10.0**e <= hi or start == stop
            ] or [lo, hi]
        count = 5
        step = (hi - lo) / count
        return [lo + i * step for i in range(count + 1)]


def _fraction(value: float, lo: float, hi: float, log: bool) -> float:
    if log:
        span = math.log10(hi) - math.log10(lo)
        if span <= 0:
            return 0.5
        return (math.log10(value) - math.log10(lo)) / span
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.0e}"
    return f"{value:.3g}"
