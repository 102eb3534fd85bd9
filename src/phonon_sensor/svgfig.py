"""Minimal deterministic SVG line plots for campaign outputs.

Hand-rolled on purpose: byte-identical output for identical data (no
timestamps, no generated ids) and an embedded data table comment so every
figure carries its numbers.
"""

from __future__ import annotations

import math

from .fileio import atomic_write_text

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _nice_ticks(lo: float, hi: float, n: int = 5):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class LinePlot:
    """Collects series and writes one standalone SVG file."""

    def __init__(self, title: str, xlabel: str, ylabel: str, logx: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logx = logx
        self.series = []

    def add(self, label: str, x, y, yerr=None, marker: bool = True, dashed: bool = False):
        pts = [
            (float(a), float(b), float(yerr[i]) if yerr is not None else None)
            for i, (a, b) in enumerate(zip(x, y))
            if math.isfinite(float(a)) and math.isfinite(float(b))
        ]
        self.series.append({"label": label, "points": pts, "marker": marker, "dashed": dashed})

    def _x_transform(self, value: float) -> float:
        return math.log10(value) if self.logx else value

    def write(self, path) -> None:
        xs, ys = [], []
        for s in self.series:
            for px, py, pe in s["points"]:
                xs.append(self._x_transform(px))
                ys.append(py + (pe or 0.0))
                ys.append(py - (pe or 0.0))
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad_y = 0.08 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

        plot_w = WIDTH - MARGIN_L - MARGIN_R
        plot_h = HEIGHT - MARGIN_T - MARGIN_B

        def sx(value):
            return MARGIN_L + (self._x_transform(value) - x_lo) / (x_hi - x_lo) * plot_w

        def sy(value):
            return MARGIN_T + (y_hi - value) / (y_hi - y_lo) * plot_h

        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            "<!-- data table",
        ]
        for s in self.series:
            parts.append(f"series: {s['label']}")
            for px, py, pe in s["points"]:
                err = "" if pe is None else f" {_fmt(pe)}"
                parts.append(f"  {_fmt(px)} {_fmt(py)}{err}")
        parts.append("-->")
        parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        parts.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="black"/>'
        )
        parts.append(
            f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="15" '
            f'font-family="sans-serif">{self.title}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{self.xlabel}</text>'
        )
        parts.append(
            f'<text x="16" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif" transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">'
            f"{self.ylabel}</text>"
        )

        if self.logx:
            lo_dec = math.floor(x_lo)
            hi_dec = math.ceil(x_hi)
            ticks_x = [10.0**d for d in range(int(lo_dec), int(hi_dec) + 1)]
            ticks_x = [t for t in ticks_x if x_lo <= math.log10(t) <= x_hi]
        else:
            ticks_x = _nice_ticks(x_lo, x_hi)
        for t in ticks_x:
            px = sx(t)
            parts.append(
                f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" x2="{px:.2f}" '
                f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(y_lo, y_hi):
            py = sy(t)
            parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" '
                'stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN_L - 9}" y="{py + 4:.2f}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
            )

        for i, s in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            pts = s["points"]
            if len(pts) > 1:
                coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py, _ in pts)
                dash = ' stroke-dasharray="6,4"' if s["dashed"] else ""
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"{dash}/>'
                )
            for px, py, pe in pts:
                if pe is not None and pe > 0:
                    parts.append(
                        f'<line x1="{sx(px):.2f}" y1="{sy(py - pe):.2f}" '
                        f'x2="{sx(px):.2f}" y2="{sy(py + pe):.2f}" stroke="{color}"/>'
                    )
                if s["marker"]:
                    parts.append(
                        f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="3" fill="{color}"/>'
                    )
            parts.append(
                f'<text x="{MARGIN_L + 10}" y="{MARGIN_T + 18 + 16 * i}" font-size="12" '
                f'font-family="sans-serif" fill="{color}">{s["label"]}</text>'
            )

        parts.append("</svg>")
        atomic_write_text(path, "\n".join(parts) + "\n")
