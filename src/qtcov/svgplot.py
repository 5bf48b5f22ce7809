"""Minimal self-contained SVG rendering for result tables.

Line plots draw one polyline per (estimator, ruler, bits) series; heatmaps
draw one colored cell per (delta_r, delta_i) grid point.  No plotting library
is involved, so output files are small, diffable, and deterministic.
"""

import math

from .errors import EmptyTable, QtcovError

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _check(table):
    rows = [r for r in table.rows if r.stat == "mean"]
    if not rows:
        raise EmptyTable("no mean rows to plot")
    metrics = {r.metric for r in rows}
    if len(metrics) != 1:
        raise QtcovError(f"cannot plot mixed metrics {sorted(metrics)}")
    return rows, metrics.pop()


def _series_label(row, finite_ks):
    """Series identity: estimator and ruler, plus the bit depth only when it
    is constant over the table (a swept depth is the x-axis, not a series)."""
    parts = [row.estimator, row.ruler]
    if row.k is None:
        if finite_ks:
            parts.append("unclipped")
    elif len(finite_ks) == 1:
        parts.append(f"k={row.k}")
    return " ".join(parts)


def _ticks(lo, hi, log):
    if log:
        lo_e = int(math.floor(math.log10(lo)))
        hi_e = int(math.ceil(math.log10(hi)))
        return [10.0 ** e for e in range(lo_e, hi_e + 1)]
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.0e}"
    return f"{x:g}"


class _Canvas:
    def __init__(self):
        self.parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
                      f'height="{_H}" viewBox="0 0 {_W} {_H}">',
                      f'<rect width="{_W}" height="{_H}" fill="white"/>']

    def add(self, s):
        self.parts.append(s)

    def text(self, x, y, s, anchor="middle", size=12):
        self.add(f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
                 f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>')

    def finish(self):
        self.parts.append("</svg>")
        return "\n".join(self.parts)


def _fraction(v, lo, hi, log):
    """Where v sits from lo (0) to hi (1) on a log or a linear axis."""
    if log:
        return (math.log10(v) - math.log10(lo)) / max(math.log10(hi) - math.log10(lo), 1e-12)
    return (v - lo) / max(hi - lo, 1e-12)


def _line_plot(rows, metric, x_field, log_x, log_y):
    xs = sorted({getattr(r, x_field) for r in rows} - {None})
    ys = [r.value for r in rows if math.isfinite(r.value)]
    if not ys:
        raise EmptyTable("all values are NaN")
    y_lo, y_hi = min(ys), max(ys)
    if log_y and y_lo <= 0:
        log_y = False
    x_lo, x_hi = min(xs), max(xs)
    if log_x and x_lo <= 0:
        log_x = False

    def sx(x):
        return _ML + _fraction(x, x_lo, x_hi, log_x) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - _fraction(y, y_lo, y_hi, log_y) * (_H - _MT - _MB)

    cv = _Canvas()
    cv.add(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
           f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for t in _ticks(x_lo, x_hi, log_x):
        if x_lo <= t <= x_hi:
            cv.add(f'<line x1="{sx(t):.1f}" y1="{_H - _MB}" x2="{sx(t):.1f}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
            cv.text(sx(t), _H - _MB + 18, _fmt(t))
    for t in _ticks(y_lo, y_hi, log_y):
        if y_lo <= t <= y_hi:
            cv.add(f'<line x1="{_ML - 5}" y1="{sy(t):.1f}" x2="{_ML}" '
                   f'y2="{sy(t):.1f}" stroke="black"/>')
            cv.text(_ML - 8, sy(t) + 4, _fmt(t), anchor="end", size=11)
    cv.text((_ML + _W - _MR) / 2, _H - 12, x_field)
    cv.text(14, (_MT + _H - _MB) / 2, metric, size=11)

    finite_ks = {r.k for r in rows if r.k is not None}
    series = {}
    for r in rows:
        series.setdefault(_series_label(r, finite_ks), []).append(r)
    for i, (label, srows) in enumerate(sorted(series.items())):
        pts = sorted(((getattr(r, x_field), r.value) for r in srows
                      if math.isfinite(r.value)))
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        # the unclipped series has no bit depth: on a k axis it is dashed across
        dash = ' stroke-dasharray="6,4"' if pts[0][0] is None else ""
        if dash:
            for _, y in pts:
                cv.add(f'<line x1="{_ML}" y1="{sy(y):.1f}" x2="{_W - _MR}" y2="{sy(y):.1f}" '
                       f'stroke="{color}" stroke-width="1.5"{dash}/>')
        else:
            coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            cv.add(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
            for x, y in pts:
                cv.add(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" fill="{color}"/>')
        ly = _MT + 16 + 16 * i
        cv.add(f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" y2="{ly - 4}" '
               f'stroke="{color}" stroke-width="1.5"{dash}/>')
        cv.text(_ML + 40, ly, label, anchor="start", size=11)
    return cv.finish()


def _heat_color(f):
    # blue (low) -> yellow -> red (high)
    f = min(max(f, 0.0), 1.0)
    if f < 0.5:
        g = f / 0.5
        r, gr, b = int(255 * g), int(255 * g), int(255 * (1 - g))
    else:
        g = (f - 0.5) / 0.5
        r, gr, b = 255, int(255 * (1 - g)), 0
    return f"rgb({r},{gr},{b})"


def _heatmap(rows, metric):
    xs = sorted({r.delta_r for r in rows})
    ys = sorted({r.delta_i for r in rows})
    vals = {(r.delta_r, r.delta_i): r.value for r in rows}
    finite = [v for v in vals.values() if math.isfinite(v)]
    if not finite:
        raise EmptyTable("all values are NaN")
    v_lo, v_hi = min(finite), max(finite)
    cw = (_W - _ML - _MR) / len(xs)
    ch = (_H - _MT - _MB) / len(ys)
    cv = _Canvas()
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            v = vals.get((x, y), math.nan)
            if math.isfinite(v):
                f = (v - v_lo) / max(v_hi - v_lo, 1e-300)
                fill = _heat_color(f)
            else:
                fill = "rgb(200,200,200)"
            px = _ML + i * cw
            py = _H - _MB - (j + 1) * ch
            cv.add(f'<rect x="{px:.1f}" y="{py:.1f}" width="{cw:.1f}" '
                   f'height="{ch:.1f}" fill="{fill}" stroke="none"/>')
    for i, x in enumerate(xs):
        cv.text(_ML + (i + 0.5) * cw, _H - _MB + 16, _fmt(x), size=10)
    for j, y in enumerate(ys):
        cv.text(_ML - 8, _H - _MB - (j + 0.5) * ch + 4, _fmt(y), anchor="end", size=10)
    cv.text((_ML + _W - _MR) / 2, _H - 12, "delta_r")
    cv.text(14, (_MT + _H - _MB) / 2, "delta_i", size=11)
    cv.text((_ML + _W - _MR) / 2, 14, f"{metric}: {_fmt(v_lo)} (blue) to {_fmt(v_hi)} (red)", size=11)
    return cv.finish()


def emit_plot(table, kind):
    """Render a ResultTable as an SVG document string.

    kind: "line-loglog", "line-linear", or "heatmap".  Line plots pick the
    x-axis as the first coordinate whose set values vary among n, d, bit
    depth and delta_r; on a bit-depth axis the unclipped series (no depth)
    are dashed horizontal lines.
    """
    rows, metric = _check(table)
    if kind == "heatmap":
        return _heatmap(rows, metric)
    if kind not in ("line-loglog", "line-linear"):
        raise ValueError(f"unknown plot kind {kind!r}")
    x_field = "n"
    for field in ("n", "d", "k", "delta_r"):
        if len({getattr(r, field) for r in rows} - {None}) > 1:
            x_field = field
            break
    log = kind == "line-loglog"
    return _line_plot(rows, metric, x_field, log, log)
