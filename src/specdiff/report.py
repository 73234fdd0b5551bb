"""Render sweep summaries as plain text and as a deterministic SVG chart.

The SVG is built by string assembly with fixed dimensions, a fixed palette,
and fixed number formatting; rendering the same summary twice produces
byte-identical output (no timestamps, no environment lookups).
"""

from __future__ import annotations

import math

__all__ = ["check_summary", "render_svg", "render_text"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 28, 48
PALETTE = ("#1f6fb4", "#c23b22", "#2e8b57", "#8b5fbf", "#b8860b", "#476a6f")
TABLES = ("fitted_slopes", "fitted_intercepts", "predicted_slopes", "deviations", "residuals")


def _is_number(value) -> bool:
    """An int or a finite float: ``json.loads`` also reads NaN and Infinity."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _is_table(value) -> bool:
    return isinstance(value, dict) and all(_is_number(v) for v in value.values())


def check_summary(summary) -> None:
    """Raise ValueError unless each field the renderers read has the type they need.

    A sweep summary (``SweepResult.summary_dict``) is an object with a
    "records" list and a "fitted_slopes" table.  Each record is an object
    with a number "log_inv_eps" and a "counts" table of numbers >= 0;
    "windows", if present, is a list of strings, and every table in
    ``TABLES`` that is present maps its keys to numbers.  A number is finite.
    """
    if not isinstance(summary, dict):
        raise ValueError(f"expected a JSON object, got {type(summary).__name__}")
    if not (isinstance(summary.get("records"), list)
            and isinstance(summary.get("fitted_slopes"), dict)):
        raise ValueError('it needs a "records" list and a "fitted_slopes" object')
    for i, record in enumerate(summary["records"]):
        if not (isinstance(record, dict) and _is_number(record.get("log_inv_eps"))
                and _is_table(record.get("counts"))
                and all(v >= 0 for v in record["counts"].values())):
            raise ValueError(f'record {i} needs a number "log_inv_eps" and a "counts" '
                             f"object of numbers >= 0")
    windows = summary.get("windows", [])
    if not (isinstance(windows, list) and all(isinstance(w, str) for w in windows)):
        raise ValueError('"windows" must be a list of strings')
    for key in TABLES:
        if not _is_table(summary.get(key, {})):
            raise ValueError(f'"{key}" must be an object of numbers')


def render_text(summary: dict) -> str:
    """Human-readable digest: per-quantity fitted vs predicted slope."""
    lines = [
        f"profile {summary.get('profile', '?')}  lambda {summary.get('lambda', '?')}",
        f"band edges {summary.get('band_edges', [])}  xi {summary.get('xi', '?')}",
        f"guard floor {summary.get('guard_floor', '?')}",
        "",
        f"{'quantity':<24} {'fitted':>12} {'predicted':>12} {'deviation':>12} {'residual':>12}",
    ]
    fitted = summary.get("fitted_slopes", {})
    predicted = summary.get("predicted_slopes", {})
    deviations = summary.get("deviations", {})
    residuals = summary.get("residuals", {})
    for key in fitted:
        lines.append(
            f"{key:<24} {fitted[key]:>12.6g} {predicted.get(key, float('nan')):>12.6g} "
            f"{deviations.get(key, float('nan')):>12.6g} {residuals.get(key, float('nan')):>12.6g}"
        )
    flagged = sum(1 for r in summary.get("records", []) if r.get("guard_flag"))
    total = len(summary.get("records", []))
    lines.append("")
    lines.append(f"records {total} ({flagged} guard-flagged)")
    return "\n".join(lines) + "\n"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_svg(summary: dict) -> str:
    """Counts against |log eps| per window, with fitted and predicted lines.

    Guard-flagged points render as open circles; the fitted line is solid and
    the predicted-slope line (through the fitted intercept) is dashed.  Finite
    numbers can still overflow the scales (a span of log_inv_eps or a slope
    near the largest float): a coordinate that is not finite raises
    ``ValueError``.
    """
    records = summary.get("records", [])
    windows = summary.get("windows", [])
    fitted = summary.get("fitted_slopes", {})
    intercepts = summary.get("fitted_intercepts", {})
    predicted = summary.get("predicted_slopes", {})

    xs = [r["log_inv_eps"] for r in records]
    ys = [r["counts"][w] for r in records for w in windows if w in r.get("counts", {})]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = 0.0, (max(ys) + 1.0 if ys else 1.0)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def finite(coordinate: float) -> float:
        if not math.isfinite(coordinate):
            raise ValueError("the summary's numbers do not fit a finite chart scale")
        return coordinate

    def px(x: float) -> float:
        return finite(MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w)

    def py(y: float) -> float:
        return finite(MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{py(y_lo):.2f}" x2="{px(t):.2f}" '
            f'y2="{py(y_lo) + 5:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{py(y_lo) + 18:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{t:.3g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py(t):.2f}" x2="{MARGIN_L}" '
            f'y2="{py(t):.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py(t) + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle" font-family="monospace">log(1/eps)</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.2f}" font-size="12" '
        f'text-anchor="middle" font-family="monospace" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.2f})">count</text>'
    )

    for i, w in enumerate(windows):
        color = PALETTE[i % len(PALETTE)]
        key = f"count {w}"
        slope = fitted.get(key)
        intercept = intercepts.get(key)
        if slope is not None and intercept is not None:
            parts.append(
                f'<line x1="{px(x_lo):.2f}" y1="{py(slope * x_lo + intercept):.2f}" '
                f'x2="{px(x_hi):.2f}" y2="{py(slope * x_hi + intercept):.2f}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            pred = predicted.get(key)
            if pred is not None:
                parts.append(
                    f'<line x1="{px(x_lo):.2f}" y1="{py(pred * x_lo + intercept):.2f}" '
                    f'x2="{px(x_hi):.2f}" y2="{py(pred * x_hi + intercept):.2f}" '
                    f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 4"/>'
                )
        for r in records:
            if w not in r.get("counts", {}):
                continue
            cx, cy = px(r["log_inv_eps"]), py(r["counts"][w])
            if r.get("guard_flag"):
                parts.append(
                    f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
            else:
                parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{MARGIN_L + plot_w - 8}" y="{MARGIN_T + 16 + 14 * i}" font-size="11" '
            f'text-anchor="end" font-family="monospace" fill="{color}">{w}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
