"""Self-contained deterministic SVG plots.

Hand-rolled SVG keeps the output bytes identical across runs and platforms
for the same report data — no plotting library, no timestamps, fixed number
formatting everywhere.
"""

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN = 60


def _f(x):
    return f"{x:.2f}"


def _doc(body):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _scale(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad

    def to_x(v):
        return MARGIN + (v - lo) / (hi - lo) * (WIDTH - 2 * MARGIN)

    def to_y(v):
        return HEIGHT - MARGIN - (v - lo) / (hi - lo) * (HEIGHT - 2 * MARGIN)

    return to_x, to_y, lo, hi


def _axes(title, x_label, y_label):
    return [
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{HEIGHT // 2}" text-anchor="middle" transform="rotate(-90 15 {HEIGHT // 2})">{y_label}</text>',
    ]


def least_squares_line(x, y):
    """(slope, intercept) of the plain least-squares line through (x, y).

    Closed form; a constant x gives the flat line through the mean of y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (y - y.mean())) / sxx if sxx > 0 else 0.0
    return slope, float(y.mean()) - slope * float(x.mean())


def scatter_svg(actual, predicted):
    """Scatter of (actual, predicted) with identity and least-squares lines."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    lo = float(min(actual.min(), predicted.min()))
    hi = float(max(actual.max(), predicted.max()))
    to_x, to_y, lo, hi = _scale(lo, hi)

    body = _axes("Actual vs predicted views", "actual", "predicted")
    body.append(
        f'<line x1="{_f(to_x(lo))}" y1="{_f(to_y(lo))}" x2="{_f(to_x(hi))}" y2="{_f(to_y(hi))}" '
        'stroke="#999999" stroke-dasharray="4 3"/>'
    )
    slope, intercept = least_squares_line(actual, predicted)
    body.append(
        f'<line x1="{_f(to_x(lo))}" y1="{_f(to_y(slope * lo + intercept))}" '
        f'x2="{_f(to_x(hi))}" y2="{_f(to_y(slope * hi + intercept))}" stroke="#cc3333"/>'
    )
    for a, p in zip(actual, predicted):
        body.append(
            f'<circle cx="{_f(to_x(a))}" cy="{_f(to_y(p))}" r="3" fill="#3366cc" fill-opacity="0.6"/>'
        )
    body.append(
        f'<text x="{WIDTH - MARGIN}" y="{MARGIN - 10}" text-anchor="end">'
        f"fit: slope={slope:.4f} intercept={intercept:.1f}</text>"
    )
    return _doc(body)


def _corr_color(r):
    t = int(round(200 * min(abs(r), 1.0)))
    if r >= 0:
        return f"#{255:02x}{255 - t:02x}{255 - t:02x}"  # white -> red
    return f"#{255 - t:02x}{255 - t:02x}{255:02x}"  # white -> blue


def heatmap_svg(names, matrix):
    """n x n correlation heatmap with labels and per-cell values."""
    matrix = np.asarray(matrix, dtype=float)
    n = len(names)
    left, top = 170, 120
    cell = min((WIDTH - left - 20) / n, (HEIGHT - top - 20) / n)
    body = [f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-size="14">Pearson correlation</text>']
    for i, name in enumerate(names):
        y = top + i * cell + cell / 2
        body.append(f'<text x="{left - 6}" y="{_f(y + 4)}" text-anchor="end">{name[:22]}</text>')
        x = left + i * cell + cell / 2
        body.append(
            f'<text x="{_f(x)}" y="{top - 6}" text-anchor="start" '
            f'transform="rotate(-60 {_f(x)} {top - 6})">{name[:22]}</text>'
        )
    for i in range(n):
        for j in range(n):
            x, y = left + j * cell, top + i * cell
            r = float(matrix[i, j])
            body.append(
                f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(cell)}" height="{_f(cell)}" '
                f'fill="{_corr_color(r)}" stroke="#dddddd"/>'
            )
            if cell >= 26:
                body.append(
                    f'<text x="{_f(x + cell / 2)}" y="{_f(y + cell / 2 + 4)}" '
                    f'text-anchor="middle" font-size="9">{r:.2f}</text>'
                )
    return _doc(body)


def importance_svg(labels, scores):
    """Horizontal bar chart; callers pass features already ranked descending."""
    n = len(labels)
    top = 50
    bar_h = min(24.0, (HEIGHT - top - 30) / max(n, 1))
    max_score = max((abs(s) for s in scores), default=1.0) or 1.0
    left = 220
    body = [f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-size="14">Feature importance</text>']
    for i, (label, score) in enumerate(zip(labels, scores)):
        y = top + i * bar_h
        w = abs(score) / max_score * (WIDTH - left - 80)
        color = "#3366cc" if score >= 0 else "#cc3333"
        body.append(f'<text x="{left - 6}" y="{_f(y + bar_h * 0.7)}" text-anchor="end">{label[:28]}</text>')
        body.append(
            f'<rect x="{left}" y="{_f(y + 2)}" width="{_f(w)}" height="{_f(bar_h - 4)}" fill="{color}"/>'
        )
        body.append(f'<text x="{_f(left + w + 4)}" y="{_f(y + bar_h * 0.7)}">{score:.4g}</text>')
    return _doc(body)


def buckets_svg(before_counts, after_counts):
    """Grouped histogram of the five error buckets, before vs after ensembling."""
    labels = ["<10%", "10-20%", "20-30%", "30-40%", ">40%"]
    top, bottom, left = 50, 60, 70
    peak = max(max(before_counts), max(after_counts), 1)
    group_w = (WIDTH - left - 30) / len(labels)
    bar_w = group_w * 0.35
    body = [f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-size="14">Error distribution</text>']
    scale = (HEIGHT - top - bottom) / peak
    base_y = HEIGHT - bottom
    for i, label in enumerate(labels):
        x0 = left + i * group_w
        for k, (counts, color) in enumerate(((before_counts, "#999999"), (after_counts, "#3366cc"))):
            h = counts[i] * scale
            x = x0 + group_w * 0.1 + k * bar_w
            body.append(
                f'<rect x="{_f(x)}" y="{_f(base_y - h)}" width="{_f(bar_w)}" height="{_f(h)}" fill="{color}"/>'
            )
            body.append(
                f'<text x="{_f(x + bar_w / 2)}" y="{_f(base_y - h - 4)}" text-anchor="middle">{counts[i]}</text>'
            )
        body.append(
            f'<text x="{_f(x0 + group_w / 2)}" y="{base_y + 18}" text-anchor="middle">{label}</text>'
        )
    body.append(f'<rect x="{left}" y="{HEIGHT - 24}" width="12" height="12" fill="#999999"/>')
    body.append(f'<text x="{left + 16}" y="{HEIGHT - 14}">before ensembling</text>')
    body.append(f'<rect x="{left + 170}" y="{HEIGHT - 24}" width="12" height="12" fill="#3366cc"/>')
    body.append(f'<text x="{left + 186}" y="{HEIGHT - 14}">after ensembling</text>')
    body.append(f'<line x1="{left}" y1="{base_y}" x2="{WIDTH - 30}" y2="{base_y}" stroke="black"/>')
    return _doc(body)
