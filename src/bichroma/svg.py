"""Minimal dependency-free SVG scatter writer for root clouds."""

import math

WIDTH = HEIGHT = 640


def _ticks(lo, hi):
    return list(range(math.ceil(lo), math.floor(hi) + 1))


def scatter_svg(points):
    """Standalone SVG scatter of (x, y) points with integer-tick axes.

    Viewport is the data bounding box with a 5% margin; each point is a
    1.5 px circle.
    """
    if not points:
        raise ValueError("refusing to plot an empty point set")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = (max_x - min_x) or 1.0
    span_y = (max_y - min_y) or 1.0
    min_x -= 0.05 * span_x
    max_x += 0.05 * span_x
    min_y -= 0.05 * span_y
    max_y += 0.05 * span_y

    def sx(x):
        return (x - min_x) / (max_x - min_x) * WIDTH

    def sy(y):
        # svg y grows downward
        return HEIGHT - (y - min_y) / (max_y - min_y) * HEIGHT

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT))
    if min_y <= 0 <= max_y:
        out.append('<line x1="0" y1="%.2f" x2="%d" y2="%.2f" stroke="#888"/>'
                   % (sy(0), WIDTH, sy(0)))
    if min_x <= 0 <= max_x:
        out.append('<line x1="%.2f" y1="0" x2="%.2f" y2="%d" stroke="#888"/>'
                   % (sx(0), sx(0), HEIGHT))
    for t in _ticks(min_x, max_x):
        out.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#ccc"/>'
                   % (sx(t), 0, sx(t), HEIGHT))
        out.append('<text x="%.2f" y="%d" font-size="10" fill="#444">%d</text>'
                   % (sx(t) + 2, HEIGHT - 4, t))
    for t in _ticks(min_y, max_y):
        out.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#ccc"/>'
                   % (0, sy(t), WIDTH, sy(t)))
        out.append('<text x="2" y="%.2f" font-size="10" fill="#444">%d</text>'
                   % (sy(t) - 2, t))
    for x, y in points:
        out.append('<circle cx="%.3f" cy="%.3f" r="1.5" fill="#1f4fa0" '
                   'fill-opacity="0.5"/>' % (sx(x), sy(y)))
    out.append('</svg>')
    return "\n".join(out) + "\n"


def emit_svg(records, path):
    """Write the root scatter of enumeration records to an SVG file."""
    points = []
    for rec in records:
        for z in rec.roots.all_points():
            points.append((z.real, z.imag))
    svg = scatter_svg(points)
    with open(path, "w") as fh:
        fh.write(svg)
