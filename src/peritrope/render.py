"""Deterministic SVG pictures: the decomposed timetable torus for
three-event instances, and the offset zonotope in dimension at most two.

All geometry runs on exact fractions; numbers are only formatted at the
final emission step, so repeated renders are byte-identical.
"""

from fractions import Fraction

from .graphs import Budget
from .zonotopes import (
    enumerate_polytropes,
    fine_tiling,
    lattice_points,
    odijk_box,
)

PALETTE = (
    "#66c2a5",
    "#fc8d62",
    "#8da0cb",
    "#e78ac3",
    "#a6d854",
    "#ffd92f",
    "#e5c494",
    "#b3b3b3",
)
SCALE = 40
MARGIN = 30


def _fmt(value):
    """Exact decimal when the denominator allows it, else 4 places rounded
    half up; integers throughout."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    num, den = f.numerator, f.denominator
    if den == 1:
        return str(num)
    d, k2, k5 = den, 0, 0
    while d % 2 == 0:
        d //= 2
        k2 += 1
    while d % 5 == 0:
        d //= 5
        k5 += 1
    k = max(k2, k5) if d == 1 else 4
    # Exact when d == 1; else no value lies on a half, where rounding rules differ.
    whole, frac = divmod((2 * abs(num) * 10**k + den) // (2 * den), 10**k)
    text = f"{whole}.{frac:0{k}d}".rstrip("0").rstrip(".")
    if num < 0 and text != "0":
        text = "-" + text
    return text


def _clip_halfplane(points, a, b, c):
    """Keep the part of a convex polygon with a*x + b*y <= c."""
    out = []
    for idx, p in enumerate(points):
        q = points[(idx + 1) % len(points)]
        pin = a * p[0] + b * p[1] <= c
        qin = a * q[0] + b * q[1] <= c
        if pin:
            out.append(p)
        if pin != qin:
            denom = a * (q[0] - p[0]) + b * (q[1] - p[1])
            t = Fraction(c - a * p[0] - b * p[1], denom)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _tidy(points):
    """Drop repeated and collinear vertices."""
    pts = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        for i in range(len(pts)):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross == 0:
                pts.pop(i)
                changed = True
                break
    return tuple(pts)


def _area2(points):
    total = Fraction(0)
    for i, p in enumerate(points):
        q = points[(i + 1) % len(points)]
        total += p[0] * q[1] - q[0] * p[1]
    return abs(total)


def polytrope_polygon(poly):
    """Vertex cycle of the region cut out in the (pi_1, pi_2) plane with
    pi_0 = 0, for a three-vertex offset class.  Exact fractions."""
    if poly.n != 3:
        raise ValueError("polygon extraction needs exactly 3 vertices")
    if not poly.nonempty:
        return ()
    d = poly.dist
    bound = max(abs(v) for row in d for v in row) + poly.instance.period + 1
    square = [
        (Fraction(-bound), Fraction(-bound)),
        (Fraction(bound), Fraction(-bound)),
        (Fraction(bound), Fraction(bound)),
        (Fraction(-bound), Fraction(bound)),
    ]
    halfplanes = [
        (1, 0, d[0][1]),
        (-1, 0, d[1][0]),
        (0, 1, d[0][2]),
        (0, -1, d[2][0]),
        (-1, 1, d[1][2]),
        (1, -1, d[2][1]),
    ]
    pts = square
    for a, b, c in halfplanes:
        pts = _clip_halfplane(pts, a, b, c)
        if not pts:
            return ()
    return _tidy(pts)


def _piece_offset(inst, p, qx, qy):
    """Offset label of the polygon copy shifted by (T qx, T qy): the
    representative p picks up the potential difference of (0, qx, qy)."""
    q = (0, qx, qy)
    return tuple(
        p[a] + q[i] - q[j] for a, (i, j) in enumerate(inst.graph.arc_index_pairs)
    )


def _svg_header(width, height):
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]


def render_torus(inst, basis, budget=None):
    """One fundamental domain of the timetable torus with every offset
    class drawn and labeled by its offset vector; the classes are charged
    to ``budget`` (None: a fresh ``Budget``)."""
    g = inst.graph
    if g.n != 3:
        raise ValueError("torus rendering needs exactly 3 vertices")
    T = inst.period
    side = T * SCALE
    size = side + 2 * MARGIN

    def to_svg(x, y):
        return (MARGIN + x * SCALE, MARGIN + (T - y) * SCALE)

    lines = _svg_header(size, size)
    lines.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    polys = enumerate_polytropes(inst, basis, budget)
    labels = []
    for color_idx, poly in enumerate(polys):
        polygon = polytrope_polygon(poly)
        if len(polygon) < 3:
            continue
        fill = PALETTE[color_idx % len(PALETTE)]
        xs = [p[0] for p in polygon]
        ys = [p[1] for p in polygon]
        qx_range = range(int(-(max(xs) // T)), int((T - min(xs)) // T) + 1)
        qy_range = range(int(-(max(ys) // T)), int((T - min(ys)) // T) + 1)
        for qx in qx_range:
            for qy in qy_range:
                shifted = [(x + T * qx, y + T * qy) for x, y in polygon]
                piece = shifted
                for a, b, c in ((1, 0, T), (-1, 0, 0), (0, 1, T), (0, -1, 0)):
                    piece = _clip_halfplane(piece, a, b, c)
                    if not piece:
                        break
                piece = _tidy(piece)
                if len(piece) < 3 or _area2(piece) == 0:
                    continue
                coords = " ".join(
                    f"{_fmt(px)},{_fmt(py)}" for px, py in (to_svg(x, y) for x, y in piece)
                )
                lines.append(
                    f'<polygon points="{coords}" fill="{fill}" stroke="black" '
                    'stroke-width="0.5"/>'
                )
                cx = sum(p[0] for p in piece) / len(piece)
                cy = sum(p[1] for p in piece) / len(piece)
                label = " ".join(str(v) for v in _piece_offset(inst, poly.offset, qx, qy))
                labels.append((to_svg(cx, cy), label))
    for (lx, ly), label in labels:
        lines.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{label}</text>'
        )
    frame = (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{side}" height="{side}" '
        'fill="none" stroke="black"/>'
    )
    lines.append(frame)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_zonotope(inst, basis, root=None, budget=None):
    """The offset zonotope with its spanning tree tiling and lattice
    points, both charged to ``budget`` (None: a fresh ``Budget``);
    supported up to dimension two."""
    mu = basis.mu
    if mu > 2:
        raise ValueError("zonotope rendering supports dimension at most 2")
    T = inst.period
    budget = budget or Budget()
    points = lattice_points(inst, basis, budget)
    tiles = fine_tiling(inst, basis, root, budget=budget)
    if mu == 0:
        lines = _svg_header(60, 60)
        lines.append('<rect width="60" height="60" fill="white"/>')
        if points:
            lines.append('<circle cx="30" cy="30" r="4" fill="#e66101"/>')
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
    box = odijk_box(inst, basis)
    if mu == 1:
        (lo, hi) = box[0]
        span = Fraction(hi - lo, T)
        width_px = int(span * SCALE) + 2 * MARGIN
        height = 2 * MARGIN + 40
        mid = height // 2

        def sx(v):
            return MARGIN + (Fraction(v, T) - Fraction(lo, T)) * SCALE

        lines = _svg_header(width_px, height)
        lines.append(f'<rect width="{width_px}" height="{height}" fill="white"/>')
        lines.append(
            f'<line x1="{_fmt(sx(lo))}" y1="{mid}" x2="{_fmt(sx(hi))}" y2="{mid}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
        breakpoints = set()
        for tile in tiles:
            start = tile.translation[0]
            end = start + tile.generators[0][0]
            breakpoints.update((start, end))
            a, b = sorted((start, end))
            lines.append(
                f'<line x1="{_fmt(sx(a))}" y1="{mid}" x2="{_fmt(sx(b))}" y2="{mid}" '
                'stroke="black" stroke-width="3"/>'
            )
        for bp in sorted(breakpoints):
            x = _fmt(sx(bp))
            lines.append(
                f'<line x1="{x}" y1="{mid - 8}" x2="{x}" y2="{mid + 8}" '
                'stroke="black" stroke-width="1"/>'
            )
            lines.append(
                f'<text x="{x}" y="{mid + 24}" font-size="10" font-family="sans-serif" '
                f'text-anchor="middle">{_fmt(Fraction(bp, T))}</text>'
            )
        for z in points:
            lines.append(
                f'<circle cx="{_fmt(sx(T * z[0]))}" cy="{mid}" r="4" fill="#e66101"/>'
            )
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
    (lo0, hi0), (lo1, hi1) = box
    w_px = int(Fraction(hi0 - lo0, T) * SCALE) + 2 * MARGIN
    h_px = int(Fraction(hi1 - lo1, T) * SCALE) + 2 * MARGIN

    def to_svg2(vx, vy):
        return (
            MARGIN + (Fraction(vx - lo0, T)) * SCALE,
            h_px - MARGIN - (Fraction(vy - lo1, T)) * SCALE,
        )

    lines = _svg_header(w_px, h_px)
    lines.append(f'<rect width="{w_px}" height="{h_px}" fill="white"/>')
    for idx, tile in enumerate(tiles):
        t = tile.translation
        g1, g2 = tile.generators
        corners = [
            t,
            (t[0] + g1[0], t[1] + g1[1]),
            (t[0] + g1[0] + g2[0], t[1] + g1[1] + g2[1]),
            (t[0] + g2[0], t[1] + g2[1]),
        ]
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (to_svg2(x, y) for x, y in corners)
        )
        fill = PALETTE[idx % len(PALETTE)]
        lines.append(
            f'<polygon points="{coords}" fill="{fill}" fill-opacity="0.6" '
            'stroke="black" stroke-width="0.8"/>'
        )
    for z in points:
        px, py = to_svg2(T * z[0], T * z[1])
        lines.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#e66101"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
