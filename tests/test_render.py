import random
from collections import Counter
from fractions import Fraction

import pytest

from peritrope import (
    Digraph,
    PespInstance,
    default_basis,
    lattice_points,
    parse_instance,
    polytrope_build,
    polytrope_polygon,
    render_torus,
    render_zonotope,
)
from peritrope.render import _clip_halfplane, _fmt, _tidy
from helpers import square_basis, square_instance, triangle_instance


def _triangle():
    inst = triangle_instance()
    return inst, default_basis(inst.graph)


def _mu2_instance():
    g = Digraph(("v0", "v1", "v2"), (("v0", "v1"), ("v0", "v2"), ("v1", "v2"), ("v0", "v1")))
    return PespInstance(g, 10, (3, 2, 4, 2), (12, 10, 13, 9), (1, 1, 1, 1))


def test_fmt():
    assert _fmt(Fraction(5, 2)) == "2.5"
    assert _fmt(Fraction(-3, 10)) == "-0.3"
    assert _fmt(Fraction(1, 8)) == "0.125"
    assert _fmt(Fraction(7)) == "7"
    assert _fmt(Fraction(1, 3)) == "0.3333"
    assert _fmt(Fraction(-2, 3)) == "-0.6667"
    # values rounding to zero must not come out as "-0"
    assert _fmt(Fraction(-1, 99999)) == "0"
    assert _fmt(Fraction(-1, 100000)) == "-0.00001"


def _turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _twice_area(points):
    return sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(points, points[1:] + points[:1]))


def _strictly_convex_polygon(rng):
    """The hull of random Fraction points, counterclockwise, with every
    collinear point dropped."""
    while True:
        points = sorted(
            {
                tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in "xy")
                for _ in range(rng.randint(3, 9))
            }
        )
        lower, upper = [], []
        for chain, sweep in ((lower, points), (upper, points[::-1])):
            for p in sweep:
                while len(chain) >= 2 and _turn(chain[-2], chain[-1], p) <= 0:
                    chain.pop()
                chain.append(p)
        hull = lower[:-1] + upper[:-1]
        if len(hull) >= 3:
            return hull


def _halfplane(rng, shape):
    """(a, b, c) of a random half-plane a*x + b*y <= c: a random line, a
    line through a vertex of ``shape``, or the line along one of its edges,
    with either side kept."""
    kind = rng.choice(("any", "vertex", "edge"))
    i = rng.randrange(len(shape))
    p, q = shape[i], shape[(i + 1) % len(shape)]
    if kind == "edge" and p != q:
        a, b = q[1] - p[1], p[0] - q[0]
    else:
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in "ab")
        a = a if a or b else Fraction(1)
    c = Fraction(rng.randint(-40, 40), rng.randint(1, 4)) if kind == "any" else a * p[0] + b * p[1]
    sign = rng.choice((1, -1))
    return sign * a, sign * b, sign * c


def test_clipping_keeps_polygons_strictly_convex():
    """One to three clips of a random strictly convex polygon, tidied once
    as ``render_torus`` does, leave no repeated vertex, no three
    consecutive vertices collinear, and a nonzero area on every result
    with three or more vertices; every outcome, from nothing to a polygon,
    occurs."""
    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(2500):
        pts = _strictly_convex_polygon(rng)
        for _ in range(rng.randint(1, 3)):
            if pts:
                pts = _clip_halfplane(pts, *_halfplane(rng, _tidy(pts)))
        pts = _tidy(pts)
        assert len(set(pts)) == len(pts)
        if len(pts) >= 3:
            assert all(_turn(pts[i - 2], pts[i - 1], pts[i]) != 0 for i in range(len(pts)))
            assert _twice_area(pts) != 0
        outcomes[min(len(pts), 3)] += 1
    assert sorted(outcomes) == [0, 1, 2, 3], outcomes


def test_polygon_vertex_counts():
    inst, basis = _triangle()
    counts = []
    for z in (0, 1, 2):
        poly = polytrope_build(inst, basis, (0, 0, z))
        counts.append(len(polytrope_polygon(poly)))
    assert counts == [3, 6, 3]


def test_polygon_needs_three_vertices():
    sq = square_instance()
    poly = polytrope_build(sq, square_basis(), (0, 1, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        polytrope_polygon(poly)


def test_an_empty_class_has_no_polygon():
    inst, basis = _triangle()
    poly = polytrope_build(inst, basis, (0, 0, 3))
    assert not poly.nonempty
    assert polytrope_polygon(poly) == ()


def test_the_torus_needs_three_vertices():
    with pytest.raises(ValueError, match="^torus rendering needs exactly 3 vertices$"):
        render_torus(square_instance(), square_basis())


def test_torus_render_markers():
    inst, basis = _triangle()
    svg = render_torus(inst, basis)
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    # the three classes wrap into five clipped pieces on the fundamental square
    assert svg.count("<polygon") == 5
    assert svg.count("<text") == 5
    assert ">0 0 1<" in svg
    assert ">1 0 1<" in svg
    assert "#66c2a5" in svg


def test_zonotope_segment_render():
    inst, basis = _triangle()
    svg = render_zonotope(inst, basis, root="v1")
    assert svg.count("<circle") == 3
    for label in ("-0.3", "0.6", "1.4", "2.3"):
        assert f">{label}<" in svg
    # a different tiling root moves the interior breakpoint, not the ends
    default = render_zonotope(inst, basis)
    assert ">1.5<" in default
    assert default.count("<circle") == 3


def test_zonotope_point_render():
    inst = parse_instance("PERIOD 10\nARC a b 2 6 1\n")
    svg = render_zonotope(inst, default_basis(inst.graph))
    assert svg.count("<circle") == 1


def test_zonotope_parallelogram_render():
    inst = _mu2_instance()
    basis = default_basis(inst.graph)
    svg = render_zonotope(inst, basis)
    assert svg.count("<polygon") == 5
    assert svg.count("<circle") == len(lattice_points(inst, basis))


def test_zonotope_rejects_high_dimensions():
    sq = square_instance()
    with pytest.raises(ValueError):
        render_zonotope(sq, square_basis())


def test_renders_are_deterministic():
    inst, basis = _triangle()
    assert render_torus(inst, basis) == render_torus(inst, basis)
    assert render_zonotope(inst, basis) == render_zonotope(inst, basis)
    mu2 = _mu2_instance()
    b2 = default_basis(mu2.graph)
    assert render_zonotope(mu2, b2) == render_zonotope(mu2, b2)
