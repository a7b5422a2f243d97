import hashlib
import itertools
import random
import re

import pytest

from pullcalc.diagrams.taffy import STROKE_WIDTH, _fmt, _Numbers, _svg
from pullcalc.diagrams.tangles import (
    GAP,
    TANGLE_CAP,
    TILE,
    _HANDLE,
    Crossing,
    TangleDiagram,
    _along,
    _eps,
    build_tangle,
    render_tangle_svg,
)
from pullcalc.rationals import make
from pullcalc.treewalk import taffy_number, tangle_number
from pullcalc.words import format_tangle, parse_tangle


# --- twist words -------------------------------------------------------------

def test_parse_tangle_shares_the_turn_codes():
    assert parse_tangle("V^2 H V^-1") == (0, 0, 1, 2)
    assert parse_tangle("v h") == (2, 3)
    assert parse_tangle("e") == ()


def test_format_tangle():
    assert format_tangle((0, 0, 1, 2), "runs") == "V^2 H V^-1"
    assert format_tangle((), "runs") == "e"
    assert format_tangle((2, 3), "plain") == "V^-1 H^-1"


# --- tangle numbers ------------------------------------------------------------

def test_tangle_number_examples():
    assert tangle_number(parse_tangle("V^2 H V^-1")) == make(-1, 3)
    assert tangle_number(()) == make(0, 1)
    assert tangle_number(parse_tangle("V^-1")) == make(-1, 1)
    assert tangle_number(parse_tangle("V H V H V H")) == make(8, 13)


def test_tangle_number_matches_the_turn_fold():
    rng = random.Random(20260815)
    for _ in range(2000):
        twists = tuple(rng.randrange(4) for _ in range(rng.randrange(22)))
        assert tangle_number(twists) == taffy_number(twists)


def test_three_short_tangles_tie_the_same_knot():
    # every twist word is equivalent to its own tangle number, so words
    # sharing a number are the same tangle; -1/1 already has several
    # spellings within four crossings
    minus_one = []
    for n in range(0, 5):
        for twists in itertools.product(range(4), repeat=n):
            if tangle_number(twists) == make(-1, 1):
                minus_one.append(twists)
    assert len(minus_one) >= 3
    assert (2,) in minus_one


# --- diagrams -------------------------------------------------------------------

def test_build_tangle_records_crossings_in_order():
    d = build_tangle(parse_tangle("V^2 H V^-1"))
    assert d.crossings == (
        Crossing("right-side", 1),
        Crossing("right-side", 1),
        Crossing("bottom-side", 1),
        Crossing("right-side", -1),
    )


def test_a_tangle_diagram_is_its_twist_word():
    d = build_tangle(iter([0, 3]))
    assert d == TangleDiagram((0, 3))
    assert d.twists == (0, 3)
    assert d.crossings == (Crossing("right-side", 1), Crossing("bottom-side", -1))
    assert (d.width, d.height) == (2.0, 2.0)


@pytest.mark.parametrize("twists", [(0, 4), (-1,), ("V",)])
def test_a_tangle_diagram_refuses_a_bad_twist_code(twists):
    with pytest.raises(ValueError, match="bad twist code"):
        TangleDiagram(twists)
    with pytest.raises(ValueError, match="bad twist code"):
        build_tangle(twists)


def test_build_tangle_is_capped():
    assert len(build_tangle(parse_tangle("V^%d" % TANGLE_CAP)).crossings) == TANGLE_CAP
    for twists in (parse_tangle("V^%d" % (TANGLE_CAP + 1)), itertools.repeat(0, 10**12)):
        with pytest.raises(ValueError, match="tangle diagrams are capped at 10000 twists"):
            build_tangle(twists)


def test_tangle_number_of_a_long_run():
    assert tangle_number(parse_tangle("V^16777216")) == make(16777216, 1)
    twists = parse_tangle("V^9 H^-1000000 V^3 H^77777")
    assert tangle_number(twists) == taffy_number(twists)


def test_build_tangle_empty():
    d = build_tangle(())
    assert d.crossings == ()
    assert set(d.endpoints) == {"NW", "NE", "SW", "SE"}


def test_build_tangle_box_grows_with_the_twists():
    d = build_tangle(parse_tangle("V^2 H"))
    xs = [p[0] for p in d.endpoints.values()]
    ys = [p[1] for p in d.endpoints.values()]
    assert max(xs) == 3.0  # one unit square plus two right-side twists
    assert max(ys) == 2.0  # plus one bottom-side twist


def test_crossing_signs_sum_like_run_sums():
    rng = random.Random(11)
    for _ in range(300):
        twists = tuple(rng.randrange(4) for _ in range(rng.randrange(15)))
        d = build_tangle(twists)
        assert len(d.crossings) == len(twists)
        assert sum(c.sign for c in d.crossings) == sum(
            -1 if t >= 2 else 1 for t in twists
        )


# --- rendering -------------------------------------------------------------------

def test_render_tangle_svg_marks_every_crossing():
    svg = render_tangle_svg(build_tangle(parse_tangle("V^2 H V^-1")))
    assert svg.count('class="crossing') == 4
    assert svg.count("right-side") == 3
    assert svg.count("bottom-side") == 1
    assert svg.count("positive") == 3
    assert svg.count("negative") == 1
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_render_tangle_svg_empty_tangle_is_two_arcs():
    svg = render_tangle_svg(build_tangle(()))
    assert svg.count('class="crossing') == 0
    assert svg.count("<path") == 2


def test_render_tangle_svg_is_deterministic():
    d = build_tangle(parse_tangle("V H^-1 V^2"))
    assert render_tangle_svg(d) == render_tangle_svg(d)


def test_render_tangle_svg_under_strand_is_split():
    # one crossing: the over strand is one path, the under strand two
    svg = render_tangle_svg(build_tangle(parse_tangle("V")))
    group = svg[svg.index('<g class="crossing') :]
    group = group[: group.index("</g>")]
    assert group.count("<path") == 3


def test_every_short_tangle_draws_as_locked():
    # all 341 words of 0 to 4 twists, in itertools.product order: both
    # directions, both signs, and both under-strand gaps (across a span
    # of one tile the gap is GAP pixels, across a wider one the clamped
    # 0.04 of the curve's parameter)
    digest = hashlib.sha256()
    for n in range(5):
        for twists in itertools.product(range(4), repeat=n):
            digest.update(render_tangle_svg(build_tangle(twists)).encode("utf-8"))
    assert digest.hexdigest() == "e506e8861d6dd937c9ba03ad3e33dacace72b51f6c1407dbed731d9be280a11f"


_CROSSING = re.compile(r'<g class="crossing (\w+) ([\w-]+)" data-sign="(-?1)">\n(.*?)\n</g>', re.S)
_CURVE = re.compile(r'<path class="(\w+)" d="M ([^"]*)"')


def drawn_crossings(svg, pad=2.0 * STROKE_WIDTH + 2.0):
    """(sign class, position, sign, curves) per crossing group, where a
    curve is its class and its four points with the pad taken off."""
    return [
        (sign_cls, position, int(sign), [
            (cls, [tuple(float(v) - pad for v in p.split()) for p in d.replace(" C ", ", ").split(", ")])
            for cls, d in _CURVE.findall(paths)
        ])
        for sign_cls, position, sign, paths in _CROSSING.findall(svg)
    ]


def test_flipping_every_twist_transposes_the_drawing():
    # V <-> H and V^-1 <-> H^-1 (t ^ 1): each crossing keeps its sign,
    # moves to the other side, and its curves swap x and y
    other = {"right-side": "bottom-side", "bottom-side": "right-side"}
    rng = random.Random(21)
    for n in [*range(1, 12), 50, 300]:
        for _ in range(20):
            twists = tuple(rng.randrange(4) for _ in range(n))
            first = drawn_crossings(render_tangle_svg(build_tangle(twists)))
            second = drawn_crossings(render_tangle_svg(build_tangle(t ^ 1 for t in twists)))
            assert len(first) == len(second) == n
            for (sign_cls, position, sign, curves), flipped in zip(first, second):
                assert flipped == (sign_cls, other[position], sign, [
                    (cls, [(y, x) for x, y in points]) for cls, points in curves
                ])


# --- the per-point writer the group templates replaced ---------------------------

def _lerp(a, b, t):
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def _split(bez, t):
    p0, p1, p2, p3 = bez
    a = _lerp(p0, p1, t)
    b = _lerp(p1, p2, t)
    c = _lerp(p2, p3, t)
    d = _lerp(a, b, t)
    e = _lerp(b, c, t)
    f = _lerp(d, e, t)
    return (p0, a, d, f), (f, e, c, p3)


def reference_render_tangle_svg(diagram):
    """The tangle SVG written point by point: each twist splits its under
    curve in two dimensions and formats all twelve points on their own."""
    num = _Numbers()
    stroke = 'fill="none" stroke="#203050" stroke-width="%s" stroke-linecap="round"' % num[STROKE_WIDTH]
    pad = 2.0 * STROKE_WIDTH + 2.0

    def pt(p):
        return "%s %s" % (num[p[0] + pad], num[p[1] + pad])

    def pt_swapped(p):
        return "%s %s" % (num[p[1] + pad], num[p[0] + pad])

    def curve_path(bez, cls, write):
        p0, p1, p2, p3 = bez
        return '<path class="%s" d="M %s C %s, %s, %s" %s/>' % (
            cls, write(p0), write(p1), write(p2), write(p3), stroke,
        )

    w = h = TILE
    body = [
        '<path class="strand" d="M %s L %s" %s/>' % (pt((0.0, 0.0)), pt((TILE, 0.0)), stroke),
        '<path class="strand" d="M %s L %s" %s/>' % (pt((0.0, TILE)), pt((TILE, TILE)), stroke),
    ]
    hd = _HANDLE * TILE
    along = 1.5 * (TILE - hd)
    for crossing in diagram.crossings:
        if crossing.position == "right-side":
            a0, span, write = w, h, pt
            w += TILE
        else:
            a0, span, write = h, w, pt_swapped
            h += TILE
        a1 = a0 + TILE
        keep = ((a0, 0.0), (a0 + hd, 0.0), (a1 - hd, span), (a1, span))
        from_se = ((a0, span), (a0 + hd, span), (a1 - hd, 0.0), (a1, 0.0))
        over, under = (from_se, keep) if crossing.sign > 0 else (keep, from_se)
        eps = max(0.02, (GAP / 2.0) / (along * along + 2.25 * span * span) ** 0.5)
        first, _ = _split(under, 0.5 - eps)
        _, second = _split(under, 0.5 + eps)
        sign_cls = "positive" if crossing.sign > 0 else "negative"
        body.append('<g class="crossing %s %s" data-sign="%d">' % (sign_cls, crossing.position, crossing.sign))
        body.append(curve_path(first, "under", write))
        body.append(curve_path(second, "under", write))
        body.append(curve_path(over, "over", write))
        body.append("</g>")
    for label, (ex, ey) in sorted(diagram.endpoints.items()):
        body.append(
            '<circle class="end" data-corner="%s" cx="%s" cy="%s" r="%s" fill="#203050"/>'
            % (label, num[ex * TILE + pad], num[ey * TILE + pad], num[STROKE_WIDTH * 1.5])
        )
    title = "rational tangle %s" % (tangle_number(diagram.twists),)
    return _svg(w + 2.0 * pad, h + 2.0 * pad, title, body)


def test_every_along_text_of_the_capped_domain_is_the_float_chains():
    # every eps a span of the capped domain gives, at every tile start:
    # the table's a0 + i and tail against _fmt of the per-point float
    # chain (a right-side twist, its along axis the x of every point)
    pad = 2.0 * STROKE_WIDTH + 2.0
    hd = _HANDLE * TILE
    tiles = [TILE * m for m in range(1, TANGLE_CAP + 2)]
    epses = sorted({_eps(span) for span in tiles})
    assert len(epses) == 2 and epses[0] == 0.02 and _eps(TILE) == epses[1]
    for eps in epses:
        table = _along(eps)
        assert len(table) == 12
        for a0 in tiles:
            curve = ((a0, 0.0), (a0 + hd, 0.0), (a0 + TILE - hd, 0.0), (a0 + TILE, 0.0))
            first, _ = _split(curve, 0.5 - eps)
            _, second = _split(curve, 0.5 + eps)
            want = [_fmt(x + pad) for x, _ in (*first, *second, *curve)]
            assert ["%d%s" % (int(a0) + i, tail) for i, tail in table] == want, (eps, a0)


def seeded_twists(seed, n):
    rng = random.Random(seed)
    return tuple(rng.randrange(4) for _ in range(n))


@pytest.mark.parametrize("twists", [
    *(pytest.param(seeded_twists(2800 + n, n), id="random-%d" % n) for n in (10, 300, 2000)),
    pytest.param((0,) * 1000, id="all-V"),
    pytest.param((1,) * 1000, id="all-H"),
    pytest.param(seeded_twists(28, TANGLE_CAP), id="at-cap"),
])
def test_group_templates_write_the_per_point_bytes(twists):
    d = build_tangle(twists)
    got = render_tangle_svg(d).split("\n")
    want = reference_render_tangle_svg(d).split("\n")
    assert len(got) == len(want)
    assert next(((k, g, w) for k, (g, w) in enumerate(zip(got, want)) if g != w), None) is None
