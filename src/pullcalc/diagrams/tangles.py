"""Rational tangle diagrams built twist by twist, and their SVG.

This module only draws.  Twist words (``words.parse_tangle``) and the
fraction of a tangle (``treewalk.tangle_number``) are arithmetic and
live with the turn words; the SVG's title is that fraction.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from ..kernel import Word
from ..treewalk import tangle_number
from .taffy import STROKE_WIDTH, _Numbers, _svg

TANGLE_CAP = 10000  # most twists build_tangle will draw


class Crossing(NamedTuple):
    position: str  # "right-side" or "bottom-side"
    sign: int  # +1 for V/H, -1 for their inverses


class _TangleDiagram(NamedTuple):
    twists: tuple


class TangleDiagram(_TangleDiagram):
    """A tangle diagram is its twist word; the crossings are read off it."""

    __slots__ = ()

    def __new__(cls, twists):
        for t in twists:
            if t not in (0, 1, 2, 3):
                raise ValueError("bad twist code %r" % (t,))
        return super().__new__(cls, twists)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    @property
    def crossings(self) -> tuple:
        return tuple(
            Crossing("right-side" if t & 1 == 0 else "bottom-side", -1 if t & 2 else 1)
            for t in self.twists
        )

    @property
    def width(self) -> float:
        """Box width in tile units; every right-side twist adds one."""
        return 1.0 + sum(1 for t in self.twists if t & 1 == 0)

    @property
    def height(self) -> float:
        return 1.0 + sum(1 for t in self.twists if t & 1)

    @property
    def endpoints(self) -> dict:
        w, h = self.width, self.height
        return {"NW": (0.0, 0.0), "NE": (w, 0.0), "SW": (0.0, h), "SE": (w, h)}


def build_tangle(twists) -> TangleDiagram:
    """The diagram of a twist word.  Its SVG grows by one tile per
    twist, so a word of more than TANGLE_CAP twists is refused before
    any twist is drawn: a Word on its turn count, any other iterable
    having read no more than one twist past the cap."""
    if isinstance(twists, Word):
        count = twists._len
    else:
        twists = tuple(islice(twists, TANGLE_CAP + 1))
        count = len(twists)
    if count > TANGLE_CAP:
        raise ValueError("tangle diagrams are capped at %d twists" % TANGLE_CAP)
    return TangleDiagram(tuple(twists))


# --- rendering ----------------------------------------------------------------

TILE = 60.0  # SVG pixels per crossing tile
GAP = 2.0 * STROKE_WIDTH  # how far the under strand stops short of the over strand
_HANDLE = 0.6  # Bezier control offset, as a fraction of the tile size


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


def render_tangle_svg(diagram: TangleDiagram) -> str:
    """Standalone SVG for a tangle diagram.

    Each crossing lives in its own TILE-sized tile (a new column on the
    right or a new row along the bottom) as two cubic curves; the under
    strand breaks for GAP pixels at the midpoint so the over strand
    reads clearly.  Columns and rows draw one template in (along,
    across) points, across the strand pair at 0 and span: a right-side
    twist writes them as (x, y), a bottom-side twist as (y, x).
    """
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
            cls,
            write(p0),
            write(p1),
            write(p2),
            write(p3),
            stroke,
        )

    w = h = TILE
    body = [
        '<path class="strand" d="M %s L %s" %s/>' % (pt((0.0, 0.0)), pt((TILE, 0.0)), stroke),
        '<path class="strand" d="M %s L %s" %s/>' % (pt((0.0, TILE)), pt((TILE, TILE)), stroke),
    ]

    hd = _HANDLE * TILE
    along = 1.5 * (TILE - hd)  # the template's speed along at t = 1/2; across it is 1.5 * span
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
        # every mid speed is at least 96.9 px, so only the lower clamp binds
        eps = max(0.02, (GAP / 2.0) / (along * along + 2.25 * span * span) ** 0.5)
        first, _ = _split(under, 0.5 - eps)
        _, second = _split(under, 0.5 + eps)
        sign_cls = "positive" if crossing.sign > 0 else "negative"
        body.append(
            '<g class="crossing %s %s" data-sign="%d">' % (sign_cls, crossing.position, crossing.sign)
        )
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
