"""Rational tangle diagrams built twist by twist, and their SVG.

This module only draws.  Twist words (``words.parse_tangle``) and the
fraction of a tangle (``treewalk.tangle_number``) are arithmetic and
live with the turn words; the SVG's title is that fraction.  Each twist
is drawn as one %-format of a cached group template, its along numbers
written as integer tile offsets plus fixed decimal tails (``_along``).
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from ..kernel import Word
from ..treewalk import tangle_number
from .taffy import STROKE_WIDTH, _fmt, _Numbers, _svg

TANGLE_CAP = 10000  # most twists build_tangle will draw


class Crossing(NamedTuple):
    position: str  # "right-side" or "bottom-side"
    sign: int  # +1 for V/H, -1 for their inverses


class _TangleDiagram(NamedTuple):
    twists: tuple


class TangleDiagram(_TangleDiagram):
    """A tangle diagram is its twist word, read once into a tuple; the
    crossings are read off it."""

    __slots__ = ()

    def __new__(cls, twists):
        twists = tuple(twists)
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
    return TangleDiagram(twists)


# --- rendering ----------------------------------------------------------------

TILE = 60.0  # SVG pixels per crossing tile
GAP = 2.0 * STROKE_WIDTH  # how far the under strand stops short of the over strand
_HANDLE = 0.6  # Bezier control offset, as a fraction of the tile size
_PAD = 2.0 * STROKE_WIDTH + 2.0  # SVG pixels round the tiles
_ALONG = 1.5 * (TILE - _HANDLE * TILE)  # a twist's speed along at t = 1/2; across it is 1.5 * span


def _casteljau(p0, p1, p2, p3, t):
    """One axis of a cubic's de Casteljau split at t: the inner points
    a, d, f, e, c of its halves (p0, a, d, f) and (f, e, c, p3)."""
    a = p0 + (p1 - p0) * t
    b = p1 + (p2 - p1) * t
    c = p2 + (p3 - p2) * t
    d = a + (b - a) * t
    e = b + (c - b) * t
    return a, d, d + (e - d) * t, e, c


def _axis(under, over, eps):
    """One axis of a twist's twelve points in drawing order: the under
    strand up to t = 0.5 - eps, the under strand from 0.5 + eps, the
    over strand."""
    a, d, f, _, _ = _casteljau(*under, 0.5 - eps)
    _, _, g, e, c = _casteljau(*under, 0.5 + eps)
    return (under[0], a, d, f, g, e, c, under[3], *over)


def _eps(span):
    """Half the under strand's gap, in curve parameter, across span:
    GAP pixels at the mid speed.  Every mid speed is at least 96.9 px,
    so only the lower clamp binds; only span = TILE is above it."""
    return max(0.02, (GAP / 2.0) / (_ALONG * _ALONG + 2.25 * span * span) ** 0.5)


def _along(eps):
    """The along texts of a twist whose tile starts at a0, a whole
    number: per point a pair (i, f), the text being a0 + i in digits
    followed by the fixed decimal tail f.

    The points are those of the tile at 0, moved by a0.  At eps = 0.02,
    t is 12/25 or 13/25, so each exact point of the tile at 0 is a
    multiple of 25**-3 = 64e-6 and so at least 8e-6 from a %.2f rounding
    boundary (an odd multiple of 5e-3).  The float chain at a0 <= 600,060
    is off by a few 1e-10, so every text rounds as the exact value does.
    The one other eps (span = TILE) is checked at every a0 by the tests.
    """
    hd = _HANDLE * TILE
    tile = (0.0, hd, TILE - hd, TILE)
    texts = (_fmt(v + _PAD).partition(".") for v in _axis(tile, tile, eps))
    return tuple((int(i), dot + tail) for i, dot, tail in texts)


def render_tangle_svg(diagram: TangleDiagram) -> str:
    """Standalone SVG for a tangle diagram.

    Each crossing lives in its own TILE-sized tile (a new column on the
    right or a new row along the bottom) as two cubic curves; the under
    strand breaks for GAP pixels at the midpoint so the over strand
    reads clearly.  Columns and rows draw one template in (along,
    across) points, across the strand pair at 0 and span: a right-side
    twist writes them as (x, y), a bottom-side twist as (y, x).  Each
    twist is one %-format: the template of its side, sign and eps, with
    the across texts of its span filled in once, takes its twelve along
    numbers as the integers a0 + i (see ``_along``).
    """
    num = _Numbers()
    stroke = 'fill="none" stroke="#203050" stroke-width="%s" stroke-linecap="round"' % num[STROKE_WIDTH]
    templates, across, groups = {}, {}, {}

    def group(t, span):
        # twist t's group across span, with %d slots for a0 + each along offset
        eps = _eps(span)
        if (t, eps) not in templates:
            along = _along(eps)
            pts = ["%s %%d" + f if t & 1 else "%%d" + f + " %s" for _, f in along]
            lines = ['<g class="crossing %s %s" data-sign="%d">' % (
                "negative" if t & 2 else "positive", "bottom-side" if t & 1 else "right-side", -1 if t & 2 else 1)]
            for cls, k in (("under", 0), ("under", 4), ("over", 8)):
                lines.append('<path class="%s" d="M %s C %s, %s, %s" %s/>' % (cls, *pts[k : k + 4], stroke))
            templates[t, eps] = "\n".join([*lines, "</g>"]), tuple(i for i, _ in along)
        if (t & 2, span) not in across:
            keep = (0.0, 0.0, span, span)  # the strand that keeps its side, across
            under, over = (keep[::-1], keep) if t & 2 else (keep, keep[::-1])
            across[t & 2, span] = tuple([num[v + _PAD] for v in _axis(under, over, eps)])
        template, offsets = templates[t, eps]
        groups[t, span] = got = template % across[t & 2, span], offsets
        return got

    w = h = step = int(TILE)
    o, e = num[_PAD], num[TILE + _PAD]
    body = ['<path class="strand" d="M %s %s L %s %s" %s/>' % (o, y, e, y, stroke) for y in (o, e)]
    for t in diagram.twists:
        if t & 1:
            a0, span = h, w
            h += step
        else:
            a0, span = w, h
            w += step
        text, (i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11) = groups.get((t, span)) or group(t, span)
        body.append(text % (
            a0 + i0, a0 + i1, a0 + i2, a0 + i3, a0 + i4, a0 + i5,
            a0 + i6, a0 + i7, a0 + i8, a0 + i9, a0 + i10, a0 + i11))

    for label, (ex, ey) in sorted(diagram.endpoints.items()):
        body.append(
            '<circle class="end" data-corner="%s" cx="%s" cy="%s" r="%s" fill="#203050"/>'
            % (label, num[ex * TILE + _PAD], num[ey * TILE + _PAD], num[STROKE_WIDTH * 1.5])
        )

    title = "rational tangle %s" % (tangle_number(diagram.twists),)
    return _svg(w + 2.0 * _PAD, h + 2.0 * _PAD, title, body)
