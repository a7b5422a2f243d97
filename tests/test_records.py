"""The package's records are immutable NamedTuples with value semantics.

The repr strings are the ones the records printed as frozen
dataclasses, so any change to how a record prints shows up here.
"""

import pytest

from pullcalc.analysis import cw_row
from pullcalc.diagrams.geometry import (
    HalfCircle,
    Segment,
    bounding_box,
    comes_within,
    piece_intersections,
)
from pullcalc.diagrams.taffy import build_taffy, verify_taffy
from pullcalc.diagrams.tangles import TangleDiagram
from pullcalc.rationals import make
from pullcalc.treewalk import canonical_word

RECORDS = {
    "CanonicalClass": (
        lambda: canonical_word(make(-3, 2)),
        "CanonicalClass(tag='reverse', word=(2, 3, 2))",
    ),
    "RowListing": (
        lambda: cw_row(2),
        "RowListing(depth=2, entries=(ExtRational(1, 2), ExtRational(2, 1)))",
    ),
    "TaffyDiagram": (
        lambda: build_taffy(make(0, 1)),
        "TaffyDiagram(pegs=((0.0, 0.0), (8.0, 0.0), (16.0, 0.0)), "
        "strand=(Segment(start=(0.5, 0.0), end=(4.0, 0.0)), "
        "Segment(start=(4.0, 0.0), end=(7.5, 0.0))), counts=LayerCounts(right=0, left=1))",
    ),
    "TaffyReport": (
        lambda: verify_taffy(build_taffy(make(2, 3))),
        "TaffyReport(expected=LayerCounts(right=2, left=3), measured=LayerCounts(right=2, left=3), "
        "single_arc=True, ends_on_pegs=True, embedded=True)",
    ),
    "Segment": (
        lambda: Segment((0.0, 0.0), (1.0, 2.0)),
        "Segment(start=(0.0, 0.0), end=(1.0, 2.0))",
    ),
    "HalfCircle": (
        lambda: HalfCircle((0.0, 0.0), 2.0, "west", False),
        "HalfCircle(center=(0.0, 0.0), radius=2.0, side='west', start_at_top=False)",
    ),
    "TangleDiagram": (
        lambda: TangleDiagram((0, 1, 3)),
        "TangleDiagram(twists=(0, 1, 3))",
    ),
}

each_record = pytest.mark.parametrize("name", sorted(RECORDS))


@each_record
def test_a_record_prints_as_before(name):
    build, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text


@each_record
def test_a_record_refuses_assignment(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@each_record
def test_a_record_is_its_fields(name):
    build = RECORDS[name][0]
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a == tuple(getattr(a, field) for field in a._fields)


ARC = HalfCircle((0.0, 0.0), 2.0, "east")
CHORD = Segment(ARC.start, ARC.end)  # the same two poles, joined straight


def test_a_segment_never_equals_a_half_circle():
    assert CHORD != ARC
    assert len({CHORD, ARC}) == 2


def test_pieces_dispatch_on_their_type():
    assert piece_intersections(CHORD, ARC) == piece_intersections(ARC, CHORD) == (2, False)
    assert piece_intersections(CHORD, CHORD) == piece_intersections(ARC, ARC) == (0, True)
    assert bounding_box(CHORD) == (0.0, -2.0, 0.0, 2.0)
    assert bounding_box(ARC) == (0.0, -2.0, 2.0, 2.0)
    assert comes_within(ARC, (2.0, 0.0), 0.5)
    assert not comes_within(CHORD, (2.0, 0.0), 0.5)


CHECKED = [
    pytest.param(HalfCircle, {"side": "north"}, "side must be 'west' or 'east'", id="side"),
    pytest.param(HalfCircle, {"radius": 0}, "radius must be positive", id="radius-0"),
    pytest.param(HalfCircle, {"radius": -1}, "radius must be positive", id="radius-1"),
    pytest.param(TangleDiagram, {"twists": (0, 5)}, "bad twist code 5", id="code-5"),
]
GOOD = {
    HalfCircle: {"center": (0.0, 0.0), "radius": 2.0, "side": "west", "start_at_top": True},
    TangleDiagram: {"twists": (0, 1)},
}
ROUTES = {
    "positional": lambda cls, fields, bad: cls(*{**fields, **bad}.values()),
    "keyword": lambda cls, fields, bad: cls(**{**fields, **bad}),
    "_make": lambda cls, fields, bad: cls._make({**fields, **bad}.values()),
    "_replace": lambda cls, fields, bad: cls(**fields)._replace(**bad),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("cls, bad, message", CHECKED)
def test_a_checked_record_refuses_bad_fields_by_every_route(route, cls, bad, message):
    with pytest.raises(ValueError) as caught:
        ROUTES[route](cls, GOOD[cls], bad)
    assert str(caught.value) == message
    assert ROUTES[route](cls, GOOD[cls], {}) == tuple(GOOD[cls].values())
