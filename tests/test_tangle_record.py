"""A ``TangleDiagram`` reads its twists once, into a tuple, however it
is built: the record checks and keeps the same twists."""

import pytest

from pullcalc.diagrams.tangles import TangleDiagram, build_tangle, render_tangle_svg


def test_a_record_built_from_an_iterator_keeps_its_twists():
    d = TangleDiagram(iter([0, 1]))
    assert d.twists == (0, 1)
    assert render_tangle_svg(d) == render_tangle_svg(build_tangle([0, 1]))


def test_a_record_replaced_from_an_iterator_keeps_its_twists():
    d = TangleDiagram((0, 0))._replace(twists=iter([0, 1]))
    assert d == build_tangle([0, 1])
    assert len(d.crossings) == 2
    with pytest.raises(ValueError, match="bad twist code 4"):
        d._replace(twists=iter([0, 4]))


def test_a_record_built_from_a_list_is_immutable_and_hashable():
    twists = [0, 1]
    d = TangleDiagram(twists)
    twists.append(7)
    assert d.twists == (0, 1)
    assert not hasattr(d.twists, "append")
    assert hash(d) == hash(TangleDiagram((0, 1)))
