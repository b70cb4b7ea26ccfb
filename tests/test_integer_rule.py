"""One integer rule: a vertex id, an ordering entry and a color is exactly
``int``.  A bool, an ``IntEnum`` member, a float and an object with
``__index__``, each standing for 1, are refused where they enter, with the
error that entry raises for any bad value."""

import enum

import pytest

from hamcolor.errors import BadVertexIdError, NegativeColorError, NotAPermutationError
from hamcolor.families import generate
from hamcolor.ordering import Coloring, check_spacing, coloring_from_ordering, min_span_for_order
from hamcolor.solver import verify_coloring
from hamcolor.tree import Tree, analyze


class One(enum.IntEnum):
    ONE = 1


class Index:
    """Read as 1 by ``operator.index``."""

    def __index__(self) -> int:
        return 1


@pytest.mark.parametrize("one", [True, One.ONE, 1.0, Index()], ids=["bool", "IntEnum", "float", "index"])
def test_only_exact_ints_enter(one):
    rv = analyze(generate("star", {"n": 5})[0])  # hub 0, leaves 1..4
    with pytest.raises(BadVertexIdError):
        Tree(one, [])
    with pytest.raises(BadVertexIdError):
        Tree(3, [(0, one), (one, 2)])
    with pytest.raises(BadVertexIdError):
        rv.detour_distance(one, 0)
    for read in (check_spacing, coloring_from_ordering, min_span_for_order):
        with pytest.raises(NotAPermutationError):
            read(rv, [0, one, 2, 3, 4])
    colors = (0, one, 5, 9, 13)
    with pytest.raises(NegativeColorError):
        Coloring(colors)
    with pytest.raises(NegativeColorError):  # verify_coloring's input is refused as it is built
        verify_coloring(rv, Coloring(colors))
