"""Coloring verification and the exact solver.

``verify_coloring`` sorts the vertices by color and checks the hamiltonian
condition with the window walk of ``ordering``, where every walk along a
vertex sequence lives.  Only the exact kernel builds an n x n distance matrix.

``exact_hc`` minimises, over all vertex orderings, the span of the greedy
color completion along the ordering (``ordering.min_span_for_order``); the
completion is pointwise minimal for a fixed ordering, so the overall minimum
is the hamiltonian chromatic number.
The search runs on the pure-Python kernel in ``_bnb_py``, which
:func:`search_backend` names for benchmark records, and which reads the
rooting of the ``RootedView`` ``exact_hc`` was given: the tree is rooted
once per call and its distance matrix built once, as rows, by rerooting the
search from vertex 0 rather than by n searches.  Node budgets are
deterministic, so runs are reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .bounds import lower_bound_weight
from .errors import (
    BadParamsError,
    IncompleteColoringError,
    InternalError,
    NegativeColorError,
    TooLargeError,
)
from .ordering import Coloring, _window, min_span_for_order
from . import _bnb_py as _kernel
from .tree import RootedView


def search_backend() -> str:
    """Name of the search kernel, which perfbench records: always "python"."""
    return "python"


@dataclass(frozen=True)
class Violation:
    u: int
    v: int
    required: int  # n - 1 - d(u, v)
    actual: int    # |h(u) - h(v)|


@dataclass(frozen=True)
class ExactResult:
    """``ub`` is the witness span, an upper bound on the hamiltonian
    chromatic number.  ``lb`` is the weight-center bound, valid on every
    tree, and the span is proved optimal when the search was exhausted or the
    span meets ``lb``; only then is it ``hc``, which is None otherwise."""

    ub: int
    witness: Coloring
    explored: int
    limit_hit: bool
    lb: int

    @property
    def proved_optimal(self) -> bool:
        return not self.limit_hit or self.ub == self.lb

    @property
    def hc(self) -> int | None:
        return self.ub if self.proved_optimal else None


def verify_coloring(rv: RootedView, coloring: Coloring) -> list[Violation]:
    """All pairs violating  d(u, v) + |h(u) - h(v)| >= n - 1;  empty means valid.

    ``Coloring`` proves the colors ints; a negative one is refused.  The
    vertices are sorted by color and walked by the color window, so no
    distance matrix is built and a certified coloring, its colors spread
    out, verifies in near linear time.  Violations come sorted by (u, v),
    with u < v.
    """
    n = rv.n
    colors = coloring.colors
    if len(colors) != n:
        raise IncompleteColoringError(f"{len(colors)} colors for {n} vertices")
    if min(colors) < 0:
        raise NegativeColorError(f"bad color {next(c for c in colors if c < 0)!r}")
    by_color = sorted(range(n), key=colors.__getitem__)
    out = [
        Violation(*sorted((by_color[i], by_color[j])), need, gap)
        for i, j, need, gap in _window(rv, by_color, [colors[v] for v in by_color])
    ]
    return sorted(out, key=lambda viol: (viol.u, viol.v))


def exact_hc(rv: RootedView, budget: int | None = None) -> ExactResult:
    """Exact hamiltonian chromatic number by branch-and-bound over orderings.

    Searches to exhaustion unless a node ``budget`` (at least 0) is given;
    the only refusal is a search whose unpruned first dive, min(n, budget)
    frames, passes the recursion limit.  When the budget runs out, the best
    completed coloring so far is returned with ``limit_hit`` set.  Its span
    ``ub`` is then only an upper bound on the hamiltonian chromatic number,
    and ``hc`` is None, unless the span meets ``lb``, which proves it optimal.
    """
    n = rv.n
    if budget is not None and budget < 0:
        raise BadParamsError(f"budget must be >= 0, got {budget}")
    if min(n, n if budget is None else budget) >= sys.getrecursionlimit():
        raise TooLargeError(f"n={n} is too deep for the recursive exact search")
    lb = lower_bound_weight(rv)
    try:
        span, order, nodes, hit = _kernel.bnb_exact((), n, -1 if budget is None else budget, (), -1, rv)
    except RecursionError:  # the kernel recurses once per placed vertex
        raise TooLargeError(f"n={n} is too deep for the recursive exact search") from None
    if order is None:
        # budget exhausted before any leaf, so ``hit`` is set: fall back to a
        # greedy completion
        witness = min_span_for_order(rv, list(range(n)))
        span = witness.span
    else:
        witness = min_span_for_order(rv, order)
        if witness.span != span:
            raise InternalError(f"kernel span {span} disagrees with greedy completion {witness.span}")
    if span < lb:
        raise InternalError(f"span {span} is below the weight-center bound {lb}")
    return ExactResult(span, witness, nodes, hit, lb)
