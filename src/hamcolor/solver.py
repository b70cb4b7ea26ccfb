"""Coloring verification and the exact solver.

``exact_hc`` minimises, over all vertex orderings, the span of the greedy
color completion along the ordering; the completion is pointwise minimal for
a fixed ordering, so the overall minimum is the hamiltonian chromatic number.
The search runs on a compiled kernel when the extension built, with an
identical pure-Python fallback (query :func:`search_backend`).  Node budgets
are deterministic, so runs are reproducible; with ``workers > 1`` the
top-level (first, second) vertex choices are partitioned over processes, the
budget is split evenly, and the combined answer equals the sequential one.
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadParamsError,
    IncompleteColoringError,
    InternalError,
    NegativeColorError,
    TooLargeError,
)
from .ordering import Coloring, validate_ordering
from .tree import RootedView

if os.environ.get("HAMCOLOR_PURE_KERNEL"):
    from . import _bnb_py as _kernel

    _BACKEND = "python"
else:
    try:
        from . import _bnb as _kernel  # type: ignore[no-redef]

        _BACKEND = "cython"
    except ImportError:
        from . import _bnb_py as _kernel  # type: ignore[no-redef]

        _BACKEND = "python"


def search_backend() -> str:
    """Name of the active search kernel: "cython" or "python"."""
    return _BACKEND


@dataclass(frozen=True)
class Violation:
    u: int
    v: int
    required: int  # n - 1 - d(u, v)
    actual: int    # |h(u) - h(v)|


@dataclass(frozen=True)
class ExactResult:
    hc: int
    witness: Coloring
    explored: int
    limit_hit: bool


def verify_coloring(rv: RootedView, coloring: Coloring) -> list[Violation]:
    """All pairs violating  d(u, v) + |h(u) - h(v)| >= n - 1;  empty means valid.

    Distinct vertices are at distance at least 1, so only pairs whose color
    gap is below n - 1 can violate.  The vertices are sorted by color and
    each one is compared with the vertices after it while the gap stays
    below n - 1.  No distance matrix is built, and the distance queries
    number the pairs inside that window: a few per vertex when the colors
    are spread out, as certified colorings are.  Violations come sorted by
    (u, v), with u < v.
    """
    n = rv.n
    colors = coloring.colors
    if len(colors) != n:
        raise IncompleteColoringError(f"{len(colors)} colors for {n} vertices")
    for c in colors:
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise NegativeColorError(f"bad color {c!r}")
    by_color = sorted(range(n), key=colors.__getitem__)
    out = []
    for i, u in enumerate(by_color):
        cu = colors[u]
        j = i + 1
        while j < n and (gap := colors[by_color[j]] - cu) < n - 1:
            v = by_color[j]
            need = n - 1 - rv.detour_distance(u, v)
            if gap < need:
                out.append(Violation(min(u, v), max(u, v), need, gap))
            j += 1
    out.sort(key=lambda viol: (viol.u, viol.v))
    return out


def min_span_for_order(rv: RootedView, order: Sequence[int]) -> Coloring:
    """Greedy completion: each vertex takes the least color consistent with
    everything placed before it.  Minimal among colorings whose sorted vertex
    order refines ``order`` (ties allowed); always a valid coloring."""
    o = validate_ordering(rv.n, order)
    n = rv.n
    dm = rv.tree.distance_matrix()
    colors = [0] * n
    for i in range(1, n):
        v = o[i]
        row = dm[v]
        c = 0
        for j in range(i):
            lo = colors[o[j]] + n - 1 - row[o[j]]
            if lo > c:
                c = lo
        colors[v] = c
    return Coloring(tuple(colors))


def _flat_distances(rv: RootedView) -> array:
    dm = rv.tree.distance_matrix()
    return array("i", [d for row in dm for d in row])


def _run_chunk(args: tuple) -> tuple[int, list[int] | None, int, bool]:
    dist, n, budget, prefixes = args
    best_span = -1
    best_order = None
    nodes = 0
    hit = False
    for p in prefixes:
        span, order, used, limited = _kernel.bnb_exact(dist, n, budget - nodes if budget >= 0 else -1, p, best_span)
        nodes += used
        hit = hit or limited
        if order is not None and (best_span < 0 or span < best_span):
            best_span = span
            best_order = order
        if budget >= 0 and nodes >= budget:
            hit = True
            break
    return best_span, best_order, nodes, hit


def exact_hc(rv: RootedView, limit: int = 10, budget: int | None = None, workers: int = 1) -> ExactResult:
    """Exact hamiltonian chromatic number by branch-and-bound over orderings.

    Refuses trees larger than ``limit`` vertices (raise the limit explicitly to
    go bigger).  When a node ``budget`` is given and runs out, the best
    completed coloring so far is returned with ``limit_hit`` set -- an upper
    bound, not a certified optimum.
    """
    n = rv.n
    if n > limit:
        raise TooLargeError(f"n={n} exceeds the exact-search limit {limit}")
    if workers < 1:
        raise BadParamsError(f"workers must be >= 1, got {workers}")
    dist = _flat_distances(rv)
    b = -1 if budget is None else max(0, budget)
    if workers == 1 or n < 4:
        span, order, nodes, hit = _kernel.bnb_exact(dist, n, b, (), -1)
    else:
        prefixes = [(a, c) for a in range(n) for c in range(n) if a != c]
        chunks: list[list[tuple[int, int]]] = [[] for _ in range(workers)]
        for i, p in enumerate(prefixes):
            chunks[i % workers].append(p)
        per_chunk = -1 if b < 0 else max(1, b // workers)
        span, order, nodes, hit = -1, None, 0, False
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cspan, corder, cnodes, chit in pool.map(
                _run_chunk, [(dist, n, per_chunk, chunk) for chunk in chunks]
            ):
                nodes += cnodes
                hit = hit or chit
                if corder is not None and (span < 0 or cspan < span):
                    span, order = cspan, corder
    if order is None:
        # budget exhausted before any leaf: fall back to a greedy completion
        witness = min_span_for_order(rv, list(range(n)))
        return ExactResult(witness.span, witness, nodes, True)
    witness = min_span_for_order(rv, order)
    if witness.span != span:
        raise InternalError(f"kernel span {span} disagrees with greedy completion {witness.span}")
    return ExactResult(span, witness, nodes, hit)
