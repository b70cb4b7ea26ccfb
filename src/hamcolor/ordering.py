"""Every walk along a vertex sequence: the pair window, ordering
certificates and the colorings an ordering induces.

A hamiltonian coloring must satisfy  d(u, v) + |h(u) - h(v)| >= n - 1  for
every vertex pair.  On trees whose weight-center lower bound is attained, an
optimal coloring can be read off a vertex ordering x_0 .. x_{n-1}: walk the
ordering and add, at each step,

    increment(i) = (n - 1 - b) - level(x_i) - level(x_{i+1})

where b is 1 for two weight centers and 0 for one.  ``check_spacing``, the
one certificate check, is the paper's necessary and sufficient condition:
the induced coloring attains the bound if and only if it holds.  It builds
that coloring in ``_arithmetic``, the one increment pass, and checks it
with ``_window``, the one pair check, along the same ordering
(``solver.verify_coloring`` runs the window over the vertices sorted by
color).  ``coloring_from_ordering`` is the coloring of that same pass for
any ordering, checked or not.  ``search_ordering`` is a deterministic greedy
that builds one ordering and returns its certificate, passing or not, as
``check_spacing`` does; only ``families.family_certificate`` raises on one.
It keeps a stack only for a branch of more than one vertex and pays a heap
step only for a vertex whose place is still open; with one weight center it
appends the tail of single-vertex branches (the leaves at a broom's hub) in
one sort, and a star, all tail, takes no heap at all.
``min_span_for_order`` is the greedy completion: the least valid colors
along any ordering, which completes ``solver.exact_hc``'s witness.

The certificates require n >= 4 and maximum degree >= 3.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import ClassVar, Sequence

from .bounds import lower_bound_weight, require_applicable
from .errors import InternalError, NegativeColorError, NotAPermutationError
from .tree import RootedView


@dataclass(frozen=True)
class Coloring:
    """Vertex colors indexed by vertex id, each exactly ``int``; any other
    color, a bool or a float too, is a ``NegativeColorError``."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(map(type, self.colors)) - {int}:
            raise NegativeColorError(f"bad color {next(c for c in self.colors if type(c) is not int)!r}")

    @property
    def span(self) -> int:
        return max(self.colors) - min(self.colors)

    def __len__(self) -> int:
        return len(self.colors)


@dataclass(frozen=True)
class Certificate:
    """Verdict of :func:`check_spacing` on an ordering.

    When ``ok``, ``ordering`` and ``coloring`` hold the ordering and its
    induced coloring, verified to attain the weight-center lower bound.
    Otherwise ``reason`` says why not, and ``violation`` is the failing pair
    of positions (None when the endpoint levels fail).
    """

    ok: bool
    violation: tuple[int, int] | None = None
    reason: str | None = None
    ordering: tuple[int, ...] | None = None
    coloring: Coloring | None = None
    kind: ClassVar[str] = "spacing"


def validate_ordering(n: int, order: Sequence[int]) -> list[int]:
    """Check that ``order`` is a permutation of 0..n-1 (n >= 1) whose entries
    are exactly ``int``, so ``True`` and ``1.0`` are refused, and return it
    as a list."""
    o = list(order)
    if len(o) != n or set(map(type, o)) != {int} or sorted(o) != list(range(n)):
        raise NotAPermutationError(f"ordering must be a permutation of 0..{n - 1}, got {o!r}")
    return o


def _window(rv: RootedView, seq: Sequence[int], cs: Sequence[int], first: int = 1):
    """Yield (i, j, need = n - 1 - d, gap) for each pair of positions i < j of
    ``seq`` that violates the condition, in (i, j) order.  ``cs[i]``, the
    color of ``seq[i]``, must not fall; pairs under ``first`` apart are skipped.

    Only pairs less than n - 1 colors apart can violate.  Vertices in
    different branches meet through the center(s): only same-branch pairs
    ask ``rv._distance``."""
    n, reach = rv.n, rv.n - 1
    level, branch, side, b = rv.level, rv.branch, rv.side, rv.bicentral
    for i in range(n - first):
        cu = cs[i]
        if cs[i + first] - cu >= reach:  # empty window: read nothing else
            continue
        u = seq[i]
        lu, bu, su = level[u], branch[u], side[u]
        j = i + first
        while True:
            v = seq[j]
            if bu is None or bu != branch[v]:
                need = reach - lu - level[v] - (b and su != side[v])
            else:
                need = reach - rv._distance(u, v)  # ids from range(n) or an ordering
            if (gap := cs[j] - cu) < need:
                yield i, j, need, gap
            j += 1
            if j == n or cs[j] - cu >= reach:
                break


def check_spacing(rv: RootedView, order: Sequence[int]) -> Certificate:
    """Certify ``order``: the exact condition for its induced coloring to
    attain the weight-center lower bound.

    Beyond the endpoint levels, every pair i < j must satisfy

        d(x_i, x_j) >= sum_{t=i}^{j-1} (level(x_t) + level(x_{t+1}))
                       - (j - i) * (n - 1 - b) + (n - 1).

    Its case j = i + 1, d >= level + level + b, is the paper's clause that
    consecutive vertices share no branch (two centers: lie on opposite
    sides).  One pass, :func:`_arithmetic`, adds up the increments, so the
    colors rise along the ordering; the window walk checks the pairs along
    it in (i, j) order, with no sort, and reports the first that fails.  The
    pass tests branches and sides only to set where the walk starts: a
    consecutive pair sharing neither passes, its gap being n - 1 - d, so the
    walk skips those pairs unless one shares.  On success the certificate
    holds the ordering and the coloring that was verified.
    """
    require_applicable(rv.tree)
    o = validate_ordering(rv.n, order)
    n, level, b = rv.n, rv.level, 1 if rv.bicentral else 0
    # one center: it and a level-1 vertex end the ordering; two: both centers
    if level[o[0]] + level[o[-1]] != 1 - b:
        return Certificate(False, None, f"endpoint levels {level[o[0]]}+{level[o[-1]]} != {1 - b}")
    colors, cs, first = _arithmetic(rv, o)
    bad = next(_window(rv, o, cs, first), None)
    if bad is None:
        # the span is (n-1)(n-1-b) - 2*total_level plus the endpoint levels
        if cs[-1] != (lb := lower_bound_weight(rv)):
            raise InternalError(f"certified span {cs[-1]} != weight-center bound {lb}")
        return Certificate(True, ordering=tuple(o), coloring=Coloring(tuple(colors)))
    i, j, need, gap = bad
    return Certificate(False, (i, j), f"positions {i},{j}: distance {n - 1 - need} < required {n - 1 - gap}")


def _arithmetic(rv: RootedView, o: list[int]) -> tuple[list[int], list[int], int]:
    """The increment pass along the validated ``o``: the arithmetic colors by
    vertex and by position, and where :func:`check_spacing`'s walk starts.
    The span is (n - 1)(n - 1 - b) - 2 * total_level + L(x_0) + L(x_{n-1}).

    No increment is negative, as L(u) + L(v) <= n - 1 - b for u != v.  A
    branch B holds at most n/2 vertices, n/2 - 1 with two centers, among
    them the L(v) on the path from each v in B up to its center.  So
    L(u) + L(v) is at most the n - 1 - b vertices outside the centers when
    u and v share no branch, and at most 2|B| - 1 <= n - 1 - 2b when both
    lie in B, as L(u) = L(v) = |B| makes B a path with one vertex at level
    |B|.  A negative increment is therefore an ``InternalError``.
    """
    b = 1 if rv.bicentral else 0
    level, branch, side = rv.level, rv.branch, rv.side
    base, colors, cs, c, first = rv.n - 1 - b, [0] * rv.n, [0], 0, 2
    for u, v in zip(o, o[1:]):
        if (branch[u] is not None and branch[u] == branch[v]) or (b and side[u] == side[v]):
            first = 1  # this consecutive pair fails: the walk must see it
        if (inc := base - level[u] - level[v]) < 0:
            raise InternalError("negative increment between consecutive vertices")
        c += inc
        colors[v] = c
        cs.append(c)
    return colors, cs, first


def coloring_from_ordering(rv: RootedView, order: Sequence[int]) -> Coloring:
    """Arithmetic coloring along ``order`` (see :func:`_arithmetic`)."""
    return Coloring(tuple(_arithmetic(rv, validate_ordering(rv.n, order))[0]))


def min_span_for_order(rv: RootedView, order: Sequence[int]) -> Coloring:
    """Greedy completion: each vertex takes the least color consistent with
    everything placed before it.  Minimal among colorings whose sorted vertex
    order refines ``order`` (ties allowed); always a valid coloring.  Colors
    rise along ``order`` and a vertex asks at most n - 2 above its own, so the
    placed vertices are scanned newest-first until one is that far below."""
    o = validate_ordering(rv.n, order)
    n = rv.n
    distance = rv._distance  # the ids come from the validated ordering
    colors = [0] * n
    for i in range(1, n):
        v = o[i]
        c = 0
        for j in range(i - 1, -1, -1):
            u = o[j]
            if colors[u] + n - 2 <= c:
                break
            c = max(c, colors[u] + n - 1 - distance(u, v))
        colors[v] = c
    return Coloring(tuple(colors))


def _branch_queues(rv: RootedView) -> list[list[int] | None]:
    """Per-branch stacks popping deepest-first (ties to the smaller id), and
    None for a branch that is its root alone.

    The root of a branch is its one level-1 vertex, so it sits at the bottom
    of its stack.  One stable sort by level of the ids in descending order
    puts the centers and the roots first and then every deeper vertex by
    (level, -id), which is the stack order above the root; each vertex past
    the centers and roots has a root of degree > 1, so its branch has a
    stack."""
    adj, branch = rv.tree.adj, rv.branch
    queues = [[r] if len(adj[r]) > 1 else None for r in rv.branch_roots]
    skip = len(rv.weight_centers) + len(queues)
    for v in sorted(range(rv.n - 1, -1, -1), key=rv.level.__getitem__)[skip:]:
        queues[branch[v]].append(v)  # type: ignore[union-attr]
    return queues


def search_ordering(rv: RootedView) -> Certificate:
    """Deterministic greedy: start at a weight center, then repeatedly take the
    deepest unplaced vertex from an allowed branch (a different branch with one
    center, the opposite side with two), preferring branches with the most
    unplaced vertices and breaking ties by smallest branch id.  Returns the
    ordering's :func:`check_spacing` certificate, passing or not, and raises
    nothing of its own.  A failing certificate means only that this one
    ordering fails the condition, which is not a proof that no ordering
    passes it (nor that hc exceeds the bound).

    The branches wait in one heap per weight center (one heap in all with one
    center), keyed by the int -unplaced * nb + branch id (nb branches; ordered
    as (-unplaced, branch id), key % nb is the branch), so each step costs
    O(log n) instead of a scan over every branch.  One loop places the
    vertices: it pops the top key, pushes back the branch taken at the
    previous step if that branch still has vertices, takes the popped
    branch's deepest vertex (the top of its stack, or its root when
    :func:`_branch_queues` gave it none), keeps that branch as the next
    step's push-back if it has a vertex left (its key rises by nb) and
    switches to the other side's heap.  With one center the previous branch
    is thus out of the heap during exactly the pop that must skip it; with
    two it re-enters its own heap before that heap's next pop.

    With one center the loop stops at a single-vertex tail.  When a step
    empties its branch and the top key is at least -nb, every branch left
    holds one vertex.  From there each step sees every count at 1 and the
    previous branch empty, so it takes the smallest branch id left, and its
    own branch empties in turn: the tail is the remaining branches in
    ascending id, which is their keys sorted.  Each of them holds its root
    alone, as a stack keeps its root at the bottom.

    A star (one center, every branch its root alone, so n = nb + 1) needs no
    keys and no heap.  There every key is bid - nb, so the first pop takes
    branch 0, the smallest key, and empties it; the top key left is at
    least -nb, so the tail rule fires at once and appends the other
    branches in ascending id.  The ordering is thus the center and then the
    roots of branches 0 .. nb - 1, which is ``branch_roots`` (with nb = 0
    it is the center alone, as the loop never runs).  Only
    :func:`check_spacing`, at the end, checks applicability: a tree it
    rejects is a path, whose two equal branches at one center, or one at
    each of two, never empty a heap before the loop ends; the paths of at
    most three vertices take the star's ordering, which the loop would give
    them too.
    """
    centers, roots = sorted(rv.weight_centers), rv.branch_roots
    nb = len(roots)
    if not rv.bicentral and rv.n == 1 + nb:
        return check_spacing(rv, [centers[0], *roots])  # a star: all tail
    queues = _branch_queues(rv)
    keys = [bid - (1 if q is None else len(q)) * nb for bid, q in enumerate(queues)]
    if rv.bicentral:
        heap, other = [], []  # at the second center, where the first pop goes, and at the first
        for key, root in zip(keys, roots):
            (heap if rv.side[root] == centers[1] else other).append(key)
        heapq.heapify(other)
    else:
        heap = other = keys
    heapq.heapify(heap)
    order, pending = [centers[0]], None
    for _ in range(rv.n - len(centers)):
        if not heap:
            # a branch at one weight center holds fewer than n/2 vertices, and
            # each side of two centers holds n/2 - 1 besides its center
            raise InternalError("no allowed branch has an unplaced vertex")
        key = heapq.heappop(heap)
        if pending is not None:
            heapq.heappush(*pending)
        bid = key % nb
        q = queues[bid]
        order.append(roots[bid] if q is None else q.pop())
        pending = (heap, key + nb) if q else None
        if pending is None and not rv.bicentral and heap and heap[0] >= -nb:
            order += [roots[k % nb] for k in sorted(heap)]
            break
        heap, other = other, heap
    order += centers[1:]
    return check_spacing(rv, order)
