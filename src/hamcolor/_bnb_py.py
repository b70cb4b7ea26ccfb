"""Branch-and-bound kernel for the exact solver, in pure Python.

The search space is vertex orderings.  Colors are completed greedily along an
ordering: each newly placed vertex takes the smallest color satisfying every
constraint against the already-placed ones, which is pointwise minimal, so
minimising the completed span over all orderings yields the exact answer.
Because tree distances never exceed n-1, greedy colors never decrease along
the ordering and the span of a partial placement is simply the last color.

The weight center(s), the levels L below them, each vertex's parent and the
distance rows are read from the caller's ``RootedView``, the rooting of
``tree.py``; a caller with only a flat distance matrix gets that rooting of
its pairs at distance 1, a fallback kept for the five-argument call.  b is 1
when there are two centers.  Every path between two vertices may detour
through the center(s), so d(u, v) <= L(u) + L(v) + b.

Seven pruning rules, each sound for the reason given:

1. Pending color.  An unplaced vertex already forced to color p ends at p or
   later, so the span is at least p; a placement that forces some color to
   the incumbent is counted but not descended into.
2. Suffix bound.  Consecutive vertices of an ordering differ in color by at
   least n-1-d(u, v) >= n-1-b-L(u)-L(v).  Summed over the rest of the
   ordering, placing v at color c with ``rem`` >= 1 vertices left and
   unplaced level sum S gives a span of at least
   c + rem*(n-1-b) - L(v) - 2*S + L(last): the weight-center bound applied
   to every suffix.  L(last) is at least the least level among the unplaced
   vertices other than v, at least L(first) under rule 5, and at least
   L(first) + 1 under rule 6.  A candidate it rules out is skipped and the
   scan goes on.
3. Twin symmetry.  Two leaves with a common neighbour p are twins, and so
   are the two vertices of a tree with n = 2.  A leaf u of p has
   d(u, w) = 1 + d(p, w) for every other vertex w, so swapping two twins is
   an isometry: it maps orderings to orderings of the same span, and twins
   are placed in ascending id order.
4. Target stop.  At the root the suffix bound reads
   (n-1)*(n-1-b) + (1-b) - 2*sum(L), the weight-center lower bound (the 1-b
   because a lone center cannot be both ends of the ordering; 0 when n = 1).
   Once the incumbent reaches it, nothing can beat it and the search ends.
5. Reversal.  If an ordering's greedy completion h has span s, then s - h is
   a valid coloring whose colors rise along the reversed ordering, so the
   reversed ordering completes to a span of at most s (and so exactly s).
   Some optimal ordering therefore has L(first) <= L(last), and rule 2 may
   count L(first) for L(last).  Twin swaps preserve levels, so rules 3 and 5
   hold together.
6. Reversal tie-break.  Some optimal ordering keeps rule 3's twin order and
   has (L(first), first) < (L(last), last).  Take an optimal ordering in
   twin order whose ends compare the other way (they differ, as first !=
   last).  Its reverse has the same span by rule 5 and its ends in order.
   Sorting each twin class into ascending id along it keeps the span by
   rule 3 and every level, and it can only lower the id in first place and
   raise the id in last place, so the ends stay in order.  Rule 2 may
   therefore count L(first) + 1 for L(last) whenever no unplaced vertex
   other than the candidate has level L(first) and an id above first.
   ``place`` carries the number of those vertices down as an int, counted
   at the root and decremented when one is placed.
7. Orbits.  An automorphism of the tree maps orderings to orderings of the
   same span, and it keeps the weight center(s), every level and so every
   vertex's parent, its neighbour one level up.  Among the images of an
   optimal ordering under the automorphisms and reversal, take one whose
   (L(first), first, second) is least, then sort its twin classes into
   ascending id along it: that is an automorphism too, so it cannot lower
   first or second and keeps them.  The result keeps rule 3's twin order
   and rule 6 (its reverse is an image), its first vertex is the least of
   its orbit, and when every automorphism fixes first, so is its second.
   So only such vertices are tried at the first two positions.  Two
   vertices share an orbit exactly when their paths from a center pass
   subtrees that are isomorphic level by level: ``least_in_orbit`` numbers
   the subtrees bottom-up and the paths top-down.  Vertices of one orbit
   have one level and one forced color where the rule applies, so they
   share a key and come in id order among the candidates with that key and
   color, and rule 2 never keeps a vertex while dropping a smaller one of
   its orbit or of that run: a candidate that passes rule 2 and is not
   the least of its orbit comes right after another that passed with its
   key and color.  Only such a candidate is looked up, and the orbits are
   computed at the first one, never in a search that ends in its first
   dive.

Candidates are visited by (c + L(v), c, v): c + L(v) is the part of rule 2's
bound that varies with v, so the orderings it favours, and with them good
incumbents, come first.

Each placement makes one pass over the vertices left unplaced after it.  For
each one the pass computes its forced color and writes it to a list that the
node allocates once and hands to each of its children in turn, so the search
holds one such list per depth of its current path and nothing sized by the
budget; a child reads only its own unplaced vertices, which its pass has
just written.  A forced color that reaches the incumbent ends the pass, and
the child is never called: rule 1 fires in the parent, before the call.
The pass also builds the child's candidate list: rule 3 leaves out each twin
whose smaller twin is unplaced, and rule 2 leaves out each key that reaches
the incumbent already with the least unplaced level as L(last), which no
vertex's own end can undercut.  A child whose list comes out empty would
place nothing, so it is not called either.  The child checks rule 2
again with its candidate's exact L(last) and the incumbent of the moment,
which only falls, so each rule drops exactly the candidates it dropped when
every node rescanned all n vertices, and the search, its order and its node
count are those of that scan.  The unplaced vertices are passed down in
ascending level order, so the two least levels are the first two.
"""

from __future__ import annotations

from typing import Sequence

from .bounds import lower_bound_weight
from .errors import BadParamsError
from .tree import RootedView, Tree


def twin_before(tree: Tree) -> list[int]:
    """For each vertex v, the largest twin of v below it, or -1: the previous
    leaf with v's neighbour (module docstring, rule 3)."""
    before = [-1] * tree.n
    if tree.n == 2:
        before[1] = 0
        return before
    last_leaf: dict[int, int] = {}  # neighbour -> its largest leaf so far
    for v, nbrs in enumerate(tree.adj):
        if len(nbrs) == 1:
            p = nbrs[0]
            before[v] = last_leaf.get(p, -1)
            last_leaf[p] = v
    return before


def least_in_orbit(rv: RootedView) -> list[int]:
    """For each vertex, the least vertex of its orbit under the automorphisms
    of the tree (module docstring, rule 7), from its rooting at the weight
    center(s)."""
    n, level, parent = rv.n, rv.level, rv.parent
    by_level = sorted(range(n), key=level.__getitem__)
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    # shape[v] numbers the subtree below v up to isomorphism (0: a leaf),
    # key[v] the shapes along the path from a center down to v
    shape = [0] * n
    shapes: dict[tuple[int, ...], int] = {(): 0}
    for v in reversed(by_level):
        if kids[v]:
            shape[v] = shapes.setdefault(tuple(sorted([shape[k] for k in kids[v]])), len(shapes))
    key = [0] * n
    keys: dict[tuple[int, int], int] = {}
    for v in by_level:
        p = parent[v]
        key[v] = keys.setdefault((-1 if p is None else key[p], shape[v]), len(keys))
    least: dict[int, int] = {}
    return [least.setdefault(k, v) for v, k in enumerate(key)]


def bnb_exact(
    dist: Sequence[int],
    n: int,
    budget: int = -1,
    prefix: Sequence[int] = (),
    incumbent: int = -1,
    rv: RootedView | None = None,
):
    """Minimise the greedy-completion span over all vertex orderings.

    dist       flat row-major distance matrix of a tree, length n*n; read
               only without ``rv``, and then only where it equals 1
    budget     maximum number of vertex placements, or -1 for unlimited
    prefix     must be ``()``, and
    incumbent  must be -1 (else BadParamsError): both slots exist only for
               the five-argument call ``bnb_exact(dist, n, -1, (), -1)``
    rv         the tree's ``RootedView``, read for the weight center(s),
               levels, parents, leaves and distance rows; None roots the
               pairs at distance 1 of ``dist`` (NotATreeError when they are
               no tree), the same search node for node, which keeps that
               matrix-only call working

    Returns ``(best_span, best_order, nodes, limit_hit)``; ``best_order`` is
    None (and ``best_span`` -1) only when the budget ran out before the
    first complete ordering.
    """
    if prefix or incumbent != -1:
        raise BadParamsError(f"the search takes no prefix and no incumbent, got {tuple(prefix)}, {incumbent}")
    if rv is None:
        rv = RootedView(Tree(n, [(v, w) for v in range(n) for w in range(v) if dist[v * n + w] == 1]))
    rows = rv.tree.distance_matrix()  # rows[v][w] = d(v, w)
    level = rv.level
    step = n - 2 if rv.bicentral else n - 1
    target = lower_bound_weight(rv)
    # before[v]: the largest twin of v below it, which must be placed first;
    # n, which counts as placed, when v has none
    before = [t if t >= 0 else n for t in twin_before(rv.tree)]
    used = [False] * n + [True]
    order = [0] * n
    nodes = 0
    limit_hit = False
    stop = False
    # colors rise by at most n-2 per placement, so every span and key is
    # below n*n: until the first complete ordering, n*n prunes nothing
    best_span = n * n
    best_order = None
    orbit = None  # least_in_orbit, computed when rule 7 first has a choice

    def place(m: int, cand: list, unplaced: list, unplaced_level: int, ties: int, fm: list) -> None:
        """Try each candidate (key, c, v), key = c + L(v), at position m.
        ``unplaced`` holds the unplaced vertices by ascending level, which
        sum to ``unplaced_level``, and ``ties`` of them have level L(first)
        and an id above first; ``fm[w]`` is the least color an unplaced w
        can take; the caller has applied rule 1."""
        nonlocal nodes, limit_hit, stop, best_span, best_order, orbit
        fnext = [0] * n  # the children's fm, rewritten before each child
        cand.sort()
        rem = n - m - 1
        lo1 = level[unplaced[0]]
        lo2 = level[unplaced[1]] if rem else n
        slack = rem * step - 2 * unplaced_level  # rule 2 reads key + slack + L(last)
        # rules 5 and 6 read the first vertex and its level; -1 keeps them
        # off until the root candidate sets it
        root = not m
        first = order[0]
        lf = level[first] if m else -1
        # rule 7 reads the first two positions, where a vertex that is not
        # the least of its orbit comes right after one with its key and color
        sym = m < 2
        pk = pc = -1
        for key, c, v in cand:
            if stop:
                return
            best = best_span
            lv = level[v]
            order[m] = v
            if root:
                first, lf, ties = v, lv, level[v + 1:].count(lv)
            if rem:
                # the last vertex's level: the least among the other
                # unplaced vertices, at least L(first) by rule 5, and above
                # it by rule 6 unless one of them ties with first after it
                end = lo2 if lv == lo1 else lo1
                if end <= lf:
                    end = lf if ties - (lv == lf and v > first) else lf + 1
                if key + slack + end >= best:
                    continue
            if sym:
                if key == pk and c == pc:
                    if orbit is None:
                        orbit = least_in_orbit(rv)
                    # at position 1 only when every automorphism fixes first
                    if orbit[v] != v and (not m or orbit.count(first) == 1):
                        continue
                pk, pc = key, c
            if nodes == budget:  # never when budget is -1
                limit_hit = stop = True
                return
            nodes += 1
            if not rem:
                if c < best:
                    best_span = c
                    best_order = order[:]
                    stop = c <= target
                continue
            # one pass over the child's unplaced vertices: forced colors,
            # rule 1, and the candidates rules 2 and 3 leave to the child
            used[v] = True
            row = rows[v]
            top = c + n - 1
            left = unplaced.copy()
            left.remove(v)
            rest = unplaced_level - lv
            # the child's rule 2 reads at least key + its slack + its least
            # level; the last placement has no rule 2, so no cut
            cut = best - (rem - 1) * step + 2 * rest - level[left[0]] if rem > 1 else n * n
            sub = []
            for w in left:
                need = top - row[w]
                fw = fm[w]
                if fw > need:
                    need = fw
                if need >= best:
                    break
                fnext[w] = need
                key = need + level[w]
                if key < cut and used[before[w]]:
                    sub.append((key, need, w))
            else:
                if sub:
                    place(m + 1, sub, left, rest, ties - (lv == lf and v > first), fnext)
            used[v] = False

    # rule 1 at the root, where every forced color is 0
    place(0, [(level[v], 0, v) for v in range(n) if used[before[v]]],
          sorted(range(n), key=level.__getitem__), rv.total_level, 0, [0] * n)

    if best_order is None:
        return -1, None, nodes, limit_hit
    return best_span, best_order, nodes, limit_hit
