"""Independent reference implementations used to pin expected values.

Everything in here deliberately avoids the package's own distance,
search and bound code so that test expectations do not inherit bugs
from the code under test: distances come from networkx, minimum spans
come from brute-force enumeration over whole color vectors or from an
unpruned search over every vertex ordering, violations, the spacing
condition (with its coloring, from prefix sums) and the greedy completion
from scans over all pairs, and the greedy ordering from a scan over every
branch on every step.  ``paper_broom_ordering`` is the paper's construction
for the recognised brooms, the package's own until the greedy replaced it.
``bnb_exact`` is the search kernel as it was before it pruned with the
weight-center bound, kept verbatim but for its forced prefix, which the
package kernel no longer takes, as an oracle for the pruning rules added
since; ``rescan_bnb_exact`` is the kernel with every rule it has now, as it
was before each placement fused its bookkeeping into one pass over the
unplaced vertices, kept as the reference for the same search, node for
node, with its levels from ``weight_levels`` here, not the kernel's; it
gained rule 6 (the reversal tie-break) by a scan over the unplaced
vertices and rule 7 (orbits at the first two positions) from
``automorphism_orbits``, which compares the rootings of the tree, not the
kernel's codes below the weight center(s); ``tie_break=False`` and
``orbits=False`` turn those rules off again.
``twin_before`` is the twin rule as the kernel first had it, a comparison
of distance rows.  ``certify_alternation`` is the
package's former certificate check, a weaker sufficient condition read from
the package's levels and bounds, kept as the reference that ``check_spacing``
accepts every ordering it accepted.  ``bfs_rooted_view`` is the package's
rooting as it was before it rerooted the search from vertex 0, a second
search from the weight center(s), kept as the reference for every field of
``RootedView``.  ``ReferenceTree``,
``reference_parse_tree_text`` and ``reference_parse_coloring_text`` are the
package's line-by-line readers and edge-by-edge tree validation as they were
before the readers converted whole files at once, kept verbatim as the
reference for the same result or the same error on every input.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

import networkx as nx

from hamcolor.bounds import bound_formula, lower_bound_weight, require_applicable
from hamcolor.errors import BadVertexIdError, FormatError, InternalError, NotATreeError
from hamcolor.ordering import Certificate, Coloring, validate_ordering
from hamcolor.tree import RootedView, Tree, weight_centers


def nx_graph(tree: Tree) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(tree.n))
    g.add_edges_from(tree.edges)
    return g


def nx_distance_matrix(tree: Tree) -> list[list[int]]:
    """All-pairs shortest path lengths via networkx BFS."""
    g = nx_graph(tree)
    mat = [[0] * tree.n for _ in range(tree.n)]
    for src, lengths in nx.all_pairs_shortest_path_length(g):
        for dst, dist in lengths.items():
            mat[src][dst] = dist
    return mat


def nx_transmission(tree: Tree, v: int) -> int:
    """Sum of distances from v to every vertex."""
    g = nx_graph(tree)
    return sum(nx.single_source_shortest_path_length(g, v).values())


def bfs_rooted_view(tree: Tree) -> dict[str, object]:
    """Every field of ``RootedView(tree)``, from a breadth-first search run
    from the weight center(s), as the package rooted a tree before it
    rerooted the search from vertex 0 that ``Tree`` keeps."""
    n = tree.n
    wc = weight_centers(tree)
    centers = sorted(wc)
    level, parent, order = tree.bfs(centers)
    roots = sorted(set(tree.adj[centers[0]]).union(tree.adj[centers[-1]]) - wc)
    side = [0] * n
    branch: list[int | None] = [None] * n
    for c in centers:
        side[c] = c
    for i, r in enumerate(roots):
        branch[r] = i
    for v in order[len(centers):]:
        p = parent[v]
        side[v] = side[p]
        if branch[v] is None:
            branch[v] = branch[p]
    return {"weight_centers": wc, "bicentral": len(wc) == 2, "level": tuple(level), "parent": tuple(parent),
            "side": tuple(side), "branch": tuple(branch), "branch_roots": tuple(roots),
            "total_level": sum(level)}


def enumeration_hc(tree: Tree) -> int:
    """Minimum span by trying every color vector with entries 0..(n-2)^2.

    Exponential in n; only usable for n <= 5 or so.  The cap (n-2)^2 is
    safe because assigning color (n-1-1)*i to the i-th vertex of any
    hamiltonian path always satisfies the distance condition.
    """
    n = tree.n
    if n <= 2:
        return 0
    cap = (n - 2) ** 2
    dist = nx_distance_matrix(tree)
    need = [
        (u, v, n - 1 - dist[u][v])
        for u in range(n)
        for v in range(u + 1, n)
        if n - 1 - dist[u][v] > 0
    ]
    best = cap
    for colors in itertools.product(range(cap + 1), repeat=n):
        # constraints only involve differences, so colorings whose minimum
        # is not 0 are shifted copies of ones already visited
        if 0 not in colors:
            continue
        if any(abs(colors[u] - colors[v]) < gap for u, v, gap in need):
            continue
        span = max(colors)
        if span < best:
            best = span
    return best


def reference_hc(tree: Tree) -> int:
    """Minimum span by a DFS over every placement sequence that prunes nothing.

    Each placed vertex takes the least color meeting the distance condition
    against every vertex placed before it.  Sorting any hamiltonian coloring
    by color gives an ordering whose completion is pointwise no larger, so
    the minimum over all n! orderings is hc.  Usable up to n = 8.
    """
    n = tree.n
    dist = nx_distance_matrix(tree)
    order: list[int] = []
    color = [0] * n
    spans: set[int] = set()

    def extend() -> None:
        if len(order) == n:
            spans.add(max(color))
            return
        for v in range(n):
            if v in order:
                continue
            color[v] = max([0] + [color[u] + n - 1 - dist[u][v] for u in order])
            order.append(v)
            extend()
            order.pop()

    extend()
    return min(spans)


def bnb_exact(
    dist: Sequence[int],
    n: int,
    budget: int = -1,
    incumbent: int = -1,
):
    """Minimise the greedy-completion span over all vertex orderings.

    dist       flat row-major distance matrix, length n*n
    budget     maximum number of vertex placements, or -1 for unlimited
    incumbent  known upper bound to prune against, or -1 for none

    Returns ``(best_span, best_order, nodes, limit_hit)``; ``best_order`` is
    None (and ``best_span`` -1) when no complete ordering beat the incumbent
    or the budget ran out first.
    """
    maxd = max(dist) if n > 1 else 0
    min_step = 1 if maxd <= n - 2 else 0
    used = [False] * n
    order = [0] * n
    forced = [[0] * n for _ in range(n + 1)]
    state = {
        "nodes": 0,
        "limit_hit": False,
        "best_span": incumbent,
        "best_order": None,
    }

    def place(m: int, last: int) -> None:
        if m == n:
            if state["best_span"] < 0 or last < state["best_span"]:
                state["best_span"] = last
                state["best_order"] = order[:]
            return
        fm = forced[m]
        cand = []
        pend = -1
        for v in range(n):
            if not used[v]:
                c = fm[v]
                cand.append((c, v))
                if c > pend:
                    pend = c
        best = state["best_span"]
        if best >= 0 and pend >= best:
            return
        cand.sort()
        rem = n - m - 1
        fnext = forced[m + 1]
        for c, v in cand:
            best = state["best_span"]
            if best >= 0 and c + rem * min_step >= best:
                break
            if state["limit_hit"]:
                return
            if budget >= 0 and state["nodes"] >= budget:
                state["limit_hit"] = True
                return
            state["nodes"] += 1
            used[v] = True
            order[m] = v
            base = v * n
            for w in range(n):
                fw = fm[w]
                need = c + n - 1 - dist[base + w]
                fnext[w] = need if need > fw else fw
            place(m + 1, c)
            used[v] = False

    place(0, 0)

    if state["best_order"] is None:
        return -1, None, state["nodes"], state["limit_hit"]
    return state["best_span"], state["best_order"], state["nodes"], state["limit_hit"]


def weight_levels(dist: Sequence[int], n: int) -> tuple[list[int], bool]:
    """Levels below the weight center(s), and whether there are two, from the
    flat distance matrix of a tree: the centers are networkx's barycenter of
    the graph on the pairs at distance 1."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n) if dist[u * n + v] == 1)
    centers = nx.barycenter(g)
    return [min(dist[w * n + v] for w in centers) for v in range(n)], len(centers) == 2


def rescan_bnb_exact(
    dist: Sequence[int],
    n: int,
    budget: int = -1,
    tie_break: bool = True,
    orbits: bool = True,
):
    """Minimise the greedy-completion span over all vertex orderings, with
    the package kernel's seven rules, rescanning all n vertices at every node.

    dist       flat row-major distance matrix of a tree, length n*n
    budget     maximum number of vertex placements, or -1 for unlimited
    tie_break  apply rule 6: when no unplaced vertex other than the
               candidate has level L(first) and an id above first, the last
               vertex's level is above L(first); False turns it off
    orbits     apply rule 7: the first vertex is the least of its orbit
               under the automorphisms, and so is the second when every
               automorphism fixes the first; False turns it off

    Returns ``(best_span, best_order, nodes, limit_hit)``; ``best_order`` is
    None (and ``best_span`` -1) when the budget ran out before the first
    complete ordering.
    """
    level, bicentral = weight_levels(dist, n)
    step = n - 2 if bicentral else n - 1
    target = bound_formula(n, bicentral, sum(level))
    # before[v]: the largest twin of v below it, which must be placed first
    before = twin_before(dist, n)
    orbit = automorphism_orbits(dist, n)
    used = [False] * n
    order = [0] * n
    forced = [[0] * n for _ in range(n + 1)]
    state = {
        "nodes": 0,
        "limit_hit": False,
        "stop": False,
        "best_span": -1,
        "best_order": None,
    }

    def place(m: int, last: int, unplaced_level: int) -> None:
        if m == n:
            if state["best_span"] < 0 or last < state["best_span"]:
                state["best_span"] = last
                state["best_order"] = order[:]
                state["stop"] = last <= target
            return
        fm = forced[m]
        cand = []
        pend = -1
        # lo1 <= lo2: the two least levels among the unplaced vertices
        lo1 = lo2 = n
        for v in range(n):
            if not used[v]:
                c = fm[v]
                if c > pend:
                    pend = c
                lv = level[v]
                if lv < lo2:
                    if lv < lo1:
                        lo1, lo2 = lv, lo1
                    else:
                        lo2 = lv
                t = before[v]
                # rule 7: at the first two positions, only the least vertex
                # of an orbit, at the second one only if first's orbit is
                # first alone
                if (orbits and m < 2 and min(orbit[v]) != v
                        and (m == 0 or orbit[order[0]] == {order[0]})):
                    continue
                if t < 0 or used[t]:
                    cand.append((c + lv, c, v))
        best = state["best_span"]
        if best >= 0 and pend >= best:
            return
        cand.sort()
        rem = n - m - 1
        fnext = forced[m + 1]
        for _, c, v in cand:
            best = state["best_span"]
            if state["stop"]:
                return
            lv = level[v]
            rest = unplaced_level - lv
            order[m] = v  # before the bound, which reads order[0]
            if best >= 0 and rem:
                # the last vertex's level: the least among the other
                # unplaced vertices, and at least L(first) by rule 5
                end = lo2 if lv == lo1 else lo1
                if level[order[0]] > end:
                    end = level[order[0]]
                # rule 6: a last vertex at L(first) must come after first
                first = order[0]
                if (tie_break and end == level[first]
                        and not any(not used[w] and w != v and w > first and level[w] == end for w in range(n))):
                    end += 1
                if c + rem * step - lv - 2 * rest + end >= best:
                    continue
            if budget >= 0 and state["nodes"] >= budget:
                state["limit_hit"] = state["stop"] = True
                return
            state["nodes"] += 1
            used[v] = True
            base = v * n
            for w in range(n):
                fw = fm[w]
                need = c + n - 1 - dist[base + w]
                fnext[w] = need if need > fw else fw
            place(m + 1, c, rest)
            used[v] = False

    place(0, 0, sum(level))

    if state["best_order"] is None:
        return -1, None, state["nodes"], state["limit_hit"]
    return state["best_span"], state["best_order"], state["nodes"], state["limit_hit"]


def automorphism_orbits(dist: Sequence[int], n: int) -> list[set[int]]:
    """For each vertex v, its orbit under the automorphisms of the tree: the
    vertices w such that the tree rooted at w is isomorphic to the tree
    rooted at v, compared by the nested-parenthesis code of each rooting."""
    adj = [[w for w in range(n) if dist[v * n + w] == 1] for v in range(n)]

    def code(v: int, up: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != up)) + ")"

    codes = [code(r, -1) for r in range(n)]
    return [{w for w in range(n) if codes[w] == codes[v]} for v in range(n)]


def twin_before(dist: Sequence[int], n: int) -> list[int]:
    """The kernel's twin rule as it first shipped, by comparing distance rows:
    for each vertex v, the largest u < v whose row agrees with v's except
    toward u and v, or -1."""
    # twin_before[v]: the largest twin of v below it, which must be placed first
    twin_before = [-1] * n
    for v in range(n):
        row_v = dist[v * n:(v + 1) * n]
        for u in range(v):
            row_u = dist[u * n:(u + 1) * n]
            if all(row_u[w] == row_v[w] for w in range(n) if w != u and w != v):
                twin_before[v] = u
    return twin_before


def pre_bound_hc(tree: Tree) -> int:
    """hc from the pre-bound kernel ``bnb_exact`` on networkx distances."""
    flat = [d for row in nx_distance_matrix(tree) for d in row]
    return bnb_exact(flat, tree.n)[0]


def all_pairs_violations(tree: Tree, colors) -> list[tuple[int, int, int, int]]:
    """(u, v, required, actual) for every pair u < v with
    d(u, v) + |h(u) - h(v)| < n - 1, in (u, v) order, from networkx distances."""
    n = tree.n
    dist = nx_distance_matrix(tree)
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            need = n - 1 - dist[u][v]
            gap = abs(colors[u] - colors[v])
            if gap < need:
                out.append((u, v, need, gap))
    return out


def _level_prefix(rv: RootedView, o) -> list[int]:
    """prefix[m] = sum_{t<m} (level(x_t) + level(x_{t+1})) along ``o``."""
    prefix = [0] * len(o)
    for m in range(1, len(o)):
        prefix[m] = prefix[m - 1] + rv.level[o[m - 1]] + rv.level[o[m]]
    return prefix


def prefix_sum_coloring(rv: RootedView, order) -> Coloring:
    """The arithmetic coloring read off the prefix sums of levels, with no
    distance matrix: position m gets m * (n - 1 - b) - prefix[m]."""
    o = list(order)
    step = rv.n - 1 - (1 if rv.bicentral else 0)
    colors = [0] * rv.n
    for m, (v, p) in enumerate(zip(o, _level_prefix(rv, o))):
        colors[v] = m * step - p
    return Coloring(tuple(colors))


def all_pairs_spacing(rv: RootedView, order, dist=None) -> Certificate:
    """The spacing condition of ``check_spacing`` over every pair of positions,
    with prefix sums of levels and networkx distances (``dist``, when given).

    Reports the endpoint failure without positions, else the first violating
    pair scanning i then j.  On success the coloring is
    :func:`prefix_sum_coloring`'s.
    """
    n = rv.n
    o = list(order)
    b = 1 if rv.bicentral else 0
    if rv.level[o[0]] + rv.level[o[-1]] != 1 - b:
        return Certificate(False, None, f"endpoint levels {rv.level[o[0]]}+{rv.level[o[-1]]} != {1 - b}")
    dist = dist or nx_distance_matrix(rv.tree)
    prefix = _level_prefix(rv, o)
    step = n - 1 - b
    for i in range(n - 1):
        for j in range(i + 1, n):
            rhs = prefix[j] - prefix[i] - (j - i) * step + (n - 1)
            d = dist[o[i]][o[j]]
            if d < rhs:
                return Certificate(False, (i, j), f"positions {i},{j}: distance {d} < required {rhs}")
    return Certificate(True, ordering=tuple(o), coloring=prefix_sum_coloring(rv, o))


@dataclass(frozen=True)
class AlternationCertificate:
    """Outcome of :func:`certify_alternation`.

    ``kind`` is "alternation_db", "alternation" or "none"; any kind other
    than "none" claims the induced coloring attains the weight-center lower
    bound, recorded in ``claimed_span``.
    """

    kind: str
    ordering: tuple[int, ...] | None
    claimed_span: int | None
    reason: str | None = None


def certify_alternation(rv: RootedView, order: Sequence[int]) -> AlternationCertificate:
    """The certificate check the package used before ``check_spacing``, kept
    as a reference: a sufficient condition that accepts fewer orderings.

    The sufficient conditions are the endpoint levels, consecutive vertices
    sharing no branch (with two centers: on opposite sides of the center
    edge) and consecutive distances at most n/2.  Such a pair meets through
    the center(s), so its distance is level(u) + level(v) + b, read from the
    levels without a distance query.  The kind is "alternation_db" when the
    diameter is at most n/2, so the cap holds for free, "alternation" when
    the cap is checked and holds, else "none" with the first failure as the
    reason.
    """
    require_applicable(rv.tree)
    o = validate_ordering(rv.n, order)
    n = rv.n
    b = 1 if rv.bicentral else 0
    if rv.level[o[0]] + rv.level[o[-1]] != 1 - b:
        reason = f"endpoint levels {rv.level[o[0]]}+{rv.level[o[-1]]} != {1 - b}"
        return AlternationCertificate("none", None, None, reason)
    check_cap = 2 * rv.tree.diameter > n
    level, branch, side = rv.level, rv.branch, rv.side
    for i in range(n - 1):
        u, v = o[i], o[i + 1]
        reason = None
        if branch[u] is not None and branch[u] == branch[v]:
            reason = f"positions {i},{i + 1}: vertices {u},{v} share a branch"
        elif b and side[u] == side[v]:
            reason = f"positions {i},{i + 1}: vertices {u},{v} on the same side of the center edge"
        elif check_cap and 2 * (d := level[u] + level[v] + b) > n:
            reason = f"positions {i},{i + 1}: distance {d} exceeds n/2"
        if reason is not None:
            return AlternationCertificate("none", None, None, reason)
    kind = "alternation" if check_cap else "alternation_db"
    return AlternationCertificate(kind, tuple(o), lower_bound_weight(rv))


def all_pairs_min_span(tree: Tree, order, dist=None) -> list[int]:
    """Greedy completion along ``order``: each vertex takes the least color
    meeting the distance condition against every vertex placed before it,
    from networkx distances (``dist``, when given)."""
    n = tree.n
    dist = dist or nx_distance_matrix(tree)
    colors = [0] * n
    for i, v in enumerate(order):
        colors[v] = max([0] + [colors[u] + n - 1 - dist[u][v] for u in order[:i]])
    return colors


def linear_scan_greedy(rv: RootedView) -> list[int]:
    """The greedy ordering of ``search_ordering`` before certification, found
    by scanning every branch on every step for the key (-unplaced, branch id).

    Raises :class:`InternalError` with the same messages when the greedy runs
    out of allowed vertices, which cannot happen on a tree.
    """
    queues: dict[int, list[int]] = {i: [] for i in range(len(rv.branch_roots))}
    for v in range(rv.n):
        if rv.branch[v] is not None:
            queues[rv.branch[v]].append(v)
    for q in queues.values():
        q.sort(key=lambda v: (rv.level[v], -v))
    centers = sorted(rv.weight_centers)
    if rv.bicentral:
        w, w2 = centers
        by_side: dict[int, list[int]] = {w: [], w2: []}
        for bid, root in enumerate(rv.branch_roots):
            by_side[rv.side[root]].append(bid)
        order = [w]
        side = w2
        for _ in range(rv.n - 2):
            best = None
            for bid in by_side[side]:
                if queues[bid]:
                    key = (-len(queues[bid]), bid)
                    if best is None or key < best:
                        best = key
            if best is None:
                raise InternalError("ran out of vertices on one side of the center edge")
            order.append(queues[best[1]].pop())
            side = w if side == w2 else w2
        order.append(w2)
        return order
    (w,) = centers
    order = [w]
    prev = None
    for _ in range(rv.n - 1):
        best = None
        for bid, q in queues.items():
            if q and bid != prev:
                key = (-len(q), bid)
                if best is None or key < best:
                    best = key
        if best is None:
            raise InternalError("all unplaced vertices share one branch")
        prev = best[1]
        order.append(queues[prev].pop())
    return order


def paper_broom_ordering(n: int, d: int) -> list[int]:
    """The paper's ordering of a recognised broom (path 0..d-1 with hub 0,
    leaves d..n-1 on the hub): the hub, then the path vertices deepest-first,
    each but the last followed by the next leaf, then the remaining leaves.
    The final vertex is a leaf at level 1."""
    path = list(range(d - 1, 0, -1))
    leaves = list(range(d, n))
    order = [0]
    for i, p in enumerate(path):
        order.append(p)
        if i < len(path) - 1:
            order.append(leaves[i])
    return order + leaves[len(path) - 1 :]


def random_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labelled tree from a Prufer sequence."""
    return prufer_tree(n, [rng.randrange(n) for _ in range(n - 2)])


def prufer_tree(n: int, seq: Sequence[int]) -> Tree:
    """The labelled tree on n vertices with Prufer sequence ``seq`` (n - 2 ids)."""
    if n == 1:
        return Tree(1, [])
    if n == 2:
        return Tree(2, [(0, 1)])
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # insert keeping the pool sorted so decoding is deterministic
            lo, hi = 0, len(leaves)
            while lo < hi:
                mid = (lo + hi) // 2
                if leaves[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            leaves.insert(lo, v)
    edges.append((leaves[0], leaves[1]))
    return Tree(n, edges)


class ReferenceTree:
    """``Tree``'s constructor as it was, validating edge by edge and sorting
    every adjacency list; only ``n``, ``edges`` and ``adj`` are kept."""

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or n < 1:
            raise BadVertexIdError(f"order must be a positive integer, got {n!r}")
        norm = []
        seen = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise BadVertexIdError(f"edge {e!r} is not a vertex pair") from None
            if not isinstance(u, int) or not isinstance(v, int):
                raise BadVertexIdError(f"edge {e!r} has non-integer endpoints")
            if not (0 <= u < n and 0 <= v < n):
                raise BadVertexIdError(f"edge {e!r} outside vertex range 0..{n - 1}")
            if u == v:
                raise NotATreeError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise NotATreeError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        if len(norm) != n - 1:
            raise NotATreeError(f"a tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        # connectivity; with exactly n-1 edges this also rules out cycles
        if len(self.bfs([0])[2]) < n:
            raise NotATreeError("graph is not connected")

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not (0 <= v < self.n):
            raise BadVertexIdError(f"vertex {v!r} outside 0..{self.n - 1}")

    def bfs(self, sources):
        dist = [-1] * self.n
        parent: list[int | None] = [None] * self.n
        order: list[int] = []
        for s in sources:
            self.check_vertex(s)
            if dist[s] < 0:
                dist[s] = 0
                order.append(s)
        for u in order:  # the visit order doubles as the queue
            du = dist[u] + 1
            for v in self.adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    parent[v] = u
                    order.append(v)
        return dist, parent, order


_REFERENCE_META_KEYS = ("family", "params", "expected_n", "expected_hc", "expected_total_level")


def _reference_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what}: expected an integer, got {tok!r}") from None


def reference_parse_tree_text(text: str) -> tuple[ReferenceTree, dict[str, str]]:
    """The tree reader as it was: one line at a time."""
    meta: dict[str, str] = {}
    content: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if ":" in body:
                key, _, val = body.partition(":")
                if key.strip() in _REFERENCE_META_KEYS:
                    meta[key.strip()] = val.strip()
            continue
        content.append(stripped)
    if not content:
        raise FormatError("empty tree file")
    if len(content[0].split()) != 1:
        raise FormatError(f"first content line must be the order, got {content[0]!r}")
    n = _reference_int(content[0], "order")
    edge_lines = content[1:]
    if len(edge_lines) != max(0, n - 1):
        raise FormatError(f"expected {max(0, n - 1)} edge lines for order {n}, got {len(edge_lines)}")
    edges = []
    for line in edge_lines:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"edge line must be 'u v', got {line!r}")
        edges.append((_reference_int(toks[0], "edge"), _reference_int(toks[1], "edge")))
    return ReferenceTree(n, edges), meta


def reference_parse_coloring_text(text: str, n: int) -> Coloring:
    """The coloring reader as it was: one line at a time."""
    lines = [
        s for s in (line.strip() for line in text.splitlines())
        if s and not s.startswith("#")
    ]
    if len(lines) != n:
        raise FormatError(f"coloring file must hold {n} lines, got {len(lines)}")
    colors: list[int | None] = [None] * n
    for line in lines:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"coloring line must be 'v c', got {line!r}")
        v = _reference_int(toks[0], "vertex")
        c = _reference_int(toks[1], "color")
        if not 0 <= v < n:
            raise FormatError(f"vertex {v} outside 0..{n - 1}")
        if colors[v] is not None:
            raise FormatError(f"vertex {v} colored twice")
        colors[v] = c
    return Coloring(tuple(colors))  # type: ignore[arg-type]
