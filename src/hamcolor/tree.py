"""Tree structure plus the weight-center machinery everything else builds on.

A tree is stored as an immutable adjacency structure over dense vertex ids
0..n-1.  :func:`analyze` roots the tree at its weight center(s) -- the
vertices minimising the total distance to all others -- and records, per
vertex, its level (distance to the nearest weight center), its parent on the
way down, the branch it belongs to, and which weight center owns it.

A tree has either one weight center or two adjacent ones; in the latter case
removing the joining edge leaves two components of equal order.  Vertices
hanging off a child of a weight center form a *branch*; two branches rooted at
the same center are *different*, two branches rooted at distinct centers are
*opposite*.  Two vertices that share no branch meet only through the
center(s), which gives the distance decomposition

    d(u, v) = level(u) + level(v) + b,   b = 1 when u and v sit on opposite
                                         sides of the center edge, else 0,

used throughout for bound arithmetic and ordering certificates.
``RootedView.detour_distance`` is the one per-pair distance query: O(1) for
two vertices that share no branch, while two vertices of one branch walk up
to their deepest common ancestor.

A vertex id, and the order n, is exactly ``int``: a bool, another int
subclass or an object with ``__index__`` is a ``BadVertexIdError``.
Construction makes one pass over the edges: it unpacks each, checks that
both ends are plain ints in 0..n-1 and appends it to both adjacency lists,
then sorts only the lists with more than one entry.  A self-loop or a
duplicate edge leaves fewer than n-1 real edges, so the graph cannot be
connected; when that pass, the edge count or the connectivity search
fails, :func:`_checked_edges` walks the edges again in input order, so the
first faulty edge decides the error.  ``Tree.edges`` is read from
the sorted adjacency on first use.  The connectivity search from vertex 0
is kept: the subtree sizes below each vertex, rooted at 0, are summed over
it, the diameter and the distance rows start from it, and
:class:`RootedView` reroots it at the weight center(s), turning round only
the parents on the path from a center up to 0, so an analysis runs one
search in all, and so does each ``color``, ``verify`` and ``exact`` call.
:func:`weight_centers` walks down those sizes to the center(s) (Zelinka's
characterisation, proved in its docstring) without computing any vertex's
weight.  ``RootedView._distance`` is the distance
query without its id checks, for callers whose ids are already valid.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NoReturn

from .errors import BadVertexIdError, InternalError, NotATreeError


class Tree:
    """Immutable undirected tree on vertices 0..n-1."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if type(n) is not int or n < 1:
            raise BadVertexIdError(f"order must be a positive integer, got {n!r}")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # a miss below reads the edges a second time
        adj = _sorted_adjacency(n, edges)
        if adj is None:
            _checked_edges(n, edges)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = adj
        # connectivity; with exactly n-1 edges this also rules out cycles.
        # The search is kept: subtree sizes, the diameter and the rooted view start from it too
        self._bfs_from_0 = self.bfs([0])
        if len(self._bfs_from_0[2]) < n:
            # a self-loop or a duplicate leaves fewer than n-1 real edges,
            # so it disconnects the graph; the walk names the first one
            _checked_edges(n, edges)
        _, parent, order = self._bfs_from_0
        self._sizes_from_0 = size = [1] * n  # each subtree's order, rooted at 0
        for u in reversed(order[1:]):  # children before their parents
            size[parent[u]] += size[u]  # type: ignore[index]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, in sorted order."""
        return tuple([(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v])

    def check_vertex(self, v: int) -> None:
        if type(v) is not int or not (0 <= v < self.n):
            raise BadVertexIdError(f"vertex {v!r} outside 0..{self.n - 1}")

    def bfs(self, sources: Iterable[int]) -> tuple[list[int], list[int | None], list[int]]:
        """Breadth-first search from all ``sources`` at once.

        Returns (distance to the nearest source, -1 when unreachable; BFS
        parent, None at sources and unreachable vertices; visit order, sources
        first in the order given).  Parents are visited before their children.
        """
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

    def distance_matrix(self) -> list[list[int]]:
        """All-pairs distances, by rerooting the search from vertex 0.

        Rooted at 0, a path from v leaves v's subtree through its parent p,
        so d(v, w) is d(p, w) + 1 off the subtree and d(p, w) - 1 on it.  Each
        row but 0 (a copy) is its parent's plus 1, less 2 on a slice of one
        preorder: O(n^2) time, a comprehension a row, O(n) memory beside it.
        """
        n, (dist, parent, order), size = self.n, self._bfs_from_0, self._sizes_from_0
        # nxt[u]: the next free preorder slot in u's subtree; at the end, the slot past it
        nxt, pre = [1] * n, [0] * n
        for v in order[1:]:
            p = parent[v]
            pre[nxt[p]], nxt[v], nxt[p] = v, nxt[p] + 1, nxt[p] + size[v]  # type: ignore[index]
        rows: list[list[int]] = [dist[:]] * n  # every row but 0 is replaced below
        for v in order[1:]:
            row = rows[v] = [d + 1 for d in rows[parent[v]]]  # type: ignore[index]
            for w in pre[nxt[v] - size[v]:nxt[v]]:
                row[w] -= 2
        return rows

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adj))

    @cached_property
    def _diameter_path(self) -> list[int]:
        da = self._bfs_from_0[0]
        a = da.index(max(da))
        db, parent, _ = self.bfs([a])
        path = [db.index(max(db))]
        while path[-1] != a:
            path.append(parent[path[-1]])  # type: ignore[arg-type]
        return path

    @cached_property
    def diameter(self) -> int:
        return len(self._diameter_path) - 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tree(n={self.n}, edges={list(self.edges)})"


def _sorted_adjacency(n: int, edges: list | tuple) -> tuple[tuple[int, ...], ...] | None:
    """Adjacency lists, each sorted, of n-1 pairs of plain ints in 0..n-1;
    None for anything else, which :func:`_checked_edges` then names."""
    if len(edges) != n - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in edges:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                return None
            adj[u].append(v)
            adj[v].append(u)
    except (TypeError, ValueError):  # an edge that is not a pair
        return None
    for nbrs in adj:
        if len(nbrs) > 1:
            nbrs.sort()
    return tuple(map(tuple, adj))


def _checked_edges(n: int, edges: list | tuple) -> NoReturn:
    """Raise on the first faulty edge in input order, else on the edge
    count; n - 1 edges with no fault are refused only as not connected."""
    seen: set[tuple[int, int]] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise BadVertexIdError(f"edge {e!r} is not a vertex pair") from None
        if type(u) is not int or type(v) is not int:
            raise BadVertexIdError(f"edge {e!r} has non-integer endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertexIdError(f"edge {e!r} outside vertex range 0..{n - 1}")
        if u == v:
            raise NotATreeError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise NotATreeError(f"duplicate edge {key}")
        seen.add(key)
    if len(seen) != n - 1:
        raise NotATreeError(f"a tree on {n} vertices needs {n - 1} edges, got {len(seen)}")
    raise NotATreeError("graph is not connected")


def build_tree(n: int, edges: Iterable[tuple[int, int]]) -> Tree:
    """Validate and construct a :class:`Tree`."""
    return Tree(n, edges)


def weight_centers(tree: Tree) -> frozenset[int]:
    """Vertices of minimum total distance; always one vertex or two adjacent ones.

    By Zelinka (1968), the vertices of minimum total distance are exactly
    those v whose branches (the components of T - v) all hold at most n/2
    vertices.  Rooted at vertex 0, the branches of v are its children's
    subtrees and, unless v = 0, the n - size(v) vertices above it.

    The walk starts at 0 and moves into a child whose subtree holds more
    than n/2 vertices while there is one; at most one child can, and it is
    the last of the children sorted by subtree size.  Where it stops, at c,
    every child's subtree holds at most n/2, and the part above c fewer than
    n/2 (c was entered for holding more), so c is a weight center.

    Any other vertex v lies in a branch of c with s <= n/2 vertices.  The
    branch of v that holds c has n - s vertices if v is adjacent to c, and
    more otherwise, so v is a center only if it is adjacent to c with
    s = n/2: a child of c, since the part above c holds fewer.  Such a child
    is a center, as its other branches lie inside its own n/2 vertices.
    """
    n, adj, (_, parent, _), size = tree.n, tree.adj, tree._bfs_from_0, tree._sizes_from_0
    c = 0
    while True:
        kids = sorted(adj[c], key=size.__getitem__)
        if parent[c] is not None:
            kids.pop()  # the parent: its subtree holds c's, so it sorts last
        if not (kids and 2 * size[kids[-1]] > n):
            break
        c = kids[-1]
    return frozenset([c, kids[-1]] if kids and 2 * size[kids[-1]] == n else [c])


def graph_centers(tree: Tree) -> frozenset[int]:
    """Vertices of minimum eccentricity: the middle of any diameter path."""
    path = tree._diameter_path
    d = len(path) - 1
    if d % 2 == 0:
        return frozenset({path[d // 2]})
    return frozenset({path[d // 2], path[d // 2 + 1]})


class RootedView:
    """A tree rooted at its weight center(s), with per-vertex bookkeeping.

    Attributes
    ----------
    tree            the underlying :class:`Tree`
    weight_centers  frozenset of one or two vertex ids
    bicentral       True when there are two weight centers
    level           tuple, distance to the nearest weight center
    parent          tuple, previous vertex towards the owning center (None at centers)
    side            tuple, id of the owning weight center
    branch          tuple, branch index or None for the centers
    branch_roots    tuple, attachment vertex (level 1) of each branch, by branch index
    total_level     sum of all levels
    """

    def __init__(self, tree: Tree):
        self.tree = tree
        n = tree.n
        self.weight_centers = weight_centers(tree)
        self.bicentral = len(self.weight_centers) == 2
        centers = sorted(self.weight_centers)
        adj = tree.adj
        if self.bicentral and centers[1] not in adj[centers[0]]:
            raise InternalError(f"weight centers {centers} are not adjacent")
        # reroot the search from vertex 0 at the center c nearer 0; a second
        # center is c's child there.  Only the parents on the path from c up
        # to 0 turn round, and the centers lose theirs
        dist0, parent0, order0 = tree._bfs_from_0
        c = min(centers, key=dist0.__getitem__)
        parent, path = parent0[:], [c]
        while (p := parent0[path[-1]]) is not None:
            parent[p] = path[-1]
            path.append(p)
        # parents first: the path from c's parent up to 0, then the kept
        # order without the centers, where the path comes again and each of
        # its vertices gets the values it already holds
        order = path[1:] + order0
        level, side, branch = [0] * n, [c] * n, [None] * n
        for w in centers:
            parent[w] = None
            side[w] = w
            order.remove(w)
        # the branches hang off the centers' other neighbours, indexed in id
        # order; with one center they are its sorted adjacency as it stands
        if self.bicentral:
            roots = sorted(set(adj[centers[0]]).union(adj[centers[1]]) - self.weight_centers)
        else:
            roots = adj[c]
        for i, r in enumerate(roots):
            branch[r] = i
        for v in order:
            p = parent[v]
            level[v] = level[p] + 1  # type: ignore[index]
            side[v] = side[p]  # type: ignore[index]
            if branch[v] is None:
                branch[v] = branch[p]  # type: ignore[index]
        self.level: tuple[int, ...] = tuple(level)
        self.parent: tuple[int | None, ...] = tuple(parent)
        self.side: tuple[int, ...] = tuple(side)
        self.branch: tuple[int | None, ...] = tuple(branch)
        self.branch_roots: tuple[int, ...] = tuple(roots)
        self.total_level = sum(self.level)
        if self.bicentral and 2 * side.count(centers[0]) != n:
            raise InternalError(f"halves at weight centers {centers} do not balance")

    @property
    def n(self) -> int:
        return self.tree.n

    def detour_distance(self, u: int, v: int) -> int:
        """Path distance from levels; equals plain BFS distance on trees.

        Vertices in different branches, or a weight center with any vertex,
        meet through the center(s): level(u) + level(v), plus 1 when the path
        crosses the center edge.  That is O(1).  Only two vertices of one
        branch walk up to their deepest common ancestor.
        """
        self.tree.check_vertex(u)
        self.tree.check_vertex(v)
        return self._distance(u, v)

    def _distance(self, u: int, v: int) -> int:
        """:meth:`detour_distance` without checking the ids, for callers whose
        ids come from ``range(n)`` or a validated ordering."""
        level = self.level
        bu = self.branch[u]
        if bu is None or bu != self.branch[v]:
            return level[u] + level[v] + (self.bicentral and self.side[u] != self.side[v])
        a, b = u, v
        while a != b:
            if level[a] < level[b]:
                b = self.parent[b]  # type: ignore[assignment]
            else:
                a = self.parent[a]  # type: ignore[assignment]
        return level[u] + level[v] - 2 * level[a]


def analyze(tree: Tree) -> RootedView:
    """Root ``tree`` at its weight center(s) and compute the per-vertex data."""
    return RootedView(tree)
