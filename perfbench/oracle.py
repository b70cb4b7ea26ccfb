"""Reference computations for the benchmark's correctness gates.

Nothing here imports hamcolor: distances, bounds, violation counts and the
exact minimum span are recomputed from the edge list so that a gate never
inherits a bug from the code it checks.

Violations are counted with a color window.  A pair u != v needs
|h(u) - h(v)| >= n - 1 - d(u, v), and d(u, v) >= 1, so a pair whose color gap
is at least n - 1 can never violate; only pairs closer than that in color are
measured, with distances from parent/depth walks on a BFS tree.
"""

from __future__ import annotations

import heapq
from collections import deque


def prufer_edges(seq: list[int]) -> list[tuple[int, int]]:
    """Edges of the labelled tree on len(seq) + 2 vertices with Prufer code ``seq``."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def relabel(edges: list[tuple[int, int]], perm: list[int]) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


class TreeOracle:
    """Distances, weight-center bound and coloring checks for one tree."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.parent, self.depth, self.bfs_order = self._bfs(0)
        self.max_degree = max((len(a) for a in self.adj), default=0)

    def _bfs(self, src: int) -> tuple[list[int], list[int], list[int]]:
        parent = [-1] * self.n
        depth = [-1] * self.n
        depth[src] = 0
        order = [src]
        dq = deque([src])
        while dq:
            u = dq.popleft()
            for v in self.adj[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    order.append(v)
                    dq.append(v)
        return parent, depth, order

    def dist(self, u: int, v: int) -> int:
        depth, parent = self.depth, self.parent
        d = 0
        while u != v:
            if depth[u] >= depth[v]:
                u = parent[u]
            else:
                v = parent[v]
            d += 1
        return d

    def distance_rows(self) -> list[list[int]]:
        """All-pairs distances, one BFS per vertex; for small trees only."""
        return [self._bfs(v)[1] for v in range(self.n)]

    def diameter(self) -> int:
        far = self.bfs_order[-1]
        _, depth, order = self._bfs(far)
        return depth[order[-1]]

    def _center_levels(self) -> tuple[list[int], list[int]]:
        """Weight centers (least total distance) and each vertex's distance
        to the nearest of them."""
        n = self.n
        # total distance of every vertex by rerooting the BFS tree
        size = [1] * n
        for v in reversed(self.bfs_order[1:]):
            size[self.parent[v]] += size[v]
        total = [0] * n
        total[0] = sum(self.depth)
        for v in self.bfs_order[1:]:
            total[v] = total[self.parent[v]] + n - 2 * size[v]
        best = min(total)
        centers = [v for v in range(n) if total[v] == best]
        level = [-1] * n
        dq = deque(centers)
        for c in centers:
            level[c] = 0
        while dq:
            u = dq.popleft()
            for v in self.adj[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        return centers, level

    def height(self) -> int:
        """Greatest distance from the weight center(s): the deepest branch."""
        return max(self._center_levels()[1])

    def lower_bound(self) -> int | None:
        """Weight-center lower bound, or None when it does not apply
        (fewer than 4 vertices or maximum degree below 3)."""
        n = self.n
        if n < 4 or self.max_degree < 3:
            return None
        centers, level = self._center_levels()
        b = 1 if len(centers) == 2 else 0
        return (n - 1) * (n - 1 - b) + (1 - b) - 2 * sum(level)

    def violations(self, colors: list[int]) -> int:
        """Number of pairs with d(u, v) + |h(u) - h(v)| < n - 1."""
        n = self.n
        by_color = sorted(range(n), key=colors.__getitem__)
        count = 0
        for i, u in enumerate(by_color):
            cu = colors[u]
            for j in range(i + 1, n):
                v = by_color[j]
                gap = colors[v] - cu
                if gap > n - 2:
                    break
                if gap + self.dist(u, v) < n - 1:
                    count += 1
        return count

    def greedy_coloring(self, order: list[int]) -> list[int]:
        """Least valid color for each vertex in turn along ``order``.

        Tree distances are at most n - 1, so the colors never decrease along
        the order, and only the recent placements within n - 2 colors of the
        current candidate can constrain the next vertex.
        """
        n = self.n
        colors = [0] * n
        placed: list[int] = []
        for v in order:
            c = 0
            for u in reversed(placed):
                if colors[u] + n - 2 < c:
                    break
                need = colors[u] + n - 1 - self.dist(u, v)
                if need > c:
                    c = need
            colors[v] = c
            placed.append(v)
        return colors

    def exact_min_span(self) -> int:
        """Least span of a hamiltonian coloring, by exhaustive search.

        Every coloring sorted by color is dominated by the greedy completion
        of that vertex order, so the minimum over orders of the greedy span is
        the answer.  The search stops early once it meets the weight-center
        bound, which no coloring can beat.  Only for small trees.
        """
        n = self.n
        if n <= 2:
            return 0
        dist = self.distance_rows()
        lb = self.lower_bound()
        floor = lb if lb is not None else 0
        step = 1 if self.diameter() <= n - 2 else 0
        best = [max(self.greedy_coloring(list(range(n))))]

        def extend(last: int, lo: list[int], rest: list[int]) -> None:
            if not rest:
                if last < best[0]:
                    best[0] = last
                return
            if max(lo[v] for v in rest) >= best[0]:
                return
            for v in sorted(rest, key=lo.__getitem__):
                if best[0] <= floor:
                    return
                c = lo[v]
                if c + (len(rest) - 1) * step >= best[0]:
                    break
                row = dist[v]
                nxt = [max(lo[w], c + n - 1 - row[w]) for w in range(n)]
                extend(c, nxt, [w for w in rest if w != v])

        for first in range(n):
            row = dist[first]
            extend(0, [n - 1 - row[w] for w in range(n)], [w for w in range(n) if w != first])
        return best[0]


def parse_coloring(text: str, n: int) -> list[int] | None:
    """Colors from ``v c`` lines, or None when the text is not a full coloring."""
    colors: list[int | None] = [None] * n
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if len(toks) != 2:
            return None
        try:
            v, c = int(toks[0]), int(toks[1])
        except ValueError:
            return None
        if not 0 <= v < n or colors[v] is not None or c < 0:
            return None
        colors[v] = c
    if any(c is None for c in colors):
        return None
    return colors  # type: ignore[return-value]
