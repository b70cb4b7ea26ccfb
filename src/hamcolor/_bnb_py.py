"""Branch-and-bound kernel for the exact solver, in pure Python.

The search space is vertex orderings.  Colors are completed greedily along an
ordering: each newly placed vertex takes the smallest color satisfying every
constraint against the already-placed ones, which is pointwise minimal, so
minimising the completed span over all orderings yields the exact answer.
Because tree distances never exceed n-1, greedy colors never decrease along
the ordering and the span of a partial placement is simply the last color.

Pruning: a partial placement is abandoned when the incumbent span cannot be
beaten, using two sound lower bounds -- the forced color already accumulated
on any unplaced vertex, and the last color plus one unit per remaining vertex
(valid whenever the diameter is below n-1, which forces strictly increasing
colors).
"""

from __future__ import annotations

from typing import Sequence


def bnb_exact(
    dist: Sequence[int],
    n: int,
    budget: int = -1,
    prefix: Sequence[int] = (),
    incumbent: int = -1,
):
    """Minimise the greedy-completion span over all vertex orderings.

    dist       flat row-major distance matrix, length n*n
    budget     maximum number of vertex placements, or -1 for unlimited
    prefix     forced initial placements (distinct vertex ids), pruned and
               counted like any other placement
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
    forced_depth = len(prefix)
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
        if m < forced_depth:
            v = prefix[m]
            cand = [(fm[v], v)]
        else:
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
