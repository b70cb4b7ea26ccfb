"""Lower bounds for the hamiltonian chromatic number of a tree.

Two bounds are computed, both of the form

    (n - 1) * (n - 1 - b) + (1 - b) - 2 * total_level

where b is 1 when the rooting uses a pair of adjacent centers and 0 when it
uses a single one.  `lower_bound_weight` roots at the weight center(s) (total
distance minimisers), and the center bound of `compare_bounds` at the
classical graph centers (eccentricity minimisers); the weight version
dominates and is the one certified by ordering certificates.  The raw formula
is a valid lower bound on every tree, paths and n <= 3 included: the 1 - b
term needs two distinct ends of an ordering, so a one-vertex tree gets 0.
:func:`is_applicable` (n >= 4 and maximum degree >= 3) says whether the bound
certifies anything; the callers that issue certificates make that check
themselves, and the CLI prints it next to the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotApplicableError
from .tree import RootedView, Tree, graph_centers


def is_applicable(tree: Tree) -> bool:
    """True when the bounds below certify anything: n >= 4 and max degree >= 3."""
    return tree.n >= 4 and tree.max_degree >= 3


def require_applicable(tree: Tree) -> None:
    """Raise :class:`NotApplicableError` unless :func:`is_applicable`."""
    if not is_applicable(tree):
        raise NotApplicableError(
            "ordering certificates need order >= 4 and max degree >= 3 "
            f"(got n={tree.n}, max degree {tree.max_degree})"
        )


def bound_formula(n: int, bicentral: bool, total_level: int) -> int:
    """(n - 1) * (n - 1 - b) + (1 - b) - 2 * total_level, and 0 when n = 1."""
    if n == 1:
        return 0
    b = 1 if bicentral else 0
    return (n - 1) * (n - 1 - b) + (1 - b) - 2 * total_level


def lower_bound_weight(rv: RootedView) -> int:
    """Weight-center lower bound on the hamiltonian chromatic number."""
    return bound_formula(rv.n, rv.bicentral, rv.total_level)


@dataclass(frozen=True)
class BoundReport:
    lb_weight: int
    lb_center: int
    center_total_level: int

    @property
    def difference(self) -> int:
        return self.lb_weight - self.lb_center


def compare_bounds(rv: RootedView) -> BoundReport:
    """Both bounds side by side, the center one from one BFS from the graph
    centers; the center bound never exceeds the weight-center bound."""
    tree = rv.tree
    centers = graph_centers(tree)
    center_level = sum(tree.bfs(centers)[0])
    return BoundReport(
        lb_weight=lower_bound_weight(rv),
        lb_center=bound_formula(tree.n, len(centers) == 2, center_level),
        center_total_level=center_level,
    )
