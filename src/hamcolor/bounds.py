"""Lower bounds for the hamiltonian chromatic number of a tree.

Two bounds are computed, both of the form

    (n - 1) * (n - 1 - b) + (1 - b) - 2 * total_level

where b is 1 when the rooting uses a pair of adjacent centers and 0 when it
uses a single one.  `lower_bound_weight` roots at the weight center(s) (total
distance minimisers), `lower_bound_center` at the classical graph centers
(eccentricity minimisers).  The weight version dominates and is the one
certified by ordering certificates; both are only meaningful on trees with
n >= 4 and maximum degree >= 3 (paths are excluded), though callers may force
evaluation of the raw formula on anything.  Forced, both are valid lower
bounds on every tree: the 1 - b term needs two distinct ends of an ordering,
so a one-vertex tree gets 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotApplicableError
from .tree import RootedView, Tree, graph_centers


def is_applicable(tree: Tree) -> bool:
    """True when the bounds below certify anything: n >= 4 and max degree >= 3."""
    return tree.n >= 4 and tree.max_degree >= 3


def require_applicable(tree: Tree, what: str, hint: str = "") -> None:
    """Raise :class:`NotApplicableError` naming ``what`` unless :func:`is_applicable`."""
    if not is_applicable(tree):
        raise NotApplicableError(
            f"{what} need order >= 4 and max degree >= 3 "
            f"(got n={tree.n}, max degree {tree.max_degree}){hint}"
        )


def _require_applicable(tree: Tree, force: bool) -> None:
    if not force:
        require_applicable(tree, "bounds", "; pass force=True for the raw value")


def bound_formula(n: int, bicentral: bool, total_level: int) -> int:
    """(n - 1) * (n - 1 - b) + (1 - b) - 2 * total_level, and 0 when n = 1."""
    if n == 1:
        return 0
    b = 1 if bicentral else 0
    return (n - 1) * (n - 1 - b) + (1 - b) - 2 * total_level


def lower_bound_weight(rv: RootedView, *, force: bool = False) -> int:
    """Weight-center lower bound on the hamiltonian chromatic number."""
    _require_applicable(rv.tree, force)
    return bound_formula(rv.n, rv.bicentral, rv.total_level)


def center_total_level(tree: Tree) -> int:
    """Sum over all vertices of the distance to the nearest graph center."""
    return sum(tree.bfs(graph_centers(tree))[0])


def lower_bound_center(tree: Tree, *, force: bool = False) -> int:
    """Graph-center lower bound; never exceeds the weight-center bound."""
    _require_applicable(tree, force)
    return bound_formula(tree.n, len(graph_centers(tree)) == 2, center_total_level(tree))


def diameter_at_most_half(tree: Tree) -> bool:
    """True when every distance in the tree is at most n/2."""
    return 2 * tree.diameter <= tree.n


@dataclass(frozen=True)
class BoundReport:
    n: int
    applicable: bool
    lb_weight: int
    lb_center: int
    weight_bicentral: bool
    center_bicentral: bool
    weight_total_level: int
    center_total_level: int
    diam_within_half: bool

    @property
    def difference(self) -> int:
        return self.lb_weight - self.lb_center


def compare_bounds(tree: Tree, *, force: bool = False) -> BoundReport:
    """Evaluate both bounds side by side."""
    _require_applicable(tree, force)
    rv = RootedView(tree)
    return BoundReport(
        n=tree.n,
        applicable=is_applicable(tree),
        lb_weight=lower_bound_weight(rv, force=True),
        lb_center=lower_bound_center(tree, force=True),
        weight_bicentral=rv.bicentral,
        center_bicentral=len(graph_centers(tree)) == 2,
        weight_total_level=rv.total_level,
        center_total_level=center_total_level(tree),
        diam_within_half=diameter_at_most_half(tree),
    )
