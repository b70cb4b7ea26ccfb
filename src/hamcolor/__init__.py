"""Hamiltonian chromatic numbers of trees.

A hamiltonian coloring assigns non-negative integer colors so that every
vertex pair satisfies  d(u, v) + |h(u) - h(v)| >= n - 1;  the hamiltonian
chromatic number is the least possible span (max color minus min color).

Modules
-------
tree      tree structure, weight centers, levels, branch bookkeeping
bounds    weight-center and graph-center lower bounds
ordering  walks along a vertex ordering: certificates, colorings, pair window
families  stars, brooms, a-trees, caterpillars with closed forms
solver    coloring verification and exact branch-and-bound search
io        text formats and DOT export
cli       command-line interface
"""

from . import errors
from .bounds import (
    BoundReport,
    compare_bounds,
    is_applicable,
    lower_bound_weight,
)
from .families import (
    FamilySpec,
    closed_form_hc,
    family_certificate,
    family_ordering,
    generate,
)
from .ordering import (
    Certificate,
    Coloring,
    check_spacing,
    coloring_from_ordering,
    min_span_for_order,
    search_ordering,
    validate_ordering,
)
from .solver import (
    ExactResult,
    Violation,
    exact_hc,
    search_backend,
    verify_coloring,
)
from .tree import (
    RootedView,
    Tree,
    analyze,
    build_tree,
    graph_centers,
    weight_centers,
)

__version__ = "0.1.0"
