"""Generators for tree families with closed-form hamiltonian chromatic numbers.

Four families are provided, each with a documented vertex-id layout and, where
known, the expected order, total level and hamiltonian chromatic number:

* stars:        hub 0, leaves 1..n-1;
* brooms:       path 0..d-1 with vertex 0 the hub, leaves d..n-1 on the hub.
                Two one-parameter sub-families are recognised and carry
                closed forms: d = 2k with n = k(2k+1), and d = 2k+1 with
                n = (k+1)(2k+1); other brooms have no expected hc or total
                level;
* a-trees:      indexed by d >= 2 (the instance has diameter d - 1).  The base
                cases are a single edge (d = 2) and the 4-leaf star (d = 3);
                each growth step gives the two diameter-end leaves three
                children apiece (the last child extends the diameter) and
                every other leaf one child.  New ids are assigned in
                ascending order of the parent leaf's id;
* caterpillars: spine 0..m-1, every inner spine vertex brought up to degree d
                by legs, which take ids m.. grouped by spine vertex (m = 3
                gives the star on d + 1 vertices).

``generate(family, params)`` returns the tree and its spec.  A family is one
``_FAMILIES`` entry: parameter names, an order function and a builder, which
only builds: it returns the family name (``broom_even`` or ``broom_odd`` on a
recognised broom), the edges, the expected hc and the total level (None
without a closed form; the closed forms are integer arithmetic).  ``_instance``
assembles every instance: the order function validates the parameters before
the builder runs, the edge count is checked against the order, a name other
than the ``_FAMILIES`` key must be the one the builder returns, and the one
``FamilySpec`` takes the parameters in the family's order.  ``NAMES`` lists
the families and ``parse_params`` reads their ``key=value`` parameters;
``spec_meta`` is the metadata of an instance's tree file, and
``spec_from_meta`` checks a tree, through its ``RootedView``, against it
and returns the spec.
``META_KEYS`` are the metadata keys, which ``hamcolor.io`` reads and writes.
``family_certificate`` certifies the one ordering path of every family and
of a plain tree, the greedy of ``ordering.search_ordering``, with
``check_spacing`` (the paper's iff condition), and alone raises when it
fails; ``family_ordering`` returns that ordering.  No family keeps a
construction.  On a recognised broom the greedy is the paper's ordering: the hub is the one weight center, and the
path branch (branch id 0) never holds fewer unplaced vertices than a leaf
and wins ties, so the path comes deepest-first, each vertex followed by the
smallest unplaced leaf, then the other leaves.  On the a-trees (tested for
d <= 30) it attains the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ordering as _ord
from .errors import BadParamsError, FormatError, InternalError, SearchFailedError
from .tree import RootedView, Tree, analyze


@dataclass(frozen=True)
class FamilySpec:
    """What a generator produced and what values it promises."""

    family: str  # star | broom | broom_even | broom_odd | a_tree | caterpillar
    params: dict[str, int] = field(hash=False)
    expected_n: int = 0
    expected_hc: int | None = None
    expected_total_level: int | None = None


# what a builder returns: family name, edges, expected hc, expected total level
_Built = tuple[str, list[tuple[int, int]], int | None, int | None]


def _as_int(num: int, den: int, what: str) -> int:
    """``num / den``, which a closed form promises to be an integer."""
    q, r = divmod(num, den)
    if r:
        raise InternalError(f"{what} is not an integer: {num}/{den}")
    return q


def _star_order(n: int) -> int:
    if not isinstance(n, int) or n < 3:
        raise BadParamsError(f"star needs n >= 3, got {n!r}")
    return n


def _star(n: int) -> _Built:
    return "star", [(0, i) for i in range(1, n)], (n - 2) ** 2, n - 1


def _broom_order(n: int, d: int) -> int:
    if not isinstance(n, int) or not isinstance(d, int) or not n > d >= 2:
        raise BadParamsError(f"broom needs n > d >= 2, got n={n!r}, d={d!r}")
    return n


def _broom(n: int, d: int) -> _Built:
    edges = [(i, i + 1) for i in range(d - 1)]
    edges += [(0, i) for i in range(d, n)]
    k = d // 2  # (d - 1) // 2 when d is odd
    if d % 2 == 0 and n == k * (2 * k + 1):
        return "broom_even", edges, 4 * k**4 + 4 * k**3 - 11 * k**2 + 2 * k + 2, 2 * k * (2 * k - 1)
    if d % 2 == 1 and n == (k + 1) * (2 * k + 1):
        return "broom_odd", edges, (2 * k + 1) * (2 * k**3 + 5 * k**2 - 2 * k - 1) + 2, 2 * k * (2 * k + 1)
    return "broom", edges, None, None


def _grow_a_tree(
    edges: list[tuple[int, int]],
    pendants: list[int],
    ends: tuple[int, int],
) -> tuple[list[int], tuple[int, int]]:
    """One growth step of the tree ``edges`` spans, whose ids run
    0..len(edges); returns (new pendant list, new ends)."""
    left, right = ends
    nxt = len(edges) + 1
    new_pendants: list[int] = []
    new_left = new_right = -1
    for u in pendants:
        if u == left or u == right:
            kids = [nxt, nxt + 1, nxt + 2]
            nxt += 3
        else:
            kids = [nxt]
            nxt += 1
        for c in kids:
            edges.append((u, c))
        new_pendants.extend(kids)
        if u == left:
            new_left = kids[-1]
        elif u == right:
            new_right = kids[-1]
    return new_pendants, (new_left, new_right)


def _a_tree_order(d: int) -> int:
    if not isinstance(d, int) or d < 2:
        raise BadParamsError(f"a-tree needs index d >= 2, got {d!r}")
    k = d // 2
    return 2 * k**2 if d % 2 == 0 else 2 * k * (k + 1) + 1


def _a_tree(d: int) -> _Built:
    k = d // 2
    if d % 2 == 0:
        edges, pendants, ends = [(0, 1)], [0, 1], (0, 1)
        total = _as_int(k * (k - 1) * (4 * k + 1), 3, "a-tree total level")
        hc = _as_int(2 * (k - 1) * (6 * k**3 + 2 * k**2 - 4 * k - 3), 3, "a-tree span")
    else:
        edges, pendants, ends = [(0, i) for i in range(1, 5)], [1, 2, 3, 4], (1, 2)
        total = _as_int(2 * k * (k + 1) * (2 * k + 1), 3, "a-tree total level")
        hc = _as_int(4 * k * (k + 1) * (3 * k**2 + k - 1), 3, "a-tree span") + 1
    for _ in range(k - 1):
        pendants, ends = _grow_a_tree(edges, pendants, ends)
    return "a_tree", edges, hc, total


def _caterpillar_order(m: int, d: int) -> int:
    if not isinstance(m, int) or not isinstance(d, int) or m < 3 or d < 3:
        raise BadParamsError(f"caterpillar needs m >= 3 and d >= 3, got m={m!r}, d={d!r}")
    return m + (m - 2) * (d - 2)


def _caterpillar(m: int, d: int) -> _Built:
    edges = [(i, i + 1) for i in range(m - 1)]
    n = m
    for s in range(1, m - 1):
        for _ in range(d - 2):
            edges.append((s, n))
            n += 1
    k = m // 2  # (m - 1) // 2 when m is odd
    if m % 2 == 1:
        total = (k * (k + 1) - 1) * (d - 1) + 1
    else:
        total = k * (k - 1) * (d - 1)
    # (2d-3)/(2d-2) (n-2)^2, plus (d-1)/2 when m is odd
    hc = _as_int((2 * d - 3) * (n - 2) ** 2 + (m % 2) * (d - 1) ** 2, 2 * d - 2, "caterpillar span")
    return "caterpillar", edges, hc, total


# family -> (parameter names, order from the parameters, builder)
_FAMILIES = {
    "star": (("n",), _star_order, _star),
    "broom": (("n", "d"), _broom_order, _broom),
    "a_tree": (("d",), _a_tree_order, _a_tree),
    "caterpillar": (("m", "d"), _caterpillar_order, _caterpillar),
}
NAMES = tuple(f.replace("_", "-") for f in _FAMILIES)
# tree-file metadata keys, in the order they are written: FamilySpec fields
META_KEYS = ("family", "params", "expected_n", "expected_hc", "expected_total_level")


def _lookup(family: str, params: dict[str, int]) -> tuple[str, str, list[int]]:
    """``family`` with ``-`` read as ``_``, its ``_FAMILIES`` key and the
    values of ``params`` in that family's parameter order."""
    name = family.replace("-", "_")
    key = "broom" if name in ("broom_even", "broom_odd") else name
    if key not in _FAMILIES:
        raise BadParamsError(f"unknown family {family!r}")
    names = _FAMILIES[key][0]
    unknown = [k for k in params if k not in names]
    if unknown:
        raise BadParamsError(f"family {family!r} takes no parameter {unknown[0]!r}")
    try:
        return name, key, [params[k] for k in names]
    except KeyError as e:
        raise BadParamsError(f"family {family!r} needs parameter {e.args[0]!r}") from None


def _instance(name: str, key: str, args: list[int]) -> tuple[list[tuple[int, int]], FamilySpec]:
    """The edges and spec of family ``key`` with parameter values ``args``,
    named ``name``: the key, or the family the builder returns."""
    names, order, build = _FAMILIES[key]
    n = order(*args)
    family, edges, hc, total = build(*args)
    params = dict(zip(names, args))
    if len(edges) != n - 1:
        raise InternalError(f"{family} {params} has {len(edges)} edges, expected {n - 1}")
    if name not in (key, family):
        raise BadParamsError(f"parameters {params} build {family!r}, not {name!r}")
    return edges, FamilySpec(family, params, expected_n=n, expected_hc=hc, expected_total_level=total)


def generate(family: str, params: dict[str, int]) -> tuple[Tree, FamilySpec]:
    """Build the instance and its spec; the family is named as in
    :data:`NAMES` or as in a spec ("a-tree" and "a_tree" both accepted), and
    as a sub-family only where the parameters build that sub-family."""
    edges, spec = _instance(*_lookup(family, params))
    return Tree(spec.expected_n, edges), spec


def parse_params(raw: str) -> dict[str, int]:
    """Read the comma-separated ``key=value`` parameters that ``gen`` takes
    and that tree-file metadata records; integer values only."""
    params: dict[str, int] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition("=")
        key = key.strip()
        if not sep:
            raise BadParamsError(f"parameter {item!r} is not key=value")
        if key in params:
            raise BadParamsError(f"parameter {key!r} is given twice")
        try:
            params[key] = int(val)
        except ValueError:
            raise BadParamsError(f"parameter {item!r} needs an integer value") from None
    return params


def spec_meta(spec: FamilySpec) -> dict[str, object]:
    """The metadata a tree file records for a family instance, one value per
    :data:`META_KEYS` entry, which :func:`spec_from_meta` reads back."""
    meta: dict[str, object] = {key: getattr(spec, key) for key in META_KEYS}
    meta["params"] = ",".join(f"{k}={v}" for k, v in spec.params.items())
    return meta


def spec_from_meta(rv: RootedView, meta: dict[str, str]) -> FamilySpec | None:
    """Regenerate the family instance recorded in the metadata of the tree
    file ``rv`` roots, if any; the order the parameters give is compared
    first, so a false claim costs nothing to reject.  The generator's n - 1
    edges are the file's when each joins a vertex to its parent, with one
    center the parent of the other, and no two share that child vertex (so
    they are distinct); no second tree is built and nothing is sorted.  Each
    ``expected_*`` value present must read as :func:`spec_meta` writes it.
    A half claim, any metadata without both ``family`` and ``params``,
    cannot be checked: rejected."""
    if "family" not in meta or "params" not in meta:
        if any(key in meta for key in META_KEYS):
            raise FormatError("family metadata needs both 'family' and 'params'")
        return None
    name, key, args = _lookup(meta["family"], parse_params(meta["params"]))
    if _FAMILIES[key][1](*args) == rv.n:
        edges, spec = _instance(name, key, args)
        written = {k: str(v) for k, v in spec_meta(spec).items() if v is not None}
        claims = [(k, v) for k, v in meta.items() if k.startswith("expected_")]
        p = rv.parent
        if rv.bicentral:  # the center edge, as a parent edge
            a, b = sorted(rv.weight_centers)
            p = p[:b] + (a,) + p[b + 1:]
        kids = {v if p[v] == u else u for u, v in edges if p[v] == u or p[u] == v}
        if len(kids) == rv.n - 1 and all(written.get(k) == v for k, v in claims):
            return spec
    raise FormatError("tree does not match its family metadata")


def closed_form_hc(spec: FamilySpec) -> int:
    """Closed-form hamiltonian chromatic number for a recognised family
    instance: the generators set ``expected_hc`` only for those."""
    if spec.expected_hc is not None:
        return spec.expected_hc
    raise BadParamsError(f"no closed form for family {spec.family!r} with {spec.params}")


def family_certificate(spec: FamilySpec | None, rv: RootedView) -> _ord.Certificate:
    """Certificate of the greedy ordering, :func:`ordering.search_ordering`,
    on ``rv``: a family instance with its ``spec``, or a plain tree with None.
    On a recognised broom it is the paper's construction (module docstring).
    A failing certificate raises here only: :class:`InternalError`, a bug,
    on an instance with a closed form, else :class:`SearchFailedError`.
    """
    cert = _ord.search_ordering(rv)
    if not cert.ok:
        msg = f"greedy ordering failed certification: {cert.reason}"
        if spec is None or spec.expected_hc is None:
            raise SearchFailedError(msg)
        raise InternalError(f"{msg}, on {spec.family} {spec.params} with a closed form")
    return cert


def family_ordering(spec: FamilySpec, tree: Tree) -> list[int]:
    """The ordering of :func:`family_certificate` for an unanalysed ``tree``."""
    return list(family_certificate(spec, analyze(tree)).ordering)  # type: ignore[arg-type]
