"""Plain-text formats for trees, orderings and colorings, plus DOT export.

Tree files: ``#`` starts a comment line; the first content line is the order
n, followed by exactly n-1 lines ``u v``.  Generated files carry their family
metadata in leading comments (``# key: value``), which the reader returns as
a dict.  Ordering files are a single line of n vertex ids.  Coloring files
are n lines ``v c``.
"""

from __future__ import annotations

from .errors import FormatError
from .ordering import Coloring
from .tree import Tree, build_tree

_META_KEYS = ("family", "params", "expected_n", "expected_hc", "expected_total_level")


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what}: expected an integer, got {tok!r}") from None


def parse_tree_text(text: str) -> tuple[Tree, dict[str, str]]:
    """Parse a tree file; returns the tree and any ``# key: value`` metadata."""
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
                if key.strip() in _META_KEYS:
                    meta[key.strip()] = val.strip()
            continue
        content.append(stripped)
    if not content:
        raise FormatError("empty tree file")
    if len(content[0].split()) != 1:
        raise FormatError(f"first content line must be the order, got {content[0]!r}")
    n = _int(content[0], "order")
    edge_lines = content[1:]
    if len(edge_lines) != max(0, n - 1):
        raise FormatError(f"expected {max(0, n - 1)} edge lines for order {n}, got {len(edge_lines)}")
    edges = []
    for line in edge_lines:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"edge line must be 'u v', got {line!r}")
        edges.append((_int(toks[0], "edge"), _int(toks[1], "edge")))
    return build_tree(n, edges), meta


def format_tree(tree: Tree, meta: dict[str, object] | None = None) -> str:
    lines = []
    if meta:
        for key in _META_KEYS:
            if key in meta and meta[key] is not None:
                lines.append(f"# {key}: {meta[key]}")
    lines.append(str(tree.n))
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """File contents as text; a byte that is not UTF-8 is a :class:`FormatError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start})") from None


def load_tree(path: str) -> tuple[Tree, dict[str, str]]:
    return parse_tree_text(_read_text(path))


def parse_ordering_text(text: str, n: int) -> list[int]:
    """One line of n vertex ids (comments and blank lines ignored)."""
    lines = [
        s for s in (line.strip() for line in text.splitlines())
        if s and not s.startswith("#")
    ]
    if len(lines) != 1:
        raise FormatError(f"ordering file must hold one content line, got {len(lines)}")
    toks = lines[0].split()
    if len(toks) != n:
        raise FormatError(f"ordering must list {n} vertices, got {len(toks)}")
    return [_int(t, "ordering") for t in toks]


def format_ordering(order: list[int]) -> str:
    return " ".join(str(v) for v in order) + "\n"


def parse_coloring_text(text: str, n: int) -> Coloring:
    """n lines of ``vertex color``."""
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
        v = _int(toks[0], "vertex")
        c = _int(toks[1], "color")
        if not 0 <= v < n:
            raise FormatError(f"vertex {v} outside 0..{n - 1}")
        if colors[v] is not None:
            raise FormatError(f"vertex {v} colored twice")
        colors[v] = c
    return Coloring(tuple(colors))  # type: ignore[arg-type]


def load_coloring(path: str, n: int) -> Coloring:
    return parse_coloring_text(_read_text(path), n)


def format_coloring(coloring: Coloring) -> str:
    return "\n".join(f"{v} {c}" for v, c in enumerate(coloring.colors)) + "\n"


def to_dot(tree: Tree, coloring: Coloring | None = None) -> str:
    """DOT text for the tree, with colors as node labels when given."""
    lines = ["graph tree {", "  node [shape=circle];"]
    for v in range(tree.n):
        if coloring is not None:
            lines.append(f'  {v} [label="{v}\\nc={coloring.colors[v]}"];')
        else:
            lines.append(f'  {v} [label="{v}"];')
    for u, v in tree.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
