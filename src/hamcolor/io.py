"""Plain-text formats for trees and colorings, plus DOT export.

Tree files: ``#`` starts a comment line; the first content line is the order
n, followed by exactly n-1 lines ``u v``.  Generated files carry their family
metadata in leading comments (``# key: value``), which the reader returns as
a dict.  Coloring files are n lines ``v c``.

The tree and coloring readers convert every line in one comprehension.  Only
when that fails, or a coloring names a vertex outside 0..n-1 or twice, do
they walk the lines again to name the first bad one; the walk is the
line-by-line reader, so the error and its message are the ones it gives.
"""

from __future__ import annotations

from .errors import FormatError, InternalError
from .families import META_KEYS
from .ordering import Coloring
from .tree import Tree, build_tree


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what}: expected an integer, got {tok!r}") from None


def parse_tree_text(text: str) -> tuple[Tree, dict[str, str]]:
    """Parse a tree file; returns the tree and any ``# key: value`` metadata."""
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    meta: dict[str, str] = {}
    content = lines
    if "#" in text:
        content = [s for s in lines if s[0] != "#"]
        for body in [s for s in lines if s[0] == "#"]:
            key, sep, val = body[1:].partition(":")
            if sep and key.strip() in META_KEYS:
                meta[key.strip()] = val.strip()
    if not content:
        raise FormatError("empty tree file")
    if len(content[0].split()) != 1:
        raise FormatError(f"first content line must be the order, got {content[0]!r}")
    n = _int(content[0], "order")
    edge_lines = content[1:]
    if len(edge_lines) != max(0, n - 1):
        raise FormatError(f"expected {max(0, n - 1)} edge lines for order {n}, got {len(edge_lines)}")
    try:
        edges = [(int(u), int(v)) for u, v in map(str.split, edge_lines)]
    except ValueError:
        # name the first line that is not two integers
        for line in edge_lines:
            toks = line.split()
            if len(toks) != 2:
                raise FormatError(f"edge line must be 'u v', got {line!r}") from None
            _int(toks[0], "edge")
            _int(toks[1], "edge")
        raise InternalError("an edge list the fast reader rejected has no bad line") from None
    return build_tree(n, edges), meta


def format_tree(tree: Tree, meta: dict[str, object] | None = None) -> str:
    lines = []
    if meta:
        for key in META_KEYS:
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


def parse_coloring_text(text: str, n: int) -> Coloring:
    """n lines of ``vertex color`` (blank lines and ``#`` comments skipped)."""
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    if len(lines) != n:
        raise FormatError(f"coloring file must hold {n} lines, got {len(lines)}")
    try:
        by_vertex = {int(v): int(c) for v, c in map(str.split, lines)}
    except ValueError:
        by_vertex = {}
    if by_vertex.keys() == set(range(n)):
        return Coloring(tuple(map(by_vertex.__getitem__, range(n))))
    # name the first bad line: its token count or integers, its vertex id
    # outside 0..n-1, or a vertex it colors a second time
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
    raise InternalError("a coloring file the fast reader rejected has no bad line")


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
