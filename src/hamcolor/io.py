"""Plain-text formats for trees and colorings, plus DOT export.

Tree files: ``#`` starts a comment line; the first content line is the order
n, followed by exactly n-1 lines ``u v``.  Generated files carry their family
metadata in leading comments (``# key: value``), which the reader returns as
a dict.  Coloring files are n lines ``v c``.

A file in the format hamcolor writes is converted in one ``json.loads`` call,
after one ``bytes.translate`` call checks its bytes and the shape of its
lines: ASCII digits and ``-``, one space between the two tokens of a line,
every line ended by LF, and for a tree an optional leading block of
``# key: value`` lines (with the digits and ``-`` deleted, exactly the
spaces and LFs of that format must be left).  A byte that is not UTF-8 is a
``FormatError``.  Any miss on that path (a file outside the format, a
shape or count mismatch, or a coloring not in id order) reads the text again
with the general reader, which walks it one line at a time and returns the
result or names the first bad line.  A tree file that passes reaches
``Tree`` with the order and edges the general reader would read, so an error
from ``Tree`` is raised there, as that reader would raise it; every other
error comes from that reader, with its message.
"""

from __future__ import annotations

import json

from .errors import FormatError
from .families import META_KEYS
from .ordering import Coloring
from .tree import Tree, build_tree

# the bytes of a token in a file hamcolor writes
_TOKEN_BYTES = b"-0123456789"


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what}: expected an integer, got {tok!r}") from None


def _ints(text: str, shape: bytes) -> list[int] | None:
    """Every integer in ``text``, in order, converted by one ``json.loads``,
    when the spaces and LFs between them are exactly ``shape`` and the text
    ends with LF; else None.

    With the token bytes deleted, only ``shape`` may be left, so no other
    byte occurs and every line holds the tokens the caller expects; the
    tokens are then JSON exactly when none is empty or '-', has a leading
    zero or a '-' inside, and JSON reads each as ``int`` does."""
    if not (text.endswith("\n") and text.isascii()) or text.encode().translate(None, _TOKEN_BYTES) != shape:
        return None
    try:
        return json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None


def _meta(comments) -> dict[str, str]:
    """The ``# key: value`` metadata among comment lines."""
    meta: dict[str, str] = {}
    for line in comments:
        key, sep, val = line[1:].partition(":")
        if sep and key.strip() in META_KEYS:
            meta[key.strip()] = val.strip()
    return meta


def parse_tree_text(text: str) -> tuple[Tree, dict[str, str]]:
    """Parse a tree file; returns the tree and any ``# key: value`` metadata."""
    # the file as format_tree writes it: comment lines, then the order and
    # the edges; any miss reads the text again line by line
    end = 0
    while text.startswith("#", end) and (stop := text.find("\n", end)) >= 0:
        end = stop + 1
    head, body = text[:end].splitlines(), text[end:]
    ints = None
    # a comment that splitlines breaks again (at a lone CR, a VT, ...) holds a
    # line the general reader does not see as a comment
    if len(head) == text.count("\n", 0, end):
        ints = _ints(body, b"\n" + b" \n" * (body.count("\n") - 1))
    # with the edge count the general reader expects, it would read the same
    # order and edges, so an error from Tree is the one it would raise
    if ints and len(ints) == 1 + 2 * max(0, ints[0] - 1):
        return build_tree(ints[0], list(zip(ints[1::2], ints[2::2]))), _meta(head)
    return _read_tree_lines(text)


def _read_tree_lines(text: str) -> tuple[Tree, dict[str, str]]:
    """The tree reader for any text: one line at a time, naming the first
    bad line."""
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    content = [s for s in lines if s[0] != "#"]
    meta = _meta([s for s in lines if s[0] == "#"])
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
    # the file as format_coloring writes it: one line per vertex, in id order
    ints = _ints(text, b" \n" * n)
    if ints is not None and ints[::2] == list(range(n)):
        return Coloring(tuple(ints[1::2]))
    return _read_coloring_lines(text, n)


def _read_coloring_lines(text: str, n: int) -> Coloring:
    """The coloring reader for any text: one line at a time, naming the
    first bad line: its token count or integers, its vertex id outside
    0..n-1, or a vertex it colors a second time."""
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    if len(lines) != n:
        raise FormatError(f"coloring file must hold {n} lines, got {len(lines)}")
    by_vertex: list[int | None] = [None] * n
    for line in lines:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"coloring line must be 'v c', got {line!r}")
        v = _int(toks[0], "vertex")
        c = _int(toks[1], "color")
        if not 0 <= v < n:
            raise FormatError(f"vertex {v} outside 0..{n - 1}")
        if by_vertex[v] is not None:
            raise FormatError(f"vertex {v} colored twice")
        by_vertex[v] = c
    return Coloring(tuple(by_vertex))  # type: ignore[arg-type]


def load_coloring(path: str, n: int) -> Coloring:
    return parse_coloring_text(_read_text(path), n)


def format_coloring(coloring: Coloring) -> str:
    """n lines ``v c``, in one ``%`` format over the ids and colors
    interleaved, which writes each int as ``str`` does; the empty coloring
    is one LF."""
    colors = coloring.colors
    n = len(colors)
    flat = [0] * (2 * n)
    flat[::2] = range(n)
    flat[1::2] = colors
    return "%d %d\n" * n % tuple(flat) or "\n"


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
