import pytest
from hypothesis import given, settings, strategies as st

import oracles

from hamcolor.errors import FormatError, HamcolorError, NotATreeError
from hamcolor.io import (
    format_coloring,
    format_tree,
    load_coloring,
    load_tree,
    parse_coloring_text,
    parse_tree_text,
    to_dot,
)
from hamcolor.ordering import Coloring
from hamcolor.tree import Tree


def star4() -> Tree:
    return Tree(4, [(0, 1), (0, 2), (0, 3)])


class TestTreeFormat:
    def test_roundtrip(self):
        t = star4()
        parsed, meta = parse_tree_text(format_tree(t))
        assert parsed.n == 4
        assert parsed.edges == t.edges
        assert meta == {}

    def test_metadata_roundtrip(self):
        meta = {"family": "star", "params": "n=4", "expected_hc": 4}
        text = format_tree(star4(), meta)
        _, parsed_meta = parse_tree_text(text)
        assert parsed_meta == {"family": "star", "params": "n=4", "expected_hc": "4"}

    def test_none_metadata_dropped(self):
        text = format_tree(star4(), {"family": "broom", "expected_hc": None})
        assert "expected_hc" not in text

    def test_comments_and_blanks_ignored(self):
        text = "# a note\n\n4\n# between\n0 1\n0 2\n\n0 3\n"
        t, meta = parse_tree_text(text)
        assert t.n == 4
        assert meta == {}

    def test_unknown_meta_keys_ignored(self):
        t, meta = parse_tree_text("# color: blue\n# family: star\n2\n0 1\n")
        assert meta == {"family": "star"}

    def test_single_vertex_file(self):
        t, _ = parse_tree_text("1\n")
        assert t.n == 1 and t.edges == ()

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_tree_text("")
        with pytest.raises(FormatError):
            parse_tree_text("4 x\n0 1\n0 2\n0 3\n")
        with pytest.raises(FormatError):
            parse_tree_text("4\n0 1\n0 2\n")
        with pytest.raises(FormatError):
            parse_tree_text("3\n0 1\n1 2 3\n")
        with pytest.raises(FormatError):
            parse_tree_text("3\n0 1\n1 two\n")
        with pytest.raises(NotATreeError):
            parse_tree_text("3\n0 1\n0 1\n")

    def test_load_tree(self, tmp_path):
        p = tmp_path / "t.tree"
        p.write_text(format_tree(star4(), {"family": "star"}))
        t, meta = load_tree(str(p))
        assert t.edges == star4().edges
        assert meta["family"] == "star"


class TestColoringFormat:
    def test_roundtrip(self):
        col = Coloring((0, 2, 3, 4))
        text = format_coloring(col)
        assert text == "0 0\n1 2\n2 3\n3 4\n"
        assert parse_coloring_text(text, 4) == col

    def test_lines_in_any_order(self):
        col = parse_coloring_text("2 3\n0 0\n1 2\n", 3)
        assert col.colors == (0, 2, 3)

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_coloring_text("0 0\n1 2\n", 3)
        with pytest.raises(FormatError):
            parse_coloring_text("0 0\n0 1\n2 2\n", 3)
        with pytest.raises(FormatError):
            parse_coloring_text("0 0\n3 1\n2 2\n", 3)
        with pytest.raises(FormatError):
            parse_coloring_text("0 0 9\n1 1\n2 2\n", 3)
        with pytest.raises(FormatError):
            parse_coloring_text("0 zero\n1 1\n2 2\n", 3)


class TestLoadFuzz:
    def test_file_bytes_raise_only_package_errors(self, tmp_path):
        # raw bytes, or bytes built from parser tokens and broken UTF-8
        path = tmp_path / "fuzz"
        tokens = [b"0", b"1", b"2", b"3", b"-", b" ", b"\n", b"#", b":", b"x", b"\xff", b"\xc3", b"\xe2\x82"]
        file_bytes = st.one_of(st.binary(max_size=64), st.lists(st.sampled_from(tokens), max_size=40).map(b"".join))

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(file_bytes, st.integers(1, 4))
        def check(data, n):
            path.write_bytes(data)
            for load in (load_tree, lambda p: load_coloring(p, n)):
                try:
                    load(str(path))
                except HamcolorError:
                    pass

        check()


class TestDot:
    def test_plain(self):
        text = to_dot(star4())
        assert text.startswith("graph tree {")
        assert text.rstrip().endswith("}")
        assert "  0 -- 1;" in text
        assert '  3 [label="3"];' in text

    def test_with_coloring(self):
        text = to_dot(star4(), Coloring((0, 2, 3, 4)))
        assert '  1 [label="1\\nc=2"];' in text
        assert text.count(" -- ") == 3


def _outcome(read, *args):
    """What a reader gives: its tree or coloring, or its error class and message."""
    try:
        got = read(*args)
    except HamcolorError as e:
        return type(e), str(e)
    if isinstance(got, Coloring):
        return got
    if isinstance(got, tuple):  # a tree and its metadata
        tree, meta = got
        return tree.n, tree.edges, tree.adj, meta
    return got.n, got.edges, got.adj


BAD_TOKENS = ["x", "1.5", "0x1", "--1", "1e3", "٣", "+2", "1_0", "-0"]


@st.composite
def faulty_edges(draw, max_n=8):
    """A random labelled tree's edge list in random order and orientation,
    with up to four faults.  An edge is replaced by one out of range, a
    self-loop, a copy of another edge or a random pair (which may disconnect
    the graph); or an edge is dropped or added, which changes the count."""
    n = draw(st.integers(1, max_n))
    tree = oracles.prufer_tree(n, draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2), max_size=max(0, n - 2))))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in tree.edges]
    edges = draw(st.permutations(edges))
    vertex = st.integers(0, n - 1)
    faults = ["range", "loop", "dup", "rewire"] * 3 + ["drop", "add"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=4)):
        i = draw(st.integers(0, len(edges)))
        if fault == "add" or not edges:
            edges.insert(i, (draw(vertex), draw(vertex)))
        elif fault == "drop":
            del edges[i % len(edges)]
        else:
            u, v = draw(st.sampled_from(edges))
            edges[i % len(edges)] = {
                "range": (draw(vertex), draw(st.sampled_from([n, n + 3, -1]))),
                "loop": (u, u),
                "dup": (v, u) if draw(st.booleans()) else (u, v),
                "rewire": (u, draw(vertex)),
            }[fault]
    return n, edges


@st.composite
def faulty_tree_text(draw):
    """A tree file built from ``faulty_edges``, with comments, metadata and
    blank lines, plus up to three text faults: a bad token, a token too many
    or too few, a bad order line."""
    n, edges = draw(faulty_edges())
    head = str(n)
    lines = [f"{u} {v}" for u, v in edges]
    for fault in draw(st.lists(st.sampled_from(["token", "count", "order", "comment", "blank"]), max_size=3)):
        i = draw(st.integers(0, len(lines)))
        if fault in ("token", "count") and lines:
            lines[i % len(lines)] = _spoil(draw, lines[i % len(lines)], fault)
        elif fault == "order":
            head = draw(st.sampled_from([f"{n} 1", "x", str(n + 1), "0", "-2", ""]))
        elif fault == "comment":
            lines.insert(i, draw(st.sampled_from(["# family: star", "#params:n=4", "# note", "  # expected_hc: 9"])))
        else:
            lines.insert(i, "   ")
    return "\n".join([head] + lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _spoil(draw, line: str, fault: str) -> str:
    """``line`` with one token made bad, or with a token too few or too many."""
    toks = line.split()
    if fault == "count" or not toks:
        return " ".join(toks[:1] if draw(st.booleans()) else toks + ["0"])
    toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    return " ".join(toks)


@st.composite
def faulty_coloring_text(draw):
    """n lines ``v c`` in random order with up to four faults: a bad token, a
    token too many or too few, a vertex out of range or colored twice, or
    (less often) a line dropped or added; comments and blank lines mixed in."""
    n = draw(st.integers(1, 8))
    lines = [[v, draw(st.integers(-3, 40))] for v in draw(st.permutations(range(n)))]
    lines = [" ".join(map(str, line)) for line in lines]
    faults = ["token", "count", "range", "twice", "comment"] * 2 + ["drop", "add"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=4)):
        i = draw(st.integers(0, len(lines)))
        if fault in ("token", "count") and lines:
            lines[i % len(lines)] = _spoil(draw, lines[i % len(lines)], fault)
        elif fault == "range" and lines:
            lines[i % len(lines)] = f"{draw(st.sampled_from([n, n + 2, -1]))} 5"
        elif fault == "twice" and lines:
            lines[i % len(lines)] = f"{draw(st.integers(0, n - 1))} 3"
        elif fault == "drop" and lines:
            del lines[i % len(lines)]
        elif fault == "add":
            lines.insert(i, f"{draw(st.integers(0, n - 1))} 1")
        else:
            lines.insert(i, draw(st.sampled_from(["# c", "", "  "])))
    return n, "\n".join(lines) + "\n"


class TestReaderParity:
    """The readers and ``Tree`` give what the line-by-line readers and the
    edge-by-edge validation in ``oracles`` give: the same tree or coloring,
    or the same error class and message, on inputs with several faults."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(faulty_tree_text())
    def test_tree_text(self, text):
        assert _outcome(parse_tree_text, text) == _outcome(oracles.reference_parse_tree_text, text)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(faulty_coloring_text())
    def test_coloring_text(self, case):
        n, text = case
        assert _outcome(parse_coloring_text, text, n) == _outcome(oracles.reference_parse_coloring_text, text, n)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(faulty_edges(), st.lists(st.sampled_from([(1,), (0, 1, 2), 5, None, (1.0, 0), ("1", 0), (True, 0), (None, 1)]), max_size=2), st.data())
    def test_tree_edges(self, case, odd, data):
        # edges that are not pairs of ints go in too, anywhere in the list
        n, edges = case
        for e in odd:
            edges.insert(data.draw(st.integers(0, len(edges))), e)
        assert _outcome(Tree, n, edges) == _outcome(oracles.ReferenceTree, n, edges)

    def test_duplicate_before_out_of_range_names_the_duplicate(self):
        for read in (Tree, oracles.ReferenceTree):
            with pytest.raises(NotATreeError, match=r"duplicate edge \(0, 1\)"):
                read(4, [(0, 1), (1, 0), (2, 9)])
