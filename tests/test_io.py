import enum

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

import hamcolor.io
import hamcolor.tree
from hamcolor.cli import main
from hamcolor.errors import BadVertexIdError, FormatError, HamcolorError, NegativeColorError, NotATreeError
from hamcolor.families import META_KEYS
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

    def test_int_subclass_endpoints_refused(self):
        # True == 1, so only the types can tell; the reader builds plain ints
        with pytest.raises(BadVertexIdError, match="non-integer endpoints"):
            Tree(3, [(True, 0), (1, 2)])
        t, _ = parse_tree_text("3\n1 0\n1 2\n")
        assert all(type(x) is int for nbrs in t.adj for x in nbrs)
        assert format_tree(t) == "3\n0 1\n1 2\n"

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

    @staticmethod
    def joined(colors) -> str:
        """The coloring file written one f-string a line."""
        return "\n".join(f"{v} {c}" for v, c in enumerate(colors)) + "\n"

    def test_one_format_call_writes_each_int_as_str(self):
        # negative values, 0, values past 2**63, the empty coloring
        cases = [(0,), (-1, 0, 1), (2**63, 2**64 + 5, -(2**63) - 1, 10**30), tuple(range(-500, 1000, 3)), ()]
        for colors in cases:
            assert format_coloring(Coloring(colors)) == self.joined(colors), colors
        assert format_coloring(Coloring(())) == "\n"

    def test_int_subclasses_and_floats_refused(self):
        # no coloring reaches the writer with a color its reader would refuse
        class Shade(enum.IntEnum):
            DARK = 3

        for colors in ((0, True, 2), (False,), (0, 1.5), (2.0, 3), (Shade.DARK, 4), (0, Shade.DARK)):
            with pytest.raises(NegativeColorError):
                Coloring(colors)

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


def _canonical_faults(draw, text: str, skip: int, faults: list[str]) -> str:
    """``text`` with 0-3 of ``faults`` that keep to the characters of the
    files hamcolor writes, each on one line past the first ``skip``: a
    token as '01', '-0' or '--1', a line '1 -', a space doubled or trailing,
    a line with one or three tokens, CRLF, a ``#`` line or a blank line in
    the body, a line copied, dropped or swapped with another; or the final
    newline dropped."""
    lines = text.split("\n")[:-1]
    end = "\n"
    for fault in draw(st.lists(st.sampled_from(faults), max_size=3)):
        i = draw(st.integers(skip, max(skip, len(lines) - 1)))
        if fault == "nofinal":
            end = ""
        elif fault == "comment":
            lines.insert(i, draw(st.sampled_from(["#", "# family: star", "# params: n=4"])))
        elif fault == "blank":
            lines.insert(i, "")
        elif i >= len(lines):  # no line past the first ``skip`` is left
            continue
        elif fault == "copy":
            lines.insert(i, lines[draw(st.integers(skip, len(lines) - 1))])
        elif fault == "drop":
            del lines[i]
        elif fault == "swap":
            j = draw(st.integers(skip, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif fault in ("zero", "minus", "minus2"):
            toks = lines[i].split(" ")
            j = draw(st.integers(0, len(toks) - 1))
            toks[j] = {"zero": "0", "minus": "-", "minus2": "--"}[fault] + toks[j]
            lines[i] = " ".join(toks)
        else:
            first = lines[i].split(" ")[0]
            lines[i] = {
                "dangling": first + " -",
                "double": lines[i].replace(" ", "  ", 1) if " " in lines[i] else lines[i] + "  0",
                "trailing": lines[i] + " ",
                "one": first,
                "three": lines[i] + " " + first,
                "crlf": lines[i] + "\r",
            }[fault]
    return "\n".join(lines) + end


CANONICAL_FAULTS = ["zero", "minus", "minus2", "dangling", "double", "trailing", "one", "three",
                    "crlf", "comment", "blank", "copy", "drop", "nofinal"]
META_VALUES = ["star", "broom_even", "n=10,d=4", "58", "a: b", "", "é", "x\x0by"]


@st.composite
def canonical_tree_text(draw):
    """A tree file exactly as ``format_tree`` writes it, metadata block
    included, with 0-3 faults from ``_canonical_faults`` in its body."""
    n = draw(st.integers(1, 9))
    tree = oracles.prufer_tree(n, draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2), max_size=max(0, n - 2))))
    meta = draw(st.dictionaries(st.sampled_from(META_KEYS), st.sampled_from(META_VALUES)))
    text = format_tree(tree, meta)
    return _canonical_faults(draw, text, len(meta), CANONICAL_FAULTS)


@st.composite
def canonical_coloring_text(draw):
    """n lines exactly as ``format_coloring`` writes them, in id order, with
    0-3 faults from ``_canonical_faults``, two lines swapped among them."""
    n = draw(st.integers(1, 8))
    text = format_coloring(Coloring(tuple(draw(st.lists(st.integers(-3, 40), min_size=n, max_size=n)))))
    return n, _canonical_faults(draw, text, 0, CANONICAL_FAULTS + ["swap"])


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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(canonical_tree_text())
    @example("2\n0 1\n55")  # no final LF: '55' must not lose a digit to it
    @example("3\n0 1 1\n2\n")  # the right token count, but not two to a line
    def test_canonical_tree_text(self, text):
        assert _outcome(parse_tree_text, text) == _outcome(oracles.reference_parse_tree_text, text)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(canonical_coloring_text())
    @example((2, "0 3\n1 4\n77"))  # likewise
    @example((2, "0 3 1\n4\n"))
    def test_canonical_coloring_text(self, case):
        n, text = case
        assert _outcome(parse_coloring_text, text, n) == _outcome(oracles.reference_parse_coloring_text, text, n)

    def test_duplicate_before_out_of_range_names_the_duplicate(self):
        for read in (Tree, oracles.ReferenceTree):
            with pytest.raises(NotATreeError, match=r"duplicate edge \(0, 1\)"):
                read(4, [(0, 1), (1, 0), (2, 9)])


class TestBulkPath:
    """The files hamcolor writes take the bulk path: with the line readers and
    the edge-by-edge walk made to fail, they still load."""

    @pytest.fixture
    def no_general_readers(self, monkeypatch):
        def fail(*args):
            raise AssertionError("general reader called")

        monkeypatch.setattr(hamcolor.io, "_read_tree_lines", fail)
        monkeypatch.setattr(hamcolor.io, "_read_coloring_lines", fail)
        monkeypatch.setattr(hamcolor.tree, "_checked_edges", fail)

    @pytest.fixture
    def written(self, tmp_path, capsys):
        """A tree file from ``gen``, with its metadata, and the coloring
        ``color`` wrote for it."""
        tree, coloring = tmp_path / "b.tree", tmp_path / "b.coloring"
        assert main(["gen", "--family", "broom", "--params", "n=40,d=7", "-o", str(tree)]) == 0
        assert main(["color", str(tree), "--coloring-out", str(coloring)]) == 0
        capsys.readouterr()
        return tree, coloring

    def test_gen_and_color_files(self, written, no_general_readers):
        tree_path, coloring_path = written
        text = tree_path.read_text()
        assert text.startswith("# family: ")
        want_tree, want_meta = oracles.reference_parse_tree_text(text)
        tree, meta = load_tree(str(tree_path))
        assert (tree.n, tree.edges, tree.adj, meta) == (want_tree.n, want_tree.edges, want_tree.adj, want_meta)
        assert load_coloring(str(coloring_path), tree.n) == oracles.reference_parse_coloring_text(
            coloring_path.read_text(), tree.n)

    def test_tree_errors_raise_on_the_bulk_path(self, monkeypatch):
        # canonical files with as many edges as their order asks for: Tree's
        # error is the general reader's, raised without reading the text again
        general = hamcolor.io._read_tree_lines
        bad = {
            "3\n0 1\n0 1\n": "duplicate edge",
            "# family: star\n3\n0 1\n1 1\n": "self-loop",
            "3\n0 1\n1 3\n": "outside vertex range",
            "5\n0 1\n1 2\n2 0\n3 4\n": "not connected",
            "0\n": "positive integer",
            "-2\n": "positive integer",
        }
        want = {text: _outcome(general, text) for text in bad}

        def fail(text):
            raise AssertionError("general reader called")

        monkeypatch.setattr(hamcolor.io, "_read_tree_lines", fail)
        for text, words in bad.items():
            assert _outcome(parse_tree_text, text) == want[text]
            assert words in want[text][1]
        # an edge count that does not match the order still reaches it
        for text in ("4\n0 1\n0 2\n", "2\n0 1\n1 2\n", "1\n0 1\n"):
            assert _outcome(general, text)[1].startswith("expected ")
            with pytest.raises(AssertionError, match="general reader"):
                parse_tree_text(text)

    def test_other_files_reach_the_general_readers(self, written, no_general_readers):
        # the same files with CRLF line ends
        tree_path, coloring_path = written
        for path in written:
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(AssertionError, match="general reader"):
            load_tree(str(tree_path))
        with pytest.raises(AssertionError, match="general reader"):
            load_coloring(str(coloring_path), 40)
