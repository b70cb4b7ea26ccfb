import pytest
from hypothesis import given, settings, strategies as st

from hamcolor.errors import FormatError, HamcolorError, NotATreeError
from hamcolor.io import (
    format_coloring,
    format_ordering,
    format_tree,
    load_coloring,
    load_tree,
    parse_coloring_text,
    parse_ordering_text,
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


class TestOrderingFormat:
    def test_roundtrip(self):
        text = format_ordering([2, 0, 3, 1])
        assert text == "2 0 3 1\n"
        assert parse_ordering_text(text, 4) == [2, 0, 3, 1]

    def test_comments_allowed(self):
        assert parse_ordering_text("# certified\n1 0 2\n", 3) == [1, 0, 2]

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_ordering_text("0 1\n2\n", 3)
        with pytest.raises(FormatError):
            parse_ordering_text("0 1\n", 3)
        with pytest.raises(FormatError):
            parse_ordering_text("0 one 2\n", 3)


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
        # raw bytes, or bytes built from parser tokens and broken UTF-8; the
        # ordering parser takes text, so it gets the bytes with stray ones escaped
        path = tmp_path / "fuzz"
        tokens = [b"0", b"1", b"2", b"3", b"-", b" ", b"\n", b"#", b":", b"x", b"\xff", b"\xc3", b"\xe2\x82"]
        file_bytes = st.one_of(st.binary(max_size=64), st.lists(st.sampled_from(tokens), max_size=40).map(b"".join))

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(file_bytes, st.integers(1, 4))
        def check(data, n):
            path.write_bytes(data)
            loaders = (
                load_tree,
                lambda p: load_coloring(p, n),
                lambda p: parse_ordering_text(data.decode("utf-8", "surrogateescape"), n),
            )
            for load in loaders:
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
