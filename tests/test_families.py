import random

import oracles
import pytest

from hamcolor import families
from hamcolor.bounds import is_applicable, lower_bound_weight
from hamcolor.errors import BadParamsError, FormatError, InternalError, NotApplicableError
from hamcolor.families import (
    META_KEYS,
    FamilySpec,
    family_certificate,
    family_ordering,
    generate,
    spec_from_meta,
    spec_meta,
)
from hamcolor.io import format_tree, parse_tree_text
from hamcolor.solver import verify_coloring
from hamcolor.tree import Tree, analyze, weight_centers


def certified_span(tree, spec) -> int:
    """Span of the certified family coloring, after re-verifying it."""
    rv = analyze(tree)
    cert = family_certificate(spec, rv)
    assert cert.ok and cert.kind == "spacing"
    assert cert.coloring == oracles.prefix_sum_coloring(rv, cert.ordering)
    assert not verify_coloring(rv, cert.coloring)
    return cert.coloring.span


class TestStar:
    def test_shape(self):
        t, spec = generate("star", {"n": 5})
        assert t.edges == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert spec.family == "star"
        assert spec.expected_n == 5
        assert spec.expected_hc == 9
        assert spec.expected_total_level == 4

    def test_rejects_bad_params(self):
        with pytest.raises(BadParamsError):
            generate("star", {"n": 2})
        with pytest.raises(BadParamsError):
            generate("star", {"n": "5"})


class TestBroom:
    def test_shape(self):
        t, _ = generate("broom", {"n": 6, "d": 3})
        assert t.edges == ((0, 1), (0, 3), (0, 4), (0, 5), (1, 2))

    def test_recognised_even(self):
        t, spec = generate("broom", {"n": 10, "d": 4})
        assert spec.family == "broom_even"
        assert spec.expected_hc == 58
        assert spec.expected_total_level == 12
        assert analyze(t).total_level == 12

    def test_recognised_odd(self):
        _, spec = generate("broom", {"n": 6, "d": 3})
        assert spec.family == "broom_odd"
        assert spec.expected_hc == 14
        assert spec.expected_total_level == 6
        _, spec = generate("broom", {"n": 15, "d": 5})
        assert spec.expected_hc == 157
        assert spec.expected_total_level == 20

    def test_off_family_sizes_are_plain(self):
        # the specs differ, the last two only in their parameters
        specs = set()
        for n, d in ((9, 4), (11, 4), (7, 3), (12, 2), (10, 5), (10, 6)):
            _, spec = generate("broom", {"n": n, "d": d})
            assert spec.family == "broom"
            assert spec.expected_hc is None
            assert spec.expected_total_level is None
            specs.add(spec)
        assert len(specs) == 6

    def test_rejects_bad_params(self):
        with pytest.raises(BadParamsError):
            generate("broom", {"n": 4, "d": 4})
        with pytest.raises(BadParamsError):
            generate("broom", {"n": 5, "d": 1})


class TestATree:
    def test_base_cases(self):
        t, spec = generate("a_tree", {"d": 2})
        assert t.edges == ((0, 1),)
        assert spec.expected_hc == 0
        t, spec = generate("a_tree", {"d": 3})
        assert t.edges == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert spec.expected_hc == 9

    def test_first_even_growth(self):
        t, spec = generate("a_tree", {"d": 4})
        assert t.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7))
        assert spec.expected_n == 8
        assert spec.expected_hc == 30
        assert spec.expected_total_level == 6

    def test_sizes_and_centers(self):
        for d in range(2, 9):
            t, spec = generate("a_tree", {"d": d})
            assert t.n == spec.expected_n
            assert t.diameter == d - 1
            rv = analyze(t)
            assert rv.bicentral == (d % 2 == 0)
            assert rv.total_level == spec.expected_total_level

    def test_frozen_values(self):
        expect = {3: 9, 4: 30, 5: 105, 6: 220, 7: 465}
        for d, hc in expect.items():
            assert generate("a_tree", {"d": d})[1].expected_hc == hc

    def test_rejects_bad_params(self):
        with pytest.raises(BadParamsError):
            generate("a_tree", {"d": 1})


class TestCaterpillar:
    def test_shape(self):
        t, spec = generate("caterpillar", {"m": 4, "d": 3})
        assert t.edges == ((0, 1), (1, 2), (1, 4), (2, 3), (2, 5))
        assert spec.expected_n == 6
        # inner spine vertices reach degree d, the ends stay leaves
        assert len(t.adj[1]) == 3 and len(t.adj[0]) == 1

    def test_frozen_values(self):
        expect = {
            (3, 3): 4,
            (4, 3): 12,
            (5, 3): 28,
            (6, 4): 120,
            (7, 5): 352,
            (8, 3): 108,
        }
        for (m, d), hc in expect.items():
            t, spec = generate("caterpillar", {"m": m, "d": d})
            assert spec.expected_hc == hc
            assert analyze(t).total_level == spec.expected_total_level

    def test_rejects_bad_params(self):
        with pytest.raises(BadParamsError):
            generate("caterpillar", {"m": 2, "d": 3})
        with pytest.raises(BadParamsError):
            generate("caterpillar", {"m": 4, "d": 2})


class TestGenerate:
    def test_dispatch_and_aliases(self):
        t, spec = generate("a-tree", {"d": 4})
        assert spec.family == "a_tree" and t.n == 8
        t, spec = generate("a_tree", {"d": 4})
        assert t.n == 8
        assert generate("star", {"n": 4})[1].family == "star"
        assert generate("broom", {"n": 10, "d": 4})[1].family == "broom_even"
        # params follow the family's parameter order, not the caller's
        _, spec = generate("broom", {"d": 4, "n": 10})
        assert list(spec.params.items()) == [("n", 10), ("d", 4)]
        assert spec_meta(spec)["params"] == "n=10,d=4"

    def test_missing_and_unknown(self):
        with pytest.raises(BadParamsError):
            generate("star", {})
        with pytest.raises(BadParamsError):
            generate("wheel", {"n": 5})

    def test_metadata_round_trip(self):
        # the metadata gen writes reads back through a tree file as the spec,
        # every key it fills included, and a bad family or parameter fails
        # there as in generate
        brooms = [{"n": n, "d": d} for n in range(3, 12) for d in range(2, n)]
        even = [p for p in brooms if generate("broom", p)[1].family == "broom_even"]
        cases = [("star", {"n": n}) for n in range(3, 9)]
        cases += [("broom", p) for p in brooms] + [("broom_even", p) for p in even]
        cases += [(f, {"d": d}) for f in ("a-tree", "a_tree") for d in range(2, 12)]
        cases += [("caterpillar", {"m": m, "d": d}) for m in range(3, 10) for d in range(3, 7)]
        for family, params in cases:
            t, spec = generate(family, params)
            meta = spec_meta(spec)
            assert tuple(meta) == META_KEYS
            read_tree, read = parse_tree_text(format_tree(t, meta))
            assert read == {k: str(v) for k, v in meta.items() if v is not None}, (family, params)
            back = spec_from_meta(analyze(read_tree), read)
            assert back == spec, (family, params)
        t = generate("star", {"n": 4})[0]
        bad = [("star", {"n": 2}), ("star", {}), ("broom", {"n": 4, "d": 4}), ("broom_odd", {"d": 3}),
               ("a-tree", {"d": 1}), ("caterpillar", {"m": 2, "d": 3}), ("caterpillar", {"m": 4}),
               ("wheel", {"n": 5}), ("star", {"n": 5, "q": 3}), ("broom", {"n": 9, "d": 4, "m": 3})]
        bad = [(family, params, t) for family, params in bad]
        # a broom_even claim on any other broom, read against that broom's tree
        bad += [("broom_even", p, generate("broom", p)[0]) for p in brooms if p not in even]
        for family, params, tree in bad:
            with pytest.raises(BadParamsError) as gen_err:
                generate(family, params)
            meta = {"family": family, "params": ",".join(f"{k}={v}" for k, v in params.items())}
            with pytest.raises(BadParamsError) as meta_err:
                spec_from_meta(analyze(tree), meta)
            assert str(meta_err.value) == str(gen_err.value)

    def test_sub_family_claim_must_match(self):
        with pytest.raises(BadParamsError, match="build 'broom_odd', not 'broom_even'"):
            generate("broom-even", {"n": 6, "d": 3})
        # plain broom stays valid for every broom, recognised ones included
        t, spec = generate("broom", {"n": 10, "d": 4})
        back = spec_from_meta(analyze(t), {"family": "broom", "params": "n=10,d=4"})
        assert back == spec and back.family == "broom_even"

    def test_expected_claims_must_match(self):
        # each expected_* value present is a claim about the instance; the
        # broom n=9, d=4 has no closed form, so it may not claim an hc
        for family, params in (("star", {"n": 5}), ("broom", {"n": 10, "d": 4}), ("broom", {"n": 9, "d": 4})):
            t, spec = generate(family, params)
            true = {k: str(v) for k, v in spec_meta(spec).items() if v is not None}
            assert spec_from_meta(analyze(t), true) == spec
            for key in ("expected_n", "expected_hc", "expected_total_level"):
                wrong = str(getattr(spec, key) or 0) + "1"
                for lie in (wrong, "None", " "):
                    with pytest.raises(FormatError, match="tree does not match its family metadata"):
                        spec_from_meta(analyze(t), {**true, key: lie})
                # a claim with no family and params cannot be checked
                with pytest.raises(FormatError, match="needs both 'family' and 'params'"):
                    spec_from_meta(analyze(t), {key: true.get(key, "1")})

    # one- and two-center instances: a-tree d=2 and d=4 and the even
    # caterpillar have two, joined by an edge that is no parent edge; on
    # broom n=11, d=10 the path edges below the center run child to parent
    INSTANCES = [("star", {"n": 6}), ("broom", {"n": 10, "d": 4}), ("broom", {"n": 11, "d": 10}),
                 ("a-tree", {"d": 2}), ("a-tree", {"d": 4}), ("a-tree", {"d": 5}),
                 ("caterpillar", {"m": 5, "d": 3}), ("caterpillar", {"m": 6, "d": 4})]

    @staticmethod
    def assert_read(t: Tree, meta: dict[str, str], spec) -> None:
        """``spec_from_meta`` reads ``meta`` on ``t`` as ``spec`` exactly when
        ``t`` has the instance's edges, and else rejects it."""
        if set(t.edges) == set(generate(spec.family, spec.params)[0].edges):
            assert spec_from_meta(analyze(t), meta) == spec
        else:
            with pytest.raises(FormatError, match="tree does not match its family metadata"):
                spec_from_meta(analyze(t), meta)

    def test_moved_leaf_must_not_match(self):
        # every leaf of each instance moved onto every other vertex in turn,
        # the instance's metadata kept
        for family, params in self.INSTANCES:
            t, spec = generate(family, params)
            meta = {k: str(v) for k, v in spec_meta(spec).items() if v is not None}
            self.assert_read(t, meta, spec)
            for leaf in (v for v in range(t.n) if len(t.adj[v]) == 1):
                kept = [e for e in t.edges if leaf not in e]
                for x in range(t.n):
                    if x != leaf and x not in t.adj[leaf]:
                        moved = Tree(t.n, kept + [(leaf, x)])
                        assert set(moved.edges) != set(t.edges)
                        self.assert_read(moved, meta, spec)

    def test_relabelled_instance_must_not_match(self):
        # seeded relabellings keep the metadata: only an automorphism keeps
        # the instance's edges, and each instance but the single edge meets
        # some other relabelling
        rng = random.Random(54)
        for family, params in self.INSTANCES:
            t, spec = generate(family, params)
            meta = {k: str(v) for k, v in spec_meta(spec).items() if v is not None}
            moved = 0
            for _ in range(5):
                perm = list(range(t.n))
                rng.shuffle(perm)
                s = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
                moved += set(s.edges) != set(t.edges)
                self.assert_read(s, meta, spec)
            assert moved or t.n == 2, (family, params)

    def test_generated_edges_must_be_distinct(self, monkeypatch):
        # a builder that repeats an edge, as given or reversed, spans fewer
        # edges than the file's tree, though each joins a vertex to its parent
        t, spec = generate("star", {"n": 4})
        names, order, _ = families._FAMILIES["star"]
        for edges in ([(0, 1), (0, 2), (0, 2)], [(0, 1), (0, 2), (2, 0)]):
            build = lambda n, edges=edges: ("star", edges, spec.expected_hc, spec.expected_total_level)
            monkeypatch.setitem(families._FAMILIES, "star", (names, order, build))
            with pytest.raises(FormatError, match="tree does not match its family metadata"):
                spec_from_meta(analyze(t), {"family": "star", "params": "n=4"})

    def test_closed_form_lookup(self):
        assert generate("star", {"n": 6})[1].expected_hc == 16
        assert generate("broom", {"n": 9, "d": 4})[1].expected_hc is None
        assert FamilySpec("star", {"n": 4}).expected_hc is None  # recognised family, no value


class TestAssembly:
    SMALL = {"star": {"n": 5}, "broom": {"n": 10, "d": 4}, "a_tree": {"d": 4}, "caterpillar": {"m": 4, "d": 3}}

    def test_every_builder_edge_count_is_checked(self, monkeypatch):
        assert set(self.SMALL) == set(families._FAMILIES)
        for key, params in self.SMALL.items():
            names, order, build = families._FAMILIES[key]

            def short(*args, build=build):
                family, edges, hc, total = build(*args)
                return family, edges[:-1], hc, total

            with monkeypatch.context() as m:
                m.setitem(families._FAMILIES, key, (names, order, short))
                with pytest.raises(InternalError) as err:
                    generate(key, params)
            assert key in str(err.value) and "edges" in str(err.value)

    def test_closed_form_division_must_be_exact(self):
        assert families._as_int(12, 3, "a-tree span") == 4
        with pytest.raises(InternalError, match="a-tree span is not an integer"):
            families._as_int(13, 3, "a-tree span")


class TestFamilyOrdering:
    def test_needs_applicable_instance(self):
        # the check must run before the construction: a-tree d=2 is one edge
        t, spec = generate("a_tree", {"d": 2})
        with pytest.raises(NotApplicableError):
            family_certificate(spec, analyze(t))
        with pytest.raises(NotApplicableError):
            family_ordering(spec, t)

    def test_a_tree_order_frozen(self):
        t, spec = generate("a_tree", {"d": 4})
        assert family_ordering(spec, t) == [0, 5, 2, 6, 3, 7, 4, 1]
        assert family_certificate(spec, analyze(t)).ordering == (0, 5, 2, 6, 3, 7, 4, 1)

    def test_broom_order_frozen(self):
        t, spec = generate("broom", {"n": 10, "d": 4})
        assert family_ordering(spec, t) == [0, 3, 4, 2, 5, 1, 6, 7, 8, 9]

    def test_stars_certify(self):
        for n in range(4, 9):
            t, spec = generate("star", {"n": n})
            assert certified_span(t, spec) == spec.expected_hc == (n - 2) ** 2

    def test_recognised_brooms_certify(self):
        # every recognised broom with k <= 15, both parities (even k = 1 is
        # the path on 3 vertices, outside the bound), where the greedy
        # builds exactly the paper's ordering and attains the closed form
        shapes = [(k * (2 * k + 1), 2 * k, "broom_even") for k in range(2, 16)]
        shapes += [((k + 1) * (2 * k + 1), 2 * k + 1, "broom_odd") for k in range(1, 16)]
        for n, d, family in shapes:
            t, spec = generate("broom", {"n": n, "d": d})
            assert spec.family == family
            assert family_ordering(spec, t) == oracles.paper_broom_ordering(n, d), (n, d)
            assert certified_span(t, spec) == spec.expected_hc

    def test_plain_broom_certifies_to_the_bound(self):
        t, spec = generate("broom", {"n": 9, "d": 4})
        assert certified_span(t, spec) == lower_bound_weight(analyze(t)) == 43

    def test_a_trees_certify(self):
        for d in range(3, 31):
            t, spec = generate("a_tree", {"d": d})
            assert certified_span(t, spec) == spec.expected_hc

    def test_caterpillars_certify(self):
        for m in range(3, 8):
            for d in (3, 4):
                t, spec = generate("caterpillar", {"m": m, "d": d})
                assert certified_span(t, spec) == spec.expected_hc

    def test_closed_forms_match_the_bound(self):
        # on every recognised instance the closed form equals the
        # weight-center lower bound, which the certificates then attain
        instances = [generate("star", {"n": n}) for n in range(4, 10)]
        instances += [
            generate("broom", {"n": 10, "d": 4}),
            generate("broom", {"n": 15, "d": 5}),
            generate("broom", {"n": 28, "d": 7}),
        ]
        instances += [generate("a_tree", {"d": d}) for d in range(3, 9)]
        instances += [
            generate("caterpillar", {"m": m, "d": d}) for m in range(3, 8) for d in (3, 4, 5)
        ]
        for t, spec in instances:
            if is_applicable(t):
                assert spec.expected_hc == lower_bound_weight(analyze(t))

    def test_hub_weight_centered(self):
        for n, d in ((6, 3), (10, 4), (15, 5)):
            t, _ = generate("broom", {"n": n, "d": d})
            assert weight_centers(t) == {0}
