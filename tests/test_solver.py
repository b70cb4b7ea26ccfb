import json
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hamcolor.bounds import is_applicable, lower_bound_weight
from hamcolor import solver
from hamcolor.errors import (
    BadParamsError,
    IncompleteColoringError,
    InternalError,
    NegativeColorError,
    NotATreeError,
)
from hamcolor.families import generate
from hamcolor.ordering import Coloring
from hamcolor.solver import (
    exact_hc,
    min_span_for_order,
    search_backend,
    verify_coloring,
)
from hamcolor.tree import Tree, analyze


PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "pinned.json"
# explored nodes per pinned instance, at most
NODES = {
    "star8": 8, "broom9_d4": 9, "path9": 217, "path10": 427,
    "rand9_tight0": 9, "rand9_tight1": 9, "rand9_tight2": 9, "rand9_tight3": 9,
    "rand9_tight4": 9, "rand9_tight5": 9, "rand9_tight6": 9,
    "rand8_gap0": 31, "rand8_gap1": 31, "rand8_gap2": 45, "rand8_gap3": 45,
    "rand8_gap4": 31, "rand8_gap5": 31, "rand8_gap6": 45,
}


def path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def double_broom(k: int, a: int, b: int) -> Tree:
    """A k-vertex path 0..k-1 with a leaves on vertex 0 and b on vertex k-1."""
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(0, k + i) for i in range(a)] + [(k - 1, k + a + i) for i in range(b)]
    return Tree(k + a + b, edges)


class TestVerifyColoring:
    def test_valid_star_coloring(self):
        rv = analyze(generate("star", {"n": 4})[0])
        assert verify_coloring(rv, Coloring((0, 2, 3, 4))) == []

    def test_single_edge_allows_equal_colors(self):
        rv = analyze(path(2))
        assert verify_coloring(rv, Coloring((0, 0))) == []

    def test_violation_contents(self):
        rv = analyze(generate("star", {"n": 4})[0])
        bad = verify_coloring(rv, Coloring((0, 2, 3, 3)))
        assert len(bad) == 1
        v = bad[0]
        assert (v.u, v.v) == (2, 3)
        assert v.required == 1  # n-1 - d(2,3) = 3 - 2
        assert v.actual == 0

    def test_all_equal_is_very_wrong(self):
        rv = analyze(generate("star", {"n": 5})[0])
        bad = verify_coloring(rv, Coloring((1, 1, 1, 1, 1)))
        assert len(bad) == 10

    def test_wrong_length(self):
        rv = analyze(path(3))
        with pytest.raises(IncompleteColoringError):
            verify_coloring(rv, Coloring((0, 1)))

    def test_bad_colors(self):
        rv = analyze(path(3))
        for colors in ((0, -1, 2), (0, 1.5, 2), (0, True, 2)):
            with pytest.raises(NegativeColorError):
                verify_coloring(rv, Coloring(colors))

    def test_matches_all_pairs_oracle(self):
        # the window walk takes the distance of a pair in different branches
        # from levels and sides, so violations of every pair kind are compared
        rng = random.Random(20)
        found = {"random": 0, "corrupted": 0, "all-equal": 0}
        kinds = dict.fromkeys(("same branch", "one side", "across the center edge"), 0)
        for n in range(2, 61):
            for _ in range(3):
                tree = oracles.random_tree(n, rng)
                rv = analyze(tree)
                order = list(range(n))
                rng.shuffle(order)
                dense = list(min_span_for_order(rv, order).colors)
                rng.shuffle(order)
                corrupted = dense[:]
                for _ in range(3):
                    corrupted[rng.randrange(n)] = corrupted[rng.randrange(n)]
                cases = {
                    "random": [rng.randrange(n * n // 2 + 1) for _ in range(n)],
                    "dense": dense,
                    "sparse": [(n - 1) * order.index(v) for v in range(n)],
                    "corrupted": corrupted,
                    "all-equal": [7] * n,
                }
                for name, colors in cases.items():
                    want = oracles.all_pairs_violations(tree, colors)
                    got = verify_coloring(rv, Coloring(tuple(colors)))
                    assert [(x.u, x.v, x.required, x.actual) for x in got] == want, (n, name)
                    for u, v, _, _ in want:
                        if rv.branch[u] is not None and rv.branch[u] == rv.branch[v]:
                            kinds["same branch"] += 1
                        elif rv.side[u] == rv.side[v]:
                            kinds["one side"] += 1
                        else:
                            kinds["across the center edge"] += 1
                    if name in found:
                        found[name] += len(want)
                    else:
                        assert want == [], (n, name)
        # every broken kind of coloring did produce violations to compare,
        # and so did every kind of pair
        assert all(found.values()), found
        assert all(kinds.values()), kinds


class TestGreedyCompletion:
    def test_path_frozen(self):
        rv = analyze(path(4))
        col = min_span_for_order(rv, [1, 3, 0, 2])
        assert col.colors == (2, 0, 3, 1)
        assert col.span == 3

    def test_always_valid(self, corpus, rng):
        for n in range(2, 9):
            for t in corpus[n]:
                rv = analyze(t)
                order = list(range(t.n))
                for _ in range(10):
                    rng.shuffle(order)
                    assert not verify_coloring(rv, min_span_for_order(rv, order))

    def test_matches_all_pairs_oracle(self, corpus, ordering_cases, rng):
        cases = list(ordering_cases)
        for n in range(1, 9):
            for t in corpus[n]:
                orders = [tuple(rng.sample(range(n), n)) for _ in range(4)]
                cases.append((analyze(t), oracles.nx_distance_matrix(t), orders))
        for rv, dist, orders in cases:
            for order in orders:
                want = oracles.all_pairs_min_span(rv.tree, order, dist)
                assert list(min_span_for_order(rv, order).colors) == want, (rv.tree, order)

    def test_never_beats_arithmetic_on_certified_orderings(self, corpus):
        from hamcolor.ordering import search_ordering

        for t in corpus[7] + corpus[8]:
            if not is_applicable(t):
                continue
            rv = analyze(t)
            if (cert := search_ordering(rv)).ok:
                # the greedy completion can only match the certified optimum
                assert min_span_for_order(rv, cert.ordering).span == cert.coloring.span


class TestExact:
    def test_tiny_values(self, exact_of):
        assert exact_of(Tree(1, [])).hc == 0
        assert exact_of(path(2)).hc == 0
        assert exact_of(path(3)).hc == 1
        assert exact_of(path(4)).hc == 3

    def test_kernel_span_mismatch_is_internal_error(self, monkeypatch):
        real = solver._kernel.bnb_exact

        def off_by_one(*args):
            span, order, nodes, hit = real(*args)
            return span + 1, order, nodes, hit

        monkeypatch.setattr(solver._kernel, "bnb_exact", off_by_one)
        with pytest.raises(InternalError):
            exact_hc(analyze(generate("star", {"n": 5})[0]))

    def test_frozen_examples(self, exact_of):
        assert exact_of(generate("star", {"n": 4})[0]).hc == 4
        assert exact_of(generate("star", {"n": 5})[0]).hc == 9
        assert exact_of(generate("a_tree", {"d": 4})[0]).hc == 30
        assert exact_of(generate("broom", {"n": 6, "d": 3})[0]).hc == 14

    def test_matches_enumeration_oracle(self, corpus, exact_of):
        for n in range(1, 6):
            for t in corpus[n]:
                assert exact_of(t).hc == oracles.enumeration_hc(t)

    def test_witnesses_are_valid_and_tight(self, corpus, exact_of):
        for n in range(2, 8):
            for t in corpus[n]:
                res = exact_of(t)
                assert not verify_coloring(analyze(t), res.witness)
                assert res.witness.span == res.hc
                assert not res.limit_hit
                assert res.explored > 0

    def test_never_below_the_bound(self, corpus, exact_of):
        # the bound holds on every tree: paths and n <= 3 included
        for n in range(1, 9):
            for t in corpus[n]:
                lb = lower_bound_weight(analyze(t))
                res = exact_of(t)
                assert res.lb == lb
                assert res.hc >= lb, t.edges

    def test_span_below_the_bound_is_internal_error(self, monkeypatch):
        rv = analyze(generate("star", {"n": 5})[0])
        monkeypatch.setattr(solver, "lower_bound_weight", lambda rv: 10)
        with pytest.raises(InternalError):
            exact_hc(rv)

    def test_pinned_instances_within_node_counts(self):
        # the benchmark's instances: tight ones stop at the bound after one
        # descent (n nodes), gap ones exhaust the search
        pinned = json.loads(PINNED.read_text())["instances"]
        assert set(NODES) == {inst["name"] for inst in pinned}
        for inst in pinned:
            res = exact_hc(analyze(Tree(inst["n"], [tuple(e) for e in inst["edges"]])))
            assert res.hc == inst["hc"], inst["name"]
            assert res.proved_optimal and not res.limit_hit
            assert (res.hc == res.lb) == (inst["class"] == "tight"), inst["name"]
            assert res.explored <= NODES[inst["name"]], (inst["name"], res.explored)

    def test_endpoint_shapes_match_oracles(self):
        # paths, brooms and double brooms, whose ends decide the span; random
        # Prufer trees seldom draw them
        shapes = [path(n) for n in range(2, 10)]
        shapes += [
            generate("broom", {"n": n, "d": d})[0] for n, d in ((6, 4), (7, 5), (8, 5), (9, 7))
        ]
        shapes += [double_broom(k, a, b) for k, a, b in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (4, 2, 2), (5, 2, 2))]
        bicentral = 0
        for t in shapes:
            rv = analyze(t)
            bicentral += rv.bicentral
            hc = exact_hc(rv).hc
            assert hc == oracles.pre_bound_hc(t), t.edges
            if t.n <= 8:
                assert hc == oracles.reference_hc(t), t.edges
        assert bicentral == 9

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 9).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0))
        .map(lambda seq: (n, seq))))
    def test_matches_pre_bound_kernel(self, case):
        tree = oracles.prufer_tree(*case)
        assert exact_hc(analyze(tree)).hc == oracles.pre_bound_hc(tree), tree.edges

    def test_relabeling_invariance(self, rng):
        base = generate("a_tree", {"d": 4})[0]
        want = 30
        for _ in range(3):
            perm = list(range(base.n))
            rng.shuffle(perm)
            relabeled = Tree(base.n, [(perm[u], perm[v]) for u, v in base.edges])
            assert exact_hc(analyze(relabeled)).hc == want

    def test_no_size_limit(self):
        # the library searches to exhaustion whatever n, and takes no limit
        res = exact_hc(analyze(path(11)))
        assert (res.hc, res.explored, res.limit_hit) == (42, 1496, False)
        with pytest.raises(TypeError):
            exact_hc(analyze(path(2)), limit=1)

    def test_matches_reference_search(self, corpus, exact_of):
        trees = [t for n in range(1, 8) for t in corpus[n]] + corpus[8][::10]
        assert len(trees) == 28
        for t in trees:
            assert exact_of(t).hc == oracles.reference_hc(t), t.edges

    def test_negative_budget(self):
        with pytest.raises(BadParamsError):
            exact_hc(analyze(path(4)), budget=-1)


class TestBudget:
    def test_exhaustion_reports_upper_bound(self):
        # the path on 10 vertices (hc 34) needs 427 nodes
        rv = analyze(path(10))
        res = exact_hc(rv, budget=50)
        assert res.limit_hit
        assert res.explored <= 50
        assert res.ub >= 34
        assert not res.proved_optimal
        assert res.hc is None
        assert not verify_coloring(rv, res.witness)
        assert res.witness.span == res.ub

    def test_zero_budget_falls_back_to_identity(self):
        rv = analyze(generate("star", {"n": 5})[0])
        res = exact_hc(rv, budget=0)
        assert res.limit_hit
        assert res.explored == 0
        assert res.ub == min_span_for_order(rv, list(range(5))).span
        assert not verify_coloring(rv, res.witness)
        # the identity ordering happens to meet the bound, which proves it
        assert res.hc == res.ub == res.lb and res.proved_optimal

    def test_runs_are_deterministic(self):
        rv = analyze(generate("a_tree", {"d": 4})[0])
        a = exact_hc(rv, budget=500)
        b = exact_hc(rv, budget=500)
        assert (a.ub, a.explored, a.limit_hit) == (b.ub, b.explored, b.limit_hit)

    def test_every_budget_on_the_pinned_instances(self):
        # the kernel stops when its node count equals the budget; the
        # rescanning kernel keeps the check ``budget >= 0 and nodes >=
        # budget``, and both give the same 4-tuple at every budget from 0 to
        # one past a full search, and with none (-1)
        pinned = json.loads(PINNED.read_text())["instances"]
        for inst in pinned:
            rv = analyze(Tree(inst["n"], [tuple(e) for e in inst["edges"]]))
            dist = [d for row in rv.tree.distance_matrix() for d in row]
            full = solver._kernel.bnb_exact((), rv.n, rv=rv)[2]
            for budget in range(-1, full + 2):
                got = solver._kernel.bnb_exact((), rv.n, budget, (), -1, rv)
                assert got == oracles.rescan_bnb_exact(dist, rv.n, budget), (inst["name"], budget)
                assert got[2:] == ((budget, True) if 0 <= budget < full else (full, False))
        assert len(pinned) == 18

    def test_ample_budget_not_hit(self, corpus):
        t = corpus[6][0]
        full = exact_hc(analyze(t))
        again = exact_hc(analyze(t), budget=full.explored)
        assert not again.limit_hit
        assert again.hc == full.hc


class TestKernel:
    """The kernel's fixed prefix and incumbent slots, its matrix-only
    fallback and its twin and orbit helpers, called directly."""

    @staticmethod
    def flat(tree):
        """networkx's distance matrix of ``tree``, flat and row-major."""
        return [d for row in oracles.nx_distance_matrix(tree) for d in row]

    def test_twins_match_the_row_comparison(self, corpus):
        # every non-isomorphic tree with n <= 10, relabelled
        rng = random.Random(11)
        trees = [t for n in range(1, 9) for t in corpus[n]]
        trees += [Tree(n, [(int(u), int(v)) for u, v in g.edges()]) for n in (9, 10) for g in nx.nonisomorphic_trees(n)]
        assert len(trees) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106
        twins = 0
        for t in trees:
            perm = list(range(t.n))
            rng.shuffle(perm)
            t = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
            flat = self.flat(t)
            before = solver._kernel.twin_before(t)
            assert before == oracles.twin_before(flat, t.n), t.edges
            twins += sum(u >= 0 for u in before)
        assert twins > 0

    def test_same_search_as_the_rescanning_kernel(self, corpus):
        # every non-isomorphic tree with n <= 9, relabelled: the same span,
        # ordering, node count and budget verdict as the reference kernel,
        # which rescans all n vertices at every node
        rng = random.Random(29)
        trees = [t for n in range(1, 9) for t in corpus[n]]
        trees += [Tree(9, [(int(u), int(v)) for u, v in g.edges()]) for g in nx.nonisomorphic_trees(9)]
        assert len(trees) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47
        limit_hits = 0
        for t in trees:
            perm = list(range(t.n))
            rng.shuffle(perm)
            t = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
            dist = self.flat(t)
            # budgets that stop at the last node of a full search and one before it
            full = solver._kernel.bnb_exact(dist, t.n)[2]
            for budget in (-1, 0, 1, 7, 50, full, full - 1):
                want = oracles.rescan_bnb_exact(dist, t.n, budget)
                got = solver._kernel.bnb_exact(dist, t.n, budget, (), -1)
                assert got == want, (t.edges, budget)
                limit_hits += got[3]
        assert limit_hits > 0

    def test_same_search_on_every_tree_with_ten_vertices(self):
        # four relabellings of each: some symmetric trees with n = 10 put a
        # candidate at the third position right after one with its key and
        # color although it is not the least of its orbit (no tree of the
        # n <= 9 corpus above does), which pins rule 7 to two positions
        rng = random.Random(31)
        for g in nx.nonisomorphic_trees(10):
            for _ in range(4):
                perm = list(range(10))
                rng.shuffle(perm)
                t = Tree(10, [(perm[int(u)], perm[int(v)]) for u, v in g.edges()])
                dist = self.flat(t)
                assert solver._kernel.bnb_exact(dist, 10) == oracles.rescan_bnb_exact(dist, 10), t.edges

    def test_symmetry_rules_keep_every_span(self, corpus):
        # rules 6 and 7 are sound: on every non-isomorphic tree with n <= 10,
        # relabelled, the rescanning kernel finds the same span with both
        # rules, with either one, and with neither, and never explores more
        # nodes with both
        rng = random.Random(37)
        trees = [t for n in range(1, 9) for t in corpus[n]]
        trees += [Tree(n, [(int(u), int(v)) for u, v in g.edges()]) for n in (9, 10) for g in nx.nonisomorphic_trees(n)]
        assert len(trees) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106
        fewer = {"rule 6": 0, "rule 7": 0}
        for t in trees:
            perm = list(range(t.n))
            rng.shuffle(perm)
            t = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
            flat = self.flat(t)
            span, _, nodes, _ = oracles.rescan_bnb_exact(flat, t.n)
            for rule, flags in (("rule 6", (False, True)), ("rule 7", (True, False)), (None, (False, False))):
                span_without, _, nodes_without, _ = oracles.rescan_bnb_exact(flat, t.n, -1, *flags)
                assert span == span_without, (t.edges, flags)
                assert nodes <= nodes_without, (t.edges, flags)
                if rule:
                    fewer[rule] += nodes < nodes_without
        assert all(fewer.values()), fewer

    def test_orbits_match_the_rootings(self, corpus):
        # every non-isomorphic tree with n <= 10, relabelled: the kernel's
        # codes below the weight center(s) against rooting the tree at each
        # vertex in turn
        rng = random.Random(43)
        trees = [t for n in range(1, 9) for t in corpus[n]]
        trees += [Tree(n, [(int(u), int(v)) for u, v in g.edges()]) for n in (9, 10) for g in nx.nonisomorphic_trees(n)]
        moved = 0
        for t in trees:
            perm = list(range(t.n))
            rng.shuffle(perm)
            t = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
            least = solver._kernel.least_in_orbit(analyze(t))
            flat = self.flat(t)
            assert least == [min(orbit) for orbit in oracles.automorphism_orbits(flat, t.n)], t.edges
            # vertices in the orbit of a smaller one that is not their twin
            moved += sum(least[v] != v and t.adj[v] != t.adj[least[v]] for v in range(t.n))
        assert moved > 0

    def test_matches_pre_bound_kernel_on_every_tree(self, corpus):
        # every non-isomorphic tree with n <= 8, relabelled, against the
        # kernel from before any pruning rule, which has no reversal rule
        rng = random.Random(41)
        for n in range(1, 9):
            for t in corpus[n]:
                perm = list(range(n))
                rng.shuffle(perm)
                t = Tree(n, [(perm[u], perm[v]) for u, v in t.edges])
                assert exact_hc(analyze(t)).hc == oracles.pre_bound_hc(t), t.edges

    def test_prefix_slot_takes_only_the_empty_prefix(self, corpus):
        # the matrix-only positional call bnb_exact(dist, n, -1, (), -1),
        # which roots the pairs at distance 1 itself, is the search with the
        # caller's view node for node on every tree with n <= 10, relabelled,
        # also when every other entry of the matrix is junk, and the call
        # with the view reads no matrix; a forced prefix or an incumbent
        # other than -1 is refused
        rng = random.Random(47)
        trees = [t for n in range(1, 9) for t in corpus[n]]
        trees += [Tree(n, [(int(u), int(v)) for u, v in g.edges()]) for n in (9, 10) for g in nx.nonisomorphic_trees(n)]
        assert len(trees) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106
        for t in trees:
            perm = list(range(t.n))
            rng.shuffle(perm)
            rv = analyze(Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges]))
            want = solver._kernel.bnb_exact((), t.n, rv=rv)
            dist = self.flat(rv.tree)
            for matrix in (dist, [d if d == 1 else 7 for d in dist]):
                assert solver._kernel.bnb_exact(matrix, t.n, -1, (), -1) == want, rv.tree.edges
        t = corpus[6][0]
        dist = self.flat(t)
        for prefix in ((0,), [1, 0]):
            with pytest.raises(BadParamsError):
                solver._kernel.bnb_exact(dist, 6, -1, prefix, -1)
        rv = analyze(t)
        lb, hc = lower_bound_weight(rv), exact_hc(rv).hc
        for incumbent in (0, lb, hc + 3):
            with pytest.raises(BadParamsError):
                solver._kernel.bnb_exact(dist, 6, -1, (), incumbent)
        assert solver._kernel.bnb_exact(dist, 6, -1, (), -1)[0] == hc

    def test_matrix_of_no_tree_is_refused(self):
        # the pairs at distance 1 of the triangle close a cycle
        with pytest.raises(NotATreeError):
            solver._kernel.bnb_exact([0, 1, 1, 1, 0, 1, 1, 1, 0], 3, -1, (), -1)


def test_backend_reported():
    assert search_backend() == "python"
