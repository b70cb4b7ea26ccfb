import oracles
from hamcolor.bounds import compare_bounds, is_applicable, lower_bound_weight
from hamcolor.families import generate
from hamcolor.tree import Tree, analyze, graph_centers, weight_centers


def path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


class TestApplicability:
    def test_examples(self):
        assert is_applicable(generate("star", {"n": 4})[0])
        assert not is_applicable(path(4))
        assert not is_applicable(Tree(3, [(0, 1), (1, 2)]))
        assert not is_applicable(Tree(1, []))

    def test_corpus_rule(self, corpus):
        for n in range(1, 9):
            for t in corpus[n]:
                assert is_applicable(t) == (t.n >= 4 and t.max_degree >= 3)

    def test_force_gives_raw_value(self):
        # P_4: two weight centers, total level 2: 3*2 + 0 - 4 = 2
        assert lower_bound_weight(analyze(path(4))) == 2
        # P_3: one center, total level 2: 2*2 + 1 - 4 = 1
        assert lower_bound_weight(analyze(path(3))) == 1
        assert compare_bounds(analyze(path(3))).lb_center == 1
        # one vertex: hc = 0, and the 1 - b term needs two distinct ends
        assert lower_bound_weight(analyze(path(1))) == 0
        assert compare_bounds(analyze(path(1))).lb_center == 0


class TestWeightBound:
    def test_frozen_examples(self):
        assert lower_bound_weight(analyze(generate("star", {"n": 5})[0])) == 9
        broom = generate("broom", {"n": 10, "d": 4})[0]
        assert lower_bound_weight(analyze(broom)) == 58
        double_star = Tree(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        assert lower_bound_weight(analyze(double_star)) == 30

    def test_star_closed_form(self):
        for n in range(4, 10):
            assert lower_bound_weight(analyze(generate("star", {"n": n})[0])) == (n - 2) ** 2

    def test_formula_from_parts(self, corpus):
        for t in corpus[7] + corpus[8]:
            if not is_applicable(t):
                continue
            rv = analyze(t)
            b = 1 if rv.bicentral else 0
            expect = (t.n - 1) * (t.n - 1 - b) + (1 - b) - 2 * rv.total_level
            assert lower_bound_weight(rv) == expect


class TestCenterBound:
    def test_broom_example(self):
        broom = generate("broom", {"n": 10, "d": 4})[0]
        report = compare_bounds(analyze(broom))
        assert report.lb_center == 50
        assert report.lb_weight == 58
        assert report.difference == 8

    def test_center_total_level_matches_networkx(self, corpus):
        import networkx as nx

        for n in range(2, 9):
            for t in corpus[n]:
                g = oracles.nx_graph(t)
                centers = nx.center(g)
                dist = oracles.nx_distance_matrix(t)
                expect = sum(min(dist[v][c] for c in centers) for v in range(t.n))
                assert compare_bounds(analyze(t)).center_total_level == expect

    def test_weight_bound_dominates(self, corpus):
        for n in range(1, 9):
            for t in corpus[n]:
                report = compare_bounds(analyze(t))
                assert report.lb_weight >= report.lb_center

    def test_equal_when_centers_coincide(self, corpus):
        for n in range(4, 9):
            for t in corpus[n]:
                if is_applicable(t) and weight_centers(t) == graph_centers(t):
                    assert compare_bounds(analyze(t)).difference == 0


class TestBroomGaps:
    # the two broom sub-families separate the bounds by a closed amount
    def test_even_gap(self):
        for k in range(2, 7):
            broom = generate("broom", {"n": k * (2 * k + 1), "d": 2 * k})[0]
            assert compare_bounds(analyze(broom)).difference == 4 * k * (k - 1) ** 2

    def test_odd_gap(self):
        for k in range(1, 7):
            broom = generate("broom", {"n": (k + 1) * (2 * k + 1), "d": 2 * k + 1})[0]
            gap = 4 * k**3 - 2 * k**2 - k + 1
            assert compare_bounds(analyze(broom)).difference == gap

    def test_even_gap_k1_needs_force(self):
        # k=1 gives the 3-vertex path, outside the certified range
        broom = generate("broom", {"n": 3, "d": 2})[0]
        assert not is_applicable(broom)
        assert compare_bounds(analyze(broom)).difference == 0

