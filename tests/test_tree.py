import random

import networkx as nx
import pytest

import oracles
from hamcolor.errors import BadVertexIdError, NotATreeError
from hamcolor.families import generate
from hamcolor.tree import (
    Tree,
    analyze,
    build_tree,
    graph_centers,
    weight_centers,
)


def broom_10_4() -> Tree:
    # path 0-1-2-3 plus leaves 4..9 on vertex 0
    edges = [(0, 1), (1, 2), (2, 3)] + [(0, i) for i in range(4, 10)]
    return Tree(10, edges)


def double_star() -> Tree:
    # centers 0 and 1, three leaves each
    return Tree(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])


class TestConstruction:
    def test_rejects_wrong_edge_count(self):
        with pytest.raises(NotATreeError):
            Tree(4, [(0, 1), (1, 2)])
        with pytest.raises(NotATreeError):
            Tree(3, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_disconnected(self):
        # right edge count, but a cycle plus an isolated vertex
        with pytest.raises(NotATreeError):
            Tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_self_loop_and_duplicate(self):
        with pytest.raises(NotATreeError):
            Tree(2, [(0, 0)])
        # a generator is listed first, so the faults are read a second time
        with pytest.raises(NotATreeError, match=r"^self-loop at vertex 1$"):
            Tree(3, (e for e in [(0, 1), (1, 1)]))
        with pytest.raises(NotATreeError):
            Tree(3, [(0, 1), (1, 0)])

    def test_rejects_bad_ids(self):
        with pytest.raises(BadVertexIdError):
            Tree(3, [(0, 1), (1, 3)])
        with pytest.raises(BadVertexIdError):
            Tree(0, [])
        with pytest.raises(BadVertexIdError):
            Tree(3, [(0, 1), (1, "2")])
        with pytest.raises(BadVertexIdError, match=r"^edge \(1, 2, 0\) is not a vertex pair$"):
            Tree(3, [(0, 1), (1, 2, 0)])

    def test_edges_normalised_sorted(self):
        t = Tree(4, [(2, 1), (3, 0), (1, 0)])
        assert t.edges == ((0, 1), (0, 3), (1, 2))
        assert t.adj[1] == (0, 2)

    def test_single_vertex(self):
        t = Tree(1, [])
        assert t.diameter == 0
        assert weight_centers(t) == {0}
        assert graph_centers(t) == {0}

    def test_build_tree_is_constructor(self):
        t = build_tree(2, [(0, 1)])
        assert t.n == 2 and t.edges == ((0, 1),)


class TestDistances:
    def test_bfs_matches_networkx(self, corpus):
        rng = random.Random(43)

        def relabelled(tree: Tree) -> Tree:
            perm = list(range(tree.n))
            rng.shuffle(perm)
            return Tree(tree.n, [(perm[u], perm[v]) for u, v in tree.edges])

        shapes = [Tree(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 2, 3, 9, 30)]
        shapes += [generate("star", {"n": n})[0] for n in (4, 9, 40)]
        shapes += [generate("caterpillar", {"m": m, "d": d})[0] for m, d in ((3, 3), (6, 3), (11, 4))]
        trees = [t for n in (5, 7, 8) for t in corpus[n]] + shapes + [relabelled(t) for t in shapes]
        trees.append(oracles.random_tree(200, rng))
        for t in trees:
            assert t.distance_matrix() == oracles.nx_distance_matrix(t), t.edges

    def test_rows_are_fresh_lists(self):
        # rerooting starts from the kept search's distances: a caller that
        # writes to a row must not reach the tree's own copy
        t = Tree(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
        rows = t.distance_matrix()
        want = [row[:] for row in rows]
        for row in rows:
            row[:] = [99] * len(row)
        assert t.distance_matrix() == want
        assert t.diameter == 4

    def test_diameter_examples(self):
        assert broom_10_4().diameter == 4
        assert double_star().diameter == 3
        assert Tree(4, [(0, 1), (1, 2), (2, 3)]).diameter == 3

    def test_diameter_matches_networkx(self, corpus, rng):
        import networkx as nx

        for t in corpus[7] + [oracles.random_tree(12, rng) for _ in range(10)]:
            assert t.diameter == nx.diameter(oracles.nx_graph(t))


class TestWeights:
    def test_weight_centers_examples(self):
        assert weight_centers(broom_10_4()) == {0}
        assert weight_centers(double_star()) == {0, 1}
        assert weight_centers(Tree(4, [(0, 1), (1, 2), (2, 3)])) == {1, 2}

    def test_one_or_two_adjacent_centers(self, corpus):
        for n in range(2, 9):
            for t in corpus[n]:
                w = sorted(weight_centers(t))
                assert len(w) in (1, 2)
                if len(w) == 2:
                    assert w[1] in t.adj[w[0]]

    def test_weight_centers_match_barycenter_and_weights(self):
        # every non-isomorphic tree with n <= 12, then relabelled random trees
        # up to n = 300: the subtree-size walk against networkx's barycenter,
        # the vertices of least total distance
        rng = random.Random(47)
        trees = [Tree(n, [(0, 1)][: n - 1]) for n in (1, 2)]
        trees += [Tree(n, [(int(u), int(v)) for u, v in g.edges()])
                  for n in range(3, 13) for g in nx.nonisomorphic_trees(n)]
        assert len(trees) == 2 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106 + 235 + 551
        for n in (13, 20, 40, 75, 150, 300):
            for _ in range(3):
                base = oracles.random_tree(n, rng)
                perm = list(range(n))
                rng.shuffle(perm)
                trees.append(Tree(n, [(perm[u], perm[v]) for u, v in base.edges]))
        counts = {1: 0, 2: 0}
        for t in trees:
            got = weight_centers(t)
            assert got == set(nx.barycenter(oracles.nx_graph(t))), t
            counts[len(got)] += 1
        assert counts[2] > 100, counts

    def test_graph_centers_match_networkx(self, corpus):
        for n in range(1, 9):
            for t in corpus[n]:
                assert graph_centers(t) == set(nx.center(oracles.nx_graph(t)))

    def test_graph_centers_broom(self):
        # mass pulls the weight center to the hub, eccentricity does not
        assert graph_centers(broom_10_4()) == {1}


class TestRootedView:
    def test_path_of_four(self):
        rv = analyze(Tree(4, [(0, 1), (1, 2), (2, 3)]))
        assert rv.bicentral
        assert sorted(rv.weight_centers) == [1, 2]
        assert rv.level == (1, 0, 0, 1)
        assert rv.total_level == 2
        assert rv.side == (1, 1, 2, 2)

    def test_double_star(self):
        rv = analyze(double_star())
        assert rv.bicentral
        assert rv.total_level == 6
        assert rv.branch_roots == (2, 3, 4, 5, 6, 7)
        assert [v for v, b in enumerate(rv.branch) if b == 0] == [2]

    def test_broom_levels_and_branches(self):
        rv = analyze(broom_10_4())
        assert not rv.bicentral
        assert rv.level == (0, 1, 2, 3, 1, 1, 1, 1, 1, 1)
        assert rv.total_level == 12
        # one branch per neighbor of the hub, ordered by attachment id
        assert rv.branch_roots == (1, 4, 5, 6, 7, 8, 9)
        assert [v for v, b in enumerate(rv.branch) if b == 0] == [1, 2, 3]

    def test_levels_are_distance_to_nearest_center(self, corpus):
        for n in range(2, 9):
            for t in corpus[n]:
                rv = analyze(t)
                dist = oracles.nx_distance_matrix(t)
                for v in range(t.n):
                    assert rv.level[v] == min(dist[v][w] for w in rv.weight_centers)

    def test_bicentral_halves_balance(self, corpus):
        for n in range(2, 9):
            for t in corpus[n]:
                rv = analyze(t)
                if rv.bicentral:
                    w1, w2 = sorted(rv.weight_centers)
                    left = sum(1 for v in range(t.n) if rv.side[v] == w1)
                    assert left == t.n // 2

    def test_deep_shared_prefix(self):
        # branch 0-1-2 forking into 3 and 4, counterweight leaves on 0
        t = Tree(9, [(0, 1), (1, 2), (2, 3), (2, 4), (0, 5), (0, 6), (0, 7), (0, 8)])
        rv = analyze(t)
        assert rv.weight_centers == {0}
        assert rv.detour_distance(3, 4) == 2  # they meet at vertex 2 on level 2

    def test_detour_distance_matches_bfs(self, corpus, rng):
        trees = [t for n in range(1, 9) for t in corpus[n]]
        trees += [oracles.random_tree(15, rng) for _ in range(5)]
        # deep branches: bicentral broom (depth 19), one-center and bicentral caterpillars
        trees += [
            generate("broom", {"n": 40, "d": 30})[0],
            generate("caterpillar", {"m": 41, "d": 4})[0],
            generate("caterpillar", {"m": 40, "d": 4})[0],
        ]
        for t in trees:
            rv = analyze(t)
            dist = oracles.nx_distance_matrix(t)
            for u in range(t.n):
                for v in range(t.n):
                    assert rv.detour_distance(u, v) == dist[u][v]

    @staticmethod
    def assert_rooted_as_by_bfs(t: Tree) -> None:
        want = oracles.bfs_rooted_view(t)
        rv = analyze(t)
        assert {key: getattr(rv, key) for key in want} == want, t.edges

    def test_rooting_matches_bfs_from_centers(self, corpus):
        # every tree with n <= 10, as listed and under three seeded relabellings
        rng = random.Random(45)
        trees = [t for n in range(1, 9) for t in corpus[n]]
        trees += [Tree(n, [(int(u), int(v)) for u, v in g.edges()]) for n in (9, 10) for g in nx.nonisomorphic_trees(n)]
        assert len(trees) == 48 + 47 + 106
        for t in trees:
            self.assert_rooted_as_by_bfs(t)
            for _ in range(3):
                perm = list(range(t.n))
                rng.shuffle(perm)
                self.assert_rooted_as_by_bfs(Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges]))

    def test_rooting_of_large_shapes(self):
        # the five shapes of perfbench's color-large, as generated and relabelled
        rng = random.Random(46)
        for family, params in (("star", {"n": 1500}), ("caterpillar", {"m": 201, "d": 5}), ("a-tree", {"d": 30}),
                               ("broom", {"n": 465, "d": 30}), ("broom", {"n": 600, "d": 25})):
            t = generate(family, params)[0]
            perm = list(range(t.n))
            rng.shuffle(perm)
            self.assert_rooted_as_by_bfs(t)
            self.assert_rooted_as_by_bfs(Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges]))

    def test_bicentral_rooting_with_vertex_0_anywhere(self):
        # vertex 0 swapped with each vertex in turn: at either center, deep on
        # either side, and on the path from a center down to it
        trees = [double_star(), Tree(10, [(i, i + 1) for i in range(9)]), generate("a-tree", {"d": 2})[0],
                 generate("broom", {"n": 40, "d": 30})[0], generate("caterpillar", {"m": 40, "d": 4})[0]]
        sides = set()  # the index, among the sorted centers, of vertex 0's side
        for t in trees:
            for x in range(t.n):
                swap = {0: x, x: 0}
                s = Tree(t.n, [(swap.get(u, u), swap.get(v, v)) for u, v in t.edges])
                rv = analyze(s)
                assert rv.bicentral
                self.assert_rooted_as_by_bfs(s)
                sides.add(sorted(rv.weight_centers).index(rv.side[0]))
        assert sides == {0, 1}

    def test_vertex_checks(self):
        rv = analyze(broom_10_4())
        with pytest.raises(BadVertexIdError):
            rv.detour_distance(0, 10)
        with pytest.raises(BadVertexIdError):
            rv.detour_distance(-1, 0)
