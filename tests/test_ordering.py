import heapq
import random
from itertools import permutations
from types import SimpleNamespace

import pytest

import oracles

from hamcolor.bounds import is_applicable, lower_bound_weight
from hamcolor import ordering
from hamcolor.errors import (
    InternalError,
    NotApplicableError,
    NotAPermutationError,
)
from hamcolor.families import generate
from hamcolor.ordering import (
    Certificate,
    Coloring,
    check_spacing,
    coloring_from_ordering,
    min_span_for_order,
    search_ordering,
    validate_ordering,
)
from hamcolor.solver import verify_coloring
from hamcolor.tree import Tree, analyze


def spider_331() -> Tree:
    # hub 0, legs 1-2-3, 4-5-6 and 7; diameter 6 on 8 vertices
    return Tree(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7)])


def path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


class TestColoring:
    def test_span_and_len(self):
        c = Coloring((3, 0, 7))
        assert c.span == 7
        assert len(c) == 3

    def test_constant_coloring_has_span_zero(self):
        assert Coloring((5, 5)).span == 0


class TestValidateOrdering:
    def test_accepts_permutation(self):
        assert validate_ordering(3, (2, 0, 1)) == [2, 0, 1]

    def test_rejects_non_permutations(self):
        for bad in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 3)):
            with pytest.raises(NotAPermutationError):
                validate_ordering(3, bad)

    def test_entries_must_be_integers(self):
        # an entry that only compares equal to an int, a bool too, is
        # rejected by every reader of orderings
        rv = analyze(generate("star", {"n": 5})[0])
        for read in (check_spacing, coloring_from_ordering, min_span_for_order):
            for bad in ([0, 1.0, 2, 3, 4], [0, "1", 2, 3, 4], [0, None, 2, 3, 4], [0, True, 2, 3, 4]):
                with pytest.raises(NotAPermutationError):
                    read(rv, bad)
        with pytest.raises(NotAPermutationError):
            validate_ordering(3, (True, 0, 2))
        assert check_spacing(rv, [0, 1, 2, 3, 4]).ok


class TestCheckSpacing:
    def test_needs_applicable_tree(self):
        rv = analyze(path(4))
        with pytest.raises(NotApplicableError):
            check_spacing(rv, [1, 3, 0, 2])

    def test_star_hub_first_passes(self):
        rv = analyze(generate("star", {"n": 5})[0])
        assert check_spacing(rv, [0, 1, 2, 3, 4]).ok

    def test_bad_endpoints_reported_without_positions(self):
        rv = analyze(generate("star", {"n": 5})[0])
        res = check_spacing(rv, [1, 0, 2, 3, 4])
        assert not res.ok
        assert res.violation is None
        assert "endpoint" in res.reason

    def test_first_violating_pair_reported(self):
        # consecutive vertices 2,1 share the path branch of the broom
        rv = analyze(generate("broom", {"n": 6, "d": 3})[0])
        res = check_spacing(rv, [0, 2, 1, 3, 4, 5])
        assert not res.ok
        assert res.violation == (1, 2)
        assert "distance" in res.reason

    def test_ok_iff_bound_attained_exhaustive(self, corpus, exact_of):
        # sweeping every permutation of every small tree: some ordering
        # passes the pairwise condition exactly when the weight-center
        # bound is the true optimum
        for n in range(4, 7):
            for t in corpus[n]:
                if not is_applicable(t):
                    continue
                rv = analyze(t)
                attained = exact_of(t).hc == lower_bound_weight(rv)
                found = any(check_spacing(rv, p).ok for p in permutations(range(n)))
                assert found == attained

    def test_matches_all_pairs_oracle(self, ordering_cases):
        # the certificate, reported pair and reason included, is always the
        # all-pairs oracle's: a failing consecutive pair is the case j = i + 1,
        # reported only when no earlier (i, j) fails
        seen = set()
        for rv, dist, orders in ordering_cases:
            b = 1 if rv.bicentral else 0
            for order in orders:
                want = oracles.all_pairs_spacing(rv, order, dist)
                assert check_spacing(rv, order) == want, (rv.tree, order)
                if want.ok or want.violation is None:
                    seen.add("ok" if want.ok else "endpoints")
                    continue
                i, j = want.violation
                kind = "consecutive" if j == i + 1 else "window"
                steps = zip(order[i:], order[i + 1 :])
                if kind == "window" and any(dist[u][v] < rv.level[u] + rv.level[v] + b for u, v in steps):
                    kind = "window ahead of a failing consecutive pair"
                seen.add(kind)
        assert seen == {"ok", "endpoints", "window", "consecutive", "window ahead of a failing consecutive pair"}

    def test_negative_increment_guard(self):
        # analyze() never gives two vertices levels summing past n - 1 - b
        # (see ordering._arithmetic); a doctored view does
        rv = analyze(generate("star", {"n": 5})[0])
        rv.level = (0, 1, 10, 1, 1)
        with pytest.raises(InternalError, match="negative increment between consecutive vertices"):
            check_spacing(rv, [0, 1, 2, 3, 4])

    def test_span_guard(self, monkeypatch):
        rv = analyze(generate("star", {"n": 5})[0])
        monkeypatch.setattr(ordering, "lower_bound_weight", lambda rv: -1)
        with pytest.raises(InternalError, match="certified span 9 != weight-center bound -1"):
            check_spacing(rv, [0, 1, 2, 3, 4])

    def test_deep_caterpillar_without_matrix(self, monkeypatch):
        # n = 9,998 at depth 1,250: no n x n matrix, and the window keeps the
        # scans near linear
        rv = analyze(generate("caterpillar", {"m": 2501, "d": 5})[0])
        order = list(search_ordering(rv).ordering)

        def no_matrix(self):
            raise AssertionError("distance matrix built")

        monkeypatch.setattr(Tree, "distance_matrix", no_matrix)
        assert check_spacing(rv, order).ok
        assert min_span_for_order(rv, order) == coloring_from_ordering(rv, order)
        order[1], order[2] = order[2], order[1]
        assert check_spacing(rv, order).violation == (2, 3)


class TestColoringFromOrdering:
    def test_small_star_frozen(self):
        rv = analyze(Tree(4, [(0, 1), (0, 2), (0, 3)]))
        col = coloring_from_ordering(rv, [0, 1, 2, 3])
        assert col.colors == (0, 2, 3, 4)
        assert col.span == 4

    def test_span_identity(self, corpus, rng):
        # span depends only on the endpoint levels, whatever the middle does
        for t in corpus[7] + corpus[8]:
            rv = analyze(t)
            b = 1 if rv.bicentral else 0
            base = (t.n - 1) * (t.n - 1 - b) - 2 * rv.total_level
            for _ in range(5):
                order = list(range(t.n))
                rng.shuffle(order)
                col = coloring_from_ordering(rv, order)
                assert col.span == base + rv.level[order[0]] + rv.level[order[-1]]

    def test_increment_never_negative_on_real_trees(self, corpus, rng):
        # levels are capped by branch sizes, which a weight-centered rooting
        # keeps below half the tree, so no vertex pair can overshoot the step
        for n in range(2, 9):
            for t in corpus[n]:
                rv = analyze(t)
                order = list(range(t.n))
                for _ in range(20):
                    rng.shuffle(order)
                    coloring_from_ordering(rv, order)  # must not raise

    def test_negative_increment_guard(self):
        # level data like this cannot come out of analyze(); the guard is
        # defensive, for hand-built or corrupted views
        class Doctored:
            n = 4
            bicentral = False
            level = (0, 3, 3, 1)
            branch = side = (None, 0, 1, 2)

        with pytest.raises(InternalError, match="negative increment between consecutive vertices"):
            coloring_from_ordering(Doctored(), [0, 1, 2, 3])

    def test_rejects_bad_ordering(self):
        rv = analyze(generate("star", {"n": 4})[0])
        with pytest.raises(NotAPermutationError):
            coloring_from_ordering(rv, [0, 1, 2])


class TestCertificates:
    def test_star_certificate(self):
        rv = analyze(generate("star", {"n": 5})[0])
        cert = check_spacing(rv, [0, 1, 2, 3, 4])
        assert cert.ok and cert.kind == "spacing"
        assert cert.ordering == (0, 1, 2, 3, 4)
        assert cert.coloring == Coloring((0, 3, 5, 7, 9))

    def test_long_spider_certificate(self):
        # the diameter 6 exceeds n/2 = 4; the exact condition needs no cap
        rv = analyze(spider_331())
        order = [0, 3, 7, 6, 1, 5, 2, 4]
        cert = check_spacing(rv, order)
        assert cert.ok and cert.ordering == tuple(order)
        assert cert.coloring.colors == (0, 13, 20, 4, 24, 17, 10, 7)
        assert cert.coloring.span == 24 == lower_bound_weight(rv)
        assert not verify_coloring(rv, cert.coloring)

    def test_same_branch_rejection(self):
        rv = analyze(generate("broom", {"n": 6, "d": 3})[0])
        cert = check_spacing(rv, [0, 2, 1, 3, 4, 5])
        assert cert == Certificate(False, (1, 2), "positions 1,2: distance 1 < required 3")

    def test_same_side_rejection_when_bicentral(self):
        # double star: 2,3 hang off one center, so they may not be adjacent
        rv = analyze(Tree(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]))
        cert = check_spacing(rv, [0, 5, 2, 3, 6, 4, 7, 1])
        assert cert == Certificate(False, (2, 3), "positions 2,3: distance 2 < required 3")

    def test_needs_applicable_tree(self):
        rv = analyze(path(6))
        with pytest.raises(NotApplicableError):
            check_spacing(rv, [2, 5, 0, 4, 1, 3])

    def test_certified_orderings_pass_spacing(self, corpus):
        # the greedy's certificate is the all-pairs oracle's, coloring included
        for n in range(4, 9):
            for t in corpus[n]:
                if not is_applicable(t):
                    continue
                rv = analyze(t)
                cert = search_ordering(rv)
                if cert.ok:
                    assert cert == oracles.all_pairs_spacing(rv, cert.ordering)

    def test_certificate_coloring_is_the_arithmetic_coloring(self, ordering_cases):
        # the coloring check_spacing builds in its increment pass is the one
        # the prefix sums of levels give
        certified = 0
        for rv, _, orders in ordering_cases:
            for order in orders:
                cert = check_spacing(rv, order)
                if cert.ok:
                    certified += 1
                    assert cert.coloring == oracles.prefix_sum_coloring(rv, order), (rv.tree, order)
        assert certified > 100, certified

    def test_accepts_every_ordering_the_alternation_check_accepted(self, ordering_cases):
        # the former check is a sufficient condition, so the exact one accepts
        # whatever it accepted, with the coloring the former color path wrote;
        # every accepted coloring is valid at the weight-center bound
        rng = random.Random(47)
        cases = [(rv, orders) for rv, _, orders in ordering_cases]
        for n in range(4, 41):
            for _ in range(4):
                t = oracles.random_tree(n, rng)
                if is_applicable(t):
                    rv = analyze(t)
                    cases.append((rv, [oracles.linear_scan_greedy(rv)]))
        both = only_new = 0
        for rv, orders in cases:
            for order in orders:
                old = oracles.certify_alternation(rv, order)
                new = check_spacing(rv, order)
                if old.kind != "none":
                    both += 1
                    assert new.ok, (rv.tree, order)
                    assert new.coloring == oracles.prefix_sum_coloring(rv, order)
                    assert new.coloring.span == old.claimed_span
                elif new.ok:
                    only_new += 1
                if new.ok:
                    assert not oracles.all_pairs_violations(rv.tree, new.coloring.colors)
                    assert new.coloring.span == lower_bound_weight(rv)
        assert both > 100 and only_new > 10, (both, only_new)


def spider(legs: list[int]) -> Tree:
    """Hub 0 with one path per entry of ``legs``, of that many vertices."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return Tree(n, edges)


def with_leaves(tree: Tree, at: int, k: int) -> Tree:
    """``tree`` with ``k`` more leaves hung on vertex ``at``."""
    return Tree(tree.n + k, list(tree.edges) + [(at, tree.n + i) for i in range(k)])


def double_broom(a: int, p: int, b: int, q: int) -> Tree:
    """Adjacent hubs 0 and 1: hub 0 with ``a`` leaves and a path of ``p``
    vertices, hub 1 with ``b`` leaves and a path of ``q``.  Two weight
    centers when a + p == b + q."""
    edges, n = [(0, 1)], 2
    for hub, leaves, length in ((0, a, p), (1, b, q)):
        edges += [(hub, n + i) for i in range(leaves)]
        n += leaves
        edges += [(hub if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return Tree(n, edges)


def tail_pops(rv, order) -> int:
    """Heap pops the greedy makes before its one-center tail takes over: 0
    when every branch holds one vertex from the start (a star), else the
    first step p after which every branch left holds one vertex and the
    branch of order[p] is empty (n - 1, no tail, when that is the last step)."""
    left: dict = {}
    for v in order[1:]:
        left[rv.branch[v]] = left.get(rv.branch[v], 0) + 1
    multi = sum(c > 1 for c in left.values())
    if multi == 0:
        return 0
    for p in range(1, len(order)):
        bid = rv.branch[order[p]]
        left[bid] -= 1
        multi -= left[bid] == 1
        if left[bid] == 0 and multi == 0:
            return p
    raise AssertionError("the ordering never reaches a single-vertex tail")


class TestGreedyTail:
    """The heap greedy's push-back one step late and its sorted single-vertex
    tail, against the linear-scan oracle, on trees where most branches are
    single leaves at a weight center."""

    @staticmethod
    def _cases():
        yield from (generate("star", {"n": n})[0] for n in range(4, 81))
        yield from (generate("broom", {"n": n, "d": d})[0] for n in range(4, 41) for d in range(2, n - 1))
        yield from (spider([long] + [1] * k) for long in range(2, 14) for k in range(2, 16))
        for family, params in (
            ("broom", {"n": 12, "d": 5}),
            ("broom", {"n": 20, "d": 9}),
            ("broom", {"n": 30, "d": 6}),
            ("caterpillar", {"m": 5, "d": 3}),
            ("caterpillar", {"m": 7, "d": 4}),
            ("caterpillar", {"m": 9, "d": 3}),
        ):
            base = generate(family, params)[0]
            hub = min(analyze(base).weight_centers)
            yield from (with_leaves(base, hub, k) for k in (1, 2, 5, 11))
        yield from (double_broom(k, 0, k, 0) for k in range(2, 16))
        yield from (double_broom(a, p, b, a + p - b) for a in (2, 3, 6) for p in (0, 2, 5) for b in (2, 4, 7)
                    if a + p - b >= 0)

    def test_tail_and_reentry_match_linear_scan(self, monkeypatch):
        pops = 0

        def heappop(heap):
            nonlocal pops
            pops += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(ordering, "heapq", SimpleNamespace(
            heappop=heappop, heappush=heapq.heappush, heapify=heapq.heapify))
        rng = random.Random(43)
        kinds = {True: 0, False: 0}
        for base in self._cases():
            assert is_applicable(base)
            for _ in range(2):
                perm = list(range(base.n))
                rng.shuffle(perm)
                rv = analyze(Tree(base.n, [(perm[u], perm[v]) for u, v in base.edges]))
                pops = 0
                got, want = TestSearchOrdering._greedy_outcomes(rv)
                assert got == want, (base, perm)
                kinds[rv.bicentral] += 1
                if not rv.bicentral:
                    # the tail fires at the first step it can
                    assert pops == tail_pops(rv, oracles.linear_scan_greedy(rv)) < rv.n - 1, (base, perm)
        assert kinds[True] > 50 and kinds[False] > 1000, kinds


class TestGreedyWork:
    """The work the greedy skips: no stack for a branch that is its root
    alone, and no heap at all on a star."""

    def test_stacks_only_for_branches_past_their_root(self):
        star = generate("star", {"n": 1500})[0]
        broom = generate("broom", {"n": 600, "d": 25})[0]
        double = double_broom(6, 5, 8, 3)
        for tree, bicentral in ((star, False), (broom, False), (double, True)):
            rv = analyze(tree)
            assert rv.bicentral == bicentral
            members: dict = {}
            for v in range(rv.n):
                if rv.branch[v] is not None:
                    members.setdefault(rv.branch[v], []).append(v)
            queues = ordering._branch_queues(rv)
            assert len(queues) == len(members)
            for bid, q in enumerate(queues):
                if len(members[bid]) == 1:
                    assert q is None, (tree, bid)
                else:
                    # popping from the end takes the deepest, then the least id
                    assert q == sorted(members[bid], key=lambda v: (rv.level[v], -v)), (tree, bid)
            # each tree has leaves at a center; all but the star have a stack
            assert None in queues
            assert any(q is not None for q in queues) == (tree is not star)

    def test_star_makes_no_heap_pop(self, monkeypatch):
        def no_heap(*args):
            raise AssertionError("the greedy touched a heap on a star")

        monkeypatch.setattr(ordering, "heapq", SimpleNamespace(heappop=no_heap, heappush=no_heap, heapify=no_heap))
        rng = random.Random(48)
        for n in (4, 5, 9, 1500):
            base = generate("star", {"n": n})[0]
            perm = list(range(n))
            rng.shuffle(perm)
            rv = analyze(Tree(n, [(perm[u], perm[v]) for u, v in base.edges]))
            cert = search_ordering(rv)
            assert cert.ok and cert.ordering == (perm[0], *sorted(perm[1:]))
            assert list(cert.ordering) == oracles.linear_scan_greedy(rv)


class TestSpacingSoundness:
    def test_random_passes_induce_optimal_colorings(self, corpus, exact_of, rng):
        hits = 0
        for n in range(4, 8):
            for t in corpus[n]:
                if not is_applicable(t):
                    continue
                rv = analyze(t)
                centers = sorted(rv.weight_centers)
                for trial in range(60):
                    order = list(range(t.n))
                    rng.shuffle(order)
                    if trial % 2 == 0:
                        # bias: spacing demands a center first, so help the fuzz along
                        order.remove(centers[0])
                        order.insert(0, centers[0])
                    if not check_spacing(rv, order).ok:
                        continue
                    hits += 1
                    col = coloring_from_ordering(rv, order)
                    assert not verify_coloring(rv, col)
                    assert col.span == lower_bound_weight(rv)
                    assert col.span == exact_of(t).hc
        assert hits > 10  # the fuzz must actually exercise the sound path


class TestSearchOrdering:
    def test_star_order_frozen(self):
        rv = analyze(generate("star", {"n": 6})[0])
        cert = search_ordering(rv)
        assert cert.ordering == (0, 1, 2, 3, 4, 5)
        assert cert.kind == "spacing" and cert.coloring.span == 16

    def test_broom_greedy(self):
        rv = analyze(generate("broom", {"n": 9, "d": 4})[0])
        order = search_ordering(rv).ordering
        assert order == (0, 3, 4, 2, 5, 1, 6, 7, 8)
        col = coloring_from_ordering(rv, order)
        assert col.span == lower_bound_weight(rv) == 43

    def test_needs_applicable_tree(self):
        # every path up to n = 12, relabelled: the greedy runs to its end and
        # check_spacing's NotApplicableError is the error, never InternalError
        rng = random.Random(23)
        for n in range(1, 13):
            perm = list(range(n))
            rng.shuffle(perm)
            rv = analyze(Tree(n, [(perm[i], perm[i + 1]) for i in range(n - 1)]))
            msg = (f"ordering certificates need order >= 4 and max degree >= 3 "
                   f"(got n={n}, max degree {min(n - 1, 2)})")
            with pytest.raises(NotApplicableError) as spacing:
                check_spacing(rv, perm)
            assert str(spacing.value) == msg
            with pytest.raises(NotApplicableError) as greedy:
                search_ordering(rv)
            assert str(greedy.value) == msg

    def test_long_spider_fails_even_though_ordering_exists(self):
        # greedy places the two deep tips at positions 1 and 3, too close in
        # color for their distance; test_long_spider_certificate shows a
        # certified ordering exists; the failing certificate is returned
        cert = search_ordering(analyze(spider_331()))
        assert cert == Certificate(False, (1, 3), "positions 1,3: distance 1 < required 4")

    def test_no_allowed_branch_guard(self):
        # a doctored view with one branch holding three of four vertices: the
        # greedy runs out of branches other than the one it just used.  The
        # tree is rooted at 0 instead of its weight center 1, so that the
        # branch's root 1 has the children 2 and 3
        rv = analyze(Tree(5, [(0, 1), (1, 2), (1, 3), (0, 4)]))
        rv.weight_centers, rv.level = frozenset({0}), (0, 1, 2, 2, 1)
        rv.branch, rv.branch_roots = (None, 0, 0, 0, 1), (1, 4)
        with pytest.raises(InternalError, match="no allowed branch has an unplaced vertex"):
            search_ordering(rv)

    def test_corpus_successes_are_optimal(self, corpus, exact_of):
        succeeded = 0
        for n in range(4, 9):
            for t in corpus[n]:
                if not is_applicable(t):
                    continue
                rv = analyze(t)
                if not (cert := search_ordering(rv)).ok:
                    continue
                order = cert.ordering
                succeeded += 1
                col = coloring_from_ordering(rv, order)
                assert not verify_coloring(rv, col)
                assert col.span == lower_bound_weight(rv)
                assert exact_of(t).hc == col.span
        assert succeeded == 26  # of the 40 applicable trees on up to 8 vertices

    @staticmethod
    def _greedy_outcomes(rv):
        """(search_ordering's certificate, that of the linear-scan oracle's ordering)."""
        return search_ordering(rv), check_spacing(rv, oracles.linear_scan_greedy(rv))

    def test_heap_matches_linear_scan(self, corpus):
        rng = random.Random(31)
        trees = [t for n in range(4, 9) for t in corpus[n]]
        for shape in (
            generate("star", {"n": 4}),
            generate("star", {"n": 9}),
            generate("broom", {"n": 9, "d": 4}),
            generate("broom", {"n": 10, "d": 4}),
            generate("broom", {"n": 15, "d": 5}),
            generate("broom", {"n": 12, "d": 7}),
            generate("a_tree", {"d": 5}),
            generate("a_tree", {"d": 8}),
            generate("caterpillar", {"m": 5, "d": 4}),
            generate("caterpillar", {"m": 6, "d": 3}),
            generate("caterpillar", {"m": 7, "d": 5}),
        ):
            base = shape[0]
            perm = list(range(base.n))
            rng.shuffle(perm)
            trees += [base, Tree(base.n, [(perm[u], perm[v]) for u, v in base.edges])]
        trees += [oracles.random_tree(n, rng) for n in range(4, 41) for _ in range(4)]
        seen = set()
        for t in trees:
            if not is_applicable(t):
                continue
            got, want = self._greedy_outcomes(analyze(t))
            assert got == want, t
            seen.add(want.ok)
        # both successes and certification failures were compared; the greedy
        # never runs dry on a tree: a branch at a single weight center holds
        # fewer than n/2 vertices, and the sides at two centers are equal
        assert seen == {True, False}

    def test_heap_matches_linear_scan_at_scale(self):
        # the int heap keys order many branches as the (-unplaced, branch id)
        # scan does: color-large's five shapes (up to 1,500 branches) and
        # random trees up to n = 300, each relabelled twice
        rng = random.Random(37)
        trees = [
            generate(family, params)[0]
            for family, params in (
                ("star", {"n": 1500}),
                ("caterpillar", {"m": 201, "d": 5}),
                ("a_tree", {"d": 30}),
                ("broom", {"n": 465, "d": 30}),
                ("broom", {"n": 600, "d": 25}),
            )
        ]
        trees += [oracles.random_tree(n, rng) for n in (60, 120, 200, 300) for _ in range(2)]
        seen = set()
        for base in trees:
            for _ in range(2):
                perm = list(range(base.n))
                rng.shuffle(perm)
                t = Tree(base.n, [(perm[u], perm[v]) for u, v in base.edges])
                if not is_applicable(t):
                    continue
                got, want = self._greedy_outcomes(analyze(t))
                assert got == want, (base, perm)
                seen.add(want.ok)
        assert True in seen
