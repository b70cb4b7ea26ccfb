"""Acceptance suite: the package's headline claims, one test per criterion.

Each test prints one pass/fail line in the "acceptance criteria" section of
the terminal summary (see conftest).  Frozen numbers here were derived by
hand and cross-checked against independent oracles before the implementation
existed; they must never be regenerated from the code under test.
"""

import time

import oracles
from hamcolor.bounds import compare_bounds, lower_bound_weight
from hamcolor.errors import SearchFailedError
from hamcolor.families import (
    family_certificate,
    generate,
)
from hamcolor.solver import verify_coloring
from hamcolor.tree import analyze


def certified_span(tree, spec=None) -> int:
    """Span of the certified ordering for a tree, a family instance when
    ``spec`` is given."""
    rv = analyze(tree)
    cert = family_certificate(spec, rv)
    assert cert.ok and cert.kind == "spacing"
    assert cert.coloring == oracles.prefix_sum_coloring(rv, cert.ordering)
    assert not verify_coloring(rv, cert.coloring)
    return cert.coloring.span


def test_c01_even_a_tree_closed_forms(exact_of):
    start = time.perf_counter()
    for d, want in ((4, 30), (6, 220)):
        tree, spec = generate("a_tree", {"d": d})
        assert spec.expected_hc == want
        assert lower_bound_weight(analyze(tree)) == want
        assert certified_span(tree, spec) == want
    assert time.perf_counter() - start < 1.0
    # the smaller instance is within exhaustive reach: confirm independently
    assert exact_of(generate("a_tree", {"d": 4})[0]).hc == 30


def test_c02_broom_closed_forms(exact_of):
    start = time.perf_counter()
    cases = ((6, 3, 14), (10, 4, 58), (15, 5, 157))
    for n, d, want in cases:
        tree, spec = generate("broom", {"n": n, "d": d})
        assert spec.expected_hc == want
        assert lower_bound_weight(analyze(tree)) == want
        assert certified_span(tree, spec) == want
    assert exact_of(generate("broom", {"n": 6, "d": 3})[0]).hc == 14
    assert time.perf_counter() - start < 10.0


def test_c03_star_exact_law(exact_of):
    start = time.perf_counter()
    for n in range(4, 9):
        assert exact_of(generate("star", {"n": n})[0]).hc == (n - 2) ** 2
    assert time.perf_counter() - start < 180.0


def test_c04_odd_a_tree_base_coefficient(exact_of):
    tree, spec = generate("a_tree", {"d": 3})
    want = 9
    assert exact_of(tree).hc == want
    assert lower_bound_weight(analyze(tree)) == want
    assert spec.expected_hc == want
    # a plausible mis-transcription of the odd closed form -- leading
    # coefficient 1/3 instead of 4/3 -- lands on 3 and is provably wrong
    k = 1
    variant = k * (k + 1) * (3 * k * k + k - 1) // 3 + 1
    assert variant == 3
    assert variant != want


def test_c05_broom_bound_gap_identities():
    for k in range(1, 51):
        even = generate("broom", {"n": k * (2 * k + 1), "d": 2 * k})[0]
        report = compare_bounds(analyze(even))  # k=1 is the 3-path
        assert report.difference == 4 * k * (k - 1) ** 2
        odd = generate("broom", {"n": (k + 1) * (2 * k + 1), "d": 2 * k + 1})[0]
        assert compare_bounds(analyze(odd)).difference == 4 * k**3 - 2 * k**2 - k + 1


def test_c06_exact_dominates_bound_on_all_small_trees(corpus, exact_of):
    start = time.perf_counter()
    # the formula bounds hc on every tree, so analyze prints it on every tree:
    # the center bound never exceeds the weight bound, which never exceeds hc
    checked = 0
    for n in range(1, 9):
        for t in corpus[n]:
            checked += 1
            report = compare_bounds(analyze(t))
            assert report.lb_center <= report.lb_weight <= exact_of(t).hc, t.edges
    assert checked == 48  # every tree on 1..8 vertices, paths included, none sampled
    assert time.perf_counter() - start < 300.0


def test_c07_issued_certificates_are_sound(corpus):
    instances = [generate("a_tree", {"d": 4}), generate("a_tree", {"d": 6})]
    instances += [
        generate("broom", {"n": 6, "d": 3}),
        generate("broom", {"n": 10, "d": 4}),
        generate("broom", {"n": 15, "d": 5}),
    ]
    instances += [generate("star", {"n": n}) for n in range(4, 9)]
    issued = 0
    for tree, spec in instances:
        rv = analyze(tree)
        assert certified_span(tree, spec) == lower_bound_weight(rv)
        issued += 1
    for n in range(4, 9):
        for t in corpus[n]:
            if t.max_degree < 3:
                continue
            try:
                span = certified_span(t)
            except SearchFailedError:
                continue
            assert span == lower_bound_weight(analyze(t))
            issued += 1
    assert issued >= 30


def test_c08_distance_decomposition_matches_bfs(corpus):
    for n in range(1, 9):
        for t in corpus[n]:
            rv = analyze(t)
            dist = oracles.nx_distance_matrix(t)
            for u in range(t.n):
                for v in range(t.n):
                    assert rv.detour_distance(u, v) == dist[u][v]


def test_c09_exact_matches_enumeration(corpus, exact_of):
    for n in range(1, 6):
        for t in corpus[n]:
            assert exact_of(t).hc == oracles.enumeration_hc(t)


def test_c10_caterpillar_spot_values(exact_of):
    start = time.perf_counter()
    for m, d, want in ((3, 3, 4), (4, 3, 12)):
        tree, spec = generate("caterpillar", {"m": m, "d": d})
        assert spec.expected_hc == want
        assert lower_bound_weight(analyze(tree)) == want
        assert certified_span(tree, spec) == want
        assert exact_of(tree).hc == want
    assert time.perf_counter() - start < 1.0
