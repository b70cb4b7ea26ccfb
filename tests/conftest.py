import random

import networkx as nx
import pytest

import oracles
from hamcolor.bounds import is_applicable
from hamcolor.families import generate
from hamcolor.solver import ExactResult, exact_hc
from hamcolor.tree import RootedView, Tree, analyze

# number of non-isomorphic trees on n vertices, used to make sure the
# exhaustive fixtures really are exhaustive
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


@pytest.fixture(scope="session")
def corpus() -> dict[int, list[Tree]]:
    """Every non-isomorphic tree on 1..8 vertices, keyed by order."""
    out: dict[int, list[Tree]] = {
        1: [Tree(1, [])],
        2: [Tree(2, [(0, 1)])],
        3: [Tree(3, [(0, 1), (1, 2)])],
    }
    for n in range(4, 9):
        out[n] = [
            Tree(n, [(int(u), int(v)) for u, v in g.edges()])
            for g in nx.nonisomorphic_trees(n)
        ]
    for n, trees in out.items():
        assert len(trees) == TREE_COUNTS[n]
    return out


@pytest.fixture(scope="session")
def exact_of():
    """Memoized exact solve, shared by every test in the session."""
    cache: dict[tuple, ExactResult] = {}

    def run(subject: Tree | RootedView) -> ExactResult:
        rv = subject if isinstance(subject, RootedView) else analyze(subject)
        key = (rv.tree.n, rv.tree.edges)
        if key not in cache:
            cache[key] = exact_hc(rv)
        return cache[key]

    return run


@pytest.fixture(scope="session")
def ordering_cases(corpus) -> list[tuple[RootedView, list[list[int]], list[tuple[int, ...]]]]:
    """(view, networkx distances, orderings) for every applicable tree of the
    n <= 8 corpus, seeded Prufer trees with n 4..40 and family shapes.  The
    orderings: random ones (every other one with valid endpoints), the
    uncertified greedy ordering, and that greedy broken by swapping two inner
    positions."""
    rng = random.Random(61)
    trees = [t for n in range(4, 9) for t in corpus[n]]
    trees += [oracles.random_tree(n, rng) for n in range(4, 41) for _ in range(2)]
    trees += [
        shape[0]
        for shape in (
            generate("star", {"n": 9}),
            generate("broom", {"n": 10, "d": 4}),
            generate("broom", {"n": 15, "d": 5}),
            generate("broom", {"n": 12, "d": 7}),
            generate("a_tree", {"d": 5}),
            generate("a_tree", {"d": 8}),
            generate("caterpillar", {"m": 5, "d": 4}),
            generate("caterpillar", {"m": 6, "d": 3}),
            generate("caterpillar", {"m": 7, "d": 5}),
        )
    ]
    cases = []
    for t in trees:
        if not is_applicable(t):
            continue
        rv = analyze(t)
        centers = sorted(rv.weight_centers)
        last = [centers[1]] if rv.bicentral else [v for v in range(t.n) if rv.level[v] == 1]
        orders = []
        for trial in range(6):
            order = list(range(t.n))
            rng.shuffle(order)
            if trial % 2 == 0:
                tail = rng.choice(last)
                order = [centers[0]] + [v for v in order if v not in (centers[0], tail)] + [tail]
            orders.append(tuple(order))
        greedy = oracles.linear_scan_greedy(rv)
        orders.append(tuple(greedy))
        for _ in range(3):
            i, j = rng.sample(range(1, t.n - 1), 2)
            broken = list(greedy)
            broken[i], broken[j] = broken[j], broken[i]
            orders.append(tuple(broken))
        cases.append((rv, oracles.nx_distance_matrix(t), orders))
    return cases


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, visible on every run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_c" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call" and outcome == "passed":
                continue
            name = nodeid.split("::test_c", 1)[1]
            num, _, label = name.partition("_")
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines.append((num, f"acceptance {num} {label.replace('_', ' ')}: {verdict}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(set(lines)):
            terminalreporter.write_line(line)
