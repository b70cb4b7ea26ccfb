"""The benchmark's workloads: seeded inputs, the CLI calls on them, and gates.

Each workload is built in two phases.  ``generate`` makes the trees and files
through ``hamcolor.families`` and ``hamcolor.io`` (this is set-up and is
timed).  ``expect`` then derives every call's expected result from the
benchmark's own oracle (not timed).  ``check`` judges one call's exit code and
output against that expectation and returns the reasons it failed.

Why these workloads:

* color-large   -- ``color`` on family trees with n 450..1500, each shape once
  with family metadata (so ``color`` regenerates the family and uses its
  construction) and once relabelled without it (greedy search).  The
  all-pairs verify inside ``color`` dominates; the exact kernel never runs.
* verify-mixed  -- ``verify`` on family and Prufer trees with three colorings
  each: a dense valid one, a sparse valid one (h = (n - 1) * rank) and a
  corrupted copy of the dense one.  Reads coloring files, reports violations.
* exact-tight   -- ``exact`` on trees whose hc equals the weight-center bound:
  star8, broom9 d=4 and seven Prufer trees on 9 vertices.
* exact-gap     -- ``exact`` on trees whose hc exceeds the bound or has none,
  so the search must run to exhaustion: the paths on 9 and 10 vertices and
  seven Prufer trees on 8 vertices.  Kept apart from exact-tight so that an
  early stop at the bound shows on one and cannot hide a change on the other.

The seed relabels the trees that carry no family metadata in color-large and
the Prufer tree of verify-mixed, picks the colorings' rank order and the
corrupted vertices, and orders the calls of every pass.  Exact instances keep
their pinned labels: the search breaks ties by vertex id, so relabelling
would change the nodes it explores (by up to 15% on rand9_tight0)
and with them the work per pass.  Shapes and sizes are fixed everywhere, so
the work per pass does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import TreeOracle, parse_coloring, prufer_edges, relabel

WORKLOADS = ("color-large", "verify-mixed", "exact-tight", "exact-gap")

# (family, params) of the color-large shapes; the tiny variants keep every kind
COLOR_SHAPES = [
    ("star", {"n": 1500}),
    ("caterpillar", {"m": 201, "d": 5}),
    ("a-tree", {"d": 30}),
    ("broom", {"n": 465, "d": 30}),   # recognised: broom_even, k = 15
    ("broom", {"n": 600, "d": 25}),   # unrecognised
]
COLOR_SHAPES_TINY = [
    ("star", {"n": 30}),
    ("caterpillar", {"m": 9, "d": 4}),
    ("a-tree", {"d": 6}),
    ("broom", {"n": 10, "d": 4}),
    ("broom", {"n": 14, "d": 5}),
]
# five trees whose verify costs differ by 1.5x or more from one to the next,
# so the median call falls on the middle tree's three colorings
VERIFY_SHAPES = [
    ("a-tree", {"d": 24}),
    ("broom", {"n": 496, "d": 31}),   # recognised: broom_odd, k = 15
    ("star", {"n": 800}),
    ("caterpillar", {"m": 101, "d": 7}),
]
VERIFY_SHAPES_TINY = [
    ("star", {"n": 20}),
    ("caterpillar", {"m": 7, "d": 4}),
    ("a-tree", {"d": 5}),
    ("broom", {"n": 15, "d": 5}),
]
VERIFY_PRUFER = 700
VERIFY_PRUFER_TINY = 12
CORRUPTED_VERTICES = 3
PINNED = Path(__file__).with_name("pinned.json")
EXACT_SETS = {
    "exact-tight": ["star8", "broom9_d4"] + [f"rand9_tight{i}" for i in range(7)],
    "exact-gap": ["path9", "path10"] + [f"rand8_gap{i}" for i in range(7)],
}
EXACT_SETS_TINY = {
    "exact-tight": ["star8", "rand9_tight2"],
    "exact-gap": ["path9", "rand8_gap0"],
}


@dataclass
class Call:
    """One CLI invocation and what its result must be."""

    label: str
    verb: str
    argv: list[str]
    n: int
    edges: list[tuple[int, int]]
    data: dict = field(default_factory=dict)   # generation facts (closed form, coloring, pins)
    oracle: TreeOracle | None = None
    expected: dict = field(default_factory=dict)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _tree_file(workdir: Path, name: str, n: int, edges, meta=None) -> str:
    from hamcolor import build_tree, io

    return _write(workdir / f"{name}.tree", io.format_tree(build_tree(n, edges), meta))


def _family_meta(spec) -> dict:
    return {"family": spec.family, "params": ",".join(f"{k}={v}" for k, v in spec.params.items())}


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def generate(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Call]:
    """Make the workload's input files; returns the calls without expectations."""
    import hamcolor
    from hamcolor import families
    from hamcolor import io as hio

    rng = random.Random(f"{workload}:{seed}")
    calls: list[Call] = []
    if workload == "color-large":
        for fam, params in (COLOR_SHAPES_TINY if tiny else COLOR_SHAPES):
            tree, spec = families.generate(fam, params)
            name = spec.family + "_" + "_".join(f"{k}{v}" for k, v in params.items())
            edges = list(tree.edges)
            path = _write(workdir / f"{name}.meta.tree", hio.format_tree(tree, _family_meta(spec)))
            calls.append(Call(f"{name}.meta", "color", ["color", "--json", path], tree.n, edges,
                              {"closed_form": spec.expected_hc}))
            plain = relabel(edges, _shuffled(rng, tree.n))
            path = _tree_file(workdir, f"{name}.plain", tree.n, plain)
            calls.append(Call(f"{name}.plain", "color", ["color", "--json", path], tree.n, plain,
                              {"closed_form": spec.expected_hc}))
    elif workload == "verify-mixed":
        from hamcolor import ordering

        trees = []
        for fam, params in (VERIFY_SHAPES_TINY if tiny else VERIFY_SHAPES):
            tree, spec = families.generate(fam, params)
            name = spec.family + "_" + "_".join(f"{k}{v}" for k, v in params.items())
            order = families.family_ordering(spec, tree)
            dense = list(ordering.coloring_from_ordering(hamcolor.analyze(tree), order).colors)
            trees.append((name, tree.n, list(tree.edges), dense))
        n = VERIFY_PRUFER_TINY if tiny else VERIFY_PRUFER
        shape = random.Random(f"{workload}:prufer")  # one fixed shape; the seed relabels it
        edges = relabel(prufer_edges([shape.randrange(n) for _ in range(n - 2)]), _shuffled(rng, n))
        dense = TreeOracle(n, edges).greedy_coloring(_shuffled(rng, n))
        trees.append((f"prufer{n}", n, edges, dense))
        for name, n, edges, dense in trees:
            tree_path = _tree_file(workdir, name, n, edges)
            sparse = [0] * n
            for rank, v in enumerate(_shuffled(rng, n)):
                sparse[v] = (n - 1) * rank
            corrupt = list(dense)
            for v in rng.sample(range(n), CORRUPTED_VERTICES):
                u = rng.randrange(n - 1)
                corrupt[v] = dense[u + (u >= v)]  # another vertex's color: at least one violation
            for kind, colors in (("dense", dense), ("sparse", sparse), ("corrupt", corrupt)):
                col_path = _write(workdir / f"{name}.{kind}.coloring",
                                  hio.format_coloring(hamcolor.Coloring(tuple(colors))))
                calls.append(Call(f"{name}.{kind}", "verify", ["verify", "--json", tree_path, col_path],
                                  n, edges, {"colors": colors}))
    elif workload in EXACT_SETS:
        pins = {e["name"]: e for e in json.loads(PINNED.read_text(encoding="utf-8"))["instances"]}
        for name in (EXACT_SETS_TINY if tiny else EXACT_SETS)[workload]:
            pin = pins[name]
            edges = [tuple(e) for e in pin["edges"]]
            path = _tree_file(workdir, name, pin["n"], edges)
            calls.append(Call(name, "exact", ["exact", "--json", path], pin["n"], edges, {"pin": pin}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def expect(calls: list[Call]) -> None:
    """Fill in every call's expected result from the oracle."""
    for call in calls:
        call.oracle = TreeOracle(call.n, call.edges)
        if call.verb == "color":
            call.expected = {"rc": 0, "span": call.oracle.lower_bound(),
                             "closed_form": call.data["closed_form"]}
        elif call.verb == "verify":
            viol = call.oracle.violations(call.data["colors"])
            call.expected = {"rc": 2 if viol else 0, "violations": viol}
        else:
            pin = call.data["pin"]
            call.expected = {"rc": 0, "hc": pin["hc"], "lb": call.oracle.lower_bound(),
                             "class": pin["class"], "pinned_lb": pin["lb"]}


def _load_json(stdout: str) -> dict | None:
    try:
        out = json.loads(stdout)
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


def check(call: Call, rc: int, stdout: str) -> list[str]:
    """Reasons the call's result is wrong; empty when it is right."""
    exp = call.expected
    bad = []
    if rc != exp["rc"]:
        bad.append(f"exit code {rc}, expected {exp['rc']}")
    out = _load_json(stdout)
    if out is None:
        return bad + ["output is not a JSON object"]
    oracle = call.oracle
    if call.verb == "color":
        colors = out.get("colors")
        if not isinstance(colors, list) or len(colors) != call.n or \
                not all(isinstance(c, int) and c >= 0 for c in colors):
            return bad + ["colors missing or malformed"]
        span = max(colors) - min(colors)
        if out.get("span") != span:
            bad.append(f"reported span {out.get('span')} != span of colors {span}")
        if exp["closed_form"] is not None and span != exp["closed_form"]:
            bad.append(f"span {span} != closed form {exp['closed_form']}")
        if span != exp["span"]:
            bad.append(f"span {span} != weight-center bound {exp['span']}")
        viol = oracle.violations(colors)
        if viol:
            bad.append(f"coloring has {viol} violations")
        path = out.get("coloring_file")
        if not isinstance(path, str) or not os.path.isfile(path) or \
                parse_coloring(Path(path).read_text(encoding="utf-8"), call.n) != colors:
            bad.append("coloring file does not hold the reported colors")
    elif call.verb == "verify":
        want = exp["violations"]
        if out.get("valid") is not (want == 0):
            bad.append(f"valid={out.get('valid')} but the oracle counts {want} violations")
        if out.get("violations", 0) != want:
            bad.append(f"violations {out.get('violations', 0)} != oracle {want}")
    else:
        hc = out.get("hc")
        if hc != exp["hc"]:
            bad.append(f"hc {hc} != pinned {exp['hc']}")
        if out.get("limit_hit") is not False:
            bad.append("search hit its limit")
        if exp["lb"] != exp["pinned_lb"]:
            bad.append(f"bound {exp['lb']} != pinned bound {exp['pinned_lb']}")
        if exp["lb"] is not None and isinstance(hc, int) and hc < exp["lb"]:
            bad.append(f"hc {hc} below the weight-center bound {exp['lb']}")
        path = out.get("witness_file")
        witness = parse_coloring(Path(path).read_text(encoding="utf-8"), call.n) \
            if isinstance(path, str) and os.path.isfile(path) else None
        if witness is None:
            bad.append("witness file missing or malformed")
        else:
            if max(witness) - min(witness) != hc:
                bad.append(f"witness span {max(witness) - min(witness)} != hc {hc}")
            if out.get("witness_span") != hc:
                bad.append(f"reported witness span {out.get('witness_span')} != hc {hc}")
            viol = oracle.violations(witness)
            if viol:
                bad.append(f"witness has {viol} violations")
    return bad


def describe(calls: list[Call]) -> dict:
    """Instance properties of one pass: n range, depth range (distance from
    the weight center(s) to the deepest vertex), and tight/gap counts."""
    ns = [c.n for c in calls]
    depth = [c.oracle.height() for c in calls]
    info = {"calls_per_pass": len(calls), "n_min": min(ns), "n_max": max(ns),
            "depth_min": min(depth), "depth_max": max(depth)}
    if calls[0].verb == "exact":
        info["tight"] = sum(c.expected["class"] == "tight" for c in calls)
        info["gap"] = sum(c.expected["class"] == "gap" for c in calls)
    if calls[0].verb == "verify":
        info["violations_per_pass"] = sum(c.expected["violations"] for c in calls)
    return info
