#!/usr/bin/env python3
"""Check that ``hamcolor color``, ``verify``, ``exact``, ``analyze`` and
``gen`` behave the same at a git revision and in the working tree.

Extracts ``src/`` of REV with ``git archive``, then runs the verbs on one
fixed input set once with each source tree, each in a fresh interpreter, and
compares the calls one by one.  ``color`` runs on five large family shapes
(star n=1500, caterpillar m=201 d=5, a-tree d=30, broom n=465 d=30 and broom
n=600 d=25), each with its family metadata and relabelled without it, plus
seeded Prufer trees with n from 4 to 40; its stdout, stderr, exit code and
written coloring file must be identical.  The ``hubs`` set runs ``color`` in
the same way on trees whose weight centers carry many leaves: stars and
brooms, each with its family metadata and relabelled without it, and double
stars and spiders with unit legs and one long leg, each as built and
relabelled; it is compared byte for byte and its exit codes are counted
apart from ``color``'s.  ``verify`` and ``verify --json`` run on the
coloring that REV's ``color`` wrote for each of those inputs and on a copy
with the colors of three seeded vertices rotated; their stdout, stderr and
exit code must be identical.  The ``formats`` set takes every 40th tree
that REV's ``color`` wrote a coloring for and rewrites the tree and that
coloring in five ways hamcolor never writes: CRLF line ends, a comment in
the middle of the body, doubled spaces, leading zeros, and the lines after
the order line reversed; ``color --json`` runs on each rewritten tree and
``verify --json`` on each rewritten coloring with it, compared as
``color`` and ``verify`` are, so the readers' general path is compared
across revisions too.  ``analyze --json`` runs on the same inputs as
``color``; its exit code, stderr and the value of every key that both sides
print must be identical, and the keys that only one side prints are listed
(a key added or removed on purpose shows there).  ``exact`` runs on the 18
instances of ``perfbench/pinned.json`` (read, never written) and, with
``--limit 12``, on the paths with n = 11 and 12 and four seeded Prufer trees
with n = 12 and hc > lb; its exit code and ``hc`` must be identical, while
the explored-node count and the witness may differ between search
strategies, so the node counts are printed side by side with their total for
each set, and the explored total of a set may not rise above REV's: that is
a gate, since a pruning change that costs nodes on these instances is a
regression whatever its answers.  ``gen`` runs on a grid of ``--params`` per
family: valid instances, recognised and off-family brooms, both a-tree
parities and both caterpillar m parities, parameters given out of order, and
rejected ones (too small, unknown, missing, given twice, not an integer);
its stdout, stderr and exit code must be identical.  The exit-code counts of
each verb are printed, and so are the line count and the code-line count
(lines that are not blank, not only a comment and not part of a docstring)
of each ``src/hamcolor/*.py`` file and their totals, at REV and in the
working tree, with the net changes.  Exits 1 and names the first differing
inputs on a mismatch, or the sets whose explored total rose.

    python3 scripts/color_parity.py HEAD
    python3 scripts/color_parity.py HEAD~1 --prufer 300
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PINNED = REPO / "perfbench" / "pinned.json"
SHAPES = [
    ("star", {"n": 1500}),
    ("caterpillar", {"m": 201, "d": 5}),
    ("a-tree", {"d": 30}),
    ("broom", {"n": 465, "d": 30}),
    ("broom", {"n": 600, "d": 25}),
]
# the hubs set: (family, params) with metadata, then (name, edges) without
HUB_FAMILIES = [("star", {"n": n}) for n in (4, 5, 9, 40, 301)] + [
    ("broom", {"n": n, "d": d}) for n, d in ((6, 3), (10, 4), (21, 5), (50, 3), (120, 10), (300, 7))]
HUB_SHAPES = (
    [(f"double_star{a}_{b}", [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)])
     for a, b in ((2, 2), (3, 3), (10, 10), (40, 40), (5, 8), (150, 150))]
    + [(f"spider{long}_{k}", [(0 if i == 0 else i, i + 1) for i in range(long)]
        + [(0, long + 1 + i) for i in range(k)])
       for long, k in ((2, 2), (3, 5), (6, 6), (5, 20), (12, 60), (30, 200))]
)
# seeds of Prufer trees with n = 12 and hc > lb, for exact past the benchmark's n <= 10
EXACT12_SEEDS = (5, 113, 153, 243)
# (label, inputs, argv before the file, suffix of the written coloring or None);
# a verify input is a coloring in a colorings/ directory, named after its
# tree in the directory above
RUNS = (
    ("color", "*.tree", ["color", "--json"], ".coloring"),
    ("hubs", "hubs/*.tree", ["color", "--json"], ".coloring"),
    ("verify", "colorings/*.coloring", ["verify"], None),
    ("verify --json", "colorings/*.coloring", ["verify", "--json"], None),
    ("formats color", "formats/*.tree", ["color", "--json"], ".coloring"),
    ("formats verify", "formats/colorings/*.coloring", ["verify", "--json"], None),
    ("analyze", "*.tree", ["analyze", "--json"], None),
    ("exact", "exact/*.tree", ["exact", "--json"], ".hc.coloring"),
    ("exact", "exact12/*.tree", ["exact", "--json", "--limit", "12"], ".hc.coloring"),
)
# rewrites of files hamcolor wrote into forms it never writes, and the step
# through the written colorings that picks the trees of the formats set
FORMATS = ("crlf", "comment", "spaces", "zeros", "reversed")
FORMATS_STEP = 40
# verbs whose JSON output is compared key by key
KEYED = ("analyze",)
# gen's --params per family, valid ones first, then rejected ones
GEN = {
    "star": [f"n={n}" for n in (3, 4, 9, 40)] + ["n=2", "n=-3", "n=4,q=1", "", "n=4,n=5", "n=four", "n=4.0", "n"],
    "broom": [f"n={n},d={d}" for n, d in ((3, 2), (6, 3), (10, 4), (15, 5), (28, 7), (36, 8),
                                             (9, 4), (11, 4), (7, 3), (12, 2), (40, 9))]
    + ["d=4,n=10", "d=5,n=9", "n=4,d=4", "n=5,d=1", "n=10,d=4,k=2", "n=10", "n=10,d=4,d=4", "n=10,d=x"],
    "a-tree": [f"d={d}" for d in range(2, 13)] + ["d=1", "d=-2", "n=5", "", "d=3,d=3", "d=2.5"],
    "caterpillar": [f"m={m},d={d}" for m in range(3, 9) for d in (3, 4, 5)]
    + ["d=4,m=5", "d=3,m=6", "m=2,d=3", "m=4,d=2", "m=4,d=3,n=6", "m=4", "m=4,m=4,d=3", "m=4,d=3e0"],
}


def _prufer_edges(seq: list[int]) -> list[tuple[int, int]]:
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    return edges + [(u, w)]


def _tree_text(n: int, edges, meta: dict | None = None) -> str:
    head = "".join(f"# {k}: {v}\n" for k, v in (meta or {}).items())
    return head + f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _relabel(name: str, n: int, edges) -> list[tuple[int, int]]:
    """``edges`` under a permutation of 0..n-1 seeded by ``name``."""
    perm = list(range(n))
    random.Random(name).shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _rewrite(kind: str, text: str, skip: int) -> str:
    """``text``, a file hamcolor wrote, rewritten as ``kind`` names; the first
    ``skip`` lines (metadata and the order) change only under CRLF."""
    lines = text.split("\n")[:-1]
    if kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    head, body = lines[:skip], lines[skip:]
    if kind == "comment":
        body.insert(len(body) // 2, "# a comment")
    elif kind == "spaces":
        body = [line.replace(" ", "  ") for line in body]
    elif kind == "zeros":
        body = [" ".join("0" + tok for tok in line.split(" ")) for line in body]
    else:
        body.reverse()
    return "\n".join(head + body) + "\n"


def make_inputs(src: Path, workdir: Path, prufer: int) -> None:
    """Write the input tree files; families come from the package at ``src``,
    and so do the colorings that ``verify`` checks."""
    sys.path.insert(0, str(src))
    from hamcolor.cli import main
    from hamcolor.families import generate

    for fam, params in SHAPES:
        tree, spec = generate(fam, params)
        name = spec.family + "_" + "_".join(f"{k}{v}" for k, v in params.items())
        meta = {"family": spec.family, "params": ",".join(f"{k}={v}" for k, v in spec.params.items())}
        (workdir / f"{name}.meta.tree").write_text(_tree_text(tree.n, tree.edges, meta))
        (workdir / f"{name}.plain.tree").write_text(_tree_text(tree.n, _relabel(name, tree.n, tree.edges)))
    (workdir / "hubs").mkdir()
    for fam, params in HUB_FAMILIES:
        tree, spec = generate(fam, params)
        name = spec.family + "_" + "_".join(f"{k}{v}" for k, v in params.items())
        meta = {"family": spec.family, "params": ",".join(f"{k}={v}" for k, v in spec.params.items())}
        (workdir / "hubs" / f"{name}.meta.tree").write_text(_tree_text(tree.n, tree.edges, meta))
        (workdir / "hubs" / f"{name}.plain.tree").write_text(_tree_text(tree.n, _relabel(name, tree.n, tree.edges)))
    for name, edges in HUB_SHAPES:
        n = len(edges) + 1
        (workdir / "hubs" / f"{name}.tree").write_text(_tree_text(n, edges))
        (workdir / "hubs" / f"{name}.plain.tree").write_text(_tree_text(n, _relabel(name, n, edges)))
    for i in range(prufer):
        n = 4 + i % 37
        rng = random.Random(i)
        edges = _prufer_edges([rng.randrange(n) for _ in range(n - 2)])
        (workdir / f"prufer{i:03d}_n{n}.tree").write_text(_tree_text(n, edges))
    (workdir / "colorings").mkdir()
    for path in sorted(workdir.glob("*.tree")):
        written = workdir / "colorings" / f"{path.stem}.coloring"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if main(["color", str(path), "--coloring-out", str(written)]) != 0:
                continue
        pairs = [line.split() for line in written.read_text().splitlines()]
        a, b, c = random.Random(path.name).sample(range(len(pairs)), 3)
        pairs[a][1], pairs[b][1], pairs[c][1] = pairs[b][1], pairs[c][1], pairs[a][1]
        (workdir / "colorings" / f"{path.stem}.rotated.coloring").write_text(
            "".join(f"{v} {color}\n" for v, color in pairs))
    (workdir / "formats" / "colorings").mkdir(parents=True)
    written = [p for p in sorted((workdir / "colorings").glob("*.coloring")) if ".rotated." not in p.name]
    for path in written[::FORMATS_STEP]:
        tree_text = (workdir / f"{path.stem}.tree").read_text()
        skip = sum(line.startswith("#") for line in tree_text.splitlines()) + 1
        for kind in FORMATS:
            (workdir / "formats" / f"{path.stem}.{kind}.tree").write_text(_rewrite(kind, tree_text, skip))
            (workdir / "formats" / "colorings" / f"{path.stem}.{kind}.coloring").write_text(
                _rewrite(kind, path.read_text(), 0))
    (workdir / "exact").mkdir()
    for inst in json.loads(PINNED.read_text())["instances"]:
        (workdir / "exact" / f"{inst['name']}.tree").write_text(_tree_text(inst["n"], inst["edges"]))
    (workdir / "exact12").mkdir()
    for n in (11, 12):
        (workdir / "exact12" / f"path{n}.tree").write_text(_tree_text(n, [(i, i + 1) for i in range(n - 1)]))
    for seed in EXACT12_SEEDS:
        rng = random.Random(seed)
        edges = _prufer_edges([rng.randrange(12) for _ in range(10)])
        (workdir / "exact12" / f"prufer_s{seed}_n12.tree").write_text(_tree_text(12, edges))


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, less the
    lines of docstrings: the first statement of a module, class or function
    when it is a string."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def line_counts(src: Path) -> dict[str, tuple[int, int]]:
    """(lines as ``wc -l`` counts them, code lines) of each module of the
    package at ``src``."""
    return {p.name: (p.read_bytes().count(b"\n"), code_lines(p.read_text(encoding="utf-8")))
            for p in sorted((src / "hamcolor").glob("*.py"))}


def _call(main, argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def run_side(src: Path, workdir: Path) -> dict:
    """Worker: make every call of ``RUNS`` and ``GEN`` with the package at
    ``src``; returns the results by call."""
    sys.path.insert(0, str(src))
    from hamcolor.cli import main

    results = {}
    for label, pattern, argv, suffix in RUNS:
        for path in sorted(workdir.glob(pattern)):
            name = f"{label} {path.relative_to(workdir)}"
            files = [str(path)]
            if argv[0] == "verify":
                tree = path.name.removesuffix(".coloring").removesuffix(".rotated") + ".tree"
                files.insert(0, str(path.parent.parent / tree))
            results[name] = _call(main, argv + files)
            written = None
            if suffix is not None:
                colored = Path(str(path) + suffix)
                written = colored.read_text() if colored.exists() else None
                colored.unlink(missing_ok=True)
            results[name].append(written)
    for family, grid in GEN.items():
        for params in grid:
            results[f"gen {family} {params!r}"] = _call(main, ["gen", "--family", family, "--params", params])
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare the working tree against")
    ap.add_argument("--prufer", type=int, default=300, help="number of Prufer trees (default 300)")
    ap.add_argument("--worker", nargs=2, metavar=("SRC", "WORKDIR"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        json.dump(run_side(Path(args.worker[0]), Path(args.worker[1])), sys.stdout)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        lines = [line_counts(src) for src in (tmp / "rev" / "src", REPO / "src")]
        workdir = tmp / "inputs"
        workdir.mkdir()
        make_inputs(tmp / "rev" / "src", workdir, args.prufer)
        sides = []
        for src in (tmp / "rev" / "src", REPO / "src"):
            proc = subprocess.run([sys.executable, __file__, args.rev, "--worker", str(src), str(workdir)],
                                  check=True, capture_output=True, text=True)
            sides.append(json.loads(proc.stdout))
    old, new = sides

    # per keyed verb: the keys printed only at REV and only in the working tree
    one_sided = {verb: (set(), set()) for verb in KEYED}

    def same(name: str) -> bool:
        """What must match: all of it, but only exit code and hc for exact,
        and for a keyed verb the keys both sides print."""
        before, after = old[name], new[name]
        verb = name.split()[0]
        if verb == "exact" and before[0] in (0, 3):
            return before[0] == after[0] and json.loads(before[1]).get("hc") == json.loads(after[1]).get("hc")
        if verb in KEYED and before[0] == after[0] == 0:
            a, b = json.loads(before[1]), json.loads(after[1])
            one_sided[verb][0].update(a.keys() - b.keys())
            one_sided[verb][1].update(b.keys() - a.keys())
            return before[2] == after[2] and all(a[k] == b[k] for k in a.keys() & b.keys())
        return before == after

    # per set of exact inputs: explored nodes, each side
    totals: dict[str, list[int]] = {}
    for name in sorted(old):
        if name.startswith("exact ") and name in new and old[name][0] == new[name][0] == 0:
            nodes = [json.loads(side[name][1])["explored"] for side in (old, new)]
            print(f"{name}: explored {nodes[0]} -> {nodes[1]}")
            total = totals.setdefault(name.split("/")[0], [0, 0])
            total[0] += nodes[0]
            total[1] += nodes[1]
    for inputs, (before, after) in totals.items():
        print(f"{inputs}/: explored in total {before} -> {after}")
    differ = [name for name in old if name not in new or not same(name)]
    for verb, (rev_only, tree_only) in one_sided.items():
        print(f"{verb}: keys printed only at {args.rev}: {', '.join(sorted(rev_only)) or 'none'}; "
              f"only in the working tree: {', '.join(sorted(tree_only)) or 'none'}")
    for verb in ("color", "hubs", "verify", "formats color", "formats verify", "analyze", "exact", "gen"):
        before, after = (
            dict(sorted(Counter(res[0] for name, res in side.items() if name.startswith(verb + " ")).items()))
            for side in (old, new)
        )
        print(f"{verb}: {sum(before.values())} inputs, exit codes at {args.rev}: {before}, working tree: {after}")
    print(f"src/hamcolor lines and code lines at {args.rev} -> working tree:")
    for module in sorted(lines[0].keys() | lines[1].keys()) + ["total"]:
        (raw0, code0), (raw1, code1) = (
            tuple(map(sum, zip(*side.values()))) if module == "total" else side.get(module, (0, 0))
            for side in lines)
        print(f"  {module:<12} lines {raw0:>5} -> {raw1:>5} ({raw1 - raw0:+d}), "
              f"code {code0:>5} -> {code1:>5} ({code1 - code0:+d})")
    rose = [f"{inputs}/ {before} -> {after}" for inputs, (before, after) in totals.items() if after > before]
    if differ or set(new) != set(old):
        print(f"MISMATCH on {len(differ)} inputs: {', '.join(differ[:10])}")
    if rose:
        print(f"explored total ROSE on {', '.join(rose)}")
    if differ or set(new) != set(old) or rose:
        return 1
    print("identical: color, hubs and formats color stdout, stderr, exit code and coloring file; "
          "verify and formats verify stdout, stderr and exit code; "
          "analyze exit code, stderr and every key both sides print; exact exit code and hc, "
          "with no explored total above REV's; "
          "gen stdout, stderr and exit code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
