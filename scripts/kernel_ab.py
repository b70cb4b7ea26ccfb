#!/usr/bin/env python3
"""Time the exact-search kernel of two checkouts in alternating fresh interpreters.

Each round starts one fresh interpreter per checkout; the side that runs
first alternates from round to round.  Each interpreter imports ``hamcolor``
from its checkout's ``src``, roots the 18 instances of this repository's
``perfbench/pinned.json``, which it only reads, and times
``_bnb_py.bnb_exact`` on each: the best of ``--repeats`` calls, made in
passes over all 18, so that a slow spell of the host slows every instance
alike.  A set's time in a round is the sum over its instances, the sets
being the ``class`` field of the pinned file (tight and gap).

The script fails, with exit status 1, if any instance's span, order or node
count differs between the two checkouts or between rounds.  Otherwise it
prints, per set, each side's median time, the change against the parent in
percent and the rounds the change won.  The kernel's share of an ``exact``
call is small, so a kernel change well under the benchmark's run-to-run
spread shows here and not in ``perfbench/run.py``.

    python3 scripts/kernel_ab.py PARENT_DIR CHANGE_DIR --rounds 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "pinned.json"
SIDES = ("parent", "change")


def time_kernel(checkout: Path, repeats: int) -> dict[str, dict]:
    """In this interpreter, with ``hamcolor`` from ``checkout``: per pinned
    instance, its set, its best time in seconds and the kernel's result
    (span, order, nodes, limit hit)."""
    sys.path.insert(0, str(checkout / "src"))
    from hamcolor._bnb_py import bnb_exact
    from hamcolor.tree import Tree, analyze

    pins = json.loads(PINNED.read_text(encoding="utf-8"))["instances"]
    rooted = [analyze(Tree(pin["n"], [tuple(e) for e in pin["edges"]])) for pin in pins]
    out = {pin["name"]: {"set": pin["class"], "seconds": float("inf")} for pin in pins}
    for _ in range(repeats):
        for pin, rv in zip(pins, rooted):
            start = time.perf_counter()
            result = bnb_exact((), rv.n, -1, (), -1, rv)
            elapsed = time.perf_counter() - start
            inst = out[pin["name"]]
            inst["seconds"] = min(inst["seconds"], elapsed)
            inst["result"] = list(result)
    return out


def run_side(checkout: Path, repeats: int) -> dict[str, dict]:
    """:func:`time_kernel` in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--time-kernel", str(checkout.resolve()), "--repeats", str(repeats)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def set_times(run: dict[str, dict]) -> dict[str, float]:
    """Per set, the sum of its instances' times in one run."""
    out: dict[str, float] = {}
    for inst in run.values():
        out[inst["set"]] = out.get(inst["set"], 0.0) + inst["seconds"]
    return out


def mismatches(runs: list[dict[str, dict]]) -> list[str]:
    """The instances whose result differs from the first run's in any run."""
    first = runs[0]
    return sorted({name for run in runs[1:] for name in first if run[name]["result"] != first[name]["result"]})


def summarize(parent: list[dict[str, float]], change: list[dict[str, float]]) -> dict[str, dict]:
    """Per set: both sides' median times, the change in percent and the
    rounds in which the change took less time.  ``parent[i]`` and
    ``change[i]`` are round i's :func:`set_times`."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of rounds on both sides")
    out = {}
    for name in sorted(parent[0]):
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        pmed, cmed = statistics.median(p), statistics.median(c)
        out[name] = {
            "parent_median_s": pmed, "change_median_s": cmed,
            "change_vs_parent_pct": round(100 * (cmed - pmed) / pmed, 1),
            "rounds_change_won": f"{sum(b < a for a, b in zip(p, c))} of {len(p)}",
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=30, help="calls per instance, the best of which is timed")
    parser.add_argument("--time-kernel", type=Path, help=argparse.SUPPRESS)  # one side, in a fresh interpreter
    args = parser.parse_args()
    if args.time_kernel:
        json.dump(time_kernel(args.time_kernel, args.repeats), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    runs: dict[str, list] = {side: [] for side in SIDES}
    for i in range(args.rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_side(checkouts[side], args.repeats))
        print(f"# round {i + 1}/{args.rounds} done", file=sys.stderr)
    bad = mismatches(runs["parent"] + runs["change"])
    if bad:
        print(f"results differ on {', '.join(bad)}", file=sys.stderr)
        return 1
    summary = summarize(*([set_times(r) for r in runs[side]] for side in SIDES))
    for name, s in summary.items():
        print(f"{name}: parent {1e3 * s['parent_median_s']:.3f} ms  change {1e3 * s['change_median_s']:.3f} ms  "
              f"{s['change_vs_parent_pct']:+.1f}%  change won {s['rounds_change_won']} rounds")
    print(f"spans, orders and node counts identical on all {len(runs['parent'][0])} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
