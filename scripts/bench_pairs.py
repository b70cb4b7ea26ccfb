#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and summarise it.

Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

once in the parent checkout and once in the change's checkout, with the same
seed; the side that runs first alternates from pair to pair, and the seed
rises by one per pair.  Each checkout runs its own ``perfbench/``, which this
script neither imports nor edits: it reads only the last line of each run's
stdout and ``BENCHMARK.json`` of this repository, for the end-to-end metrics,
the better direction of each and its bound.

For each workload and end-to-end metric it prints each side's median and
quartiles (inclusive method), the change against the parent in percent, the
pairs the change wins, whether the change stays within the metric's bound,
and whether a gain claim holds: the change wins at least 9 of 10 pairs and
its median beats the parent's by more than the parent's interquartile range.
With ``--out`` the runs and the summary are written as JSON, the layout of
the ``runs`` and ``summary`` keys of a ``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload color-large \\
        --pairs 10 --seed 9901 --out runs.json

Both checkouts should be fresh clones (``git clone``), so that neither holds
bytecode caches the other lacks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def end_to_end_metrics() -> dict[str, dict]:
    """The end-to-end metrics of ``BENCHMARK.json`` by name."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in declared["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its end-to-end values, ``failed``
    and ``attempted``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run.update(failed=result["failed"], attempted=result["attempted"])
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: both sides' medians and quartiles, the change in percent,
    the pairs the change wins, whether it stays within the bound and whether
    a gain claim holds.  ``parent[i]`` and ``change[i]`` are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    out: dict = {}
    for name, spec in metrics.items():
        if name not in parent[0]:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        pct = 100 * (cmed - pmed) / pmed if pmed else 0.0
        out[name] = {
            "parent_median": pmed, "change_median": cmed,
            "parent_q1": pq1, "parent_q3": pq3, "change_q1": cq1, "change_q3": cq3,
            "change_vs_parent_pct": round(pct, 1),
            "pairs_change_better": f"{wins} of {len(p)}",
            "within_bound": -sign * pct <= 100 * spec["bound"],
            "claim_holds": 10 * wins >= 9 * len(p) and sign * (cmed - pmed) > pq3 - pq1,
        }
    out["failed"] = {side: sum(r["failed"] for r in runs) for side, runs in zip(SIDES, (parent, change))}
    return out


def report(workload: str, summary: dict) -> str:
    lines = [f"{workload}: failed calls parent {summary['failed']['parent']}, change {summary['failed']['change']}"]
    for name, s in summary.items():
        if name == "failed":
            continue
        lines.append(
            f"  {name:13} parent {s['parent_median']:.6g} [{s['parent_q1']:.6g}, {s['parent_q3']:.6g}]  "
            f"change {s['change_median']:.6g} [{s['change_q1']:.6g}, {s['change_q3']:.6g}]  "
            f"{s['change_vs_parent_pct']:+.1f}%  wins {s['pairs_change_better']}  "
            f"within bound {'yes' if s['within_bound'] else 'NO'}  claim {'holds' if s['claim_holds'] else 'fails'}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several, run one after the other")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, help="write the runs and the summary here as JSON")
    args = parser.parse_args()
    metrics = end_to_end_metrics()
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    runs: dict = {}
    summaries: dict = {}
    seed = args.seed
    for workload in args.workload:
        runs[workload] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], workload, seed, args.seconds)
                run.update(seed=seed, ran_first=side == order[0])
                runs[workload][side].append(run)
            print(f"# {workload} pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
            seed += 1
        summaries[workload] = summarize(runs[workload]["parent"], runs[workload]["change"], metrics)
        print(report(workload, summaries[workload]))
    if args.out:
        method = (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 in "
                  f"both checkouts; {args.pairs} pairs per workload, same seed within a pair, seeds from "
                  f"{args.seed} rising by one per pair, the side that runs first alternating")
        args.out.write_text(json.dumps({"method": method, "runs": runs, "summary": summaries}, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
