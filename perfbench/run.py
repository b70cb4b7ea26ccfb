#!/usr/bin/env python3
"""hamcolor benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload color-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: color-large, verify-mixed, exact-tight, exact-gap (see
workloads.py for why each exists); ``all`` runs them in turn.  Run from the
root of a source checkout; hamcolor is imported from ``src/`` of that checkout
and nothing is installed.

The workload runs in a fresh interpreter (client.py) as a closed loop with
one client, for a fixed number of passes over its instances.  Set-up is
measured from the moment this script starts that interpreter until the client
is ready for its first timed call, in the workload process and in
``SETUP_PROBES`` further fresh interpreters that stop there, half of them
started before the workload process and half after it; ``setup_s`` is the
median of those samples, each scaled to the reference host speed as the call
latencies are (see client.py).  Both processes read the system-wide monotonic
clock (``CLOCK_MONOTONIC``), so the two readings are comparable.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run.  Every call is checked
against the benchmark's oracle; a failed check counts in ``failed``.  The last
line of stdout is the result as JSON; a full record, including the Python
version, ``nproc``, the search backend, every call's raw and scaled latency and
the end-to-end metrics computed from the raw latencies, goes to
``.perfbench_out/<workload>-seed<seed>-trace<k>.json``, and the spans of a
traced run to ``.perfbench_out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("color-large", "verify-mixed", "exact-tight", "exact-gap")
SETUP_PROBES = 6
DEADLINE_S = 170.0


def setup_time(res: dict, start: float) -> tuple[float, float]:
    """One set-up time, raw and scaled to the reference speed like every
    latency (client.py times its reference loop right after set-up)."""
    raw = res["setup_mark"] - start
    return raw, raw * res["setup_scale"]


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run client.py in a fresh interpreter; returns (start time, its result)."""
    cmd = [sys.executable, str(HERE / "client.py")] + args
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"client exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def run_workload(workload: str, args: argparse.Namespace) -> dict | None:
    """Set-up probes plus one workload process; prints the summary lines and
    returns the full record, or None when a process failed."""
    started = time.perf_counter()
    common = ["--workload", workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    setup_samples = []  # (raw, scaled to the reference speed)

    def probe_setup(count: int) -> None:
        for _ in range(count):
            start, probe = spawn(common + ["--seconds", "0", "--setup-only"], timeout=60)
            setup_samples.append(setup_time(probe, start))

    try:
        probe_setup(SETUP_PROBES // 2)
        remaining = DEADLINE_S - 30 - (time.perf_counter() - started)
        start, res = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                           timeout=remaining)
        setup_samples.append(setup_time(res, start))
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {workload}: {e}", file=sys.stderr)
        return None

    metrics, raw_metrics = res["metrics"], res.get("raw_metrics")
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(s for _, s in setup_samples), "unit": "s"}, **metrics}
        raw_metrics = {"setup_s": {"value": statistics.median(r for r, _ in setup_samples), "unit": "s"},
                       **raw_metrics}
    failed_frac = res["failed"] / res["attempted"]
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
              "failed_frac": failed_frac, "failures": res["failures"], "setup_samples_s": setup_samples,
              "setup_workload_process_s": setup_samples[SETUP_PROBES // 2],
              "env": res["env"], "info": res["info"], "metrics": metrics, "raw_metrics": raw_metrics,
              "latencies_ms": res["latencies_ms"]}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    info = res["info"]
    traced = f" (+{info['traced_passes']} traced)" if info["traced_passes"] else ""
    print(f"# {workload} seed={args.seed}: {info['passes']} passes{traced} of {info['calls_per_pass']} calls, "
          f"n {info['n_min']}..{info['n_max']}, depth {info['depth_min']}..{info['depth_max']}, "
          f"tail = p{info['tail_percentile']} over {info['samples']} calls")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in res["env"].items()))
    for failure in res["failures"]:
        print(f"# FAILED {failure}")
    print(f"# failed_frac {failed_frac:.6g} ({res['failed']} of {res['attempted']})")
    for name, m in metrics.items():
        raw = f" (raw {raw_metrics[name]['value']:.6g})" if raw_metrics and name in raw_metrics else ""
        print(f"# {name} {m['value']:.6g} {m['unit']}{raw}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal length of the measured window; sets the fixed pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "hamcolor" / "__init__.py").is_file():
        print(f"error: no hamcolor sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    records = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        record = run_workload(workload, args)
        if record is None:
            return 1
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
