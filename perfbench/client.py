#!/usr/bin/env python3
"""One workload in one fresh interpreter: set-up, closed loop, gates.

Started by run.py.  The single client calls ``hamcolor.cli.main(argv)``
in-process with stdout and stderr captured, waits for each call to return
before sending the next, and checks every result against the benchmark's
oracle (outside the timed region).  Calls run in a fixed number of whole
passes over the workload's instances, in a seeded order per pass, so every
statistic covers the same mix and the same number of calls.  The pass count
is ``PASSES`` scaled by ``--seconds / 20``; at the baseline the passes of a
20-second run take 15 to 40 seconds, checks included.

Host speed.  On a shared host other tenants slow the CPU by up to 1.5x for
seconds to minutes, and that moves every raw timing between runs more than a
program change should have to.  So the benchmark times a fixed pure-Python
loop of its own (``reference_loop``) between consecutive calls, and reports
each call's latency scaled to a host that runs that loop in
``REFERENCE_S``: ``elapsed * REFERENCE_S / mean(loop before, loop after)``.
The loop is the benchmark's, so a change to hamcolor does not move it.  The
raw latencies are kept in the full record beside the scaled ones.

With ``--setup-only`` the process stops after set-up and reports when it got
there, so run.py can take the median of several fresh set-ups.  With
``--trace 1`` passes alternate between untraced and traced, and the spans of
the traced passes give the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
MAX_FAILURES_SHOWN = 5

# Passes per run at --seconds 20
PASSES = {"color-large": 5, "verify-mixed": 3, "exact-tight": 4, "exact-gap": 8}
MIN_SAMPLES = 20  # so that some percentile at or above p50 has ten calls beyond it
REFERENCE_S = 0.005  # the reference loop's time on a host at nominal speed
REFERENCE_ITERATIONS = 60_000


def reference_loop() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def monotonic() -> float:
    """The system-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pass_count(workload: str, seconds: float, calls_per_pass: int) -> int:
    return max(round(PASSES[workload] * seconds / 20), -(-MIN_SAMPLES // calls_per_pass), 1)


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and at least the median."""
    pct = 99
    while pct > 50 and samples - -(-samples * pct // 100) < 10:
        pct -= 1
    return pct


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def import_hamcolor():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hamcolor
    from hamcolor import cli

    if Path(hamcolor.__file__).resolve().parent != src / "hamcolor":
        raise SystemExit(f"hamcolor imported from {hamcolor.__file__}, not from {src}")
    return hamcolor, cli


class Client:
    """The closed loop: invokes calls, checks them and keeps the tallies."""

    def __init__(self, cli, calls, rng: random.Random):
        self.cli = cli
        self.calls = calls
        self.rng = rng
        self.attempted = 0
        self.failures: list[str] = []
        self.traced_calls: dict[int, object] = {}    # by tracer call id
        self.outputs: dict[int, dict | None] = {}    # parsed stdout, by tracer call id

    def invoke(self, call) -> tuple[int | None, float, str]:
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(call.argv)
            except (Exception, SystemExit) as e:  # a raising call is a failed call
                err.write(f"raised {type(e).__name__}: {e}")
            elapsed = time.perf_counter() - start
        return rc, elapsed, out.getvalue() + ("" if rc is not None else err.getvalue())

    def run_pass(self, tracer=None) -> list[tuple[object, float, float]]:
        """One pass in a seeded order; returns (call, raw latency, latency
        scaled to the reference speed) per call."""
        order = list(self.calls)
        self.rng.shuffle(order)
        done = []
        ref_before = reference_loop()
        for call in order:
            if tracer is not None:
                tracer.call_id += 1
            rc, elapsed, stdout = self.invoke(call)
            ref_after = reference_loop()
            scaled = elapsed * REFERENCE_S * 2 / (ref_before + ref_after)
            ref_before = ref_after
            self.attempted += 1
            reasons = workloads.check(call, rc, stdout)
            if reasons:
                self.failures.append(f"{call.label}: " + "; ".join(reasons))
            if tracer is not None:
                self.traced_calls[tracer.call_id] = call
                try:
                    self.outputs[tracer.call_id] = json.loads(stdout)
                except ValueError:
                    self.outputs[tracer.call_id] = None
            done.append((call, elapsed, scaled))
        return done


def kernel_parity(calls) -> tuple[int, list[str], str]:
    """Compare the pure and compiled kernels on every exact instance.

    Returns (checks run, one failure per differing instance, note).
    Distances come from the oracle.
    """
    try:
        from hamcolor import _bnb
    except ImportError:
        return 0, [], "one kernel"
    from hamcolor import _bnb_py

    bad = []
    for call in calls:
        n = call.n
        dist = array("i", [d for row in call.oracle.distance_rows() for d in row])
        py = _bnb_py.bnb_exact(dist, n, -1, (), -1)
        cy = _bnb.bnb_exact(dist, n, -1, (), -1)
        if (py[0], list(py[1]), py[2]) != (cy[0], list(cy[1]), cy[2]):
            bad.append(f"{call.label}: kernels differ, pure (span {py[0]}, {py[2]} nodes) "
                       f"vs compiled (span {cy[0]}, {cy[2]} nodes)")
    return len(calls), bad, "two kernels compared"


def end_to_end(passes: list[list[tuple[object, float, float]]], rss_mb: float, scaled: bool = True) -> dict:
    """End-to-end metrics over every call of every pass: completed calls per
    second spent in calls, the median latency, and the latency at the highest
    percentile with at least ten calls beyond it.  Latencies are scaled to the
    reference speed unless ``scaled`` is false."""
    lat = [entry[2 if scaled else 1] for done in passes for entry in done]
    return {
        "calls_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "call_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "call_tail_ms": {"value": percentile(lat, tail_percentile(len(lat))) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(calls_by_id: dict, outputs: dict, spans: list, passes: int) -> dict:
    import tracing

    summary = tracing.summarize(spans)
    ids = list(calls_by_id)
    ncalls = len(ids)

    def incl_ms(*names: str) -> float:
        return sum(summary[i]["incl"][nm] for i in ids for nm in names) / ncalls * 1e3

    def self_ms(layer: str) -> float:
        return sum(summary[i]["self"][layer] for i in ids) / ncalls * 1e3

    def total(key: str, name: str, pick=lambda call: True) -> float:
        return sum(summary[i][key][name] for i in ids if pick(calls_by_id[i]))

    pairs = sum(summary[i]["spans_of"]["solver.verify_coloring"] * calls_by_id[i].n * (calls_by_id[i].n - 1) / 2
                for i in ids)
    kernel_s = total("incl", "solver.bnb_exact")
    exact_ids = [i for i in ids if calls_by_id[i].verb == "exact"]
    limit_hits = sum(1 for i in exact_ids if not outputs[i] or outputs[i].get("limit_hit") is not False)

    def nodes_of(label: str) -> int:
        return max((summary[i]["count"]["solver.exact_hc"] for i in ids if calls_by_id[i].label == label),
                   default=0)

    ms = "ms"
    out = {
        "solver.verify_coloring_ms": (incl_ms("solver.verify_coloring"), ms),
        "solver.verify_ns_per_pair": (total("incl", "solver.verify_coloring") * 1e9 / pairs if pairs else 0.0,
                                      "ns"),
        "solver.violations": (total("count", "solver.verify_coloring") / passes, "count"),
        "solver.exact_hc_ms": (incl_ms("solver.exact_hc"), ms),
        "solver.nodes_per_s": (total("count", "solver.bnb_exact") / kernel_s if kernel_s else 0.0, "1/s"),
        "solver.nodes_tight": (total("count", "solver.exact_hc",
                                     lambda c: c.expected.get("class") == "tight") / passes, "count"),
        "solver.nodes_gap": (total("count", "solver.exact_hc",
                                   lambda c: c.expected.get("class") == "gap") / passes, "count"),
        "solver.nodes_star8": (nodes_of("star8"), "count"),
        "solver.nodes_broom9_d4": (nodes_of("broom9_d4"), "count"),
        "solver.limit_hit_frac": (limit_hits / len(exact_ids) if exact_ids else 0.0, "frac"),
        "families.family_ordering_ms": (incl_ms("families.family_ordering"), ms),
        "families.generate_ms": (incl_ms("families.generate"), ms),
        "ordering.certify_ms": (incl_ms("ordering.certify_alternation_db", "ordering.certify_alternation"), ms),
        "ordering.coloring_ms": (incl_ms("ordering.coloring_from_ordering"), ms),
        "io.load_tree_ms": (incl_ms("io.load_tree"), ms),
        "io.parse_coloring_ms": (incl_ms("io.parse_coloring_text"), ms),
        "io.format_coloring_ms": (incl_ms("io.format_coloring"), ms),
        "tree.analyze_ms": (incl_ms("tree.analyze"), ms),
        "tree.distance_matrix_ms": (incl_ms("tree.distance_matrix"), ms),
        "trace.spans_per_call": (sum(summary[i]["spans"] for i in ids) / ncalls, "count"),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_ms"] = (self_ms(layer), ms)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="small instances, for the self-test")
    args = parser.parse_args()

    t_import = time.perf_counter()
    _, cli = import_hamcolor()
    import_ms = (time.perf_counter() - t_import) * 1e3
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        t_gen = time.perf_counter()
        calls = workloads.generate(args.workload, args.seed, workdir, tiny=args.tiny)
        generate_ms = (time.perf_counter() - t_gen) * 1e3
        result = {"setup_mark": monotonic(), "import_ms": import_ms, "generate_ms": generate_ms}
        result["setup_scale"] = REFERENCE_S / statistics.median(reference_loop() for _ in range(3))
        if args.setup_only:
            print(json.dumps(result))
            return 0

        workloads.expect(calls)
        info = workloads.describe(calls)
        client = Client(cli, calls, random.Random(f"order:{args.workload}:{args.seed}"))
        client.invoke(min(calls, key=lambda c: c.n))  # warm-up, not counted

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        passes = pass_count(args.workload, args.seconds, len(calls))
        plain: list[list[tuple[object, float, float]]] = []
        traced: list[list[tuple[object, float, float]]] = []
        window_start = time.perf_counter()
        # a traced run splits its passes between untraced and traced, at least one each
        for k in range(max(passes, 2) if tracer is not None else passes):
            if tracer is not None and k % 2:
                tracer.install()
                try:
                    traced.append(client.run_pass(tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(client.run_pass())
        window_s = time.perf_counter() - window_start

        parity_checks, parity_note = 0, "no exact calls"
        if calls[0].verb == "exact":
            parity_checks, parity_bad, parity_note = kernel_parity(calls)
            client.failures += parity_bad

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        from hamcolor.solver import search_backend

        result.update({
            "attempted": client.attempted + parity_checks,
            "failed": len(client.failures),
            "failures": client.failures[:MAX_FAILURES_SHOWN],
            "latencies_ms": [[[call.label, e * 1e3, sc * 1e3] for call, e, sc in done] for done in plain],
            "info": dict(info, passes=len(plain), traced_passes=len(traced), window_s=window_s,
                         samples=len(plain) * len(calls),
                         tail_percentile=tail_percentile(len(plain) * len(calls))),
            "env": {"search_backend": search_backend(), "python": platform.python_version(),
                    "nproc": len(os.sched_getaffinity(0)), "kernel_parity": parity_note},
        })
        if tracer is None:
            result["metrics"] = end_to_end(plain, rss_mb)
            result["raw_metrics"] = end_to_end(plain, rss_mb, scaled=False)
        else:
            layers = per_layer(client.traced_calls, client.outputs, tracer.spans, len(traced))
            def mean_latency(runs):
                return statistics.fmean(scaled for done in runs for _, _, scaled in done)

            overhead = mean_latency(traced) - mean_latency(plain)
            layers["trace.overhead_ms"] = (overhead * 1e3, "ms")
            layers["setup.import_ms"] = (import_ms, "ms")
            layers["setup.generate_ms"] = (generate_ms, "ms")
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.write(spans_path)
            result["info"]["spans_file"] = str(spans_path.relative_to(ROOT))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
