#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs, then proof that every gate fires.

    python3 perfbench/selftest.py

1. Runs each workload at a tiny size through run.py, untraced and traced, and
   requires a correct result whose metrics are exactly the ones BENCHMARK.json
   names.
2. Feeds each gate a wrong expectation or a wrong output and requires it to
   count a failure: a pinned hc off by one, a corrupted coloring labelled
   valid, a color span off by one, a color output with a broken coloring, and
   a compiled kernel that disagrees with the pure one.
3. Runs run.py in a directory that holds only BENCHMARK.json and perfbench/,
   where it must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import workloads  # noqa: E402

results: list[tuple[str, bool]] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                report(f"tiny {workload} trace={trace}", False, f"exit {proc.returncode}, no result line")
                continue
            ok = proc.returncode == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] > 0 \
                and set(res["metrics"]) == names[trace]
            report(f"tiny {workload} trace={trace}", ok,
                   f"exit {proc.returncode}, failed {res['failed']}, "
                   f"metric names differ by {sorted(set(res['metrics']) ^ names[trace])}")


def tiny_calls(workload: str, workdir: Path):
    calls = workloads.generate(workload, 1, workdir / workload, tiny=True)
    workloads.expect(calls)
    return calls


def fires(name: str, cli, call) -> None:
    """The call, with its expectation already tampered, must count as failed."""
    c = client.Client(cli, [call], random.Random(0))
    c.run_pass()
    report(f"gate fires: {name}", len(c.failures) == 1, "the wrong result was accepted")


def gates(workdir: Path) -> None:
    _, cli = client.import_hamcolor()
    for workload in workloads.WORKLOADS:
        (workdir / workload).mkdir()

    call = tiny_calls("exact-tight", workdir)[0]
    call.expected["hc"] += 1
    fires("pinned hc off by one", cli, call)

    call = next(c for c in tiny_calls("verify-mixed", workdir) if c.label.endswith(".corrupt"))
    if call.expected["violations"] == 0:
        report("corrupted coloring has violations", False, call.label)
    call.expected.update(rc=0, violations=0)
    fires("corrupted coloring labelled valid", cli, call)

    calls = tiny_calls("color-large", workdir)
    calls[0].expected["span"] += 1
    fires("color span off by one", cli, calls[0])

    call = calls[1]
    rc, _, stdout = client.Client(cli, [call], random.Random(0)).invoke(call)
    out = json.loads(stdout)
    out["colors"][0] = out["colors"][1]
    report("gate fires: color output with a broken coloring",
           bool(workloads.check(call, rc, json.dumps(out))), "the broken coloring was accepted")

    ok = True
    for samples in (20, 27, 30, 45, 72, 90, 1000):
        pct = client.tail_percentile(samples)
        beyond = samples - -(-samples * pct // 100)
        ok &= beyond >= 10 and (pct == 99 or samples - -(-samples * (pct + 1) // 100) < 10)
    report("tail percentile is the highest with ten calls beyond it", ok)

    from hamcolor import _bnb_py

    fake = types.ModuleType("hamcolor._bnb")

    def off_by_one_node(*args):
        span, order, nodes, hit = _bnb_py.bnb_exact(*args)
        return span, order, nodes + 1, hit

    fake.bnb_exact = off_by_one_node
    saved = sys.modules.get("hamcolor._bnb")
    sys.modules["hamcolor._bnb"] = fake
    try:
        checked, bad, _ = client.kernel_parity(tiny_calls("exact-gap", workdir))
    finally:
        if saved is None:
            del sys.modules["hamcolor._bnb"]
        else:
            sys.modules["hamcolor._bnb"] = saved
    report("gate fires: kernels disagree on node counts", checked > 0 and len(bad) == checked,
           f"{len(bad)} of {checked} flagged")


def bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "exact-gap", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=170)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    report("bare directory exits non-zero without a result", proc.returncode != 0 and not printed_result,
           f"exit {proc.returncode}")


def main() -> int:
    client.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=client.OUT_DIR))
    try:
        tiny_runs()
        gates(workdir)
        bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
