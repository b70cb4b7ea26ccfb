"""The summary of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "calls_per_s": {"name": "calls_per_s", "better": "higher", "bound": 0.25},
    "call_p50_ms": {"name": "call_p50_ms", "better": "lower", "bound": 0.25},
}
# parent calls_per_s sorted: 97 98 99 100 100 100 101 101 102 103, so the
# inclusive quartiles are 99.25, 100 and 101 (interquartile range 1.75)
PARENT_RATE = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


def runs(values: dict[str, list[float]], failed: int = 0) -> list[dict]:
    count = len(next(iter(values.values())))
    return [{**{k: v[i] for k, v in values.items()}, "failed": failed, "attempted": 50} for i in range(count)]


def test_claim_holds_on_nine_wins_and_a_gain_past_the_parent_spread():
    change = [r + 3 for r in PARENT_RATE]
    change[4] = 98  # pair 5 loses: 9 of 10
    s = bench_pairs.summarize(runs({"calls_per_s": PARENT_RATE}), runs({"calls_per_s": change}, failed=1),
                              METRICS)
    rate = s["calls_per_s"]
    assert (rate["parent_q1"], rate["parent_median"], rate["parent_q3"]) == (99.25, 100, 101)
    assert rate["change_median"] == 103
    assert rate["change_vs_parent_pct"] == 3.0
    assert rate["pairs_change_better"] == "9 of 10"
    assert rate["within_bound"] and rate["claim_holds"]
    assert "call_p50_ms" not in s  # a metric the runs do not carry is skipped
    assert s["failed"] == {"parent": 0, "change": 10}


def test_claim_fails_on_eight_wins_or_a_gain_inside_the_parent_spread():
    eight = [r + 3 for r in PARENT_RATE]
    eight[0] = eight[1] = 90
    small = [r + 1.5 for r in PARENT_RATE]  # 10 of 10, but 1.5 <= 1.75
    for change, wins in ((eight, "8 of 10"), (small, "10 of 10")):
        rate = bench_pairs.summarize(runs({"calls_per_s": PARENT_RATE}), runs({"calls_per_s": change}),
                                     METRICS)["calls_per_s"]
        assert rate["pairs_change_better"] == wins
        assert not rate["claim_holds"]


def test_lower_is_better_and_the_bound():
    parent = [1.0, 1.0, 1.0, 1.0]
    faster = bench_pairs.summarize(runs({"call_p50_ms": parent}), runs({"call_p50_ms": [0.8, 0.9, 0.8, 0.9]}),
                                   METRICS)["call_p50_ms"]
    assert faster["pairs_change_better"] == "4 of 4"
    assert faster["within_bound"] and faster["claim_holds"]
    slower = bench_pairs.summarize(runs({"call_p50_ms": parent}), runs({"call_p50_ms": [1.3, 1.3, 1.2, 1.3]}),
                                   METRICS)["call_p50_ms"]
    assert slower["change_vs_parent_pct"] == 30.0
    assert slower["pairs_change_better"] == "0 of 4"
    assert not slower["within_bound"] and not slower["claim_holds"]


def test_sides_must_pair_up():
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs({"calls_per_s": [1, 2]}), runs({"calls_per_s": [1]}), METRICS)


def test_metrics_come_from_the_benchmark_declaration():
    metrics = bench_pairs.end_to_end_metrics()
    assert {"calls_per_s", "call_p50_ms", "call_tail_ms", "peak_rss_mb", "setup_s"} <= set(metrics)
    assert all(m["better"] in ("higher", "lower") and m["bound"] > 0 for m in metrics.values())
