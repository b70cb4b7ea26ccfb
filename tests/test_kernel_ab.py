"""The summary of scripts/kernel_ab.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "kernel_ab.py"
_spec = importlib.util.spec_from_file_location("kernel_ab", SCRIPT)
kernel_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_ab)


def run(**seconds: float) -> dict[str, dict]:
    """One side's run: instance name -> its set (the name up to the digit), time and result."""
    return {name: {"set": name.rstrip("0123456789"), "seconds": s, "result": [3, [0, 1], 7, False]}
            for name, s in seconds.items()}


def test_set_times_sum_each_sets_instances():
    assert kernel_ab.set_times(run(gap0=0.25, gap1=0.5, tight0=0.125)) == {"gap": 0.75, "tight": 0.125}


def test_summary_medians_percent_and_rounds_won():
    parent = [{"gap": g, "tight": 1.0} for g in (2.0, 2.2, 1.8, 2.0, 2.1)]
    change = [{"gap": g, "tight": t} for g, t in zip((1.9, 2.0, 1.9, 1.8, 1.9), (1.0, 0.9, 1.1, 1.0, 0.9))]
    s = kernel_ab.summarize(parent, change)
    assert list(s) == ["gap", "tight"]
    # medians 2.0 and 1.9; the change loses only round 3 (1.9 > 1.8)
    assert (s["gap"]["parent_median_s"], s["gap"]["change_median_s"]) == (2.0, 1.9)
    assert s["gap"]["change_vs_parent_pct"] == -5.0
    assert s["gap"]["rounds_change_won"] == "4 of 5"
    # a tie counts for neither side
    assert s["tight"]["change_vs_parent_pct"] == 0.0
    assert s["tight"]["rounds_change_won"] == "2 of 5"


def test_sides_must_pair_up():
    with pytest.raises(ValueError):
        kernel_ab.summarize([{"gap": 1.0}], [])


def test_any_differing_result_is_named():
    same, other = run(gap0=1.0, tight0=1.0), run(gap0=2.0, tight0=1.0)
    assert kernel_ab.mismatches([same, other, same]) == []  # times may differ
    other["tight0"]["result"] = [3, [1, 0], 7, False]
    assert kernel_ab.mismatches([same, same, other]) == ["tight0"]
