#!/usr/bin/env python3
"""Regenerate ``pinned.json``: the exact-search instances and their pinned hc.

The instances are four fixed trees (star8, broom9 d=4, the paths on 9 and 10
vertices) plus Prufer-random trees drawn from a fixed master seed: seven on
9 vertices whose hc equals the weight-center bound ("tight") and seven on 8
vertices whose hc exceeds it ("gap").  Every hc is computed here by the
benchmark's own exhaustive search (oracle.py), never by hamcolor.

    python3 perfbench/pin.py          # rewrites perfbench/pinned.json
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from oracle import TreeOracle, prufer_edges

MASTER_SEED = 2012_07375
TIGHT_N, GAP_N, PER_CLASS = 9, 8, 7

FIXED = {
    "star8": (8, [(0, i) for i in range(1, 8)]),
    "broom9_d4": (9, [(0, 1), (1, 2), (2, 3)] + [(0, i) for i in range(4, 9)]),
    "path9": (9, [(i, i + 1) for i in range(8)]),
    "path10": (10, [(i, i + 1) for i in range(9)]),
}


def entry(name: str, n: int, edges: list[tuple[int, int]]) -> dict:
    oracle = TreeOracle(n, edges)
    hc = oracle.exact_min_span()
    lb = oracle.lower_bound()
    return {
        "name": name,
        "n": n,
        "edges": [list(e) for e in edges],
        "hc": hc,
        "lb": lb,
        "class": "tight" if lb is not None and hc == lb else "gap",
    }


def draw(rng: random.Random, n: int, want: str, count: int, prefix: str) -> list[dict]:
    out = []
    while len(out) < count:
        edges = prufer_edges([rng.randrange(n) for _ in range(n - 2)])
        e = entry(f"{prefix}{len(out)}", n, edges)
        if e["class"] == want and e["lb"] is not None:
            out.append(e)
            print(f"{e['name']}: hc={e['hc']} lb={e['lb']}", file=sys.stderr)
    return out


def main() -> None:
    rng = random.Random(MASTER_SEED)
    instances = [entry(name, n, edges) for name, (n, edges) in FIXED.items()]
    instances += draw(rng, TIGHT_N, "tight", PER_CLASS, f"rand{TIGHT_N}_tight")
    instances += draw(rng, GAP_N, "gap", PER_CLASS, f"rand{GAP_N}_gap")
    body = ",\n".join(json.dumps(e) for e in instances)
    path = Path(__file__).with_name("pinned.json")
    path.write_text(f'{{"master_seed": {MASTER_SEED}, "instances": [\n{body}\n]}}\n', encoding="utf-8")
    print(f"wrote {path} ({len(instances)} instances)", file=sys.stderr)


if __name__ == "__main__":
    main()
