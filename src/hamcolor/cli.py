"""Command-line interface.

Verbs: gen, analyze, color, exact, verify, dot.  Exit codes: 0 success,
1 parse/validation problem (usage errors too), 2 verification failure,
3 size limit, or a budget that ran out before the span was proved, 4 the
greedy ordering fails the spacing condition on a tree without a closed form
(not a proof that hc exceeds the lower bound), 5 internal error (a bug),
among them a greedy failure on a family instance with a closed form.
``color`` writes the coloring that ``check_spacing`` verified.

``main(argv)`` may be called any number of times in one process: the
argument parser is built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NoReturn

from . import families
from .bounds import compare_bounds, is_applicable
from .errors import (
    HamcolorError,
    InternalError,
    SearchFailedError,
    TooLargeError,
)
from .io import (
    format_coloring,
    format_ordering,
    format_tree,
    load_coloring,
    load_tree,
    to_dot,
)
from .ordering import search_ordering
from .solver import exact_hc, verify_coloring
from .tree import analyze, graph_centers


def _json(data: dict) -> str:
    """``json.dumps(data, indent=2)`` for a dict with string keys, byte for byte.

    ``json`` indents through its pure-Python encoder, which is slow on the
    long vertex lists of ``color``.  So a non-empty list of plain ints (no
    bools) is joined directly; any other value is encoded by ``json`` and
    indented one level, which is exact because encoded strings hold no raw
    newline.  A dict without list values goes to ``json`` whole.
    """
    if not any(type(val) is list for val in data.values()):
        return json.dumps(data, indent=2)
    items = []
    for key, val in data.items():
        if type(val) is list and set(map(type, val)) == {int}:
            body = "[\n    " + ",\n    ".join(map(str, val)) + "\n  ]"
        else:
            body = json.dumps(val, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(items) + "\n}"


def _emit(args: argparse.Namespace, data: dict) -> None:
    """Print ``data`` as indented JSON with ``--json``, else as ``key: value``
    lines (booleans lowercase, lists space-separated)."""
    if args.json:
        print(_json(data))
        return
    for key, val in data.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, (list, tuple)):
            val = " ".join(map(str, val))
        print(f"{key}: {val}")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` over its old bytes, not after truncating it.

    Opening an existing file with ``O_TRUNC`` frees its blocks, and on ext4
    (``auto_da_alloc``) closing a file truncated that way starts its
    writeback inside the call, which makes rewriting a file slow and uneven.
    So the file is opened without ``O_TRUNC``, written from the start, and
    cut to the new length only when the old one was longer.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        old_size = os.fstat(fh.fileno()).st_size
        fh.write(data)
        if old_size > len(data):
            fh.truncate()


def _cmd_gen(args: argparse.Namespace) -> int:
    tree, spec = families.generate(args.family, families.parse_params(args.params))
    text = format_tree(tree, families.spec_meta(spec))
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    tree, _ = load_tree(args.file)
    rv = analyze(tree)
    centers = graph_centers(tree)
    report = compare_bounds(rv)
    data: dict = {
        "n": tree.n,
        "max_degree": tree.max_degree,
        "diameter": tree.diameter,
        "weight_centers": sorted(rv.weight_centers),
        "graph_centers": sorted(centers),
        "weight_bicentral": rv.bicentral,
        "center_bicentral": len(centers) == 2,
        "total_level_weight": rv.total_level,
        "upper_bound_trivial": (tree.n - 2) ** 2 if tree.n >= 2 else 0,
        "applicable": is_applicable(tree),
        "total_level_center": report.center_total_level,
        "lb_weight": report.lb_weight,
        "lb_center": report.lb_center,
        "lb_difference": report.difference,
    }
    _emit(args, data)
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    tree, meta = load_tree(args.file)
    rv = analyze(tree)
    spec = families.spec_from_meta(tree, meta)
    cert = families.family_certificate(spec, rv) if spec is not None else search_ordering(rv)
    order, coloring = cert.ordering, cert.coloring
    out = args.coloring_out or args.file + ".coloring"
    _write(out, format_coloring(coloring))
    if args.ordering_out:
        _write(args.ordering_out, format_ordering(order))
    _emit(
        args,
        {
            "ordering": list(order),
            "certificate": cert.kind,
            "span": coloring.span,
            "colors": list(coloring.colors),
            "coloring_file": out,
        },
    )
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    tree, _ = load_tree(args.file)
    rv = analyze(tree)
    res = exact_hc(rv, limit=args.limit, budget=args.budget)
    out = args.coloring_out or args.file + ".hc.coloring"
    _write(out, format_coloring(res.witness))
    _emit(
        args,
        {
            # a span the search did not prove optimal is only an upper bound
            ("hc" if res.proved_optimal else "ub"): res.ub,
            "lb": res.lb,
            "proved_optimal": res.proved_optimal,
            "explored": res.explored,
            "limit_hit": res.limit_hit,
            "witness_span": res.witness.span,
            "witness_file": out,
        },
    )
    return 0 if res.proved_optimal else 3


def _cmd_verify(args: argparse.Namespace) -> int:
    tree, _ = load_tree(args.tree)
    coloring = load_coloring(args.coloring, tree.n)
    rv = analyze(tree)
    violations = verify_coloring(rv, coloring)
    data: dict = {"valid": not violations, "span": coloring.span}
    if violations:
        data["violations"] = len(violations)
    _emit(args, data)
    if violations and not args.json:
        for viol in violations:
            print(f"violation: u={viol.u} v={viol.v} required={viol.required} actual={viol.actual}")
    return 2 if violations else 0


def _cmd_dot(args: argparse.Namespace) -> int:
    tree, _ = load_tree(args.file)
    coloring = load_coloring(args.coloring, tree.n) if args.coloring else None
    text = to_dot(tree, coloring)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, a parse problem; argparse's 2 means a failed
    verification here.  Subparsers inherit this class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call and returned
    by every later one; callers must not mutate it.  Reuse is safe because
    parsing keeps no state in it: ``parse_args`` returns a fresh namespace,
    and help and usage are formatted when printed, to the current stderr."""
    parser = _Parser(
        prog="hamcolor",
        description="Hamiltonian chromatic numbers of trees: bounds, certified colorings, exact search.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a family instance")
    p.add_argument("--family", required=True, choices=families.NAMES)
    p.add_argument("--params", required=True, help="comma-separated key=value, e.g. n=10,d=4")
    p.add_argument("-o", "--output", help="write the tree file here (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", parents=[common], help="structure and bounds of a tree")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("color", parents=[common], help="certified optimal coloring via an ordering")
    p.add_argument("file")
    p.add_argument("--coloring-out", help="coloring file path (default FILE.coloring)")
    p.add_argument("--ordering-out", help="also write the ordering here")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("exact", parents=[common], help="exact search (small trees)")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=10, help="refuse trees larger than this (default 10)")
    p.add_argument("--budget", type=int, default=None, help="node budget; best-so-far on exhaustion")
    p.add_argument("--coloring-out", help="witness file path (default FILE.hc.coloring)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", parents=[common], help="check a coloring file against a tree")
    p.add_argument("tree")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", parents=[common], help="DOT export, optionally labelled by a coloring")
    p.add_argument("file")
    p.add_argument("coloring", nargs="?", default=None)
    p.add_argument("-o", "--output", help="write DOT here (default stdout)")
    p.set_defaults(func=_cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 5
    except TooLargeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SearchFailedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (HamcolorError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
