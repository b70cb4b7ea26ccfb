"""Command-line interface.

Verbs: gen, analyze, color, exact, verify, dot; the four that print data
(analyze, color, exact, verify) take ``--json``.  Exit codes: 0 success,
1 parse/validation problem (usage errors too), 2 verification failure,
3 an exact search too deep for the recursive kernel, or a node budget
(default max(50n, 20000) on n vertices) that ran out before the span was
proved, 4 the greedy ordering fails the spacing condition on a tree without
a closed form (not a proof that hc exceeds the lower bound), 5 internal
error (a bug), among them a greedy failure on a family instance with a
closed form.
``color`` writes the coloring that ``check_spacing`` verified.

``main(argv)`` returns the exit code and may be called any number of times
in one process: the argument parser is built on the first call and reused by
every later one, and that call also runs the generation-1 garbage collection
that the build brings near, so that it does not fall in a later call.  A
canonical argv of analyze, color, exact or verify (exact option strings,
values that convert and, like the positionals, do not start with ``-``, each
positional once) skips argparse, read through a table taken from the
parser's own actions; every other argv, gen's and dot's too, goes to
``parse_args``, so help, usage and error messages stay argparse's.
``--json`` output is written as ``json.dumps(data, indent=2)`` would write
it, byte for byte, without the pure-Python encoder that ``indent`` selects.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii
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
    format_tree,
    load_coloring,
    load_tree,
    to_dot,
)
from .solver import exact_hc, verify_coloring
from .tree import analyze, graph_centers


_FLAT = {int: repr, str: encode_basestring_ascii,
         bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _json(data: dict) -> str:
    """``json.dumps(data, indent=2)`` for a dict with string keys, byte for byte.

    ``json`` indents through its pure-Python encoder, which is slow on every
    ``--json`` dict.  So keys, values of exactly int, str, bool or None (strings
    by ``json``'s ASCII encoder) and non-empty lists of plain ints (no bools)
    are written directly, a list in one ``%`` format; any other value is
    encoded by ``json`` and indented one level, which is exact because
    encoded strings hold no raw newline.
    """
    items = []
    for key, val in data.items():
        if type(val) in _FLAT:
            body = _FLAT[type(val)](val)
        elif type(val) is list and set(map(type, val)) == {int}:
            body = "[\n    " + ("%d,\n    " * (len(val) - 1) + "%d") % tuple(val) + "\n  ]"
        else:
            body = json.dumps(val, indent=2).replace("\n", "\n  ")
        items.append(f"  {encode_basestring_ascii(key)}: {body}")
    return "{\n" + ",\n".join(items) + "\n}" if items else "{}"


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


def _output(path: str | None, text: str) -> None:
    """Write ``text`` to ``path`` with :func:`_write`, or to stdout without one."""
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    tree, spec = families.generate(args.family, families.parse_params(args.params))
    _output(args.output, format_tree(tree, families.spec_meta(spec)))
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
    cert = families.family_certificate(families.spec_from_meta(rv, meta), rv)
    coloring = cert.coloring
    out = args.coloring_out or args.file + ".coloring"
    _write(out, format_coloring(coloring))
    _emit(
        args,
        {
            "ordering": list(cert.ordering),
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
    res = exact_hc(rv, max(50 * tree.n, 20000) if args.budget is None else args.budget)
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
    _output(args.output, to_dot(tree, coloring))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, a parse problem; argparse's 2 means a failed
    verification here.  Subparsers inherit this class."""

    verbs: dict  # set on the root: positional dests, actions by option string, defaults

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fast_args(argv) -> argparse.Namespace | None:
    """``parse_args(argv)``'s namespace for a canonical argv (module docstring), else None."""
    try:
        positionals, options, defaults = build_parser().verbs[argv[0]]
        values, pos, it = dict(defaults), [], iter(argv[1:])
        for tok in it:
            if not tok.startswith("-"):
                pos.append(tok)
            elif (a := options[tok]).nargs == 0:
                values[a.dest] = a.const
            elif (val := next(it, "-")).startswith("-"):  # or is missing
                return None
            else:
                values[a.dest] = val if a.type is None else a.type(val)
        values.update(zip(positionals, pos, strict=True))
    except (LookupError, AttributeError, TypeError, ValueError, argparse.ArgumentTypeError):
        return None  # no such verb or option, a token not a str, a bad value, or wrong positionals
    return argparse.Namespace(**values)


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process, built on the first call and returned
    by every later one; callers must not mutate it.  Reuse is safe because
    parsing keeps no state in it: ``parse_args`` returns a fresh namespace,
    and help and usage are formatted when printed, to the current stderr."""
    parser = _Parser(
        prog="hamcolor",
        description="Hamiltonian chromatic numbers of trees: bounds, certified colorings, exact search.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance")
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
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("exact", parents=[common], help="exact search within a node budget")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget (default max(50n, 20000) on n vertices); best-so-far on exhaustion")
    p.add_argument("--coloring-out", help="witness file path (default FILE.hc.coloring)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", parents=[common], help="check a coloring file against a tree")
    p.add_argument("tree")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="DOT export, optionally labelled by a coloring")
    p.add_argument("file")
    p.add_argument("coloring", nargs="?", default=None)
    p.add_argument("-o", "--output", help="write DOT here (default stdout)")
    p.set_defaults(func=_cmd_dot)
    # a table for each verb whose actions, help aside, are store_true or stores
    # of one value with no choices, required only if positional
    parser.verbs = {}
    for verb, p in sub.choices.items():
        actions = [a for a in p._actions if type(a) is not argparse._HelpAction]
        if all(type(a) is argparse._StoreTrueAction or type(a) is argparse._StoreAction and a.nargs is None
               and a.choices is None and not (a.required and a.option_strings) for a in actions):
            parser.verbs[verb] = (
                [a.dest for a in actions if not a.option_strings],
                {s: a for a in actions for s in a.option_strings},
                {sub.dest: verb, "func": p.get_default("func"), **{a.dest: a.default for a in actions}})
    # the objects built above bring the next collection near, and after the
    # import it is usually a generation-1 one of 1-2 ms: run it here, once
    # per process, in the call that builds the parser, not in a later call
    gc.collect(1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _fast_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
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
