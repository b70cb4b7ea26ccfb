"""The CLI's fast argv reader against argparse, with no dependency beyond
``hamcolor`` itself, so that an interpreter without pytest can run it too:

    PYTHONPATH=src:tests python3 -c "import argv_parity; print(argv_parity.check()[:2])"

prints the argvs tried and the argvs read without argparse, and raises on the
first argv whose fast namespace differs from ``parse_args``'s result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools

from hamcolor import cli

# beside each verb's own option strings: an abbreviation, ``--opt=value``
# forms, values good and bad for a store option, and tokens argparse treats
# specially
EXTRA = ["--bud", "--budget=5", "--json=1", "5", "-5", "x", "", "x y", "--", "-h", "--family"]


def verb_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each verb's subparser, read from argparse's own records."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def check(max_tokens: int = 4) -> tuple[int, int, list[list[str]]]:
    """Every argv of up to ``max_tokens`` tokens after each verb, from the
    verb's option strings (help excluded) and ``EXTRA``.

    Returns (argvs tried, argvs the fast reader read, those argvs); raises
    AssertionError on an argv where the fast reader's namespace is not what
    ``parse_args`` returns, or where ``parse_args`` exits instead.
    """
    parser = cli.build_parser()
    tried, fast = 0, []
    for verb, p in verb_parsers(parser).items():
        options = [s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings]
        for k in range(max_tokens + 1):
            for rest in itertools.product(options + EXTRA, repeat=k):
                argv = [verb, *rest]
                tried += 1
                got = cli._fast_args(argv)
                if got is None:
                    continue
                fast.append(argv)
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    try:
                        want = parser.parse_args(argv)
                    except SystemExit as e:
                        raise AssertionError(f"{argv}: read as {got}, argparse exits {e.code}: {err.getvalue()}")
                assert got == want, f"{argv}: read as {got}, argparse reads {want}"
    return tried, len(fast), fast
