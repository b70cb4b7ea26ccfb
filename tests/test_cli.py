import argparse
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import argv_parity
import hamcolor
import oracles
from hamcolor import cli, families, ordering, solver
from hamcolor.cli import main
from hamcolor.bounds import bound_formula, lower_bound_weight
from hamcolor.families import generate
from hamcolor.io import format_tree, parse_coloring_text, parse_tree_text
from hamcolor.tree import RootedView, Tree, analyze


@pytest.fixture
def run(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def invoke(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def gen_file(run, tmp_path, family: str, params: str, name: str = "t.tree") -> str:
    path = str(tmp_path / name)
    code, _, _ = run("gen", "--family", family, "--params", params, "-o", path)
    assert code == 0
    return path


class TestGen:
    def test_stdout_roundtrips(self, run):
        code, out, _ = run("gen", "--family", "star", "--params", "n=5")
        assert code == 0
        tree, meta = parse_tree_text(out)
        assert tree.n == 5
        assert meta["family"] == "star"
        assert meta["expected_hc"] == "9"

    def test_writes_file(self, run, tmp_path):
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")
        tree, meta = parse_tree_text(open(path).read())
        assert tree.n == 10
        assert meta["family"] == "broom_even"
        assert meta["expected_hc"] == "58"

    def test_rewrite_leaves_only_the_new_bytes(self, run, tmp_path):
        # output files are overwritten in place: a shorter text cuts the old
        # file to its own length, a longer one extends it
        path = str(tmp_path / "t.tree")
        inode = os.stat(gen_file(run, tmp_path, "star", "n=30")).st_ino
        for params in ("n=3", "n=12"):
            _, expected, _ = run("gen", "--family", "star", "--params", params)
            gen_file(run, tmp_path, "star", params)
            assert open(path).read() == expected
            assert os.stat(path).st_ino == inode

    def test_writes_to_a_device(self, run):
        code, _, err = run("gen", "--family", "star", "--params", "n=5", "-o", os.devnull)
        assert code == 0
        assert err == ""

    def test_bad_params_exit_1(self, run):
        code, _, err = run("gen", "--family", "broom", "--params", "n=4,d=4")
        assert code == 1
        assert "error:" in err

    def test_malformed_params_exit_1(self, run):
        code, _, _ = run("gen", "--family", "star", "--params", "n")
        assert code == 1
        code, _, _ = run("gen", "--family", "star", "--params", "n=five")
        assert code == 1

    def test_unknown_or_repeated_param_exit_1(self, run):
        # neither is dropped or overridden silently
        for params, msg in (("n=5,q=3", "takes no parameter 'q'"), ("n=5,n=6", "'n' is given twice")):
            code, out, err = run("gen", "--family", "star", "--params", params)
            assert code == 1
            assert out == ""
            assert msg in err

    def test_unknown_family_is_a_usage_error(self, run):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "wheel", "--params", "n=5"])
        assert exc.value.code == 1


class TestAnalyze:
    def test_broom_fields(self, run, tmp_path):
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert "n: 10" in out
        assert "weight_centers: 0" in out
        assert "graph_centers: 1" in out
        assert "lb_weight: 58" in out
        assert "lb_center: 50" in out
        assert "upper_bound_trivial: 64" in out

    def test_json(self, run, tmp_path):
        path = gen_file(run, tmp_path, "a-tree", "d=4")
        code, out, _ = run("analyze", "--json", path)
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 8
        assert data["weight_bicentral"] is True
        assert data["lb_weight"] == 30
        assert "diam_within_half" not in data

    def test_path_prints_bounds(self, run, tmp_path):
        # the formula bounds hc on every tree; applicable says whether it certifies
        path = str(tmp_path / "p4.tree")
        open(path, "w").write("4\n0 1\n1 2\n2 3\n")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert "lb_weight: 2\n" in out and "applicable: false\n" in out
        code, out, _ = run("analyze", "--json", path)
        data = json.loads(out)
        assert (data["lb_weight"], data["applicable"]) == (2, False)
        assert "certifying" not in data

    def test_one_rooted_view_per_call(self, run, tmp_path, monkeypatch):
        # every verb that roots the tree reads the one view it built: the
        # bounds of analyze, and the exact kernel's rooting, which it would
        # otherwise build again from the distance matrix
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")
        views = []
        init = RootedView.__init__

        def counting(self, tree):
            views.append(tree)
            init(self, tree)

        monkeypatch.setattr(RootedView, "__init__", counting)
        code, out, _ = run("analyze", "--json", path)
        assert code == 0
        assert json.loads(out)["lb_center"] == 50
        assert len(views) == 1
        for argv in (["exact", path], ["color", path], ["verify", path, path + ".coloring"]):
            views.clear()
            code, _, _ = run(*argv)
            assert (code, len(views)) == (0, 1), argv

    def test_missing_file_exit_1(self, run):
        code, _, err = run("analyze", "no-such-file.tree")
        assert code == 1
        assert "error:" in err

    def test_malformed_file_exit_1(self, run, tmp_path):
        path = str(tmp_path / "bad.tree")
        open(path, "w").write("4\n0 1\n0 2\n")
        code, _, err = run("analyze", path)
        assert code == 1
        assert "edge lines" in err


class TestColor:
    def test_family_file_end_to_end(self, run, tmp_path):
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")
        code, out, _ = run("color", "--json", path)
        assert code == 0
        data = json.loads(out)
        assert data["certificate"] == "spacing"
        assert data["span"] == 58
        assert data["colors"][0] == 0
        coloring = parse_coloring_text(open(path + ".coloring").read(), 10)
        assert coloring.span == 58
        # and the verify verb agrees
        code, _, _ = run("verify", path, path + ".coloring")
        assert code == 0

    def test_plain_tree_uses_greedy(self, run, tmp_path):
        path = str(tmp_path / "spider.tree")
        open(path, "w").write("9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n0 7\n0 8\n")
        code, _, err = run("color", path)
        assert code == 4
        assert "error:" in err

    def test_plain_file_greedy_succeeds(self, run, tmp_path):
        # a broom shape, but without metadata, so the greedy has to find it
        path = str(tmp_path / "b.tree")
        open(path, "w").write("9\n0 1\n1 2\n2 3\n0 4\n0 5\n0 6\n0 7\n0 8\n")
        code, out, _ = run("color", "--json", path)
        assert code == 0
        data = json.loads(out)
        assert data["span"] == 43  # equals the weight-center bound

    def test_inapplicable_exit_1(self, run, tmp_path):
        path = str(tmp_path / "p5.tree")
        open(path, "w").write("5\n0 1\n1 2\n2 3\n3 4\n")
        code, _, _ = run("color", path)
        assert code == 1

    def test_one_analysis_and_one_certificate_per_call(self, run, tmp_path, monkeypatch):
        # one check_spacing, which builds its coloring in one pass and checks
        # it with one window walk; color writes that coloring without
        # recomputing or re-verifying it
        counts = dict.fromkeys(("analyses", "checks", "walks", "colorings", "verifies"), 0)

        def counting(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(RootedView, "__init__", counting("analyses", RootedView.__init__))
        monkeypatch.setattr(ordering, "check_spacing", counting("checks", ordering.check_spacing))
        monkeypatch.setattr(ordering, "_window", counting("walks", ordering._window))
        color = counting("colorings", ordering.coloring_from_ordering)
        monkeypatch.setattr(ordering, "coloring_from_ordering", color)
        monkeypatch.setattr(cli, "coloring_from_ordering", color, raising=False)
        verify = counting("verifies", solver.verify_coloring)
        monkeypatch.setattr(solver, "verify_coloring", verify)
        monkeypatch.setattr(cli, "verify_coloring", verify)
        plain = str(tmp_path / "b.tree")
        open(plain, "w").write("9\n0 1\n1 2\n2 3\n0 4\n0 5\n0 6\n0 7\n0 8\n")
        paths = [
            gen_file(run, tmp_path, "broom", "n=10,d=4", "construction.tree"),
            gen_file(run, tmp_path, "star", "n=6", "greedy.tree"),
            plain,
        ]
        for path in paths:
            counts.update(dict.fromkeys(counts, 0))
            code, _, _ = run("color", path)
            assert code == 0
            want = {"analyses": 1, "checks": 1, "walks": 1, "colorings": 0, "verifies": 0}
            assert counts == want, path

    def test_metadata_call_builds_one_tree(self, run, tmp_path, monkeypatch):
        # the family's edges are compared with the file's tree, not built
        # into a second one
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")
        built = []
        init = Tree.__init__

        def recording_init(self, n, edges):
            built.append(n)
            init(self, n, edges)

        monkeypatch.setattr(Tree, "__init__", recording_init)
        code, out, _ = run("color", "--json", path)
        assert code == 0 and json.loads(out)["span"] == 58
        assert built == [10]

    def test_internal_error_exit_5(self, run, tmp_path, monkeypatch):
        recognised = gen_file(run, tmp_path, "broom", "n=10,d=4", "recognised.tree")
        plain = gen_file(run, tmp_path, "broom", "n=9,d=4", "plain.tree")
        # the greedy's certificate fails: on a recognised broom, whose closed
        # form says the bound is attained, that is a bug; on a broom without
        # one it is only a search failure
        monkeypatch.setattr(ordering, "check_spacing", lambda rv, order: ordering.Certificate(False, (1, 2), "forced"))
        code, _, err = run("color", recognised)
        assert code == 5
        assert "internal error" in err and "broom_even" in err and "forced" in err
        code, _, err = run("color", plain)
        assert code == 4
        assert "internal error" not in err and "forced" in err

    def test_newly_certified_tree(self, run, tmp_path):
        # the greedy ordering meets the exact condition; the former n/2
        # distance cap rejected it (exit 4)
        path = str(tmp_path / "t5.tree")
        open(path, "w").write("5\n0 1\n1 2\n0 3\n0 4\n")
        code, out, _ = run("color", "--json", path)
        assert code == 0
        data = json.loads(out)
        assert data["span"] == 7 and data["colors"] == [0, 5, 2, 3, 7]
        code, out, _ = run("exact", "--json", path)
        assert code == 0
        assert json.loads(out)["hc"] == 7 == json.loads(out)["lb"]

    def test_false_order_claim_builds_nothing_larger(self, run, tmp_path, monkeypatch):
        # the claimed order is rejected from the params, before any family
        # instance or its edge list is built
        built = []
        init = Tree.__init__

        def recording_init(self, n, edges):
            built.append(n)
            init(self, n, edges)

        def recording(family, make):
            def make_recorded(*args):
                built.append((family, args))
                return make(*args)

            return make_recorded

        monkeypatch.setattr(Tree, "__init__", recording_init)
        for family, (names, order, make) in list(families._FAMILIES.items()):
            monkeypatch.setitem(families._FAMILIES, family, (names, order, recording(family, make)))
        for family, params in (("star", "n=3000"), ("caterpillar", "m=300,d=5"), ("a-tree", "d=40")):
            path = str(tmp_path / "claim.tree")
            open(path, "w").write(f"# family: {family}\n# params: {params}\n4\n0 1\n0 2\n0 3\n")
            built.clear()
            code, out, err = run("color", path)
            assert code == 1 and out == ""
            assert "error: tree does not match its family metadata" in err
            assert built == [4], (family, built)

    def test_tampered_metadata_exit_1(self, run, tmp_path):
        path = str(tmp_path / "lie.tree")
        open(path, "w").write("# family: star\n# params: n=4\n4\n0 1\n1 2\n1 3\n")
        code, _, err = run("color", path)
        assert code == 1
        assert "does not match" in err

    def test_false_sub_family_claim_exit_1(self, run, tmp_path):
        # a broom that is not broom_odd may not claim to be one
        path = str(tmp_path / "claim.tree")
        t = generate("broom", {"n": 9, "d": 4})[0]
        open(path, "w").write(format_tree(t, {"family": "broom_odd", "params": "n=9,d=4"}))
        code, out, err = run("color", "--json", path)
        assert code == 1 and out == ""
        assert err == "error: parameters {'n': 9, 'd': 4} build 'broom', not 'broom_odd'\n"

    def test_unknown_or_repeated_metadata_param_exit_1(self, run, tmp_path):
        path = str(tmp_path / "star.tree")
        for params in ("n=5,q=3", "n=5,n=5"):
            open(path, "w").write(f"# family: star\n# params: {params}\n5\n0 1\n0 2\n0 3\n0 4\n")
            code, _, err = run("color", path)
            assert code == 1
            assert "error:" in err

    @pytest.mark.parametrize(
        "head", ["# family: broom_odd\n", "# family: nosuch\n", "# params: n=5\n", "# expected_hc: 999\n"]
    )
    def test_half_family_claim_exit_1(self, run, tmp_path, head):
        # family without params, params without family, or an expected_*
        # value without either, cannot be checked
        path = str(tmp_path / "star.tree")
        open(path, "w").write(head + "5\n0 1\n0 2\n0 3\n0 4\n")
        code, out, err = run("color", path)
        assert code == 1 and out == ""
        assert err == "error: family metadata needs both 'family' and 'params'\n"

    @pytest.mark.parametrize("head", ["# expected_hc: 999\n# expected_n: 7\n", "# expected_total_level: 1\n"])
    def test_false_expected_claim_exit_1(self, run, tmp_path, head):
        # a 5-vertex star does not have the order, hc or level sum it claims
        path = str(tmp_path / "star.tree")
        open(path, "w").write("# family: star\n# params: n=5\n" + head + "5\n0 1\n0 2\n0 3\n0 4\n")
        code, out, err = run("color", path)
        assert code == 1 and out == ""
        assert err == "error: tree does not match its family metadata\n"

    def test_no_family_claim_exit_0(self, run, tmp_path):
        path = str(tmp_path / "star.tree")
        # a comment that is no metadata key; an expected_* key alone is a
        # half claim (test_half_family_claim_exit_1)
        open(path, "w").write("# a plain star\n# hc: 9\n5\n0 1\n0 2\n0 3\n0 4\n")
        code, out, _ = run("color", path)
        assert code == 0 and "span: 9" in out


class TestExact:
    def test_star_exact(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=5")
        code, out, _ = run("exact", "--json", path)
        assert code == 0
        data = json.loads(out)
        assert data["hc"] == 9
        assert data["lb"] == 9
        assert data["proved_optimal"] is True
        assert data["limit_hit"] is False
        assert data["witness_span"] == 9
        code, _, _ = run("verify", path, path + ".hc.coloring")
        assert code == 0

    def test_too_large_exit_3(self, run, tmp_path):
        path = gen_file(run, tmp_path, "caterpillar", "m=4,d=5")  # 10 vertices
        code, _, _ = run("exact", "--json", path, "--limit", "8")
        assert code == 3

    def test_budget_exit_3_with_upper_bound(self, run, tmp_path):
        # the path on 10 vertices (hc 34) needs 427 nodes
        path = str(tmp_path / "p10.tree")
        open(path, "w").write("10\n" + "".join(f"{i} {i + 1}\n" for i in range(9)))
        code, out, _ = run("exact", "--json", path, "--budget", "50")
        assert code == 3
        data = json.loads(out)
        assert data["limit_hit"] is True
        assert data["ub"] >= 34
        # an unproved span is never printed as hc
        assert "hc" not in data
        assert data["proved_optimal"] is False
        assert data["lb"] <= 34
        code, out, _ = run("exact", path, "--budget", "50")
        assert code == 3
        assert "ub:" in out and "hc:" not in out
        # the witness file still holds a valid coloring
        code, _, _ = run("verify", path, path + ".hc.coloring")
        assert code == 0

    def test_budget_hit_with_proof_exit_0(self, run, tmp_path):
        # budget 0 explores nothing, but the star's fallback witness meets lb:
        # the span is proved, so the run is not a budget failure
        path = str(tmp_path / "s4.tree")
        open(path, "w").write("4\n0 1\n0 2\n0 3\n")
        code, out, _ = run("exact", "--json", path, "--budget", "0")
        data = json.loads(out)
        assert (data["hc"], data["lb"], data["proved_optimal"], data["limit_hit"]) == (4, 4, True, True)
        assert code == 0
        code, out, _ = run("exact", path, "--budget", "0")
        assert code == 0
        assert "hc: 4" in out

    def test_negative_budget_exit_1(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=5")
        code, out, err = run("exact", path, "--budget", "-5")
        assert code == 1
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_bad_limit_exit_1(self, run, tmp_path):
        path = str(tmp_path / "one.tree")
        open(path, "w").write("1\n")
        for limit in ("-3", "0"):
            code, out, err = run("exact", path, "--limit", limit)
            assert code == 1
            assert out == ""
            assert f"error: limit must be >= 1, got {limit}" in err

    def test_too_deep_exit_3_without_traceback(self, run, tmp_path):
        # the kernel recurses once per placed vertex; a search whose first
        # dive passes the recursion limit (1000 in a fresh interpreter, 60
        # set once the package is imported) is refused up front at n=1200
        # and n=80, while n=58 starts under a limit of 60 and overflows in
        # the kernel, among the frames already on the stack
        src = str(Path(hamcolor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        lowered = "import sys, hamcolor.cli; sys.setrecursionlimit(60); sys.exit(hamcolor.cli.main(sys.argv[1:]))"
        for n, interpreter, limit in (
            (1200, ["-m", "hamcolor.cli"], "5000"),
            (80, ["-c", lowered], "100"),
            (58, ["-c", lowered], "100"),
        ):
            path = gen_file(run, tmp_path, "star", f"n={n}")
            argv = [sys.executable, *interpreter, "exact", path, "--limit", limit]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 3, proc.stderr
            assert proc.stdout == ""
            assert f"error: n={n} is too deep for the recursive exact search" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_unknown_option_is_a_usage_error(self, run, tmp_path, capsys):
        path = gen_file(run, tmp_path, "star", "n=4")
        with pytest.raises(SystemExit) as exc:
            main(["exact", path, "--threads", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--help"])
        assert exc.value.code == 0


class TestParserReuse:
    """``main`` builds its parser once per process and keeps no state in it
    between calls."""

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        """A list that grows by one for every ``ArgumentParser`` constructed."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_second_call_builds_no_parser(self, run, tmp_path, parsers_built):
        path = gen_file(run, tmp_path, "star", "n=5")
        del parsers_built[:]
        assert run("exact", path)[0] == 0
        assert parsers_built == []
        # the counter does see a build: the root, the shared options and six verbs
        cli.build_parser.__wrapped__()
        assert len(parsers_built) == 8

    def test_calls_share_no_state(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=9")
        assert run("exact", "--limit", "5", path)[0] == 3
        assert run("exact", path)[0] == 0
        code, out, _ = run("exact", "--json", path)
        assert code == 0 and json.loads(out)["hc"] == 49
        code, out, _ = run("exact", path)
        assert code == 0
        assert "hc: 49" in out.splitlines()

    def test_usage_errors_in_a_row(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["exact"])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: hamcolor exact")
            assert "error: the following arguments are required: file" in err

    def test_help_after_a_call(self, run, tmp_path, capsys):
        path = gen_file(run, tmp_path, "star", "n=4")
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--help"])
        assert exc.value.code == 0
        assert "--budget" in capsys.readouterr().out

    def test_import_builds_no_parser(self):
        # a fresh interpreter, since this one has built the parser already
        probe = (
            "import argparse, json\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import hamcolor, hamcolor.cli\n"
            "on_import = len(built)\n"
            "hamcolor.cli.build_parser()\n"
            "print(json.dumps([on_import, len(built)]))\n"
        )
        src = str(Path(hamcolor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert json.loads(proc.stdout) == [0, 8]

    def test_first_call_leaves_no_collection_due(self, run, tmp_path):
        # a fresh interpreter: the call that builds the parser runs the
        # generation-1 collection the build brings near, so none is left
        # pending for the next call
        path = gen_file(run, tmp_path, "star", "n=9")
        probe = (
            "import contextlib, gc, io, json, sys, hamcolor.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = hamcolor.cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, gc.get_count()[1]]))\n"
        )
        src = str(Path(hamcolor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", probe, "exact", "--json", path],
                              capture_output=True, text=True, env=env, check=True)
        assert json.loads(proc.stdout) == [0, 0]


class TestFastArgv:
    """Canonical argvs of the data verbs are read without argparse, to the
    namespace argparse would return."""

    def test_same_namespace_as_argparse(self):
        tried, fast, argvs = argv_parity.check()
        assert {argv[0] for argv in argvs} == {"analyze", "color", "exact", "verify"}
        assert set(cli.build_parser().verbs) == {"analyze", "color", "exact", "verify"}
        assert tried > 200_000 and fast > 500
        # a repeated flag, a positional that reads as a value, positionals
        # on both sides of an option, an empty positional and a spaced value
        for argv in (["exact", "--json", "x", "--json"], ["exact", "5", "--budget", "5"],
                     ["verify", "x", "--json", "x y"], ["color", "", "--coloring-out", "x y"]):
            assert argv in argvs

    def test_canonical_forms_skip_argparse(self, run, tmp_path, monkeypatch):
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")

        def no_parse(self, *args, **kwargs):
            raise AssertionError("argparse parsed a canonical argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", no_parse)
        # perfbench's calls, then README's examples
        for argv in (["exact", "--json", path], ["color", "--json", path],
                     ["verify", "--json", path, path + ".coloring"],
                     ["analyze", path], ["color", path], ["exact", path], ["verify", path, path + ".coloring"],
                     ["exact", path, "--limit", "12", "--budget", "100", "--coloring-out", path + ".w"]):
            assert run(*argv)[0] == 0, argv
        with pytest.raises(AssertionError, match="argparse parsed"):
            main(["exact", "--lim", "12", path])


class TestVerify:
    def test_invalid_coloring_exit_2(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=4")
        cpath = str(tmp_path / "bad.coloring")
        open(cpath, "w").write("0 0\n1 2\n2 3\n3 3\n")
        code, out, _ = run("verify", path, cpath)
        assert code == 2
        assert "violation: u=2 v=3 required=1 actual=0" in out

    def test_json_reports_validity(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=4")
        cpath = str(tmp_path / "ok.coloring")
        open(cpath, "w").write("0 0\n1 2\n2 3\n3 4\n")
        code, out, _ = run("verify", "--json", path, cpath)
        assert code == 0
        assert json.loads(out) == {"valid": True, "span": 4}

    def test_wrong_length_exit_1(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=4")
        cpath = str(tmp_path / "short.coloring")
        open(cpath, "w").write("0 0\n1 2\n")
        code, _, _ = run("verify", path, cpath)
        assert code == 1


class TestWorkCounts:
    """Searches per call, counted by patching ``Tree.bfs``: building the tree
    runs one from vertex 0, which the vertex weights reuse, and the rooted
    view runs one from the weight center(s)."""

    def test_two_bfs_per_color_and_per_verify_call(self, run, tmp_path, monkeypatch):
        path = str(tmp_path / "b.tree")
        open(path, "w").write("9\n0 1\n1 2\n2 3\n0 4\n0 5\n0 6\n0 7\n0 8\n")
        searches = []
        bfs = Tree.bfs

        def counting(self, sources):
            searches.append(list(sources))
            return bfs(self, sources)

        monkeypatch.setattr(Tree, "bfs", counting)
        code, _, _ = run("color", path)
        assert code == 0
        assert searches == [[0], [0]]
        searches.clear()
        code, _, _ = run("verify", path, path + ".coloring")
        assert code == 0
        assert searches == [[0], [0]]


class TestJsonOutput:
    CASES = [
        {"a": [1, -2, 30], "b": "x", "c": None},
        {"a": [], "b": [True, 1], "c": [1, False], "d": "é ☃ \u2028", "e": 1.5, "f": False},
        {"a": [-1], "b": [1, None], "c": ["x", 2], "d": [[1, 2], []], "e": {"x": [1], "y": {}}},
        {"a": (1, 2), "b": [2, 3], "c": -0},
        {"n": 4, "valid": True},
        {},
        # scalars json's encoder never sees, beside a float and a tuple it does
        {"t": True, "f": False, "one": 1, "zero": 0},
        {"neg": -7, "big": 10**29 + 7, "negbig": -(10**30), "none": None},
        {"q": 'say "hi"', "bs": "a\\b", "ctl": "\x00\t\n\x1f\x7f", "uni": "é ☃ \u2028 \U0001f600", "empty": ""},
        {"ключ": 1, "\u2028": "x"},
        {"a": 1, "f": 1.5},
        {"a": 1, "t": (1, 2)},
    ]

    def test_bytes_match_json_dumps(self):
        for data in self.CASES:
            assert cli._json(data) == json.dumps(data, indent=2), data

    def test_every_verb_prints_json_dumps_bytes(self, run, tmp_path, corpus):
        # stdout of every --json verb is json.dumps(..., indent=2) of what it says
        path = str(tmp_path / "t.tree")
        for n in range(1, 9):
            for tree in corpus[n]:
                open(path, "w").write(format_tree(tree))
                calls = [("analyze", "--json", path), ("color", "--json", path), ("exact", "--json", path),
                         ("verify", "--json", path, path + ".hc.coloring")]
                for argv in calls:
                    code, out, err = run(*argv)
                    if argv[0] == "color" and code != 0:
                        assert out == "" and "error:" in err
                        continue
                    assert code in (0, 2), (argv, err)
                    assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


class TestInternalGuards:
    """Invariants that no input can break, forced one at a time: each exits 5
    with its message and no traceback."""

    @pytest.mark.parametrize("case", ["apart", "unbalanced"])
    def test_exit_5_without_traceback(self, case, run, tmp_path, monkeypatch):
        star = tmp_path / "star.tree"
        star.write_text("5\n0 1\n0 2\n0 3\n0 4\n")
        if case == "apart":
            monkeypatch.setattr(hamcolor.tree, "weight_centers", lambda t: frozenset({1, 2}))
            argv, want = ("color", str(star)), "weight centers [1, 2] are not adjacent"
        else:
            monkeypatch.setattr(hamcolor.tree, "weight_centers", lambda t: frozenset({0, 1}))
            argv, want = ("color", str(star)), "halves at weight centers [0, 1] do not balance"
        code, out, err = run(*argv)
        assert (code, out, err) == (5, "", f"internal error: {want}\n")


class TestNonUtf8Input:
    def test_exit_1_without_traceback(self, run, tmp_path):
        good = gen_file(run, tmp_path, "star", "n=4")
        bad_tree = tmp_path / "bad.tree"
        bad_tree.write_bytes(b"4\n0 1\n0 2\n0 3 \xff\n")
        bad_coloring = tmp_path / "bad.coloring"
        bad_coloring.write_bytes(b"0 0\n1 2\n2 3\n3 \xff4\n")
        for argv in (
            ("color", str(bad_tree)),
            ("analyze", str(bad_tree)),
            ("dot", str(bad_tree)),
            ("verify", good, str(bad_coloring)),
            ("dot", good, str(bad_coloring)),
        ):
            code, out, err = run(*argv)
            assert code == 1, argv
            assert out == ""
            assert "not UTF-8" in err and "Traceback" not in err


class TestScale:
    """``color`` and ``verify`` on n ~ 10^4 without any n x n distance matrix,
    on a shallow star and a-tree and on a caterpillar 1,250 levels deep."""

    def test_no_distance_matrix(self, run, tmp_path, monkeypatch):
        star = generate("star", {"n": 10_000})[0]
        perm = list(range(star.n))
        random.Random(7).shuffle(perm)
        plain = str(tmp_path / "star.tree")
        open(plain, "w").write(format_tree(Tree(star.n, [(perm[u], perm[v]) for u, v in star.edges])))
        paths = [
            plain,
            gen_file(run, tmp_path, "a-tree", "d=140", "a140.tree"),
            gen_file(run, tmp_path, "caterpillar", "m=2501,d=5", "cat2501.tree"),  # depth 1,250
        ]

        def no_matrix(self):
            raise AssertionError("distance matrix built")

        star1000 = gen_file(run, tmp_path, "star", "n=1000", "star1000.tree")
        monkeypatch.setattr(Tree, "distance_matrix", no_matrix)
        # exact refuses a first dive past the recursion limit (1000 by default) before any matrix
        code, out, err = run("exact", star1000, "--limit", "1000")
        assert (code, out) == (3, "") and "n=1000 is too deep for the recursive exact search" in err
        for path in paths:
            code, out, err = run("color", "--json", path)
            assert code == 0, err
            span = json.loads(out)["span"]
            tree, _ = parse_tree_text(open(path).read())
            assert span == lower_bound_weight(analyze(tree))
            code, out, err = run("verify", "--json", path, path + ".coloring")
            assert code == 0, err
            assert json.loads(out) == {"valid": True, "span": span}


class TestCompare:
    """The weight-center bound against the graph-center bound, as ``analyze``
    prints them on every tree."""

    def test_broom_gap(self, run, tmp_path):
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")
        code, out, _ = run("analyze", "--json", path)
        assert code == 0
        data = json.loads(out)
        assert data["lb_weight"] == 58
        assert data["lb_center"] == 50
        assert data["lb_difference"] == 8

    def test_corpus_matches_networkx(self, run, tmp_path, corpus):
        # every tree with n <= 8: centers, levels and both bounds match
        # networkx, paths and n <= 3 included
        import networkx as nx

        path = tmp_path / "t.tree"
        for n in range(1, 9):
            for t in corpus[n]:
                path.write_text(format_tree(t))
                code, out, err = run("analyze", "--json", str(path))
                assert (code, err) == (0, ""), t.edges
                an = json.loads(out)
                assert "diam_within_half" not in an and "certifying" not in an
                dist = oracles.nx_distance_matrix(t)
                transmission = [oracles.nx_transmission(t, v) for v in range(n)]
                weight = [v for v in range(n) if transmission[v] == min(transmission)]
                center = sorted(nx.center(oracles.nx_graph(t)))
                assert (an["weight_centers"], an["graph_centers"]) == (weight, center)
                assert an["applicable"] == (n >= 4 and t.max_degree >= 3)
                for kind, centers, lb in (("weight", weight, "lb_weight"), ("center", center, "lb_center")):
                    total = sum(min(dist[v][c] for c in centers) for v in range(n))
                    assert an[f"total_level_{kind}"] == total
                    assert an[f"{kind}_bicentral"] == (len(centers) == 2)
                    assert an[lb] == bound_formula(n, len(centers) == 2, total)
                assert an["lb_difference"] == an["lb_weight"] - an["lb_center"]

    def test_one_vertex_bounds_are_zero(self, run, tmp_path):
        path = str(tmp_path / "one.tree")
        open(path, "w").write("1\n")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert "lb_weight: 0\n" in out and "lb_center: 0\n" in out
        code, out, _ = run("exact", "--json", path)
        assert code == 0
        data = json.loads(out)
        assert (data["hc"], data["lb"], data["proved_optimal"]) == (0, 0, True)

    @pytest.mark.parametrize("argv", [
        ["compare", "FILE"], ["compare", "--force", "FILE"], ["analyze", "--force", "FILE"],
        ["color", "--ordering-out", "x.order", "FILE"], ["dot", "--json", "FILE"],
        ["gen", "--json", "--family", "star", "--params", "n=4"],
    ])
    def test_removed_verb_and_option_are_usage_errors(self, argv, run, tmp_path):
        path = gen_file(run, tmp_path, "broom", "n=10,d=4")
        src = str(Path(hamcolor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        argv = [path if arg == "FILE" else arg for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "hamcolor.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("usage: hamcolor")
        assert "error: " in proc.stderr and "Traceback" not in proc.stderr


class TestDot:
    def test_stdout(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=4")
        code, out, _ = run("dot", path)
        assert code == 0
        assert out.startswith("graph tree {")
        assert "0 -- 1;" in out

    def test_with_coloring_to_file(self, run, tmp_path):
        path = gen_file(run, tmp_path, "star", "n=4")
        run("color", path)
        out_path = str(tmp_path / "t.dot")
        code, _, _ = run("dot", path, path + ".coloring", "-o", out_path)
        assert code == 0
        text = open(out_path).read()
        assert "\\nc=" in text


def test_console_script(capsys):
    # the installed script when it is on PATH, else the entry pyproject.toml
    # declares for it, resolved and called in-process
    argv = ["gen", "--family", "star", "--params", "n=4"]
    if shutil.which("hamcolor") is not None:
        proc = subprocess.run(["hamcolor", *argv], capture_output=True, text=True)
        code, out = proc.returncode, proc.stdout
    else:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["hamcolor"]
        assert entry == "hamcolor.cli:main"
        module, _, name = entry.partition(":")
        script = getattr(importlib.import_module(module), name)
        code = script(argv)
        out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "0 3"
