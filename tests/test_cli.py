"""Command-line behavior: output fields, file emission, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import twocst
from twocst import TwocstError, from_json, hard_instance, new_instance, pattern_instance, validate
from twocst.cli import VERIFY_SUITES, main
from twocst.structure import CheckResult, suite_geometric, suite_oracle, suite_thresholds


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def replace_suite(monkeypatch, suite, fn):
    """Run ``fn`` for a verify suite, keeping the suite's flag domains."""
    monkeypatch.setitem(VERIFY_SUITES, suite, (fn, VERIFY_SUITES[suite][1]))


def fields(stdout):
    pairs = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key] = val
    return pairs


@pytest.fixture()
def fig1(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text("10 1 2 3 1 3 1 11\n")
    return str(path)


class TestSolve:
    def test_single_key(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1\n")
        code, out, _ = run(capsys, "solve", str(path), "full")
        assert code == 0
        got = fields(out)
        assert got["cost"] == "0"
        assert got["root"] == "leaf"

    def test_figure_instance_all_tree_algorithms(self, capsys, fig1):
        for alg in ("full", "pruned", "bounded-log", "oracle"):
            code, out, _ = run(capsys, "solve", fig1, alg)
            assert code == 0
            assert fields(out)["cost"] == "80"

    def test_pattern_24(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        inst = pattern_instance((1, 3), 24)
        path.write_text(" ".join(map(str, inst.weights)) + "\n")
        code, out, _ = run(capsys, "solve", str(path), "full")
        assert code == 0
        got = fields(out)
        assert got["cost"] == "216"
        assert int(got["eq_prunes"]) > 0
        assert int(got["lt_prunes"]) > 0

    def test_hard_full_reports_prunes(self, capsys, tmp_path):
        # the hard family keeps every heaviest key at or above a quarter,
        # so only the 3/7 equality rule fires in the full DP
        path = tmp_path / "h.txt"
        path.write_text(" ".join(map(str, hard_instance(28).weights)) + "\n")
        code, out, _ = run(capsys, "solve", str(path), "full")
        assert code == 0
        got = fields(out)
        assert int(got["cutpoints"]) == 3290
        assert int(got["eq_prunes"]) == 810
        assert int(got["lt_prunes"]) == 0

    def test_three_way_baselines(self, capsys, fig1):
        code, out, _ = run(capsys, "solve", fig1, "3wcst")
        assert code == 0
        assert fields(out)["cost"] == "72"
        code, out, _ = run(capsys, "solve", fig1, "3wcst-ky")
        assert code == 0
        got = fields(out)
        assert got["cost"] == "72"
        assert int(got["cutpoints"]) > 0

    def test_fraction_file_reports_exact_cost(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1/3 1/6 1/2\n")
        code, out, _ = run(capsys, "solve", str(path), "full")
        assert code == 0
        got = fields(out)
        assert got["scale"] == "6"
        from fractions import Fraction

        assert Fraction(got["cost_exact"]) == Fraction(int(got["cost"]), 6)

    def test_tree_and_dot_emission(self, capsys, fig1, tmp_path):
        tree_path = tmp_path / "t.json"
        dot_path = tmp_path / "t.dot"
        code, _, _ = run(
            capsys, "solve", fig1, "full", "--tree", str(tree_path), "--dot", str(dot_path)
        )
        assert code == 0
        tree = from_json(json.loads(tree_path.read_text()))
        inst = new_instance([10, 1, 2, 3, 1, 3, 1, 11])
        assert validate(tree, inst).ok
        assert dot_path.read_text().startswith("digraph")

    def test_tree_flag_rejected_without_tree(self, capsys, fig1, tmp_path):
        code, _, err = run(capsys, "solve", fig1, "3wcst", "--tree", str(tmp_path / "t.json"))
        assert code == 3
        assert "tree" in err


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "solve", "no_such_file.txt", "full")
        assert code == 2

    def test_garbage_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not weights\n")
        code, _, _ = run(capsys, "solve", str(path), "full")
        assert code == 2

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff1 2 3\n")
        code, _, err = run(capsys, "solve", str(path), "full")
        assert code == 2
        assert err.startswith(f"error: {path}: not UTF-8")

    def test_bad_json_string_entry_names_path_and_index(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[1, "1/0"]\n')
        code, _, err = run(capsys, "solve", str(path), "full")
        assert code == 2
        assert err == f"error: {path}: entry 1: cannot parse weight '1/0'\n"

    @pytest.mark.parametrize("command", ["bench", "qi"])
    def test_negative_inline_weight_is_parse_error(self, capsys, tmp_path, command):
        # the same weights in a file already exit 2
        code, _, err = run(capsys, command, "--weights", "1,-2,3", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "negative weight" in err

    def test_limit_without_bounded_const_is_usage_error(self, capsys, fig1):
        # bench keeps one --limit for a mixed algorithm list; solve names one
        code, out, err = run(capsys, "solve", fig1, "pruned", "--limit", "-4")
        assert (code, out) == (2, "")
        assert err == "error: --limit is the weight bound of bounded-const; pruned takes none\n"

    def test_bench_limit_without_bounded_const_is_usage_error(self, capsys):
        # a list that runs bounded-const keeps the shared --limit
        code, out, err = run(capsys, "bench", "--weights", "1,2,3", "--alg", "full,pruned", "--limit", "-4")
        assert (code, out) == (2, "")
        assert err == "error: --limit is the weight bound of bounded-const; full,pruned takes none\n"

    def test_memory_budget_is_precondition(self, capsys, fig1, monkeypatch):
        monkeypatch.setenv("TWOCST_MEM_LIMIT_MB", "0")
        code, _, _ = run(capsys, "solve", fig1, "full")
        assert code == 3

    def test_oracle_size_cap_is_precondition(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(" ".join(["1"] * 23) + "\n")
        code, _, _ = run(capsys, "solve", str(path), "oracle")
        assert code == 3

    def test_solver_error_is_exit_three(self, capsys, fig1, monkeypatch):
        def fail(_inst):
            raise TwocstError("hole depth 9 exceeded the log bound 8")

        monkeypatch.setattr("twocst.cli.solve_bounded_log", fail)
        code, _, err = run(capsys, "solve", fig1, "bounded-log")
        assert code == 3
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_closed_stdout_pipe_exits_141_quietly(self):
        # the read end is closed before the run starts, so its first write
        # meets a pipe without a reader, as under `| head -1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(twocst.__file__).parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "twocst.cli", "bench", "--weights", "1,2,3", "--alg", "full"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_verify_failures_exit_one(self, capsys, monkeypatch):
        replace_suite(
            monkeypatch,
            "thresholds",
            lambda *_: [CheckResult("forced", False, "forced failure")],
        )
        code, out, _ = run(capsys, "verify", "thresholds")
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestVerify:
    def test_counterexample_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "counterexamples")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["results"]) == 7
        names = {r["name"] for r in payload["results"]}
        assert "heavy-mid-family-qi" in names

    def test_zero_seed_is_kept(self, capsys):
        # seed 0 must not fall back to the default seed 7, whose draws
        # give this suite a different detail line
        code, out, _ = run(capsys, "verify", "oracle", "--cases", "12", "--seed", "0")
        assert code == 0
        detail = json.loads(out)["results"][0]["detail"]
        assert detail == suite_oracle(12, 8, 0)[0].detail
        assert detail != suite_oracle(12, 8, 7)[0].detail

    @pytest.mark.parametrize(
        "suite,library",
        [("thresholds", suite_thresholds), ("oracle", suite_oracle), ("geometric", suite_geometric)],
    )
    def test_defaults_are_the_library_defaults(self, capsys, suite, library):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0
        assert json.loads(out)["results"] == [asdict(r) for r in library()]

    @pytest.mark.parametrize("flag", ["--cases", "--n"])
    def test_zero_size_is_usage_error(self, capsys, flag):
        code, _, err = run(capsys, "verify", "oracle", flag, "0")
        assert code == 2
        assert f"{flag} must be at least 1" in err

    def test_pattern_claims_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "pattern-claims", "--p", "2")
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("n,unfired", [("1", 5), ("3", 3)])
    def test_threshold_claims_that_never_fire_fail(self, capsys, n, unfired):
        # one key has no root split to test, and three cases of at most
        # three keys fire two claims; a claim never tested must not pass
        code, out, _ = run(capsys, "verify", "thresholds", "--n", n, "--cases", "3")
        assert code == 1
        results = json.loads(out)["results"]
        assert len(results) == 5
        silent = [r for r in results if r["detail"].startswith("fired 0 times")]
        assert len(silent) == unfired
        assert not any(r["ok"] for r in silent)

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexamples", "--n", "5"],
            ["geometric", "--cases", "3"],
            ["geometric", "--seed", "1"],
            ["oracle", "--p", "2"],
            ["thresholds", "--p", "2"],
            ["geometric", "--p", "2"],
            ["pattern-claims", "--cases", "3"],
            ["pattern-claims", "--n", "3"],
            ["pattern-claims", "--seed", "3"],
        ],
    )
    def test_flags_the_suite_does_not_read_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"verify {argv[0]} takes no {argv[1]}" in err

    @pytest.mark.parametrize("n", ["23", "30"])
    def test_oracle_keys_above_the_cap_are_usage_errors(self, capsys, monkeypatch, n):
        # refused before any case is drawn, so no draw decides the outcome
        replace_suite(monkeypatch, "oracle", lambda **_: pytest.fail("suite ran"))
        code, out, err = run(capsys, "verify", "oracle", "--n", n, "--cases", "20")
        assert code == 2
        assert out == ""
        assert "cap of 22 keys" in err

    @pytest.mark.parametrize(
        "suite,flag,value,least",
        [
            ("pattern-claims", "--p", "0", 1),
            ("pattern-claims", "--p", "-1", 1),
            ("geometric", "--n", "1", 5),
            ("geometric", "--n", "4", 5),
            ("thresholds", "--cases", "0", 1),
        ],
    )
    def test_values_below_the_domain_are_usage_errors(self, capsys, monkeypatch, suite, flag, value, least):
        # refused by the flag table before the suite runs, not by the
        # library's own precondition (exit 3) or a failed claim (exit 1)
        replace_suite(monkeypatch, suite, lambda **_: pytest.fail("suite ran"))
        code, out, err = run(capsys, "verify", suite, flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} must be at least {least}, got {value}" in err

    def test_geometric_least_key_count_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "geometric", "--n", "5")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_pattern_claims_without_shift_band_points_fail(self, capsys):
        # at p = 1 the identity band holds one row, n = 6, and neither
        # shift claim has a band point there; an untested claim must fail
        code, out, _ = run(capsys, "verify", "pattern-claims", "--p", "1")
        assert code == 1
        results = {r["name"]: r for r in json.loads(out)["results"]}
        assert list(results) == ["pattern-identity-p1", "pattern-left_shift-p1", "pattern-prefix_shift-p1"]
        assert results["pattern-identity-p1"]["ok"] is True
        for name in ("pattern-left_shift-p1", "pattern-prefix_shift-p1"):
            assert results[name]["ok"] is False
            assert results[name]["detail"].startswith("fired 0 times")


class TestQi:
    def test_weights_flag_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code, _, _ = run(capsys, "qi", "--weights", "1,10,1", "--out", str(out_a))
        assert code == 0
        code, _, _ = run(capsys, "qi", "--weights", "1,10,1", "--out", str(out_b))
        assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
        assert "1,3,red" in (tmp_path / "a.csv").read_text()

    def test_pattern_flag(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "qi", "--pattern", "1,3", "--n", "24", "--out", str(tmp_path / "p")
        )
        assert code == 0
        assert fields(out)["red_cells"] == "74"

    # sha256 of the CSV and PGM maps of three instances at n = 24
    @pytest.mark.parametrize(
        "flags,csv_sha,pgm_sha",
        [
            (
                ["--weights", "1,10,1"],
                "f2d197083c4170914cb36691460de2d9e955848563540d53a58c2de5da6ad155",
                "4f51ea5e5740f06dc68045ff0e2cffcdd3becf6a21b57f143b8b0307ca466c07",
            ),
            (
                ["--pattern", "1,3", "--n", "24"],
                "b99b3ccbdad9df1b0d49fe5557ae9bcecdcc133b762b5a766fb75435d3a47db7",
                "3dff9246fcff285796b034c0e323b3d56501d4a941be4402778b26ea4bce5dae",
            ),
            (
                ["--random", "--seed", "1", "--range", "1,3", "--n", "24"],
                "b881e1ad74d8e83c043ce4d91d7f10a5e76eb52eac10a764ea837dd7da19418d",
                "2efa7659ef8dd7efaa299699b85e1df5d44f3e91aa2034f47408b4550c7b7459",
            ),
        ],
        ids=["heavy-mid", "pattern", "random"],
    )
    def test_frozen_maps(self, capsys, tmp_path, flags, csv_sha, pgm_sha):
        code, _, _ = run(capsys, "qi", *flags, "--out", str(tmp_path / "m"))
        assert code == 0
        assert hashlib.sha256((tmp_path / "m.csv").read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256((tmp_path / "m.pgm").read_bytes()).hexdigest() == pgm_sha

    def test_exactly_one_instance(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "qi", "--weights", "1,10,1", "--pattern", "1,3", "--n", "6",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_random_requires_seed(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "qi", "--random", "--n", "12", "--out", str(tmp_path / "r")
        )
        assert code == 2


class TestBench:
    def test_generator_grid_csv(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--pattern", "1,3", "--n", "24", "--alg", "full,bounded-const"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["algorithm"] for r in rows] == ["full", "bounded-const"]
        assert {r["cost"] for r in rows} == {"216"}
        assert {r["error"] for r in rows} == {""}

    def test_geometric_root_type(self, capsys):
        code, out, _ = run(capsys, "bench", "--geometric", "0.55", "--n", "25", "--alg", "full")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["root_type"] == "equal-to"

    def test_error_rows_keep_going(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 9 1\n")
        code, out, _ = run(
            capsys, "bench", str(path), "--alg", "bounded-const,full", "--limit", "3"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["algorithm"] == "bounded-const"
        assert rows[0]["error"] != ""
        assert rows[1]["cost"] == "13"

    def test_solver_error_fills_error_cell(self, capsys, monkeypatch):
        def fail(_inst):
            raise TwocstError("hole-depth bound exceeded")

        monkeypatch.setattr("twocst.cli.solve_pruned", fail)
        code, out, _ = run(
            capsys, "bench", "--hard", "14,21", "--alg", "pruned,full"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["instance"], r["algorithm"]) for r in rows] == [
            ("hard-n14", "pruned"),
            ("hard-n14", "full"),
            ("hard-n21", "pruned"),
            ("hard-n21", "full"),
        ]
        assert [r["error"] for r in rows] == ["hole-depth bound exceeded", "", "hole-depth bound exceeded", ""]
        assert rows[1]["cost"] != "" and rows[3]["cost"] != ""

    def test_generator_labels(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--weights", "1,2,3", "--hard", "14", "--pattern", "1,3,2",
            "--geometric", "0.55,4/7", "--random", "--seed", "3", "--range", "1,9",
            "--n", "8", "--alg", "full",
        )
        assert code == 0
        assert [r["instance"] for r in csv.DictReader(io.StringIO(out))] == [
            "weights-1_2_3",
            "hard-n14",
            "pattern-1_3_2-n8",
            "geometric-11_20-n8",
            "geometric-4_7-n8",
            "random-seed3-1to9-n8",
        ]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--pattern", "1,3"], "--pattern needs --n"),
            (["--random", "--seed", "1"], "--random needs --n"),
            (["--random", "--seed", "1", "--n", "5", "--range", "1,2,3"], "--range takes LO,HI"),
        ],
    )
    def test_generator_flag_errors(self, capsys, flags, message):
        code, _, err = run(capsys, "bench", *flags)
        assert code == 2
        assert message in err

    def test_unknown_algorithm(self, capsys):
        code, _, _ = run(capsys, "bench", "--weights", "1,2", "--alg", "fast")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--hard", "14", "--alg", "pruned", "--out", str(out_path)
        )
        assert code == 0
        with out_path.open() as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["instance"] == "hard-n14"
        assert rows[0]["subproblems"] == "169"


class TestOutputSchema:
    """The column order of ``bench`` and the line order of ``solve`` are
    part of the CLI's contract, for every algorithm."""

    def test_bench_columns(self, capsys):
        code, out, _ = run(capsys, "bench", "--weights", "1,2,3", "--alg", "full")
        assert code == 0
        assert out.splitlines()[0].split(",") == [
            "instance", "algorithm", "n", "scale", "cost", "root_type", "subproblems",
            "cutpoints", "eq_prunes", "lt_prunes", "max_hole_depth", "wall_ms", "error",
        ]

    @pytest.mark.parametrize("text,exact", [("10 1 2 3 1 3 1 11\n", False), ("1/3 1/6 1/2\n", True)])
    def test_solve_line_order(self, capsys, tmp_path, text, exact):
        path = tmp_path / "w.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "solve", str(path), "pruned")
        assert code == 0
        keys = [line.partition("=")[0] for line in out.splitlines()]
        assert keys == [
            "n", "scale", "cost", *(["cost_exact"] if exact else []), "root", "subproblems",
            "cutpoints", "eq_prunes", "lt_prunes", "max_hole_depth", "wall_ms",
        ]


class TestGenerate:
    def test_round_trip_through_solve(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "generate", "random", "--n", "9", "--seed", "4", "--lo", "0",
            "--hi", "9", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "solve", str(path), "pruned")
        assert code == 0
        assert fields(out)["n"] == "9"

    def test_stdout_form(self, capsys):
        code, out, _ = run(capsys, "generate", "tight8", "--alpha", "1/3")
        assert code == 0
        assert "2 0 1 0 1 1 0 1" in out
        assert "scale 6" in out

    @pytest.mark.parametrize("flag", ["--gamma", "--alpha", "--beta", "--eps"])
    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_malformed_ratio_is_usage_error(self, capsys, flag, value):
        recipe = ["tight4", "--alpha", "3/8", "--beta", "1/4", "--eps", "1/100"]
        if flag == "--gamma":
            recipe = ["geometric", "--n", "5"]
        code, out, err = run(capsys, "generate", *recipe, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_kind_arguments(self, capsys):
        code, _, _ = run(capsys, "generate", "hard", "--n", "20")
        assert code == 3
