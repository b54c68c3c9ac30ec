import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysieve
from polysieve import boxes, cli, commands, sieve, varieties
from polysieve.errors import BudgetExceeded, InvariantViolation
from polysieve.fields import ExtField, primes_in
from polysieve.polynomials import parse_multipoly
from polysieve.reports import ExperimentReport, _csv_cell, emit_report, report_json
from polysieve.tracefn import TraceFunction

from _oracles import diagonal_dual_oracle, jsonable

SRC = str(Path(polysieve.__file__).resolve().parents[1])


def test_budget_refusals_go_through_charge():
    # errors.charge is the one place in the package that raises BudgetExceeded
    raising = [path.name for path in Path(SRC, "polysieve").glob("*.py")
               if "BudgetExceeded(" in path.read_text()]
    assert raising == ["errors.py"]


def run(argv):
    return cli.main(argv)


def load_report(path):
    return json.loads(Path(path).read_text())


def strip_timings(report_dict):
    return {k: v for k, v in report_dict.items() if k != "timings"}


def run_child(args):
    """Run python with `args` in a fresh interpreter that imports ./src."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


def cold_run(argv):
    """Run `polysieve.cli argv` cold, expecting exit code 1: the child process, its wall
    time in seconds and its peak RSS in MB.  A small parent starts the request: a child's
    peak RSS counts its parent's pages up to exec, so a child of the test process would
    read the test process's peak."""
    proc = run_child(["-c", "import os, subprocess, sys, time\n"
                      "start = time.perf_counter()\n"
                      "child = subprocess.Popen([sys.executable, '-m', 'polysieve.cli',"
                      " *sys.argv[1:]], stdout=subprocess.DEVNULL)\n"
                      "_, status, usage = os.wait4(child.pid, 0)\n"
                      "print(os.waitstatus_to_exitcode(status), time.perf_counter() - start,"
                      " usage.ru_maxrss / 1024)", *argv.split()])
    code, seconds, peak_mb = proc.stdout.split()
    assert int(code) == 1
    return proc, float(seconds), float(peak_mb)


class TestParsing:
    def test_parse_config_roundtrip(self):
        cfg = cli.parse_config(["--seed", "7", "boxcount", "--f", "T^2",
                                "--F", "X0^2+X1^2+X2^2", "--B", "20"])
        assert cfg.subcommand == "boxcount"
        assert cfg.seed == 7
        assert cfg.options["B"] == 20

    def test_unknown_flag_is_input_error(self, capsys):
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2", "--B", "5",
                    "--bogus"]) == 1

    def test_malformed_polynomial_names_offset(self, capsys):
        assert run(["klsum", "--m", "2", "--p", "7", "--F", "X1^^2"]) == 1
        assert "offset" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_parser_reuse_keeps_requests_apart(self):
        box = ["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "20"]
        first = cli.parse_config(box + ["--primes", "list:5,7"])
        second = cli.parse_config(box)
        assert first.options["primes"] == "list:5,7"
        assert second.options["primes"] == "auto"
        assert first.options is not second.options
        second.options["B"] = 99
        assert first.options["B"] == 20
        with pytest.raises(ValueError):
            cli.parse_config(box + ["--bogus"])
        assert cli.parse_config(box).options == {**second.options, "B": 20}

    def test_parser_has_no_shared_mutable_state(self):
        # the cached parser is safe to reuse only while no argument
        # accumulates across parses or defaults to a mutable object
        import argparse

        parsers = [cli.build_parser()]
        for parser in parsers:
            for action in parser._actions:
                assert not isinstance(action, (argparse._AppendAction,
                                               argparse._AppendConstAction))
                assert not isinstance(action.default, (list, dict, set))
                if isinstance(action, argparse._SubParsersAction):
                    parsers += action.choices.values()


@st.composite
def tally_cases(draw):
    """(m, d, p, q, coeffs, s): m, d in 2..4, p != q primes up to 31 prime to d and to every
    coefficient, s the cutoff (the tally takes min(s, 8))."""
    m, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    p, q = draw(st.lists(st.sampled_from([r for r in primes_in(2, 31) if d % r]),
                         min_size=2, max_size=2, unique=True))
    coeffs = draw(st.lists(st.integers(-6, 6).filter(lambda c: c % p and c % q),
                           min_size=m, max_size=m))
    return m, d, p, q, coeffs, draw(st.integers(0, 10 if m < 4 else 4))


KMAX_ARGVS = [
    ["classify-u", "--F", "X0^2+X1^2+X2^2", "--u", "1,0,0", "--p", "5"],
    ["mixsum", "--trace", "chi:2:1", "--p", "5", "--F", "X0^2+X1^2+X2^2", "--u", "1,0,0"],
    ["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "10"],  # diagonal: no scan
    ["boxcount", "--f", "T^2", "--F", "X0^2+X0*X1+X2^2", "--B", "10"],
]


class TestSubcommands:
    def test_sieve_check_ok(self, capsys):
        assert run(["sieve-check", "--d", "3", "--p", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["max_error"] <= 1e-9

    def test_sieve_check_bad_divisor(self, capsys):
        assert run(["sieve-check", "--d", "3", "--p", "5"]) == 1

    @pytest.mark.parametrize("d", ["0", "-2"])
    def test_sieve_check_nonpositive_order_is_input_error(self, d, capsys):
        # d = 0 used to end in a ZeroDivisionError, d = -2 in an invariant violation
        assert run(["sieve-check", "--d", d, "--p", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: d={d} must be at least 1\n"

    def test_klsum_report(self, capsys):
        assert run(["klsum", "--m", "2", "--p", "13",
                    "--F", "X1^3+X2^3+X3^3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["n_vars"] == 3
        assert out["results"]["ratio_half_power"] <= 10

    @pytest.mark.parametrize("m", ["308", "309"])
    def test_klsum_large_m_is_valid_json(self, m, capsys):
        # 308 used to print NaN, 309 to fail with a float overflow
        assert run(["klsum", "--m", m, "--p", "101", "--F", "X0^2+X1^2"]) == 0

        def refuse(name):
            raise AssertionError(f"{name} in the report")

        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert out["results"]["abs"] <= int(m) * 101

    def test_tracesum(self, capsys):
        assert run(["tracesum", "--trace", "chi:2:1", "--p", "11",
                    "--F", "X0^2+X1^2"]) == 0

    def test_tracesum_restricted_to_hypersurface(self, capsys):
        assert run(["tracesum", "--trace", "kl:2", "--p", "11",
                    "--F", "X0^2+X1^2+X2^2", "--G", "X0"]) == 0
        out = json.loads(capsys.readouterr().out)
        # restricting to X0 = 0 leaves the 2-variable sum over the rest
        assert out["results"]["domain"] == "V(X0)"
        assert out["results"]["residual_ratio"] < 10

    def test_tracesum_dump_table(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert run(["tracesum", "--trace", "kl:2", "--p", "7",
                    "--F", "X0^2+X1^2", "--dump-table", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,re,im" and len(lines) == 8

    def test_mixsum_with_u(self, capsys):
        assert run(["mixsum", "--trace", "kl:2", "--p", "7",
                    "--F", "X0^2+X1^2+X2^2", "--u", "1,0,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["u_class"] in ("good", "bad", "zero")
        assert out["semi_decisions"]["k_max"] == 2

    def test_mixsum_with_G(self, capsys):
        assert run(["mixsum", "--trace", "chi:2:1", "--p", "7",
                    "--F", "X0^2+X1^2", "--G", "X0*X1"]) == 0

    def test_mixsum_needs_twist(self):
        assert run(["mixsum", "--trace", "kl:2", "--p", "7",
                    "--F", "X0^2+X1^2"]) == 1

    def test_mixsum_takes_one_twist(self, capsys):
        assert run(["mixsum", "--trace", "kl:2", "--p", "7", "--F", "X0^2+X1^2",
                    "--u", "1,0", "--G", "X0*X1"]) == 1
        assert "not allowed with" in capsys.readouterr().err

    def test_mixsum_G_charged_to_budget(self, capsys):
        # one joint group of forms of degree 2, d = gcd(2, p - 1) = 2: its p + 1 classes,
        # (d + 1) p cells and two length-p tables, then the length-p sum: 8 + 35 + 7
        argv = ["mixsum", "--trace", "kl:2", "--p", "7", "--F", "X0^2+X1^2", "--G", "X0*X1"]
        assert run(argv + ["--budget", "49"]) == 1
        assert "50 points exceeds budget 49" in capsys.readouterr().err
        assert run(argv + ["--budget", "50"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--p", "10007", "--F", "X0^2+2*X1^2", "--G", "X0*X1"],  # a p^2 = 10^8 grid
        ["--p", "1009", "--F", "X0^2+X1*X2", "--G", "X0*X2"],    # a p^3 = 10^9 grid
    ])
    def test_mixsum_G_over_projective_classes(self, argv, capsys):
        # the p^(k-1) classes of P^(k-1), not the p^k grid, fit the default budget
        assert run(["mixsum", "--trace", "chi:2:1", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["abs"] > 0

    def test_G_sums_per_joint_group_at_p_1009(self, capsys):
        # the full grids would have p^3 = 10^9 points
        base = ["--p", "1009", "--F", "X0^2+X1^2+X2^2"]
        assert run(["mixsum", "--trace", "kl:2", *base, "--G", "X0+X1"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["abs"] > 0
        assert run(["tracesum", "--trace", "psi", *base, "--G", "X0-X1"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["domain"] == "V(-X1 + X0)"

    def test_classify_u_agrees_with_oracle(self, capsys):
        assert run(["classify-u", "--F", "X0^2+X1^2+X2^2", "--u", "1,2,0",
                    "--p", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["class"] == "bad"
        assert out["results"]["diagonal_oracle"] == "bad"

    @pytest.mark.parametrize("budget", [[], ["--budget", "9"]])
    def test_classify_u_at_p_10007_is_certified(self, capsys, budget):
        # a budget of 3^2 admits the section's 3 x 3 matrix and no grid at all
        argv = ["classify-u", "--F", "X0*X1+X2*X3", "--u", "2,-1,1,3", "--p", "10007", *budget]
        assert run(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["class"] == "good"
        assert out["semi_decisions"] == {"k_max": 2}
        # the uncertified walk of the section is refused at its first level, P^2(F_10007)
        basis = varieties._kernel_basis((2, -1, 1, 3), 10007)
        section = parse_multipoly("X0*X1+X2*X3").reduce_mod(10007).substitute(basis)
        with pytest.raises(BudgetExceeded, match="100150057"):
            varieties._smoothness_walk(section, 10007, 2)

    def test_classify_u_witness_past_the_cap_is_no_contradiction(self, capsys):
        # the oracle's witness lies over F_25 only: a scan capped at F_5 says good
        argv = ["classify-u", "--F", "X0^3+X1^3+X2^3+X3^3", "--u=-2,-2,-1,-1", "--p", "5"]
        assert run([*argv, "--kmax", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["results"]["class"], out["results"]["diagonal_oracle"]) == ("good", "bad")
        assert out["semi_decisions"] == {"k_max": 1}
        assert run([*argv, "--kmax", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["results"]["class"], out["results"]["diagonal_oracle"]) == ("bad", "bad")
        assert out["results"]["witness"]["ext_degree"] == 2

    def test_classify_u_witness_degree_where_p_divides_d_minus_1(self, capsys):
        # d - 1 = 6 at p = 2: x^6 = 1 means x^3 = 1, whose roots lie over F_4
        argv = ["classify-u", "--F", "X0^7+X1^7+X2^7", "--u", "1,1,1", "--p", "2"]
        assert run([*argv, "--kmax", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["results"]["class"], out["results"]["diagonal_oracle"]) == ("good", "bad")
        assert run([*argv, "--kmax", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["results"]["class"], out["results"]["diagonal_oracle"]) == ("bad", "bad")
        assert out["results"]["witness"]["ext_degree"] == 2

    @pytest.mark.parametrize("p", ["1013", "1019"])
    def test_classify_u_cross_check_past_the_table_cap(self, p, capsys, monkeypatch):
        # F_{p^2} has over 10^6 elements: the dual polynomial needs no field,
        # and the witness degree is asked for only on a disagreement
        monkeypatch.setattr(varieties, "diagonal_witness_degree",
                            lambda *a: pytest.fail("the cross-check called the rule"))
        assert run(["classify-u", "--F", "X0^3+X1^3+X2^3", "--u", "1,2,3", "--p", p]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["results"]["class"], out["results"]["diagonal_oracle"]) == ("good", "good")

    @pytest.mark.parametrize("argv, kind, point", [
        (["--F", "X0^2+X1^2+X2^2", "--u", "1,2,3", "--p", "2"], "bad", [1, 0, 1]),  # 2 | d
        (["--F", "X0^2+X1^2+3*X2^2", "--u", "1,1,0", "--p", "3"], "bad", [0, 0, 1]),  # the vertex
        (["--F", "X0+X1", "--u", "1,2", "--p", "5"], "good", None),                 # d = 1
    ])
    def test_classify_u_oracle_not_applicable_off_its_hypotheses(self, argv, kind, point,
                                                                 capsys, monkeypatch):
        # the closed forms need d >= 2 and p prime to d and every coefficient: elsewhere the
        # scan answers alone and neither closed form is asked
        for name in ("diagonal_u_classes", "diagonal_witness_degree"):
            monkeypatch.setattr(varieties, name, lambda *a, name=name: pytest.fail(f"asked {name}"))
        assert run(["classify-u", *argv]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["diagonal_oracle"] == "not applicable (bad reduction or d < 2)"
        assert results["class"] == kind
        assert results.get("witness", {}).get("point") == point

    def test_classify_u_contradiction_within_the_cap_exits_2(self, capsys, monkeypatch):
        # the oracle's witness for u = (1, 2, 0) lies over F_5, inside any cap
        monkeypatch.setattr(varieties, "classify_u",
                            lambda F, u, p, k_max, budget: varieties.UClass("good", k_max=k_max))
        assert run(["classify-u", "--F", "X0^2+X1^2+X2^2", "--u", "1,2,0", "--p", "5",
                    "--kmax", "1"]) == 2
        assert "scan said good but the diagonal oracle said bad" in capsys.readouterr().err

    def test_fibers_table(self, capsys):
        assert run(["fibers", "--F", "X0^2+X1^2", "--p", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["tables"]["fibers"]) == 5
        row0 = [r for r in out["tables"]["fibers"] if r["a"] == 0][0]
        assert set(row0) == {"p", "a", "b", "count", "deviation", "normalized_deviation"}
        assert (row0["count"], row0["deviation"], row0["b"]) == (9, 4, "")  # 9 - p^(n-1)
        # a pair row: N(1, 2) of (X0^2+X1^2+X2^2, X0*X1) at p = 7, deviation count - p^(n-2)
        p = 7
        assert run(["fibers", "--F", "X0^2+X1^2+X2^2", "--G", "X0*X1", "--p", str(p),
                    "--a", "1", "--b", "9"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["tables"]["fibers"]
        count = sum((x * x + y * y + z * z) % p == 1 and x * y % p == 2
                    for x, y, z in itertools.product(range(p), repeat=3))
        assert (row["a"], row["b"], row["count"]) == (1, 2, count)
        assert row["deviation"] == count - p
        assert row["normalized_deviation"] == pytest.approx((count - p) / p**0.5)
        assert run(["fibers", "--F", "X0^2+X1^2+X2^2", "--G", "X0*X1", "--p", str(p)]) == 0
        rows = json.loads(capsys.readouterr().out)["tables"]["fibers"]
        assert [(r["a"], r["b"]) for r in rows] == list(itertools.product(range(p), repeat=2))
        assert sum(r["count"] for r in rows) == p**3

    def test_fibers_b_needs_G(self, capsys):
        assert run(["fibers", "--F", "X0^2+X1^2", "--p", "5", "--b", "1"]) == 1
        assert "--b needs --G" in capsys.readouterr().err

    def test_sieve_detect(self, capsys):
        assert run(["sieve-detect", "--h", "T^2", "--primes", "list:3,7",
                    "--n", "9,10"]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = out["tables"]["primes"]
        assert [r["p"] for r in rows] == [3, 7]
        dets = out["tables"]["detectors"]
        assert dets[0]["member"] is True and dets[1]["member"] is False

    def test_sieve_detect_rows_past_int64(self, capsys):
        # one detector call per prime over the whole --n list, 10^30 included
        assert run(["sieve-detect", "--h", "T^2", "--primes", "list:3,7",
                    "--n", "9,10,1000000000000000000000000000000"]) == 0
        dets = json.loads(capsys.readouterr().out)["tables"]["detectors"]
        assert dets == [
            {"D_3": 0.33333333333333337, "D_7": 0.4285714285714286, "member": True, "n": 9},
            {"D_3": 0.33333333333333337, "D_7": -0.5714285714285714, "member": False, "n": 10},
            {"D_3": 0.33333333333333337, "D_7": 0.4285714285714286, "member": True,
             "n": 10**30}]

    def test_boxcount_counts_agree(self, capsys):
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B", "15"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["exact_count"] == out["results"]["sieve_count"]
        assert out["results"]["rejection_ratio"] > 0

    def test_boxcount_tests_membership_once(self, capsys, monkeypatch):
        # the exact and the sieve count come from one membership test of the box values
        calls = []
        real = boxes.in_h_image
        monkeypatch.setattr(boxes, "in_h_image",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "15"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["exact_count"] == res["sieve_count"]
        assert len(calls) == 1

    def test_boxcount_refuses_a_huge_range_before_the_image_walk(self, capsys, monkeypatch):
        # v_max = 9 * 10^13 + 18: the exceptional set's 2 v_max + 1 charge comes first
        monkeypatch.setattr(sieve, "_values_within", lambda *a: pytest.fail("walked f(Z)"))
        assert run(["boxcount", "--f", "T^2", "--F", "10000000000000*X0^2+X1^2+X2^2",
                    "--B", "3"]) == 1
        err = capsys.readouterr().err
        assert "exceptional set of 180000000000037 points exceeds budget" in err

    def test_boxcount_refuses_a_huge_box_before_the_prime_window(self, capsys, monkeypatch):
        # grids 2 * 600001, then the first fold's 300001^2 pairs: refused before
        # select_primes builds the data of the window's primes
        monkeypatch.setattr(commands.sieve, "build_prime_data",
                            lambda *a: pytest.fail("built prime data"))
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "300000"]) == 1
        assert "box histogram of 90001800003 points exceeds budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sieve-detect", "--h", "T^2"],
        ["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "0"],  # a 5-point histogram
    ])
    def test_listed_primes_are_charged_before_their_data(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(commands.sieve, "build_prime_data",
                            lambda *a: pytest.fail("built prime data"))
        assert run(argv + ["--primes", "list:7,20000003", "--budget", "1000"]) == 1
        assert "prime data of 20000010 points exceeds budget 1000" in capsys.readouterr().err
        # primality is checked before the charge
        assert run(argv + ["--primes", "list:9", "--budget", "8"]) == 1
        assert "--primes list entry 9 is not prime" in capsys.readouterr().err

    def test_auto_primes_are_charged_before_their_data(self, capsys, monkeypatch):
        # every prime in (deg h, pmax] is charged its p points before any data is built
        monkeypatch.setattr(commands.sieve, "build_prime_data",
                            lambda *a: pytest.fail("built prime data"))
        argv = ["sieve-detect", "--h", "T^2", "--pmax", "20000", "--budget", "1000"]
        assert run(argv) == 1
        assert capsys.readouterr().err == \
            "error: prime data of 21171189 points exceeds budget 1000\n"
        # the default pmax = 100 charges 3 + 5 + ... + 97 = 1058
        assert run(["sieve-detect", "--h", "T^2", "--budget", "1057"]) == 1
        assert "prime data of 1058 points exceeds budget 1057" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sieve-detect", "--h", "T^2"], ["crt-check"]])
    def test_prime_sieve_is_charged_before_it_is_built(self, argv, capsys, monkeypatch):
        # the pmax + 1 cells of the sieve, in a charge of their own
        monkeypatch.setattr(commands, "_prime_sieve", lambda *a: pytest.fail("listed primes"))
        assert run(argv + ["--pmax", "1000000000"]) == 1
        assert capsys.readouterr().err == \
            "error: prime search of 1000000001 points exceeds budget 100000000\n"

    def test_sieve_check_is_charged_before_its_tables(self, capsys, monkeypatch):
        # d - 1 character tables of p values each, charged before the check runs
        monkeypatch.setattr(commands.sieve, "power_decomposition_check",
                            lambda *a: pytest.fail("ran the check"))
        assert run(["sieve-check", "--d", "10006", "--p", "10007", "--budget", "1000"]) == 1
        assert capsys.readouterr().err == \
            "error: character tables of 100120035 points exceeds budget 1000\n"

    def test_boxcount_auto_primes_use_the_selection_data(self, capsys, monkeypatch):
        # the auto window's prime data come from select_primes, one build per window
        # prime, and are not built again
        argv = ["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X0*X1", "--B", "12"]
        assert run(argv) == 0
        want = strip_timings(json.loads(capsys.readouterr().out))
        built, build = [], commands.sieve.build_prime_data
        monkeypatch.setattr(commands.sieve, "build_prime_data",
                            lambda h, p: built.append(p) or build(h, p))
        assert run(argv) == 0
        assert strip_timings(json.loads(capsys.readouterr().out)) == want
        assert built == primes_in(*want["results"]["window"])

    def test_boxcount_empty_prime_list(self, capsys):
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B", "15", "--primes", "list:"]) == 1
        assert "empty prime list" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sieve-detect", "--h", "T^3", "--primes", "list:5,7"],
        ["boxcount", "--f", "T^3", "--F", "X0^3+X1^3+X2^3", "--B", "10",
         "--primes", "list:7,5"],
    ])
    def test_listed_surjective_prime_is_refused(self, argv, capsys):
        # cubing is onto F_5, so p = 5 detects nothing, as in SieveConfig
        assert run(argv) == 1
        assert "h is onto F_5; p=5 detects nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, want", [
        (["sieve-detect", "--h", "T^2", "--primes", "auto", "--pmax", "40"],
         [p for p in range(3, 41) if all(p % k for k in range(2, p))]),
        (["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "10",
          "--primes", "list:7,11,13"], [7, 11, 13]),
    ])
    def test_prime_data_built_once_per_prime(self, argv, want, capsys, monkeypatch):
        built = []
        build = commands.sieve.build_prime_data

        def counting(h, p):
            built.append(p)
            return build(h, p)

        monkeypatch.setattr(commands.sieve, "build_prime_data", counting)
        assert run(argv) == 0
        assert built == want

    def test_boxcount_threshold_variant(self, capsys):
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B", "15", "--threshold", "logp"]) == 0

    def test_bound_scan(self, capsys):
        assert run(["bound-scan", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B-grid", "5,10"]) == 0

    @pytest.mark.parametrize("grid, message", [("1,5", "B = 1"), ("0", "B = 0"),
                                                ("7,2,-1", "B = -1"), (",", "empty B grid")])
    def test_bound_scan_bad_grid_is_input_error(self, grid, message, capsys):
        assert run(["bound-scan", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    f"--B-grid={grid}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_crt_check_explicit(self, capsys):
        assert run(["crt-check", "--F", "X0^2+X1^2", "--p", "3", "--q", "5",
                    "--u", "1,1"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--u", "1,2", "--p", "5"], "needs --F, --p and --q"),
        (["--u", "1,2", "--q", "5"], "needs --F, --p and --q"),
        (["--draws", "0"], "--draws: must be at least 1, got 0"),
        (["--draws", "-2"], "--draws: must be at least 1, got -2"),
        (["--pmax", "3"], "fewer than two primes up to pmax"),
    ])
    def test_crt_check_input_errors(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr(commands, "_trace_for", lambda *a: pytest.fail("built a table"))
        monkeypatch.setattr(commands, "mult_char", lambda *a: pytest.fail("built a table"))
        assert run(["crt-check", "--F", "X0^2+X1^2", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_crt_check_draws_use_the_trace(self, capsys):
        # each random draw's tables come from --trace, as in the explicit mode
        argv = ["crt-check", "--draws", "4", "--pmax", "31", "--seed", "1"]
        assert run(argv + ["--trace", "psi"]) == 0
        rows = json.loads(capsys.readouterr().out)["tables"]["draws"]
        assert run(argv) == 0
        assert [r["error"] for r in rows] != [
            r["error"] for r in json.loads(capsys.readouterr().out)["tables"]["draws"]]
        for row in rows:
            p, q = row["p"], row["q"]
            psi = [TraceFunction(n, ExtField(n).psi_table, "psi", 1.0)
                   for n in (p, q)]
            u = [int(x) for x in row["u"].split(",")]
            rec = boxes.crt_factor_check(parse_multipoly(row["F"]), u, p, q, *psi, 10**8)
            assert (rec["error"], rec["rel_error"]) == (row["error"], row["rel_error"])

    def test_crt_check_draws_refuse_a_trace_that_does_not_fit(self, capsys):
        # chi of order 3 needs 3 | p - 1, and the first draw at seed 1 has q = 17
        assert run(["crt-check", "--trace", "chi:3:1", "--pmax", "31", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("seed", ["1", "3"])
    def test_crt_check_pmax_past_the_field_cap_is_refused_first(self, seed, capsys,
                                                                monkeypatch):
        monkeypatch.setattr(commands, "_prime_sieve", lambda *a: pytest.fail("listed primes"))
        monkeypatch.setattr(commands, "_trace_for", lambda *a: pytest.fail("built a table"))
        assert run(["crt-check", "--pmax", "2000001", "--seed", seed]) == 1
        assert capsys.readouterr().err == \
            "error: --pmax 2000001 exceeds the field table cap 2000000\n"

    def test_crt_check_pmax_at_the_field_cap_is_accepted(self, capsys, monkeypatch):
        # the cap lets --pmax 2000000 through; its first draw's modulus pq then overflows
        # int64, which is refused before any field or trace table is built
        monkeypatch.setattr(commands, "_trace_for", lambda *a: pytest.fail("built a table"))
        monkeypatch.setattr(commands, "cached_field", lambda *a: pytest.fail("built a field"))
        assert run(["crt-check", "--pmax", "2000000", "--draws", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: products of residues mod ") and "table cap" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        ("--pmax 2000000 --draws 1 --seed 3", "would overflow 64-bit integers"),
        ("--F X0^2+X1^2 --p 1999993 --q 1999957 --u 1,2",
         "products of residues mod 3999900000301 would overflow 64-bit integers"),
        ("--F X0^2+X1^2 --p 1999993 --q 1009 --u 1,2",
         "complete sums of 6053978811 points exceeds budget 100000000"),
    ])
    def test_crt_check_refuses_the_modulus_before_any_table(self, argv, message, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(commands, "_trace_for", lambda *a: pytest.fail("built a table"))
        monkeypatch.setattr(commands, "cached_field", lambda *a: pytest.fail("built a field"))
        assert run(["crt-check", *argv.split()]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        ("klsum --m 2 --p 1999993 --F X0^3+X1^3+X2^3+X0*X1*X2",
         "p^n = 7999916000293999657 fiber counts would overflow 64-bit integers"),
        ("tracesum --trace chi:2:1 --p 1999993 --F X0^3+X1^3+X2^3+X0*X1*X2",
         "fiber counts would overflow 64-bit integers"),
        ("tracesum --trace kl:2 --p 1999993 --F X0^2+X1^2 --G X0",
         "fiber histogram of 7999944000098 points exceeds budget 100000000"),
        ("klsum --m 2 --p 2000003 --F X0*X1",
         "fiber histogram of 4000014000012 points exceeds budget 100000000"),
        ("klsum --m 2 --p 1001 --F X0^2+X1^2", "1001 is not prime"),
        ("tracesum --trace one --p 1001 --F X0^2+X1^2 --G X0", "1001 is not prime"),
    ])
    def test_fiber_sums_refuse_p_before_any_table(self, argv, message, capsys, monkeypatch):
        # klsum and tracesum check p and charge the fiber histogram before F_p's tables
        monkeypatch.setattr(commands, "cached_field", lambda *a: pytest.fail("built a field"))
        monkeypatch.setattr(commands, "_trace_for", lambda *a: pytest.fail("built a table"))
        assert run(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1

    def test_poisson_check(self, capsys):
        assert run(["poisson-check", "--F", "X0^2+X1^2+X2^2", "--p", "3",
                    "--q", "5", "--B", "8", "--cutoff", "6"]) == 0

    @pytest.mark.parametrize("cutoff", ["-1", "-7"])
    def test_poisson_negative_cutoff_refused_at_parse_time(self, cutoff, capsys):
        argv = ["poisson-check", "--F", "X0^2+X1^2", "--p", "3", "--q", "5",
                f"--cutoff={cutoff}"]
        with pytest.raises(ValueError, match=f"--cutoff: must be auto or at least 0, got {cutoff}"):
            cli.parse_config(argv)
        assert run(argv) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_poisson_equal_primes_refused(self, capsys):
        assert run(["poisson-check", "--F", "X0^2+X1^2", "--p", "3", "--q", "3"]) == 1
        assert capsys.readouterr().err == "error: p and q must be distinct\n"


    def test_poisson_check_charges_the_grids_not_the_box(self, capsys):
        # 121^4 box points, but 4 * 121 grid points and three cyclic folds of 143 cells
        assert run(["poisson-check", "--F", "X0^2+X1^2+X2^2+X3^2", "--p", "11", "--q", "13",
                    "--B", "60", "--cutoff", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["u_cutoff"] == 4

    @pytest.mark.parametrize("F, coeffs, d, q", [
        pytest.param("X0^2+X1^2+3*X2^2", [1, 1, 3], 2, 5, id="p-divides-c"),
        pytest.param("X0^3+X1^3+X2^3", [1, 1, 1], 3, 7, id="p-divides-d"),
    ])
    def test_poisson_tally_skips_a_prime_of_bad_reduction(self, F, coeffs, d, q, capsys):
        # the Poisson sums still run at p = 3; only its tally is skipped, not q's
        assert run(["poisson-check", "--F", F, "--p", "3", "--q", str(q), "--trace", "psi",
                    "--B", "4", "--cutoff", "4"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["u_class_tally_mod_3"] == "skipped (bad reduction or d < 2)"
        kinds = varieties.diagonal_u_classes(coeffs, d, list(itertools.product(range(-4, 5),
                                                                               repeat=3)), q)
        assert results[f"u_class_tally_mod_{q}"] == {
            k: int((kinds == k).sum()) for k in ("zero", "good", "bad")}
        assert results["error"] <= results["tail_bound"]

    @pytest.mark.parametrize("F, coeffs, d", [
        ("X0^2+2*X1^2+3*X2^2", [1, 2, 3], 2),
        ("X0^3+X1^3+2*X2^3", [1, 1, 2], 3),
    ])
    def test_poisson_tally_once_per_residue_class(self, F, coeffs, d, capsys,
                                                  monkeypatch):
        # the tally classifies each residue vector by the dual polynomial alone
        monkeypatch.setattr(varieties, "diagonal_witness_degree",
                            lambda *a: pytest.fail("the tally called the witness-degree rule"))
        assert run(["poisson-check", "--F", F, "--p", "5", "--q", "7", "--B", "6",
                    "--cutoff", "10"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        span = range(-8, 9)
        for prime in (5, 7):
            # the per-vector loop over [-8, 8]^3
            expected = {"zero": 0, "good": 0, "bad": 0}
            for u in itertools.product(span, repeat=3):
                expected[diagonal_dual_oracle(coeffs, d, u, prime).kind] += 1
            assert results[f"u_class_tally_mod_{prime}"] == expected

    @settings(max_examples=40, deadline=None)
    @given(tally_cases(), st.sampled_from([1, 7, 300, 2**17]))
    def test_poisson_tally_matches_the_row_classes(self, case, slab):
        # the tally's grid of residues per axis, in slabs of about `slab` points, against
        # every u in [-s, s]^m, row by row; the Poisson sums are stubbed, as only u_cutoff
        # reaches the tally
        m, d, p, q, coeffs, s = case
        F = "+".join(f"{c}*X{i}^{d}" for i, c in enumerate(coeffs)).replace("+-", "-")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boxes, "poisson_compare", lambda *a, **k: {"u_cutoff": s})
            mp.setattr(varieties, "SLAB_POINTS", slab)
            results = cli.run_experiment(cli.parse_config(
                ["poisson-check", f"--F={F}", "--p", str(p), "--q", str(q)])).results
        rows = list(itertools.product(range(-min(s, 8), min(s, 8) + 1), repeat=m))
        for prime in (p, q):
            kinds = varieties.diagonal_u_classes(coeffs, d, rows, prime)
            want = {k: int((kinds == k).sum()) for k in ("zero", "good", "bad")}
            assert results[f"u_class_tally_mod_{prime}"] == want

    def test_poisson_tally_is_charged_before_its_grid(self, monkeypatch, capsys):
        # 6 monomials times 13^6 residue vectors pass the budget: the mod-13 tally is refused
        # before its grid is built, after the mod-11 one ran in slabs (the 13^6 index rows
        # once took 791 MB); the Poisson sums, charged and built before it, are stubbed
        monkeypatch.setattr(boxes, "poisson_compare", lambda *a, **k: {"u_cutoff": 8})
        argv = ["poisson-check", "--F", "X0^2+X1^2+X2^2+X3^2+X4^2+X5^2", "--p", "11",
                "--q", "13", "--B", "2", "--cutoff", "8", "--budget", "20000000"]
        tracemalloc.start()
        try:
            assert run(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert "dual polynomial of 28961046 points exceeds budget 20000000" in err
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("argv", KMAX_ARGVS)
    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_kmax_below_one_is_input_error(self, argv, kmax, capsys):
        # a cap below 1 scans nothing, so "good" or good reduction would be vacuous
        assert run(argv + ["--kmax", kmax]) == 1
        assert f"--kmax: must be at least 1, got {kmax}" in capsys.readouterr().err
        assert run(argv + ["--kmax", "1"]) == 0

    @pytest.mark.parametrize("argv", KMAX_ARGVS)
    @pytest.mark.parametrize("kmax", ["5", "7"])
    def test_kmax_past_the_field_cap_is_input_error(self, argv, kmax, capsys, monkeypatch):
        # F_{p^5} has no tables, so a cap past 4 is refused before any walk
        monkeypatch.setattr(varieties, "_smoothness_walk", lambda *a, **k: pytest.fail("walked"))
        assert run(argv + ["--kmax", kmax]) == 1
        err = capsys.readouterr().err
        assert err == f"error: argument --kmax: must be at most 4, got {kmax}\n"

    def test_proven_singular_form_has_no_good_primes(self, capsys):
        # F = X0 * cubic: 31 and 43 were kept as good reduction, as no walk to F_{p^2}
        # meets its singular points; the Macaulay determinant proves them singular
        F = "3*X0*X2^3+2*X0*X1*X2^2-3*X0*X1^2*X2+2*X0*X1^3+2*X0^2*X2^2+2*X0^3*X2+X0^3*X1"
        assert run(["boxcount", "--f", "T^2", "--F", F, "--B", "40"]) == 1
        assert capsys.readouterr().err.startswith("error: no usable primes in the window [23, 44]")
        assert run(["classify-u", "--F", F + "+X3^4", "--u", "0,0,0,1", "--p", "31"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["class"] == "bad" and "witness" not in results

    @pytest.mark.parametrize("argv", [
        ["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "10", "--primes",
         "list:5,7,5,7"],
        ["sieve-detect", "--h", "T^2", "--primes", "list:3,3"]])
    def test_repeated_list_prime_is_input_error(self, argv, capsys, monkeypatch):
        # a repeated prime would count twice towards the threshold P/(2d)
        built = []
        monkeypatch.setattr(commands.sieve, "build_prime_data", lambda h, p: built.append(p))
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: --primes list entries must be distinct\n"
        assert built == []

    @pytest.mark.parametrize("policy", ["list:4", "list:3,4"])
    def test_prime_list_checked_up_front(self, policy, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(commands.sieve, "build_prime_data",
                            lambda h, p: built.append(p))
        assert run(["sieve-detect", "--h", "T^2", "--primes", policy]) == 1
        assert "--primes list entry 4 is not prime" in capsys.readouterr().err
        assert built == []


# table cells of every kind report_json meets: exact ints (past 2^64 too), bools and
# numpy ints, floats with their special values, strs that need escapes, and the
# values _json_default encodes
_CELLS = st.one_of(
    st.integers(), st.integers(2**64, 2**80), st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 2**32 - 1).map(np.uint32),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]),
    st.floats(allow_nan=False).map(np.float64),
    st.text(max_size=6), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é☃", "\U0001f600"]),
    st.none(), st.complex_numbers(allow_nan=False, max_magnitude=1e6),
    st.tuples(st.integers(), st.text(max_size=2)), st.frozensets(st.integers(-3, 3)),
    st.sets(st.one_of(st.integers(0, 3), st.text(max_size=1)), max_size=3))


@st.composite
def report_tables(draw):
    """0-3 named tables of 0-50 rows and 1-4 columns, each column of one cell
    kind or of any kind; table and column names str, as every report key is."""
    tables = {}
    names = st.text("abz_0123", max_size=3)  # names of CSV files
    for name in draw(st.lists(names, max_size=3)):
        keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
        n = draw(st.integers(0, 50))
        tables[name] = {key: draw(st.lists(draw(st.sampled_from(
            [st.integers(-2**70, 2**70), st.text(max_size=5), st.floats(), st.booleans(),
             _CELLS, st.one_of(st.integers(), st.booleans())])), min_size=n, max_size=n))
            for key in keys}
    return tables


def zipped(tables):
    """Each table's columns as the list of its rows, flat dicts keyed by column."""
    return {name: [dict(zip(columns, row)) for row in zip(*columns.values())]
            for name, columns in tables.items()}


def json_direct(report):
    """The report's JSON by a full walk over its tables as rows."""
    return json.dumps(jsonable({**report.to_dict(), "tables": zipped(report.tables)}),
                      sort_keys=True)


def csv_rows_direct(path, rows):
    """emit_report's CSV written row by row through csv.DictWriter."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})


class TestReports:
    @settings(max_examples=150, deadline=None)
    @given(report_tables(), st.sampled_from([{}, {"a": np.int64(2), "3": (1, 2.5)}]))
    def test_column_encoder_is_the_c_encoder(self, tables, results):
        report = ExperimentReport("demo", {"B": 4}, results, tables=tables,
                                  timings={"total_s": 0.5}, seed=1)
        assert report_json(report) == json_direct(report)
        # the CSVs are the row-by-row DictWriter's, byte for byte
        with tempfile.TemporaryDirectory() as tmp:
            for name, rows in zipped(tables).items():
                if rows:
                    csv_rows_direct(Path(tmp, f"want.{name}.csv"), rows)
            written = emit_report(report, Path(tmp, "r.json"))
            assert len(written) == 1 + sum(1 for rows in zipped(tables).values() if rows)
            for path in written[1:]:
                want = Path(tmp, "want." + path.name.split(".", 1)[1]).read_bytes()
                assert path.read_bytes() == want

    def test_column_encoder_on_the_cubic_exceptional_table(self):
        # 10,209 one-column rows of exact ints, then the same column emptied
        argv = ["boxcount", "--f", "T^2+T", "--F", "X0^3+X1^3+X2^3", "--B", "20"]
        report = cli.run_experiment(cli.parse_config(argv))
        assert len(report.tables["exceptional"]["k"]) == 10209
        text = report_json(report)
        assert text == json_direct(report)
        assert '"tables": {"exceptional": [{"k": ' in text
        report.tables["exceptional"] = {"k": []}
        assert report_json(report) == json_direct(report)

    def test_tables_splice_leaves_the_other_blocks_alone(self):
        # the tables go in between the blocks sorted before and after "tables"
        report = ExperimentReport("demo", {"mark": "\0tables", "tables": '"tables": {}'},
                                  {"tables": [1]}, seed=1, tables={"t": {"k": [1, 2]}},
                                  semi_decisions={"tables": {}}, timings={"tables": 0.5})
        assert report_json(report) == json_direct(report)

    def test_empty_columns_are_an_empty_table_without_csv(self, tmp_path):
        report = ExperimentReport("demo", {}, {}, tables={"e": {"k": [], "v": []}, "none": {},
                                                          "t": {"k": [3], "v": ["x"]}})
        text = report_json(report)
        assert text == json_direct(report)
        assert '"tables": {"e": [], "none": [], "t": [{"k": 3, "v": "x"}]}' in text
        written = emit_report(report, tmp_path / "r.json", text)
        assert [path.name for path in written] == ["r.json", "r.t.csv"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["r.json", "r.t.csv"]
        assert (tmp_path / "r.t.csv").read_bytes() == b"k,v\r\n3,x\r\n"

    @pytest.mark.parametrize("columns", [{"a": [1, 2], "b": [1]}, {"a": [], "b": [0]}])
    def test_columns_of_unequal_length_are_refused(self, columns, tmp_path):
        report = ExperimentReport("demo", {}, {}, tables={"ok": {"k": [1]}, "t": columns})
        with pytest.raises(InvariantViolation, match="table 't' has columns of unequal length"):
            report.validate()
        with pytest.raises(InvariantViolation):
            emit_report(report, tmp_path / "r.json")
        assert not any(tmp_path.iterdir())

    def test_out_path_that_cannot_be_written_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["--out", str(blocker / "r.json"), "klsum", "--m", "2", "--p", "101",
                    "--F", "X0^2+X1^2"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["subcommand"] == "klsum"
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_emit_files_and_csv_rows(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["--out", str(out), "fibers", "--F", "X0^2+X1^2",
                    "--p", "7"]) == 0
        data = load_report(out)
        csv_path = tmp_path / "report.fibers.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) - 1 == len(data["tables"]["fibers"]) == 7

    def test_json_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["--out", str(out), "sieve-check", "--d", "2",
                    "--p", "5"]) == 0
        data = load_report(out)
        assert data["version"] == "0.1.0"
        assert data["subcommand"] == "sieve-check"

    def test_determinism_modulo_timings(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert run(["--out", str(path), "--seed", "5", "crt-check",
                        "--draws", "3", "--pmax", "13"]) == 0
        da, db = strip_timings(load_report(a)), strip_timings(load_report(b))
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_json_encoder_matches_the_walk(self):
        # numpy scalars, complex values, sets, tuples and nested dicts, in the
        # blocks and in table cells; every key is a str, as in every report
        results = {"count": np.int64(7), "ratio": np.float64(0.25), "ok": np.bool_(True),
                   "sum": complex(1.5, -2), "g": np.complex128(3j), "primes": (5, 7),
                   "exc": {3, -1, 0}, "frozen": frozenset({"b", "a"}),
                   "by_p": {"5": "good", "7": (np.int64(1), 2.5)}, "flags": {"True": 1, "False": 0},
                   "nested": [{"1": {"2": np.float64(-0.5)}}], "none": None,
                   "zero_d": np.array(4), "other": range(3)}
        tables = {"rows": {"k": [np.int64(-3), 4], "v": [complex(0, 1), np.float64(1e-300)],
                           "t": [(1, 2), frozenset({2})]}}
        report = ExperimentReport("demo", {"B": np.int64(9), "mode": "lemma"}, results,
                                  tables=tables, timings={"total_s": 0.125},
                                  semi_decisions={"2": "k_max"}, seed=3)
        want = json_direct(report)
        assert json.loads(report_json(report)) == json.loads(want)
        assert report_json(report) == want

    def test_seed_changes_draws(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["--out", str(a), "--seed", "1", "crt-check", "--draws", "3",
             "--pmax", "13"])
        run(["--out", str(b), "--seed", "2", "crt-check", "--draws", "3",
             "--pmax", "13"])
        assert load_report(a)["tables"] != load_report(b)["tables"]

    def test_memory_error_exits_1(self, capsys, monkeypatch):
        def boom(cfg):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setitem(commands._HANDLERS, "sieve-check", boom)
        assert run(["sieve-check", "--d", "2", "--p", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_poisson_box_overflow_exits_1(self, capsys):
        assert run(["poisson-check", "--F", "2305843009213693952*X0^2+X1^2+X2^2",
                    "--p", "3", "--q", "5", "--B", "2", "--cutoff", "2"]) == 1
        assert "overflow" in capsys.readouterr().err

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        def boom(cfg):
            raise InvariantViolation("forced failure")

        monkeypatch.setitem(commands._HANDLERS, "sieve-check", boom)
        assert run(["sieve-check", "--d", "2", "--p", "5"]) == 2
        assert "invariant" in capsys.readouterr().err


class TestProcess:
    @pytest.mark.parametrize("argv", [
        ["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "10",
         "--primes", "list:9,15"],
        ["sieve-detect", "--h", "T^2", "--primes", "list:9"],
        ["fibers", "--F", "X0^2+X1^2", "--p", "221", "--a", "1"],
        ["classify-u", "--F", "X0*X1+X2*X3", "--u", "2,-1,1,3", "--p", "10005"],
    ])
    def test_non_prime_modulus_is_input_error(self, argv):
        # in a child process, so a modulus that never terminates a loop
        # fails on the timeout instead of hanging the suite
        proc = run_child(["-m", "polysieve.cli", *argv])
        assert proc.returncode == 1
        assert "is not prime" in proc.stderr

    @pytest.mark.parametrize("argv, code, wall", [
        # no power B^|e| past 2^62 is built to refuse the box values
        ("boxcount --f T^2 --F X0^100000000+X1^100000000 --B 5", 1, 1.0),
        # the section's powers of each x_i by squaring, reduced mod p
        ("classify-u --p 5 --F X0^3000+X1^3000+X2^3000 --u 1,2,3", 0, 2.0),
        ("mixsum --trace psi --p 7 --F X0^10000+X1^10000+X2^10000 --u 1,2,3", 0, 2.0),
    ])
    def test_large_exponents_are_quick(self, argv, code, wall):
        start = time.perf_counter()
        proc = run_child(["-m", "polysieve.cli", *argv.split()])
        assert time.perf_counter() - start < wall
        assert proc.returncode == code, proc.stderr
        assert code == 0 or "box values would overflow" in proc.stderr

    @pytest.mark.parametrize("argv", ["sieve-detect --h T^2 --pmax 20000000",
                                      "crt-check --pmax 20000000 --draws 1"])
    def test_long_prime_lists_are_quick(self, argv):
        # the primes up to 2*10^7 come from one sieve, then are refused with one error line
        start = time.perf_counter()
        proc = run_child(["-m", "polysieve.cli", *argv.split()])
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("argv, wall, mb", [
        # refused on --pmax before any prime is listed or any field table is built
        ("crt-check --pmax 20000000 --draws 1 --seed 1", 1.0, 45),
        ("crt-check --pmax 20000000 --draws 1 --seed 3", 1.0, 45),
        # the prime data's sum is read from the sieve's array before the primes are listed
        ("sieve-detect --h T^2 --pmax 20000000", 2.0, 75),
    ])
    def test_cold_refusals_are_small(self, argv, wall, mb):
        proc, seconds, peak_mb = cold_run(argv)
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert ("--pmax 20000000 exceeds the field table cap" in proc.stderr
                if argv.startswith("crt") else "prime data of 12272577818050 points" in proc.stderr)
        assert seconds < wall and peak_mb < mb

    @pytest.mark.parametrize("argv, message", [
        # random mode draws from the sieve's array; each draw's modulus pq is refused for
        # int64 overflow or charged before either trace table is built
        ("crt-check --pmax 2000000 --draws 1", "would overflow 64-bit integers"),
        ("crt-check --pmax 2000000 --draws 1 --seed 3", "would overflow 64-bit integers"),
        ("crt-check --F X0^2+X1^2 --p 1999993 --q 1999957 --u 1,2",
         "would overflow 64-bit integers"),
        ("crt-check --F X0^2+X1^2 --p 1999993 --q 1009 --u 1,2",
         "complete sums of 6053978811 points exceeds budget"),
    ])
    def test_crt_check_modulus_refusals_are_small_cold(self, argv, message):
        proc, seconds, peak_mb = cold_run(argv)
        assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr
        assert seconds < 1.0 and peak_mb < 40

    def test_closed_stdout_exits_without_traceback(self):
        # the report (about 200 kB) overflows the pipe buffer, so the child
        # is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "polysieve.cli", "fibers", "--F", "X0^2+X1^2",
             "--p", "2003"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC})
        proc.stdout.close()
        try:
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert code == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_import_leaves_scipy_unloaded(self):
        # neither the package, the parser nor a parse-time refusal loads numpy or a kernel
        heavy = ["scipy", "sympy", "numpy"] + [f"polysieve.{name}" for name in (
            "boxes", "sieve", "varieties", "convolve", "fields", "polynomials", "tracefn",
            "commands")]
        proc = run_child(["-c", "import sys, polysieve, polysieve.cli\n"
                          "loaded = lambda: sorted(set(sys.argv[1:]) & set(sys.modules))\n"
                          "polysieve.cli.build_parser()\n"
                          "print(loaded())\n"
                          "print(polysieve.cli.main(['boxcount', '--f', 'T^2', '--F', 'X0^2+X1^2',"
                          " '--B', '3', '--kmax', '9']), loaded())", *heavy])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "1 []"]
        assert proc.stderr == "error: argument --kmax: must be at most 4, got 9\n"

    def test_runs_without_scipy_or_sympy(self):
        blocked = "import sys; sys.modules['scipy'] = sys.modules['sympy'] = None; "
        proc = run_child(["-c", blocked + "from polysieve import cli; sys.exit(cli.main(["
                          "'poisson-check', '--F', 'X0^2+X1^2+X2^2', '--p', '3', '--q', '5', "
                          "'--cutoff', 'auto']))"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["u_cutoff"] == 68
        demo = Path(__file__).resolve().parents[1] / "demos" / "06_poisson_and_crt.py"
        proc = run_child(["-c", blocked + f"import runpy; runpy.run_path({str(demo)!r})"])
        assert proc.returncode == 0, proc.stderr
