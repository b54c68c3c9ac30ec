import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polysieve
from polysieve import cli, varieties
from polysieve.errors import InvariantViolation
from polysieve.reports import load_report, strip_timings

SRC = str(Path(polysieve.__file__).resolve().parents[1])


def run(argv):
    return cli.main(argv)


def run_child(args):
    """Run python with `args` in a fresh interpreter that imports ./src."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


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


class TestSubcommands:
    def test_sieve_check_ok(self, capsys):
        assert run(["sieve-check", "--d", "3", "--p", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["max_error"] <= 1e-9

    def test_sieve_check_bad_divisor(self, capsys):
        assert run(["sieve-check", "--d", "3", "--p", "5"]) == 1

    def test_klsum_report(self, capsys):
        assert run(["klsum", "--m", "2", "--p", "13",
                    "--F", "X1^3+X2^3+X3^3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["n_vars"] == 3
        assert out["results"]["ratio_half_power"] <= 10

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

    def test_classify_u_agrees_with_oracle(self, capsys):
        assert run(["classify-u", "--F", "X0^2+X1^2+X2^2", "--u", "1,2,0",
                    "--p", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["class"] == "bad"
        assert out["results"]["diagonal_oracle"] == "bad"

    def test_fibers_table(self, capsys):
        assert run(["fibers", "--F", "X0^2+X1^2", "--p", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["tables"]["fibers"]) == 5
        row0 = [r for r in out["tables"]["fibers"] if r["a"] == 0][0]
        assert row0["count"] == 9

    def test_sieve_detect(self, capsys):
        assert run(["sieve-detect", "--h", "T^2", "--primes", "list:3,7",
                    "--n", "9,10"]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = out["tables"]["primes"]
        assert [r["p"] for r in rows] == [3, 7]
        dets = out["tables"]["detectors"]
        assert dets[0]["member"] is True and dets[1]["member"] is False

    def test_boxcount_counts_agree(self, capsys):
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B", "15"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["exact_count"] == out["results"]["sieve_count"]
        assert out["results"]["rejection_ratio"] > 0

    def test_boxcount_empty_prime_list(self, capsys):
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B", "15", "--primes", "list:"]) == 1
        assert "empty prime list" in capsys.readouterr().err

    def test_boxcount_threshold_variant(self, capsys):
        assert run(["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B", "15", "--threshold", "logp"]) == 0

    def test_bound_scan(self, capsys):
        assert run(["bound-scan", "--f", "T^2", "--F", "X0^2+X1^2+X2^2",
                    "--B-grid", "5,10"]) == 0

    def test_crt_check_explicit(self, capsys):
        assert run(["crt-check", "--F", "X0^2+X1^2", "--p", "3", "--q", "5",
                    "--u", "1,1"]) == 0

    def test_poisson_check(self, capsys):
        assert run(["poisson-check", "--F", "X0^2+X1^2+X2^2", "--p", "3",
                    "--q", "5", "--B", "8", "--cutoff", "6"]) == 0


    @pytest.mark.parametrize("F, coeffs, d", [
        ("X0^2+2*X1^2+3*X2^2", [1, 2, 3], 2),
        ("X0^3+X1^3+2*X2^3", [1, 1, 2], 3),
    ])
    def test_poisson_tally_once_per_residue_class(self, F, coeffs, d, capsys,
                                                  monkeypatch):
        oracle = varieties.diagonal_dual_oracle
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(varieties, "diagonal_dual_oracle", counted)
        assert run(["poisson-check", "--F", F, "--p", "5", "--q", "7", "--B", "6",
                    "--cutoff", "10"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        span = range(-8, 9)
        for prime in (5, 7):
            # the per-vector loop over [-8, 8]^3
            expected = {"zero": 0, "good": 0, "bad": 0}
            for u in itertools.product(span, repeat=3):
                expected[oracle(coeffs, d, u, prime).kind] += 1
            assert results[f"u_class_tally_mod_{prime}"] == expected
        # one call per projective class of u mod p, the zero class included
        assert len(calls) == (1 + 5 + 25 + 1) + (1 + 7 + 49 + 1)

    @pytest.mark.parametrize("policy", ["list:4", "list:3,4"])
    def test_prime_list_checked_up_front(self, policy, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli.sieve, "build_prime_data",
                            lambda h, p: built.append(p))
        assert run(["sieve-detect", "--h", "T^2", "--primes", policy]) == 1
        assert "--primes list entry 4 is not prime" in capsys.readouterr().err
        assert built == []


class TestReports:
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

        monkeypatch.setitem(cli._HANDLERS, "sieve-check", boom)
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

        monkeypatch.setitem(cli._HANDLERS, "sieve-check", boom)
        assert run(["sieve-check", "--d", "2", "--p", "5"]) == 2
        assert "invariant" in capsys.readouterr().err


class TestProcess:
    @pytest.mark.parametrize("argv", [
        ["boxcount", "--f", "T^2", "--F", "X0^2+X1^2+X2^2", "--B", "10",
         "--primes", "list:9,15"],
        ["sieve-detect", "--h", "T^2", "--primes", "list:9"],
        ["fibers", "--F", "X0^2+X1^2", "--p", "221", "--a", "1"],
    ])
    def test_non_prime_modulus_is_input_error(self, argv):
        # in a child process, so a modulus that never terminates a loop
        # fails on the timeout instead of hanging the suite
        proc = run_child(["-m", "polysieve.cli", *argv])
        assert proc.returncode == 1
        assert "is not prime" in proc.stderr

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
        proc = run_child(["-c", "import sys, polysieve; print('scipy' in sys.modules)"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
