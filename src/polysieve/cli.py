"""Command-line front end.

Subcommands: klsum, tracesum, mixsum, sieve-check, sieve-detect,
classify-u, fibers, boxcount, bound-scan, poisson-check, crt-check.
Exit codes: 0 success, 1 input error, 2 invariant violation.
Reports are printed as JSON and optionally written with per-table CSVs.
The handlers live in polysieve.commands, which loads numpy and the kernels
on the first request; --help and argument errors need neither.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

from .errors import DEFAULT_BUDGET, EXT_DEGREE_CAP, InvariantViolation, PolysieveError
from .reports import emit_report, report_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise ValueError(message)


@dataclass
class RunConfig:
    subcommand: str
    options: dict
    seed: int
    budget: int
    out: str | None


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _ext_degree(text):  # --kmax: the walk builds F_{p^j} up to the field cap only
    if int(text) > EXT_DEGREE_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {EXT_DEGREE_CAP}, got {text}")
    return _positive_int(text)


def _cutoff(text):
    if text != "auto" and int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be auto or at least 0, got {text}")
    return None if text == "auto" else int(text)


def build_parser():
    parser = _Parser(prog="polysieve", description=__doc__)
    parser.add_argument("--out", help="write report JSON (+ CSV tables) here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max polynomial evaluations per scan")
    # the shared flags are also accepted after the subcommand
    common = _Parser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("klsum", parents=[common])
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--dump-table", dest="dump_table",
                    help="write the trace table as CSV rows a, re, im")

    sp = sub.add_parser("tracesum", parents=[common])
    sp.add_argument("--trace", required=True, help="kl:<m> | chi:<r>:<j> | psi | one")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--G", help="restrict the sum to the zero set of this form")
    sp.add_argument("--dump-table", dest="dump_table",
                    help="write the trace table as CSV rows a, re, im")

    sp = sub.add_parser("mixsum", parents=[common])
    sp.add_argument("--trace", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True)
    twist = sp.add_mutually_exclusive_group()
    twist.add_argument("--u", help="comma-separated frequency vector")
    twist.add_argument("--G", help="additive-twist polynomial")
    sp.add_argument("--kmax", type=_ext_degree, default=2)

    sp = sub.add_parser("sieve-check", parents=[common])
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("sieve-detect", parents=[common])
    sp.add_argument("--h", required=True, help="polynomial in T")
    sp.add_argument("--primes", default="auto", help="auto | list:p1,p2,...")
    sp.add_argument("--pmax", type=int, default=100)
    sp.add_argument("--n", help="integers to evaluate the detector at")

    sp = sub.add_parser("classify-u", parents=[common])
    sp.add_argument("--F", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--kmax", type=_ext_degree, default=2)

    sp = sub.add_parser("fibers", parents=[common])
    sp.add_argument("--F", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--G")
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)

    sp = sub.add_parser("boxcount", parents=[common])
    sp.add_argument("--f", required=True, help="polynomial in T")
    sp.add_argument("--F", required=True)
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--primes", default="auto")
    sp.add_argument("--kmax", type=_ext_degree, default=2)
    sp.add_argument("--threshold", choices=("lemma", "logp"), default="lemma")

    sp = sub.add_parser("bound-scan", parents=[common])
    sp.add_argument("--f", required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--B-grid", dest="B_grid", required=True,
                    help="comma-separated box radii")

    sp = sub.add_parser("poisson-check", parents=[common])
    sp.add_argument("--F", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--B", type=int, default=10)
    sp.add_argument("--cutoff", type=_cutoff, default=8,
                    help="window radius, or auto: grow it until the tail bound is small")
    sp.add_argument("--trace", default="chi:2:1")

    sp = sub.add_parser("crt-check", parents=[common])
    sp.add_argument("--F")
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--u")
    sp.add_argument("--trace", default="chi:2:1")
    sp.add_argument("--draws", type=_positive_int, default=50)
    sp.add_argument("--pmax", type=int, default=31)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser shared by every parse_config call in this process.

    Reuse is safe because no argument appends to a list or has a mutable
    default: parse_args fills a fresh namespace on every call.
    """
    return build_parser()


def parse_config(argv):
    ns = vars(_parser().parse_args(argv))
    budget = ns.pop("budget")
    if budget <= 0:
        raise ValueError("budget must be positive")
    return RunConfig(subcommand=ns.pop("subcommand"), seed=ns.pop("seed"),
                     budget=budget, out=ns.pop("out"), options=ns)


def run_experiment(config):
    from .commands import _HANDLERS  # the kernels load on the first request, not at import
    start = time.perf_counter()
    report = _HANDLERS[config.subcommand](config)
    report.timings["total_s"] = time.perf_counter() - start
    report.validate()
    return report


def main(argv=None):
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
        report = run_experiment(config)
        text = report_json(report)
        print(text)
        if config.out:
            emit_report(report, config.out, text)
        return 0
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; send the rest to devnull so the flush
        # at interpreter exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError, PolysieveError, OSError) as exc:  # OSError: --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
