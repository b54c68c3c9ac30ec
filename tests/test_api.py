"""The public API holds only what the program runs.

Every public module-level function and public method in src/polysieve
must be named by some code in src/polysieve (outside __init__.py, whose
re-exports are not uses), perfbench/*.py or tests/test_acceptance.py: as
a name, an attribute, an import, or a dotted string such as a
tracing-hook key.  A demo is not a caller: a capability that only demos
or its own tests reach belongs in the demo or in tests/.

The package exports its names lazily: each is its defining module's own
object, and loads only that module.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polysieve

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polysieve"
EXPORTED = """
    BoxHistogram BoxProblem SmoothWeight bound_ratio_scan box_histogram complete_sum_g
    crt_factor_check exact_count exceptional_set poisson_compare select_primes
    sieve_filtered_count BudgetExceeded InvariantViolation PolyParseError PolysieveError
    ExtField mult_char primes_in MultiPoly UniPoly critical_value_poly parse_multipoly
    parse_unipoly ExperimentReport emit_report report_json SieveConfig SievePrimeData
    build_prime_data detector membership_filter power_decomposition_check power_sieve_rhs
    sieve_bound_eval TraceFunction constant_trace kloosterman pullback_power second_moment
    UClass Witness classify_u diagonal_u_classes diagonal_witness_degree fiber_histogram
    smoothness_scan
""".split()


def _public_definitions():
    """(module, qualified name, name) of every public function and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                continue
            for qualname, item in members:
                if not item.name.startswith("_"):
                    yield path.stem, qualname, item.name


def _names_used():
    """Every identifier that code outside the definitions' own lines refers to."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[\w.]+", node.value):
                used.update(node.value.split("."))
    return used


def test_every_public_name_has_a_caller():
    used = _names_used()
    unused = [f"{module}.{qualname}" for module, qualname, name in _public_definitions()
              if name not in used]
    assert not unused, f"public names that no program code reaches: {unused}"


def test_the_walk_sees_the_package():
    names = {qualname for _, qualname, _ in _public_definitions()}
    assert {"kloosterman", "ExtField.pow", "MultiPoly.eval_field", "report_json"} <= names


def test_lazy_exports_are_their_modules_objects():
    assert sorted(polysieve.__all__) == sorted(EXPORTED) and len(EXPORTED) == 47
    for name in polysieve.__all__:
        obj = getattr(polysieve, name)
        assert obj.__module__.startswith("polysieve.")
        assert obj is getattr(importlib.import_module(obj.__module__), name)
    assert set(polysieve.__all__) <= set(dir(polysieve))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polysieve.no_such_name


def test_an_export_loads_only_its_own_module():
    proc = subprocess.run([sys.executable, "-c", "import sys, polysieve; polysieve.kloosterman; "
                           "print(sorted(m for m in sys.modules if m.startswith('polysieve.')))"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['polysieve.tracefn']"
