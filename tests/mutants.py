"""A catalogue of mutations of the package that the tests must catch.

Each entry of MUTANTS names a file of the repository, the exact text a
mutation replaces there, which occurs exactly once, its replacement, and
the ids of the tests that must fail on the mutant: a test function or
class, without parameters, which fails where any of its cases fails.
tests/test_mutants.py checks in tier-1 that every text still occurs once
and that every named test exists, so the catalogue cannot rot silently.
A change to a catalogued line, or a rename of a catalogued test, updates
its entry.

From the repository root,

    python -m tests.mutants

copies src/, tests/ and pyproject.toml into a temporary directory for each
entry, applies the entry there, runs its tests with pytest and reports
each mutant that survives, that is, whose named tests do not all fail.
The exit status is 1 if any survives.  It is not part of tier-1: it runs
pytest once per entry.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    what: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


RATFUNC = "src/quiver_dt/ratfunc.py"

MUTANTS: List[Mutant] = [
    Mutant("laurent_sum returns the unreduced sum", RATFUNC,
           "return Laurent(_ip_unpack(sign * total, base, width)).over(den)",
           "return Laurent(_ip_unpack(sign * total, base, width), den)",
           ("tests/test_ratfunc.py::"
            "test_laurent_sum_matches_term_by_term_products",
            "tests/test_properties.py::"
            "test_miller_matches_the_star_powers_with_a_commutation_form",
            "tests/test_wallcross.py::test_transform_work_on_kronecker_pm_plus")),
    Mutant("Laurent.over without its gcd", RATFUNC,
           "g = _int_gcd(k, *self.poly.values())", "g = 1",
           ("tests/test_ratfunc.py::"
            "test_laurent_sum_matches_term_by_term_products",
            "tests/test_wallcross.py::test_transform_work_on_kronecker_pm_plus")),
    Mutant("the transform's integrality check accepts any den",
           "src/quiver_dt/wallcross.py",
           "if num.den != 1:", "if num.den < 1:",
           ("tests/test_wallcross.py::"
            "test_transform_refusal_prints_the_slope_value_as_a_fraction",
            "tests/test_wallcross.py::"
            "test_transform_refuses_a_self_dual_table_not_from_a_stack_element")),
    Mutant("RatFunc._read without its memo lookup", RATFUNC,
           "got = at.get(point)", "got = None",
           ("tests/test_ratfunc.py::"
            "test_a_fresh_read_sweeps_each_polynomial_at_most_once",
            "tests/test_invariants.py::"
            "test_a_warm_round_reads_every_finished_scalar_off_its_engine",
            "tests/test_invariants.py::"
            "test_each_dtmot_keeps_what_a_fresh_copy_reads")),
    Mutant("_at_point without the division by powers of v", RATFUNC,
           "c[i] //= w", "c[i] *= 1",
           ("tests/test_ratfunc.py::"
            "test_at_point_counts_each_factor_and_reads_the_rest",
            "tests/test_ratfunc.py::"
            "test_points_on_the_integer_form_match_fraction_arithmetic")),
    Mutant("_series takes the recurrence where a twist is nonzero",
           "src/quiver_dt/invariants.py",
           "if any([step[3] for step in steps]):", "if False:",
           ("tests/test_golden.py::test_cli_outputs_match_golden_digests",
            "tests/test_properties.py::"
            "test_miller_matches_the_star_powers_with_a_commutation_form")),
    Mutant("set_calibration keeps the engines of the old calibration",
           "src/quiver_dt/quiver.py",
           "self.engine_cache.clear()", "pass",
           ("tests/test_invariants.py::"
            "test_a_new_calibration_empties_the_engine_cache",
            "tests/test_invariants.py::"
            "test_new_calibration_is_not_served_from_the_cache")),
]


def defined_tests(path: Path) -> set:
    """The names of the module-level functions and classes of the test
    module at path."""
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")
                                            ).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def mutated(root: Path, m: Mutant) -> str:
    """The text of m's file under root with m applied; ValueError unless
    m's text occurs there exactly once."""
    text = (root / m.path).read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise ValueError(f"{m.path}: {m.old!r} occurs {text.count(m.old)} "
                         "times, not once")
    return text.replace(m.old, m.new)


def failed_ids(root: Path, tests: Tuple[str, ...]) -> Tuple[int, set]:
    """pytest's exit code on the tests under root, and the node ids it
    reports failed or in error."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *tests], cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1"))
    return run.returncode, set(re.findall(r"^(?:FAILED|ERROR) (\S+)",
                                          run.stdout, re.M))


def survivors(root: Path = ROOT) -> List[str]:
    """A line for each mutant of the catalogue that survives its tests."""
    out = []
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            for part in ("src", "tests"):
                shutil.copytree(root / part, copy / part,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis"))
            shutil.copy(root / "pyproject.toml", copy)
            (copy / m.path).write_text(mutated(root, m), encoding="utf-8")
            code, failed = failed_ids(copy, m.tests)
        passed = [t for t in m.tests if not any(
            f == t or f.startswith((t + "[", t + "::")) for f in failed)]
        if code not in (0, 1):
            out.append(f"{m.what}: pytest exited {code}")
        elif passed:
            out.append(f"{m.what}: survives {', '.join(passed)}")
        print(f"{'killed' if code == 1 and not passed else 'SURVIVED'}: "
              f"{m.what}", flush=True)
    return out


if __name__ == "__main__":
    left = survivors()
    for line in left:
        print(line)
    sys.exit(1 if left else 0)
