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
A run that takes longer than TIMEOUT seconds is stopped and reported as
timed out; its tests did not pass, so the mutant counts as killed.  The
exit status is 1 if any survives.  It is not part of tier-1: it runs
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
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

# Seconds a mutant's pytest run may take; past it the run is stopped and the
# mutant counts as killed, so a mutant that loops cannot hang the catalogue.
TIMEOUT = 300


class Mutant(NamedTuple):
    what: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


RATFUNC = "src/quiver_dt/ratfunc.py"
INVARIANTS = "src/quiver_dt/invariants.py"
WALLCROSS = "src/quiver_dt/wallcross.py"
ORACLE = "src/quiver_dt/oracle.py"
QUIVER = "src/quiver_dt/quiver.py"
CLI = "src/quiver_dt/cli.py"

# The tests that fail where a triple check of verify_calibration is lost.
TRIPLES = ("tests/test_properties.py::"
           "test_a_form_broken_only_on_triples_fails_as_the_loop",
           "tests/test_oracle.py::"
           "test_tabulated_verification_reports_each_broken_check_as_the_loop")

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
    Mutant("the transform's integrality check accepts any den", WALLCROSS,
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
    Mutant("_series takes the recurrence where a twist is nonzero", INVARIANTS,
           "if any([step[3] for step in steps]):", "if False:",
           ("tests/test_golden.py::test_cli_outputs_match_golden_digests",
            "tests/test_properties.py::"
            "test_miller_matches_the_star_powers_with_a_commutation_form")),
    Mutant("set_calibration keeps the engines of the old calibration",
           QUIVER, "self.engine_cache.clear()", "pass",
           ("tests/test_invariants.py::"
            "test_a_new_calibration_empties_the_engine_cache",
            "tests/test_invariants.py::"
            "test_new_calibration_is_not_served_from_the_cache",
            "tests/test_properties.py::TestCacheCoherence")),
    Mutant("_sd_action accepts a twist that is not an integer", INVARIANTS,
           "if type(tw) is not int:", "if False:",
           ("tests/test_invariants.py::"
            "test_a_half_integral_twist_is_a_calibration_error",)),
    Mutant("_hall_sum returns a lone unit unnegated for sign -1", INVARIANTS,
           "return only if sign == 1 else Laurent(",
           "return only if True else Laurent(",
           ("tests/test_golden.py::test_cli_outputs_match_golden_digests",
            "tests/test_properties.py::"
            "test_hall_sums_are_the_reference_product_and_action")),
    Mutant("a mirrored crossing reads the values below 0 too", WALLCROSS,
           "if e and not (mirror and value(a)[0] < 0)", "if e",
           ("tests/test_wallcross.py::"
            "test_transform_work_on_kronecker_pm_plus",)),
    Mutant("the heuristic gcd accepts its first candidate unverified",
           RATFUNC, "if a is not None:", "if True:",
           ("tests/test_ratfunc.py::test_cancel_divides_by_the_euclid_gcd",
            "tests/test_ratfunc.py::"
            "test_cancel_widens_past_a_candidate_that_divides_neither")),
    Mutant("RatFunc._read sweeps num at a root of den", RATFUNC,
           "if md or not self._num", "if not self._num",
           ("tests/test_ratfunc.py::"
            "test_a_fresh_read_sweeps_each_polynomial_at_most_once",)),
    Mutant("a seeded engine mirrors", INVARIANTS,
           "self.mirrors = self.self_dual and seed is None",
           "self.mirrors = self.self_dual",
           ("tests/test_invariants.py::"
            "test_seeded_engine_refuses_a_class_beyond_its_bound",
            "tests/test_invariants.py::"
            "test_non_self_dual_and_seeded_engines_compute_both_halves",
            "tests/test_wallcross.py::"
            "test_transform_of_a_table_that_is_not_dual_symmetric",
            "tests/test_wallcross.py::"
            "test_seeded_engine_computes_both_halves")),
    Mutant("_ray_of takes a bool weight as an int", INVARIANTS,
           "if type(w) is bool or not isinstance(w, (int, Fraction)):",
           "if not isinstance(w, (int, Fraction)):",
           ("tests/test_invariants.py::"
            "test_slope_weight_that_is_not_rational_is_refused",)),
    Mutant("_ip_pow squares only while k > 2", RATFUNC,
           "(_ip_mul(p, p) if k > 1 else p)",
           "(_ip_mul(p, p) if k > 2 else p)",
           ("tests/test_ratfunc.py::"
            "test_gcd_and_power_content_normalization",)),
    Mutant("eval_at multiplies by u**-shift and divides by u**shift",
           RATFUNC, "hn * u ** max(sh, 0) * v", "hn * u ** max(-sh, 0) * v",
           ("tests/test_ratfunc.py::"
            "test_points_on_the_integer_form_match_fraction_arithmetic",
            "tests/test_golden.py::test_cli_outputs_match_golden_digests")),
    Mutant("_primitive leaves the content in", RATFUNC,
           "c = _int_gcd(*p.values())", "c = 1",
           ("tests/test_ratfunc.py::test_field_laws_match_oracle",
            "tests/test_ratfunc.py::test_serialization_round_trip",
            "tests/test_golden.py::test_canonical_fields_match_golden_digests")),
    Mutant("_json_text writes a list subclass", INVARIANTS,
           "if t is list:", "if isinstance(obj, list):",
           ("tests/test_invariants.py::test_json_text_refuses_other_types",)),
    Mutant("read_weight expands any decimal exponent", QUIVER,
           "huge = bool(form and limit and abs(int(form[2])) > limit)",
           "huge = False",
           ("tests/test_cli.py::"
            "test_slope_weight_with_a_long_exponent_is_read_without_expanding_it",
            "tests/test_error_paths.py::"
            "test_library_refuses_a_long_exponent_without_expanding_it")),
    Mutant("Slope.from_dict reads a weight by a bare Fraction", QUIVER,
           "read_weight(\n"
           "                val, f\"slope weight of vertex {key}\")",
           "Fraction(val)",
           ("tests/test_error_paths.py::test_library_refusals",
            "tests/test_error_paths.py::"
            "test_library_refuses_a_long_exponent_without_expanding_it")),
    Mutant("_binary reads any other operand through Fraction", RATFUNC,
           "if isinstance(o, (int, Fraction)):\n            o = RatFunc(o)",
           "if not isinstance(o, RatFunc):\n"
           "            o = RatFunc(Fraction(o))",
           ("tests/test_ratfunc.py::test_numbers_are_ints_or_fractions",
            "tests/test_ratfunc.py::"
            "test_unsupported_operands_raise_type_error")),
    Mutant("verify_calibration skips every triple check", ORACLE,
           "if additive == split and moved == acted:", "if True:", TRIPLES),
    Mutant("the bilinearity walk reads the first b's slice for every b",
           ORACLE, "(additive[k:k + n], split[k:k + n],",
           "(additive[:n], split[:n],", TRIPLES),
    Mutant("the associativity walk reads the first b's slice for every b",
           ORACLE, "(moved[l:l + m], acted[l:l + m],",
           "(moved[:m], acted[:m],", TRIPLES),
    Mutant("verify_calibration completes b + th with b, not dual(b)",
           ORACLE, "pair = vadd(b, quiver.dual_vector(b))",
           "pair = vadd(b, b)", TRIPLES),
    Mutant("the region entry is computed whatever the membership bit",
           INVARIANTS, "_box_steps(p).values(), -1) if key[1] else None)",
           "_box_steps(p).values(), -1) if True else None)",
           ("tests/test_golden.py::test_cli_outputs_match_golden_digests",
            "tests/test_invariants.py::test_table_computes_each_region_once",
            "tests/test_properties.py::"
            "test_engine_values_are_the_fraction_rule_as_reduced_pairs")),
    Mutant("_involution without its involutive check", QUIVER,
           "if image[y] != x:", "if False:",
           ("tests/test_error_paths.py::test_bad_quiver_files_are_refused",)),
    Mutant("_signs accepts any int", QUIVER,
           "if type(val) is not int or val not in (1, -1):",
           "if type(val) is not int:",
           ("tests/test_error_paths.py::test_bad_quiver_files_are_refused",)),
    Mutant("read_weight without its bool/float refusal", QUIVER,
           "if isinstance(value, (bool, float)):", "if False:",
           ("tests/test_error_paths.py::test_library_refusals",)),
    Mutant("_table reads a falsy value as absent", QUIVER,
           "out = kind() if data.get(key) is None else data[key]",
           "out = data.get(key) or kind()",
           ("tests/test_error_paths.py::test_bad_quiver_files_are_refused",)),
    Mutant("from_data reads the edges as any iterable", QUIVER,
           'for row in _table(data, "edges", list, "a list of rows"):',
           'for row in list(data.get("edges") or []):',
           ("tests/test_error_paths.py::test_bad_quiver_files_are_refused",)),
    Mutant("read_bound takes a bool as an int", QUIVER,
           "if type(bound) is not int:", "if not isinstance(bound, int):",
           ("tests/test_error_paths.py::test_library_refusals",)),
    Mutant("_verify_attached restores only on CalibrationError", ORACLE,
           "except BaseException:", "except CalibrationError:",
           ("tests/test_oracle.py::"
            "test_a_check_that_raises_anything_leaves_the_earlier_calibration",)),
    Mutant("cli.main lets a MemoryError through", CLI,
           'return _fail("out of memory", EXIT_VALIDATION)', "raise",
           ("tests/test_cli.py::"
            "test_running_out_of_memory_is_one_error_line_and_exit_1",)),
    Mutant("engine keeps its quiver strongly", INVARIANTS,
           "self._quiver = weakref.ref(quiver)",
           "self._quiver = lambda: quiver",
           ("tests/test_invariants.py::"
            "test_a_quivers_engines_go_with_it_by_reference_counting",)),
    # The memo as it was before _ExpMemo: each function reaches itself
    # through its closure, a cycle that holds the source engine.
    Mutant("exp memo by self-referential closures", WALLCROSS,
           "weight = _ExpMemo(source._steps, y).weight",
           "from functools import cache\n"
           "    read = lambda a: y.get(a, _ZERO)  # noqa: E731\n\n"
           "    @cache\n"
           "    def powers(g):\n"
           "        return _star_powers(g, source._steps(g), read, powers)\n\n"
           "    @cache\n"
           "    def weight(g, c):\n"
           "        return _series(g, source._steps(g), read, c,\n"
           "                       lambda p: weight(p, c), _EXP, powers)",
           ("tests/test_invariants.py::"
            "test_a_quivers_engines_go_with_it_by_reference_counting",)),
    Mutant("diff_tables without its quiver check", WALLCROSS,
           "if got.quiver is not want.quiver:", "if False:",
           ("tests/test_error_paths.py::test_library_refusals",)),
    Mutant("_ray_of without its weight-count check", INVARIANTS,
           "if n != m:", "if False:",
           ("tests/test_error_paths.py::test_library_refusals",
            "tests/test_invariants.py::"
            "test_slope_of_the_wrong_length_is_rejected")),
    Mutant("slope_values without read_bound", INVARIANTS,
           "read_bound(bound)\n    value, c = _engine(quiver, slope).value",
           "value, c = _engine(quiver, slope).value",
           ("tests/test_error_paths.py::test_library_refusals",)),
    Mutant("_chain_sum twists by the reversed commutation form", INVARIANTS,
           "return _hall_sum(steps, tab.get, x, quiver.commutation_exponent,",
           "return _hall_sum(steps, tab.get, x,\n"
           "                     lambda a, b: quiver.commutation_exponent(b, a),",
           ("tests/test_counting.py::"
            "test_kronecker_semistable_integrals_are_finite_field_counts",)),
    Mutant("a mirrored memo computes at every class", INVARIANTS,
           "v = memo[a] = method(self, a) if b == a else memoised(self, b)",
           "v = memo[a] = method(self, a)",
           ("tests/test_invariants.py::"
            "test_self_dual_engine_computes_one_class_per_duality_pair",
            "tests/test_invariants.py::"
            "test_seeded_engine_mirrors_the_numerators_of_a_genuine_table")),
    Mutant("_sd_action twists by -tw", INVARIANTS,
           "        return tw\n", "        return -tw\n",
           ("tests/test_counting.py::test_kronecker_sd_semistable_"
            "integrals_are_finite_field_counts",)),
]


def defined_tests(path: Path) -> set:
    """The names of the module-level functions and classes of the test
    module at path, and the names it assigns, such as a state machine's
    TestCase."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def mutated(root: Path, m: Mutant) -> str:
    """The text of m's file under root with m applied; ValueError unless
    m's text occurs there exactly once."""
    text = (root / m.path).read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise ValueError(f"{m.path}: {m.old!r} occurs {text.count(m.old)} "
                         "times, not once")
    return text.replace(m.old, m.new)


def failed_ids(root: Path, tests: Tuple[str, ...]) -> Tuple[Optional[int],
                                                            set]:
    """pytest's exit code on the tests under root, and the node ids it
    reports failed or in error; (None, set()) if it runs past TIMEOUT
    seconds, when it is stopped."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
             "no:cacheprovider", *tests], cwd=root, capture_output=True,
            text=True, timeout=TIMEOUT,
            env=dict(os.environ, PYTHONPATH="src",
                     PYTHONDONTWRITEBYTECODE="1"))
    except subprocess.TimeoutExpired:
        return None, set()
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
        if code is None:
            # its tests did not pass, so it is killed
            print(f"timed out: {m.what}", flush=True)
            continue
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
