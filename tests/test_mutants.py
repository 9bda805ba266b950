"""The mutation catalogue, tests/mutants.py, applies to the current source.
Running its mutants (python -m tests.mutants) is not part of tier-1."""

from mutants import MUTANTS, ROOT, defined_tests, mutated


def test_the_mutation_catalogue_applies_to_the_current_source():
    """Each replaced text occurs exactly once in its file (mutated raises
    ValueError otherwise), and each named test is a function or class of
    its test module, named without parameters."""
    for m in MUTANTS:
        assert mutated(ROOT, m) != (ROOT / m.path).read_text(encoding="utf-8")
        for test in m.tests:
            path, name = test.split("::")
            assert "[" not in name, test
            assert name in defined_tests(ROOT / path), test
