"""The engine's semistable integrals against representations counted over
finite fields (tests/counting.py): J(a) q^-chi(a, a) has even exponents
only, and at q^2 = L it is #R_a^ss(F_L) / |GL_a(F_L)|; on the self-dual
side the same for J_sd(theta) and the self-dual representations, at odd
L."""

from pathlib import Path

import pytest

from counting import at_q_squared, sd_semistable_count, semistable_count
from quiver_dt import cli
from quiver_dt.invariants import sd_semistable_integral, semistable_integral
from quiver_dt.quiver import Slope, point_quiver
from quiver_dt.ratfunc import RatFunc

FIXTURES = Path(cli.__file__).parent / "fixtures"


def assert_counts_match(q, slope, cases):
    """For each (class, L) of cases, the engine's J against the count."""
    for a, field in cases:
        chi = q.dim_aut(a) - q.dim_rep(a)
        j = semistable_integral(q, slope, a) * RatFunc.q_power(-chi)
        got = at_q_squared(j, field)
        assert got is not None, (a, j)
        assert got == semistable_count(q, slope, a, field), (a, field)


@pytest.mark.parametrize("weights", [{}, {"i": 1, "j": -1},
                                     {"i": -1, "j": 1}])
def test_kronecker_semistable_integrals_are_finite_field_counts(weights):
    """kronecker_pm_plus: every class with entries at most 2 over F_2, and
    every class of total at most 3 over F_3."""
    q = cli.load_quiver(str(FIXTURES / "kronecker_pm_plus.json"))
    cases = [((x, y), 2) for x in range(3) for y in range(3) if x or y]
    cases += [(a, 3) for a in q.dim_vectors_up_to(3)]
    assert_counts_match(q, Slope.from_dict(q, weights), cases)


@pytest.mark.parametrize("sign", [1, -1])
def test_point_semistable_integrals_are_finite_field_counts(sign):
    """A point has one representation of each class, semistable: J(n) is
    q^chi / |GL_n| at q^2 = L."""
    q = point_quiver(sign)
    assert_counts_match(q, Slope.trivial(q),
                        [((n,), field) for n in (1, 2, 3) for field in (2, 3)])


def assert_sd_counts_match(q, slope, cases):
    """For each (self-dual class, odd L) of cases, the engine's J_sd against
    the count of self-dual representations."""
    for th, field in cases:
        chi = q.sd_dim_aut(th) - q.sd_dim_rep(th)
        j = sd_semistable_integral(q, slope, th) * RatFunc.q_power(-chi)
        got = at_q_squared(j, field)
        assert got is not None, (th, j)
        assert got == sd_semistable_count(q, slope, th, field), (th, field)


KRONECKER = sorted(FIXTURES.glob("kronecker_*.json"))


@pytest.mark.parametrize("path", KRONECKER, ids=[p.stem for p in KRONECKER])
@pytest.mark.parametrize("weights", [{}, {"i": 1, "j": -1},
                                     {"i": -1, "j": 1}])
def test_kronecker_sd_semistable_integrals_are_finite_field_counts(path,
                                                                   weights):
    """Each Kronecker fixture: (1, 1) over F_3 and F_5, (2, 2) over F_3,
    one symmetric or alternating matrix per fixed edge."""
    q = cli.load_quiver(str(path))
    assert_sd_counts_match(q, Slope.from_dict(q, weights),
                           [((1, 1), 3), ((1, 1), 5), ((2, 2), 3)])


@pytest.mark.parametrize("sign", [1, -1])
def test_point_sd_semistable_integrals_are_finite_field_counts(sign):
    """A point of sign +1 (-1) carries the nondegenerate symmetric
    (alternating) forms on F_L^n, for n <= 4 over F_3 and n <= 3 over F_5,
    n even at sign -1."""
    q = point_quiver(sign)
    assert_sd_counts_match(q, Slope.trivial(q),
                           [((n,), field) for field, top in ((3, 4), (5, 3))
                            for n in range(1, top + 1)
                            if sign == 1 or n % 2 == 0])
