"""Property tests on generated quivers, shaped like tests/suite.py but drawn
by hypothesis, checked against the oracle's independent enumerators."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from suite import _rand_quiver
from quiver_dt import invariants as inv
from quiver_dt.oracle import (calibrate_signs, direct_epsilon_integral,
                              direct_semistable_integral)
from quiver_dt.quiver import Slope

# A fixed number of small cases, replayed the same way on every run.
BUDGET = settings(max_examples=50, deadline=None, derandomize=True,
                  database=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])


def _has_edge_between_distinct_vertices(quiver):
    return any(s != t for s, t in quiver.edge_endpoints)


@st.composite
def quiver_slope_bound(draw):
    """A suite-shaped quiver with a non-zero commutation form, a slope with
    small fractional weights (not necessarily self-dual) and a bound <= 3."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(_has_edge_between_distinct_vertices))
    weights = draw(st.lists(st.fractions(-3, 3, max_denominator=2),
                            min_size=len(quiver.vertices),
                            max_size=len(quiver.vertices)))
    return quiver, Slope(tuple(weights)), draw(st.integers(1, 3))


@BUDGET
@given(quiver_slope_bound())
def test_semistable_integral_matches_direct_enumeration(case):
    quiver, slope, bound = case
    calibrate_signs(quiver)
    for a in quiver.dim_vectors_up_to(bound):
        assert inv.semistable_integral(quiver, slope, a, bound=bound) == \
            direct_semistable_integral(quiver, slope, a), a


@BUDGET
@given(quiver_slope_bound())
def test_epsilon_integral_matches_direct_enumeration(case):
    quiver, slope, bound = case
    calibrate_signs(quiver)
    for a in quiver.dim_vectors_up_to(bound):
        assert inv.epsilon_integral(quiver, slope, a, bound=bound) == \
            direct_epsilon_integral(quiver, slope, a), a
