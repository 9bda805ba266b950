import random
from fractions import Fraction

import pytest

from helpers import (calibrated_kron, calibrated_mixed, calibrated_point,
                     calibrated_two_pairs)
from quiver_dt import invariants as inv
from quiver_dt.quiver import (Slope, ValidationError, boxed_vectors, vadd,
                              vleq, vsub, vtotal)
from quiver_dt.oracle import (check_composition, coeff_S, coeff_Ssd, coeff_U,
                              coeff_Usd)
from quiver_dt.ratfunc import RatFunc, q_minus_qinv
from quiver_dt.wallcross import (EpsilonTable, SlopePair, diff_tables,
                                 epsilon_table, wallcross_epsilon)


def setup_function(_fn):
    inv.clear_cache()


def _pair(quiver, plus_map, minus_map):
    return SlopePair(quiver,
                     Slope.from_dict(quiver, plus_map),
                     Slope.from_dict(quiver, minus_map))


def test_coeff_S_basic_cases():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    assert coeff_S([(1, 1)], pair.plus, pair.minus) == 1
    assert coeff_S([], pair.plus, pair.minus) == 1
    # source steps down, target prefix below suffix
    assert coeff_S([(1, 0), (0, 1)], pair.plus, pair.minus) == 1
    # source steps up, target prefix above suffix
    assert coeff_S([(0, 1), (1, 0)], pair.plus, pair.minus) == -1
    # same pair forwards: steps down on both sides
    same = _pair(q, {"i": 1, "j": -1}, {"i": 1, "j": -1})
    assert coeff_S([(1, 0), (0, 1)], same.plus, same.minus) == 0


def test_coeff_Ssd_sentinel_and_sign():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    assert coeff_Ssd([], pair.plus, pair.minus) == 1
    # single part of positive source slope, negative target prefix
    assert coeff_Ssd([(1, 0)], pair.plus, pair.minus) == 1
    # single part of negative source slope, positive target prefix
    assert coeff_Ssd([(0, 1)], pair.plus, pair.minus) == -1
    # zero target prefix cannot satisfy the strict branch
    same = _pair(q, {"i": 1, "j": -1}, {"i": 1, "j": -1})
    assert coeff_Ssd([(1, 0)], same.plus, same.minus) == 0


def test_coeff_U_frozen_cases():
    q = calibrated_kron()
    same = _pair(q, {"i": 1, "j": -1}, {"i": 1, "j": -1})
    assert coeff_U([(1, 1)], same.plus, same.minus) == 1
    assert coeff_U([(1, 1), (2, 2)], same.plus, same.minus) == 0
    assert coeff_U([], same.plus, same.minus) == 0
    assert coeff_Usd([], same.plus, same.minus) == Fraction(1)
    assert coeff_Usd([(1, 1)], same.plus, same.minus) == 0
    assert coeff_Usd([(1, 0)], same.plus, same.minus) == 0


def test_identity_transform():
    for q, slope_map in [
        (calibrated_kron(), {"i": 1, "j": -1}),
        (calibrated_mixed(), {"i": 1, "k": -1}),
    ]:
        pair = _pair(q, slope_map, slope_map)
        table = epsilon_table(q, pair.plus, 3)
        assert wallcross_epsilon(table, pair) == table


def test_point_quiver_any_pair_is_identity():
    pt = calibrated_point(1)
    pair = SlopePair(pt, Slope((Fraction(2),)), Slope((Fraction(-3),)))
    table = epsilon_table(pt, pair.plus, 4)
    crossed = wallcross_epsilon(table, pair)
    assert crossed.eps == table.eps
    assert crossed.sd_eps is None  # nonzero weights are not self-dual
    assert table.sd_eps is None


def test_cross_matches_direct_computation():
    for esigns in [(1, 1), (1, -1), (-1, -1)]:
        q = calibrated_kron(esigns)
        pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
        table = epsilon_table(q, pair.plus, 4)
        crossed = wallcross_epsilon(table, pair)
        direct = epsilon_table(q, pair.minus, 4)
        assert crossed == direct
        assert all(r["match"] for r in diff_tables(crossed, direct))


def test_cross_mixed_quiver_with_fractional_slopes():
    q = calibrated_mixed()
    pair = _pair(q, {"i": 1, "k": -1},
                 {"i": Fraction(1, 2), "j": 0, "k": Fraction(-1, 2)})
    table = epsilon_table(q, pair.plus, 3)
    assert wallcross_epsilon(table, pair) == epsilon_table(q, pair.minus, 3)


def test_two_step_equals_one_step():
    q = calibrated_kron()
    t1 = {"i": 1, "j": -1}
    t2 = {"i": 0, "j": 0}
    t3 = {"i": -1, "j": 1}
    table = epsilon_table(q, Slope.from_dict(q, t1), 4)
    two_step = wallcross_epsilon(wallcross_epsilon(table, _pair(q, t1, t2)),
                                 _pair(q, t2, t3))
    one_step = wallcross_epsilon(table, _pair(q, t1, t3))
    assert two_step == one_step


def _decompositions(alpha):
    """Ordered decompositions of alpha into nonzero parts."""
    if vtotal(alpha) == 0:
        yield ()
        return
    for first in boxed_vectors(alpha):
        if vtotal(first) == 0:
            continue
        for rest in _decompositions(vsub(alpha, first)):
            yield (first,) + rest


def _sd_decompositions(q, theta):
    """Pairs (linear parts, self-dual residue) summing to theta."""

    def rec(rem, parts):
        if q.is_sd_class(rem):
            yield tuple(parts), rem
        for part in boxed_vectors(rem):
            if vtotal(part) == 0:
                continue
            pd = vadd(part, q.dual_vector(part))
            if not vleq(pd, rem):
                continue
            yield from rec(vsub(rem, pd), parts + [part])

    yield from rec(theta, [])


def enumerative_wallcross(table, pair):
    """Reference transform: each target epsilon is the coeff_U-weighted sum,
    over ordered decompositions of its class, of commutation-twisted
    products of source epsilons; self-dual classes also split off a
    self-dual residue, weighted by coeff_Usd with the module twist."""
    q = pair.quiver
    eps = {}
    for alpha in q.dim_vectors_up_to(table.bound):
        acc = RatFunc(0)
        for parts in _decompositions(alpha):
            if any(not table.eps[p] for p in parts):
                continue
            u = coeff_U(parts, pair.plus, pair.minus)
            if not u:
                continue
            expo = 0
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    expo += q.commutation_exponent(parts[i], parts[j])
            term = RatFunc(u) * RatFunc.q_power(expo)
            for p in parts:
                term = term * table.eps[p]
            acc = acc + term
        eps[alpha] = acc

    sd_eps = None
    if table.sd_eps is not None and pair.is_self_dual():
        sd_eps = {}
        for theta in q.sd_classes_up_to(table.bound):
            acc = RatFunc(0)
            for parts, rho in _sd_decompositions(q, theta):
                if any(not table.eps[p] for p in parts):
                    continue
                if not table.sd_eps[rho]:
                    continue
                u = coeff_Usd(parts, pair.plus, pair.minus)
                if not u:
                    continue
                expo = Fraction(0)
                suffix = rho
                for p in reversed(parts):
                    expo += q.sd_twist_exponent(p, suffix)
                    suffix = vadd(suffix, vadd(p, q.dual_vector(p)))
                term = RatFunc(u) * RatFunc.q_power(int(expo))
                for p in parts:
                    term = term * table.eps[p]
                term = term * table.sd_eps[rho]
                acc = acc + term
            sd_eps[theta] = acc
    return EpsilonTable(q, pair.minus, table.bound, eps, sd_eps)


REFERENCE_CASES = [
    (calibrated_kron, ((1, 1),), {"i": 1, "j": -1}, {"i": -1, "j": 1}),
    (calibrated_kron, ((1, -1),), {"i": 1, "j": -1}, {"i": -1, "j": 1}),
    (calibrated_kron, ((-1, -1),), {"i": 1, "j": -1}, {"i": -1, "j": 1}),
    (calibrated_kron, ((1, 1),), {"i": -2, "j": 2}, {"i": 0, "j": 0}),
    (calibrated_mixed, (), {"i": 1, "k": -1},
     {"i": Fraction(1, 2), "j": 0, "k": Fraction(-1, 2)}),
    (calibrated_mixed, (), {"i": -1, "k": 1}, {"i": 1, "k": -1}),
    (calibrated_mixed, (), {"i": 1, "k": -1}, {"i": 2, "j": 1}),
    (calibrated_two_pairs, (), {"a": 2, "d": -2, "b": 1, "c": -1},
     {"a": -1, "d": 1, "b": 1, "c": -1}),
]
REFERENCE_IDS = ["kron_pp", "kron_pm", "kron_mm", "kron_to_trivial",
                 "mixed_fractional", "mixed_reversed", "mixed_non_sd_target",
                 "two_pairs"]


@pytest.mark.parametrize("make, args, plus, minus", REFERENCE_CASES,
                         ids=REFERENCE_IDS)
def test_refactorised_transform_matches_enumerative_reference(make, args,
                                                              plus, minus):
    q = make(*args)
    pair = _pair(q, plus, minus)
    table = epsilon_table(q, pair.plus, 4)
    want = enumerative_wallcross(table, pair)
    got = wallcross_epsilon(table, pair)
    assert got.eps == want.eps
    assert got.sd_eps == want.sd_eps
    assert (got.sd_eps is None) == (not pair.is_self_dual())


def test_transform_reads_only_the_source_table(monkeypatch):
    q = calibrated_mixed()
    pair = _pair(q, {"i": 1, "k": -1}, {"i": -1, "k": 1})
    table = epsilon_table(q, pair.plus, 4)

    def forbidden(*_args):
        raise AssertionError("component integral computed from the motives")

    with monkeypatch.context() as m:
        m.setattr(inv, "stack_class", forbidden)
        m.setattr(inv, "sd_stack_class", forbidden)
        crossed = wallcross_epsilon(table, pair)
    assert crossed == epsilon_table(q, pair.minus, 4)


def test_transform_refuses_a_table_not_from_a_stack_element():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    table = epsilon_table(q, pair.plus, 3)
    # no motive denominator M(a) has the factor 2q + 1
    table.eps[(1, 0)] = table.eps[(1, 0)] / (2 * RatFunc.q_power(1) + 1)
    with pytest.raises(ValueError, match="not the epsilon table of a stack"):
        wallcross_epsilon(table, pair)


def test_transform_engine_stays_out_of_the_cache():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    wallcross_epsilon(epsilon_table(q, pair.plus, 3), pair)
    cached = [eng.slope.weights for owner in inv._CACHE_OWNERS
              for eng in owner.engine_cache.values()]
    assert cached == [pair.plus.weights]


def test_dt_level_specialization():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    crossed = wallcross_epsilon(epsilon_table(q, pair.plus, 3), pair)
    pre = q_minus_qinv()
    for a, eps in crossed.eps.items():
        want = inv.dt_num(q, pair.minus, a, bound=3)
        assert (pre * eps).eval_at(-1) == want
    for th, eps in crossed.sd_eps.items():
        assert eps.eval_at(-1) == inv.sd_dt_num(q, pair.minus, th, bound=3)


def rand_slope(rng, n):
    return Slope(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(n)))


def test_sign_coefficients_compose_across_three_slopes():
    rng = random.Random(20240817)
    for _ in range(120):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        parts = []
        for _ in range(n):
            v = tuple(rng.randint(0, 2) for _ in range(d))
            if sum(v) == 0:
                v = tuple(1 if i == 0 else x for i, x in enumerate(v))
            parts.append(v)
        taus = [rand_slope(rng, d) for _ in range(3)]
        assert check_composition(parts, *taus)
        # degenerate middle function
        assert check_composition(parts, taus[0], taus[0], taus[2])


def test_validation_errors():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    wrong = epsilon_table(q, pair.minus, 3)
    with pytest.raises(ValidationError):
        wallcross_epsilon(wrong, pair)
    a = epsilon_table(q, pair.plus, 2)
    b = epsilon_table(q, pair.plus, 3)
    with pytest.raises(ValidationError):
        diff_tables(a, b)
