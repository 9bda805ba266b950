import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (calibrated_kron, calibrated_mixed, calibrated_point,
                     calibrated_two_pairs, crossed_without_mirror,
                     spy_on_seeded, zeroed_at)
from reference import check_composition, coeff_S, coeff_Ssd, coeff_U, coeff_Usd
from quiver_dt import invariants as inv, wallcross as wc
from quiver_dt.cli import load_quiver, main as cli_main, parse_slope
from quiver_dt.quiver import (Slope, ValidationError, boxed_vectors, vadd,
                              vleq, vsub, vtotal)
from quiver_dt.ratfunc import RatFunc, laurent_sum, q_minus_qinv
from quiver_dt.wallcross import (EpsilonTable, SlopePair, diff_tables,
                                 epsilon_table, wallcross_epsilon)

FIXTURES = Path(inv.__file__).parent / "fixtures"


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
    if (table.sd_eps is not None and pair.plus.is_self_dual(q)
            and pair.minus.is_self_dual(q)):
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
    assert (got.sd_eps is None) == (not (pair.plus.is_self_dual(q)
                                         and pair.minus.is_self_dual(q)))


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


REFUSAL_CASES = [(1, (2, 1), "1/3"), (1, (1, 2), "-1/3"), (1, (1, 0), "1"),
                 (2, (2, 1), "2/3"), (2, (1, 2), "-2/3"), (2, (1, 0), "2")]


@pytest.mark.parametrize("k, a, value", REFUSAL_CASES, ids=[
    f"a{n}-{value}" for n, (_, _, value) in enumerate(REFUSAL_CASES)])
def test_transform_refusal_prints_the_slope_value_as_a_fraction(k, a, value):
    """The value at the source slope i=k,j=-k, on a quiver whose engine on
    that ray i=1,j=-1 built."""
    q = calibrated_kron()
    epsilon_table(q, Slope.from_dict(q, {"i": 1, "j": -1}), 3)
    pair = _pair(q, {"i": k, "j": -k}, {"i": -k, "j": k})
    table = epsilon_table(q, pair.plus, 3)
    # M(a) eps(a) / 3 is a Laurent polynomial, but its exponential's
    # numerator M(a) J(a) at a is not one with integer coefficients
    table.eps[a] = table.eps[a] * Fraction(1, 3)
    with pytest.raises(ValueError) as err:
        wallcross_epsilon(table, pair)
    assert str(err.value) == (
        "the source table is not the epsilon table of a stack element: "
        f"M(a) J(a) at slope {value} at {a} is not a Laurent polynomial "
        "with integer coefficients")


def test_transform_refuses_a_self_dual_table_not_from_a_stack_element():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    table = epsilon_table(q, pair.plus, 3)
    # M_sd(theta) eps_sd(theta) must be a Laurent polynomial; M_sd((1, 1))
    # is q^2 - 1
    table.sd_eps[(1, 1)] = table.sd_eps[(1, 1)] / (2 * RatFunc.q_power(1) + 1)
    with pytest.raises(ValueError, match="not the epsilon table of a stack"):
        wallcross_epsilon(table, pair)
    # a rational multiple stays a Laurent polynomial but leaves a
    # self-dual stack numerator outside Z[q, 1/q]
    table = epsilon_table(q, pair.plus, 3)
    table.sd_eps[(1, 1)] = table.sd_eps[(1, 1)] * Fraction(1, 3)
    with pytest.raises(ValueError, match="not the epsilon table of a stack"):
        wallcross_epsilon(table, pair)


def test_transform_refuses_a_dual_symmetric_table_not_from_a_stack_element():
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    for divided in [((1, 0), (0, 1)), ((0, 1),)]:
        table = epsilon_table(q, pair.plus, 3)
        for a in divided:
            table.eps[a] = table.eps[a] / (2 * RatFunc.q_power(1) + 1)
        assert inv._dual_symmetric(q, table.eps) == (len(divided) == 2)
        with pytest.raises(ValueError,
                           match="not the epsilon table of a stack"):
            wallcross_epsilon(table, pair)


def test_transform_of_a_table_that_is_not_dual_symmetric():
    """At a self-dual source slope, a table with the values of slope value
    1, or of -1, set to zero is crossed at every slope value, as the
    enumerative reference crosses it."""
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    for value in [1, -1]:
        table = epsilon_table(q, pair.plus, 4)
        for a in table.eps:
            if pair.plus.value(a) == value:
                table.eps[a] = RatFunc(0)
        assert not inv._dual_symmetric(q, table.eps)
        got = wallcross_epsilon(table, pair)
        want = enumerative_wallcross(table, pair)
        assert got.eps == want.eps
        assert got.sd_eps == want.sd_eps


KRONECKER = sorted(FIXTURES.glob("kronecker_*.json"))


@pytest.mark.parametrize("path", KRONECKER, ids=[p.stem for p in KRONECKER])
def test_mirror_changes_no_crossed_table_on_the_fixtures(path):
    q = load_quiver(str(path))
    for plus, minus in [({"i": 1, "j": -1}, {"i": -1, "j": 1}),
                        ({"i": -1, "j": 1}, {"i": 1, "j": -1})]:
        pair = _pair(q, plus, minus)
        table = epsilon_table(q, pair.plus, 6)
        assert inv._dual_symmetric(q, table.eps)
        assert wallcross_epsilon(table, pair) == \
            crossed_without_mirror(table, pair)


@pytest.mark.parametrize("make, args, plus, minus", REFERENCE_CASES[4:],
                         ids=REFERENCE_IDS[4:])
def test_mirror_changes_no_crossed_table_with_a_commutation_form(
        make, args, plus, minus):
    q = make(*args)
    pair = _pair(q, plus, minus)
    table = epsilon_table(q, pair.plus, 5)
    assert inv._dual_symmetric(q, table.eps)
    assert wallcross_epsilon(table, pair) == \
        crossed_without_mirror(table, pair)


def test_transform_work_on_kronecker_pm_plus(monkeypatch):
    """The number of integer sums one crossing makes at bound 5 (283 when
    every slope factor was built and multiplied in with its unit term, 112
    while the seeded engine computed each recursion entry once per slope
    value and summed the zero class's unit term alone), and no sum in the
    stack product of a class's own entry alone."""
    q = load_quiver(str(FIXTURES / "kronecker_pm_plus.json"))
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    table = epsilon_table(q, pair.plus, 5)
    sums, products = [], []

    def counted(terms, sign=1):
        sums.append(terms)
        if products:
            tab, top = products[-1]
            own = tab.get(top)
            assert not (len(terms) == 1 and all(
                f is own or f.poly == {0: 1} for f in terms[0][1])), top
        return laurent_sum(terms, sign)

    def product(q, tab, top, x, sign=1):
        products.append((tab, top))
        try:
            return inv._chain_sum(q, tab, top, x, sign)
        finally:
            products.pop()
    with monkeypatch.context() as m:
        m.setattr(inv, "laurent_sum", counted)
        m.setattr(wc, "_chain_sum", product)
        crossed = wallcross_epsilon(table, pair)
    assert len(sums) == 94
    assert crossed == epsilon_table(q, pair.minus, 5)


def test_transform_makes_no_ratfunc_arithmetic(monkeypatch):
    for q, plus, minus in [
            (calibrated_kron(), {"i": 1, "j": -1}, {"i": -1, "j": 1}),
            (calibrated_two_pairs(), {"a": 2, "d": -2, "b": 1, "c": -1},
             {"a": -1, "d": 1, "b": 1, "c": -1})]:
        pair = _pair(q, plus, minus)
        table = epsilon_table(q, pair.plus, 4)
        direct = epsilon_table(q, pair.minus, 4)
        calls = []
        with monkeypatch.context() as m:
            for name in ("__add__", "__mul__"):
                def counted(self, other, _orig=getattr(RatFunc, name)):
                    calls.append(_orig)
                    return _orig(self, other)
                m.setattr(RatFunc, name, counted)
            crossed = wallcross_epsilon(table, pair)
        assert not calls
        assert crossed == direct


def test_transform_engine_stays_out_of_the_cache(monkeypatch):
    """A genuine crossing leaves the source and target slopes' engines in
    the cache, keyed as _engine keys them, and seeds none; the engine seeded
    for a perturbed table stays out of the cache."""
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    keys = [s.weights for s in (pair.plus, pair.minus)]
    seeded = spy_on_seeded(monkeypatch)
    table = epsilon_table(q, pair.plus, 3)
    wallcross_epsilon(table, pair)
    assert not seeded
    cached = [eng.slope.weights for owner in inv._CACHE_OWNERS
              for eng in owner.engine_cache.values()]
    assert cached == [pair.plus.weights, pair.minus.weights]
    assert list(q.engine_cache) == keys
    wallcross_epsilon(zeroed_at(table, pair, 1), pair)
    [eng] = seeded
    assert eng.seed_bound == 3
    assert all(c is not eng for owner in inv._CACHE_OWNERS
               for c in owner.engine_cache.values())
    assert list(q.engine_cache) == keys


@pytest.mark.parametrize("path", KRONECKER, ids=[p.stem for p in KRONECKER])
def test_genuine_tables_cross_on_the_cached_engine(path, monkeypatch,
                                                   tmp_path):
    """quiver-dt wallcross at bound 5 seeds no engine in either direction,
    and a crossed table holds the direct table's own values."""
    seeded = spy_on_seeded(monkeypatch)
    for plus, minus in [("i=1,j=-1", "i=-1,j=1"), ("i=-1,j=1", "i=1,j=-1")]:
        assert cli_main(["wallcross", str(path), "--bound", "5",
                         "--slope", plus, "--slope2", minus,
                         "--output", str(tmp_path / "out.json")]) == 0
        q = load_quiver(str(path))
        pair = SlopePair(q, parse_slope(q, plus), parse_slope(q, minus))
        crossed = wallcross_epsilon(epsilon_table(q, pair.plus, 5), pair)
        direct = epsilon_table(q, pair.minus, 5)
        assert all(crossed.eps[a] is v for a, v in direct.eps.items())
        assert all(crossed.sd_eps[th] is v
                   for th, v in direct.sd_eps.items())
    assert not seeded


def test_genuine_table_crosses_on_the_cached_engine_to_a_non_self_dual_slope(
        monkeypatch):
    q = calibrated_two_pairs()
    pair = _pair(q, {"a": 2, "d": -2, "b": 1, "c": -1}, {"a": 1, "b": 2})
    assert not pair.minus.is_self_dual(q)
    seeded = spy_on_seeded(monkeypatch)
    crossed = wallcross_epsilon(epsilon_table(q, pair.plus, 4), pair)
    direct = epsilon_table(q, pair.minus, 4)
    assert not seeded
    assert crossed.sd_eps is None
    assert all(crossed.eps[a] is v for a, v in direct.eps.items())


def assert_crossed_on_one_seeded_engine(table, pair, monkeypatch):
    """One seeded engine crosses table, as the enumerative reference does,
    and the result is not the direct table."""
    seeded = spy_on_seeded(monkeypatch)
    got = wallcross_epsilon(table, pair)
    assert len(seeded) == 1
    want = enumerative_wallcross(table, pair)
    assert got.eps == want.eps
    assert got.sd_eps == want.sd_eps
    assert got != epsilon_table(pair.quiver, pair.minus, table.bound)


@pytest.mark.parametrize("value", [1, Fraction(1, 3)])
def test_perturbed_dual_symmetric_table_crosses_on_a_seeded_engine(
        value, monkeypatch):
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    table = zeroed_at(epsilon_table(q, pair.plus, 4), pair, value)
    assert_crossed_on_one_seeded_engine(table, pair, monkeypatch)


def test_perturbed_self_dual_values_cross_on_a_seeded_engine(monkeypatch):
    """The linear values are the quiver's own; the self-dual value at (1, 1)
    is doubled."""
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    table = epsilon_table(q, pair.plus, 4)
    sd_eps = table.sd_eps | {(1, 1): table.sd_eps[(1, 1)] * 2}
    assert_crossed_on_one_seeded_engine(table._replace(sd_eps=sd_eps), pair,
                                        monkeypatch)


def test_seeded_engine_computes_both_halves(monkeypatch):
    """A perturbed dual-symmetric table crosses to a self-dual slope on a
    seeded engine, which holds X, the star powers and epsilon at a and at
    a^v for every class: only a cached engine mirrors."""
    q = calibrated_kron()
    pair = _pair(q, {"i": 1, "j": -1}, {"i": -1, "j": 1})
    seeded = spy_on_seeded(monkeypatch)
    wallcross_epsilon(zeroed_at(epsilon_table(q, pair.plus, 4), pair, 1),
                      pair)
    [eng] = seeded
    assert eng.seed_bound == 4 and eng.self_dual
    for name in ("_semistable_num", "_powers", "epsilon"):
        memo = eng._memo[name]
        for a in q.dim_vectors_up_to(4):
            assert a in memo and q.dual_vector(a) in memo, (name, a)


@pytest.mark.parametrize("make, plus, minus", [
    (lambda: load_quiver(str(FIXTURES / "kronecker_pm_plus.json")),
     {"i": 1, "j": -1}, {"i": -1, "j": 1}),
    (calibrated_two_pairs, {"a": 2, "d": -2, "b": 1, "c": -1},
     {"a": 1, "b": 2})], ids=["kronecker_pm_plus", "two_pairs"])
def test_warm_round_evaluates_no_self_duality_rule(make, plus, minus,
                                                   monkeypatch):
    """Each engine decides once whether its slope is self-dual: a second
    round of tables and a crossing asks no slope again."""
    q = make()
    pair = _pair(q, plus, minus)

    def one_round():
        for s in (pair.plus, pair.minus):
            inv.build_table(q, s, 4)
            epsilon_table(q, s, 4)
        wallcross_epsilon(epsilon_table(q, pair.plus, 4), pair)
    one_round()
    calls = []
    rule = Slope.validate_self_dual
    monkeypatch.setattr(Slope, "validate_self_dual", lambda self, quiver:
                        calls.append(self) or rule(self, quiver))
    one_round()
    assert not calls


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
