"""Shared builders for the test suite."""

import contextlib
import gc
import re
from fractions import Fraction
from math import gcd

import pytest

from quiver_dt import invariants as inv, oracle, quiver, wallcross
from quiver_dt.quiver import (Edge, SelfDualQuiver, kronecker_variant,
                              make_calibration, point_quiver, vtotal)
from quiver_dt.ratfunc import Laurent, RatFunc, laurent_sum
from quiver_dt.wallcross import SlopePair
from reference import sd_stack_class, stack_class
from torus import TorusElem, TorusModElem, integrated_unit

# resolved by the oracle; kept literal here so the algebra tests do not
# depend on the resolution code they help validate
KNOWN_SIGNS = (-1, 1)


def calibrated(q: SelfDualQuiver) -> SelfDualQuiver:
    q.set_calibration(make_calibration(q, *KNOWN_SIGNS))
    return q


def calibrated_kron(esigns=(1, 1), vsign=1) -> SelfDualQuiver:
    return calibrated(kronecker_variant(esigns, vsign))


def calibrated_point(vsign=1) -> SelfDualQuiver:
    return calibrated(point_quiver(vsign))


@contextlib.contextmanager
def collector_off():
    """The cyclic garbage collector off in the block, and on again after it
    if it was on: what goes in the block goes by reference counting."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def perturb_block_counts(monkeypatch) -> None:
    """Make the block count of the commutation form wrong on every pair of
    classes of total 3 or more, which verification up to bound 2 checks."""
    real = oracle.commutation_counts

    def perturbed(quiver, alphas, betas, orientation):
        table = real(quiver, alphas, betas, orientation)
        return [[n + 1 if vtotal(alpha) + vtotal(beta) >= 3 else n
                 for n, beta in zip(row, betas)]
                for alpha, row in zip(alphas, table)]

    monkeypatch.setattr(oracle, "commutation_counts", perturbed)


def forbid_long_exponents(monkeypatch) -> None:
    """Make quiver.read_weight fail where it hands Fraction a decimal with
    an exponent of seven digits or more, which Fraction multiplies out
    slowly."""
    real = quiver.Fraction

    def fraction(*args):
        assert not (isinstance(args[0], str)
                    and re.search(r"[eE][-+]?\d{7}", args[0])), args
        return real(*args)

    monkeypatch.setattr(quiver, "Fraction", fraction)


def mixed_quiver() -> SelfDualQuiver:
    """Three vertices with a swapped pair and a symplectic fixed vertex,
    a swapped edge pair and a fixed edge."""
    edges = [Edge("a", "i", "j"), Edge("b", "j", "k"), Edge("c", "i", "k")]
    return SelfDualQuiver(
        ["i", "j", "k"], edges,
        {"i": "k", "k": "i"}, {"a": "b", "b": "a"},
        {"j": -1}, {"b": -1},
    )


def calibrated_mixed() -> SelfDualQuiver:
    return calibrated(mixed_quiver())


def calibrated_cycle() -> SelfDualQuiver:
    """The mixed quiver's vertices on the cycle i -> j -> k -> i, a swapped
    edge pair and the fixed edge k -> i: at the trivial slope the twist of
    every decomposition of (1, 1, 1) is 0, but that of (1, 0, 0) + (0, 1,
    0) is not."""
    edges = [Edge("a", "i", "j"), Edge("b", "j", "k"), Edge("c", "k", "i")]
    return calibrated(SelfDualQuiver(
        ["i", "j", "k"], edges,
        {"i": "k", "k": "i"}, {"a": "b", "b": "a"},
        {"j": -1}, {"b": -1},
    ))


def two_pairs_quiver() -> SelfDualQuiver:
    """Two swapped vertex pairs joined by a swapped edge pair: the smallest
    shape where classes of two different positive slopes both act on a
    self-dual class within total dimension 4."""
    edges = [Edge("e", "a", "b"), Edge("f", "c", "d")]
    return SelfDualQuiver(
        ["a", "b", "c", "d"], edges,
        {"a": "d", "d": "a", "b": "c", "c": "b"}, {"e": "f", "f": "e"},
        {}, {},
    )


def calibrated_two_pairs() -> SelfDualQuiver:
    return calibrated(two_pairs_quiver())


def rand_vec(rng, n, hi=2, allow_zero=False):
    while True:
        v = tuple(rng.randint(0, hi) for _ in range(n))
        if allow_zero or sum(v) > 0:
            return v


def rand_coeff(rng) -> RatFunc:
    num = rng.randint(-4, 4) or 1
    c = RatFunc(Fraction(num, rng.randint(1, 3)))
    return c * RatFunc.q_power(rng.randint(-2, 2))


def rand_elem(q, rng, terms=2, hi=2, bound=None) -> TorusElem:
    coeffs = {}
    for _ in range(terms):
        coeffs[rand_vec(rng, len(q.vertices), hi)] = rand_coeff(rng)
    return TorusElem(q, coeffs, bound)


def rand_sd_class(q, rng, hi=1):
    a = rand_vec(rng, len(q.vertices), hi, allow_zero=True)
    return tuple(x + y for x, y in zip(a, q.dual_vector(a)))


def rand_mod_elem(q, rng, terms=2, hi=1, bound=None) -> TorusModElem:
    coeffs = {}
    for _ in range(terms):
        coeffs[rand_sd_class(q, rng, hi)] = rand_coeff(rng)
    return TorusModElem(q, coeffs, bound)


def bar(f: RatFunc) -> RatFunc:
    """f with q -> 1/q."""
    if not f:
        return f
    num, den = f.num, f.den
    dn, dd = max(num), max(den)
    return RatFunc.from_frac_polys(-f.shift - dn + dd,
                                   {dn - e: c for e, c in num.items()},
                                   {dd - e: c for e, c in den.items()})


def shifted(f: RatFunc, k: int) -> RatFunc:
    """f * q**k: only the shift moves, so nothing is multiplied."""
    if not k or not f:
        return f
    return RatFunc._raw(f._scale, f._shift + k, f._num, f._den)


def subs_square(f: RatFunc, value) -> Fraction:
    """f with q**2 -> value; requires all exponents even."""
    v = Fraction(value)
    if not f:
        return Fraction(0)
    sh, num, den = f.shift, f.num, f.den
    if sh % 2 or any(e % 2 for e in num) or any(e % 2 for e in den):
        raise ValueError("odd q-powers present, no even substitution")
    nv = sum((c * v ** (e // 2) for e, c in num.items()), Fraction(0))
    dv = sum((c * v ** (e // 2) for e, c in den.items()), Fraction(0))
    if dv == 0:
        raise ZeroDivisionError("denominator vanishes at substitution")
    return nv * v ** (sh // 2) / dv


def star_series(x, powers, g, dx, abc):
    """The series of invariants._series at g summed from the star powers,
    the Laurent sum_n c_n powers(g)[n - 1] / dx^n for the coefficients c_n
    / dx^n of invariants._coeffs, whichever way _series takes."""
    ms = inv._coeffs(abc, len(powers(g)), dx)
    return laurent_sum([(0, [m, pn]) for m, pn in zip(ms, powers(g))])


def as_fractions(x: Laurent) -> dict:
    """The coefficients of the Laurent x, poly / den, as Fractions."""
    return {e: Fraction(c, x.den) for e, c in x.poly.items()}


def in_lowest_terms(x: Laurent) -> bool:
    """Whether x.den is 1 or coprime to the coefficients of x.poly."""
    return x.den == 1 or gcd(x.den, *x.poly.values()) == 1


def reversed_pair(pair: SlopePair) -> SlopePair:
    """The crossing back: source and target swapped."""
    return SlopePair(pair.quiver, pair.minus, pair.plus)


# -- the engine's values as elements of the twisted algebra and module
# (tests/torus.py)

def semistable_element(q, slope, value, bound) -> TorusElem:
    """(q - 1/q) times the semistable integral at each class of the slope
    value, within the bound."""
    return TorusElem(q, {a: inv.semistable_integral(q, slope, a)
                         .times_q_minus_qinv()
                         for a in q.dim_vectors_up_to(bound)
                         if slope.value(a) == value}, bound)


def sd_semistable_element(q, slope, bound) -> TorusModElem:
    return TorusModElem(q, {th: inv.sd_semistable_integral(q, slope, th)
                            for th in q.sd_classes_up_to(bound)}, bound)


def epsilon_elem(q, slope, value, bound) -> TorusElem:
    """log(1 + x) for the semistable element x of the slope value."""
    return TorusElem(q, inv.epsilon_element(q, slope, value, bound), bound)


def sd_epsilon_elem(q, slope, bound) -> TorusModElem:
    return TorusModElem(q, inv.sd_epsilon_element(q, slope, bound), bound)


def integrated_stack_element(q, bound) -> TorusElem:
    """Unit plus the integrated stack classes of all nonzero classes."""
    coeffs = {a: stack_class(q, a).times_q_minus_qinv()
              for a in q.dim_vectors_up_to(bound)}
    return integrated_unit(q, bound) + TorusElem(q, coeffs, bound)


def sd_stack_element(q, bound) -> TorusModElem:
    return TorusModElem(q, {th: sd_stack_class(q, th)
                            for th in q.sd_classes_up_to(bound)}, bound)


def fresh_engine(q, s):
    """A new engine on the ray of s, built as _engine builds one but kept
    out of the quiver's engine cache."""
    return inv._Engine(q, inv._ray_of(s, q)[0])


def engine_values(q, s, bound, make=fresh_engine):
    """A fresh engine's linear values on the classes within the bound and,
    at a self-dual slope, its self-dual values, keyed by (method, class).
    make(q, s) builds the engine, once the quiver is calibrated."""
    oracle.ensure_calibrated(q)
    eng = make(q, s)
    out = {(m, a): getattr(eng, m)(a)
           for a in [eng.zero] + q.dim_vectors_up_to(bound)
           for m in ("semistable", "epsilon", "dt_motivic")}
    if s.is_self_dual(q):
        out.update({(m, th): getattr(eng, m)(th)
                    for th in q.sd_classes_up_to(bound)
                    for m in ("sd_semistable", "sd_dt_motivic")})
    return out


def assert_mirror_changes_nothing(q, s, bound, make=fresh_engine):
    """The values of an engine equal those of one that reads each class at
    the class itself, its duality mirror (_Engine._rep) patched out."""
    mirrored = engine_values(q, s, bound, make)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv._Engine, "_rep", lambda self, a: a)
        plain = engine_values(q, s, bound, make)
    assert mirrored == plain, (q.vertices, s.weights)


def _plain(value):
    """value with each Laurent replaced by its dict, for comparing memos."""
    if isinstance(value, Laurent):
        return value.poly
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def engine_state(eng):
    """Every memoised value of an engine, and its recursion tables."""
    memos = {name: {a: _plain(v) for a, v in memo.items()}
             for name, memo in eng._memo.items()}
    tables = {s: {p: _plain(d) for p, d in tab.items()}
              for s, tab in eng._dom.items()}
    return memos, tables


def assert_regions_change_nothing(q, s, bound, make=fresh_engine):
    """Every memoised value and recursion entry of an engine equals that of
    one whose region key is patched to include the slope value, so that no
    two values share an entry: it keeps one table per value, one stored
    entry per nonzero slot of the region."""
    shared = make(q, s)
    engine_values(q, s, bound, lambda *_args: shared)
    key = inv._Engine._region_key
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inv._Engine, "_region_key",
                   lambda self, s, p, ids: (*key(self, s, p, ids), s))
        apart = make(q, s)
        engine_values(q, s, bound, lambda *_args: apart)
    assert engine_state(shared) == engine_state(apart), (q.vertices,
                                                         s.weights)
    assert sum(e is not None for _, e in apart._regions.values()) == sum(
        d is not None for tab in apart._dom.values()
        for p, d in tab.items() if any(p))


def crossed_without_mirror(table, pair):
    """wallcross_epsilon with its test for a dual-symmetric table patched to
    false, so that it builds the slope factor of every slope value."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wallcross, "_dual_symmetric", lambda *_args: False)
        return wallcross.wallcross_epsilon(table, pair)


def spy_on_seeded(m):
    """Patch the transform's _seeded_engine through m to record every engine
    it returns that is seeded (seed_bound set), and return the list they go
    in."""
    built = []
    pick = wallcross._seeded_engine

    def spy(*args):
        eng = pick(*args)
        if eng.seed_bound is not None:
            built.append(eng)
        return eng
    m.setattr(wallcross, "_seeded_engine", spy)
    return built


def zeroed_at(table, pair, value):
    """table with eps zeroed at every class of source value s or -s, for
    value s: still dual-symmetric, but no longer the quiver's own."""
    zeroed = [a for a in table.eps if abs(pair.plus.value(a)) == value]
    assert zeroed and all(table.eps[a] for a in zeroed)
    eps = table.eps | {a: RatFunc(0) for a in zeroed}
    assert inv._dual_symmetric(table.quiver, eps)
    return table._replace(eps=eps)
