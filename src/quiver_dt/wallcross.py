"""Transforms relating invariants at different stability conditions.

Tables of epsilon integrals cross from one slope function to another by
re-factorisation in the twisted algebra (see wallcross_epsilon), carried
out on integer Laurent numerators over the motive denominators with the
invariants module's integer kernels, so that the only rational functions
built are the source values read and the target values returned.  Slope
values come from the source slope's engine (filled by epsilon_table) as
integer pairs, source values only from the table.  The stack element is
factored at the target slope on the engine invariants._seeded_engine
picks: the cached one where its numerators are the quiver's own, as for
every table epsilon_table makes.  Both functions read their table off an
engine the one way, _tabulate.  The same transform has a combinatorial
form, a sum over ordered decompositions of each class weighted by rational
coefficients; those coefficients are test code (tests/reference.py), and
the tests check the re-factorisation against them.

Duality maps the epsilon element of value s to that of value -s and
reverses the product (M. B. Young, The Hall module of an exact category
with duality, 2016).  So at a self-dual source slope, a table with eps(a^v)
= eps(a) for every class, as every table epsilon_table makes there, has the
factor of value -s equal to that of s with each class a read at a^v: the
transform builds the factors of values s >= 0 only.  Any other table is
crossed at every slope value.  Whether a slope is self-dual is read off its
engine's self_dual flag.
"""

import math
from fractions import Fraction
from functools import cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .invariants import (_ZERO, Value, Weight, _chain_sum, _dual_symmetric,
                         _engine, _Engine, _over_lcm, _ray_of, _sd_action,
                         _seeded_engine, _series, _star_powers)
from .motives import gl_poly, sd_gl_poly
from .quiver import (DimVector, SelfDualQuiver, Slope, ValidationError,
                     graded_lex_key)
from .ratfunc import Laurent, RatFunc


class SlopePair:
    """Source and target slope functions for a single crossing.

    Both live on the same quiver; the source is `plus`, the target `minus`.
    Any pair is admissible because the trivial slope function compares all
    classes equally, hence refines into both members.
    """

    def __init__(self, quiver: SelfDualQuiver, plus: Slope, minus: Slope):
        nv = len(quiver.vertices)
        if len(plus.weights) != nv or len(minus.weights) != nv:
            raise ValidationError("slope weight length does not match quiver")
        self.quiver = quiver
        self.plus = plus
        self.minus = minus

    def reversed(self) -> "SlopePair":
        return SlopePair(self.quiver, self.minus, self.plus)


class EpsilonTable(NamedTuple):
    """Epsilon integrals of every class up to a bound, at one slope."""

    quiver: SelfDualQuiver
    slope: Slope
    bound: int
    eps: Dict[DimVector, RatFunc]
    sd_eps: Optional[Dict[DimVector, RatFunc]] = None


def _tabulate(eng: _Engine, slope: Slope, bound: int,
              sd: bool) -> EpsilonTable:
    """The epsilon integrals eng computes for every class up to the bound,
    and the self-dual ones where sd is set, as a table at slope."""
    q = eng.quiver
    eps = {a: eng.epsilon(a) for a in q.dim_vectors_up_to(bound)}
    sd_eps = ({th: eng.sd_dt_motivic(th) for th in q.sd_classes_up_to(bound)}
              if sd else None)
    return EpsilonTable(q, slope, bound, eps, sd_eps)


def epsilon_table(quiver: SelfDualQuiver, slope: Slope,
                  bound: int) -> EpsilonTable:
    """Tabulate epsilon integrals directly at the given slope."""
    eng = _engine(quiver, slope)
    return _tabulate(eng, slope, bound, eng.self_dual)


def _refuse(what: str, at: DimVector, ring: str) -> None:
    raise ValueError(
        "the source table is not the epsilon table of a stack element: "
        f"{what} at {at} is not a Laurent polynomial with {ring} "
        "coefficients")


def _times(num: Laurent, m: int) -> Laurent:
    return num if m == 1 else Laurent({e: c * m for e, c in num.poly.items()})


def _numerators(values: Dict[DimVector, RatFunc],
                den: Callable[[DimVector], Dict[int, int]],
                what: str) -> Tuple[Dict[DimVector, Laurent], int]:
    """(Y, d) with values[a] = Y(a) / (d den(a)), Y in Z[q, 1/q] and d one
    positive integer for all the values."""
    cleared = {}
    for a, v in values.items():
        c = v.cleared(den(a))
        if c is None:
            _refuse(what, a, "rational")
        cleared[a] = c
    d = math.lcm(*(k for _, k in cleared.values()))
    return {a: _times(Laurent(p), d // k)
            for a, (p, k) in cleared.items()}, d


def _divided(num: Laurent, d: int, what: str, at: DimVector) -> Laurent:
    """num / d, refused unless it lies in Z[q, 1/q]."""
    if d == 1:
        return num
    out = {}
    for e, c in num.poly.items():
        quo, rem = divmod(c, d)
        if rem:
            _refuse(what, at, "integer")
        out[e] = quo
    return Laurent(out)


def _exp_weights(q: SelfDualQuiver, value: Callable[[DimVector], Value],
                 y: Dict[DimVector, Laurent], d: int):
    """weight(g, c) = (W, k) with exp(e / c)_g = (q - 1/q) W / (k M(g)), for
    the epsilon element e = sum_a (q - 1/q) y[a] / (d M(a)) [a] of one
    slope: with the star powers P_n of y (invariants._star_powers),
    W / k = sum_n P_n(g) / (n! (c d)^n) (see invariants._series), for g not
    zero."""
    @cache
    def powers(g: DimVector) -> List[Laurent]:
        return _star_powers(q, g, value, lambda a: y.get(a, _ZERO), powers)

    def weight(g: DimVector, c: int = 1) -> Tuple[Laurent, int]:
        pg = powers(g)
        return _series(pg, _exp_coeffs(len(pg), c * d))
    return weight


@cache
def _exp_coeffs(n: int, cd: int) -> Tuple[List[Laurent], int]:
    """The coefficients 1 / (i! cd^i), i = 1..n, over their lcm."""
    return _over_lcm([Fraction(1, math.factorial(i) * cd ** i)
                      for i in range(1, n + 1)])


def wallcross_epsilon(table: EpsilonTable, pair: SlopePair) -> EpsilonTable:
    """Transform a table of epsilon integrals from the pair's source slope
    to its target slope, without recomputing anything semistable.

    The exponentials of the source slopes' epsilon elements, multiplied in
    descending slope order, give the integrated stack element.  On the
    self-dual side, the square root of the slope-0 factor acting on the
    self-dual epsilon element, acted on by the positive slopes' factors in
    ascending order, gives the module stack element.  The engine at the
    target slope that invariants._seeded_engine picks factors both again by
    target slope.

    All of it runs on integer Laurent numerators over M(a) and M_sd(theta)
    (see invariants): a slope's epsilon values become numerators over one
    integer, the exponential of its element is a sum of their star powers,
    divided by one integer per class to give the slope's semistable
    numerators X_s; the slopes' factors multiply by _chain_sum and act on
    the self-dual side by _sd_action, their unit terms left implicit, so a
    class that no nonzero step of a factor reaches keeps its entry.  A
    source table whose slope factors or self-dual numerators do not lie in
    Z[q, 1/q] is refused with ValueError.

    At a self-dual source slope and with a dual-symmetric table, the
    factors of values s < 0 are those of -s read at the dual classes (see
    the module docstring).  The self-dual side is crossed where the table
    has one and both slopes are self-dual.
    """
    if table.quiver is not pair.quiver:
        raise ValidationError("table and slope pair use different quivers")
    if table.slope.weights != pair.plus.weights:
        raise ValidationError("table was not computed at the source slope")
    q, bound = pair.quiver, table.bound
    source, target = _engine(q, pair.plus), _engine(q, pair.minus)
    value, scale = source.value, _ray_of(pair.plus)[1]
    classes = q.dim_vectors_up_to(bound)
    mirror = source.self_dual and _dual_symmetric(q, table.eps)
    by_slope: Dict[Value, Dict[DimVector, RatFunc]] = {}
    for a, e in table.eps.items():
        if e:
            by_slope.setdefault(value(a), {})[a] = e
    exps = {s: _exp_weights(q, value, *_numerators(eps, gl_poly,
                                                   "M(a) eps(a)"))
            for s, eps in by_slope.items() if not (mirror and s[0] < 0)}
    # X_s(g) = M(g) J_s(g) for the classes g of slope s; X_s(0) = 1 is left
    # to _chain_sum and _sd_action.  Mirrored, X_-s(g^v) = X_s(g).
    factors: Dict[Value, Dict[DimVector, Laurent]] = {}
    for s, weight in exps.items():
        n, d = s
        what = f"M(a) J(a) at slope {scale * Fraction(n, d)}"
        x = factors[s] = {g: _divided(*weight(g), what, g)
                          for g in classes if value(g) == s}
        if mirror and n > 0:
            factors[-n, d] = {q.dual_vector(g): xg for g, xg in x.items()}
    # The product starts at the first factor, as 1 F_s = F_s.  The values
    # descend, compared as integers over their common denominator.
    den = math.lcm(*(d for _, d in factors))
    slopes = sorted(factors, key=lambda s: s[0] * (den // s[1]), reverse=True)
    stack = factors[slopes[0]] if slopes else {}
    for s in slopes[1:]:
        stack = {a: _chain_sum(q, stack, a, factors[s].get) for a in classes}

    sd_stack = None
    sd_side = (table.sd_eps is not None and source.self_dual
               and target.self_dual)
    if sd_side:
        sd_classes = q.sd_classes_up_to(bound)
        z, dz = _numerators(table.sd_eps, lambda th: sd_gl_poly(q, th),
                            "M_sd(theta) eps_sd(theta)")
        root = exps.get((0, 1))

        def half(g: DimVector) -> Weight:
            return root(g, 2) if root and value(g) == (0, 1) else None
        start = {th: _sd_action(q, th, half, lambda rho: z.get(rho, _ZERO))
                 for th in sd_classes}
        k = math.lcm(*(kt for _, kt in start.values()))
        module = {th: _times(num, k // kt) for th, (num, kt) in start.items()}
        for s in [s for s in reversed(slopes) if s[0] > 0]:
            x = factors[s]
            module = {th: _sd_action(q, th, lambda g: (x[g], 1) if g in x
                                     else None, module.get)[0]
                      for th in sd_classes}
        sd_stack = {th: _divided(module[th], k * dz,
                                 "M_sd(theta) I_sd(theta)", th)
                    for th in sd_classes}

    eng = _seeded_engine(q, pair.minus,
                         {a: stack.get(a, _ZERO) for a in classes}, sd_stack)
    return _tabulate(eng, pair.minus, bound, sd_side)


def diff_tables(got: EpsilonTable, want: EpsilonTable) -> List[dict]:
    """Per-class comparison report between two epsilon tables."""
    if got.bound != want.bound:
        raise ValidationError("cannot compare tables with different bounds")
    report = []
    for a in sorted(got.eps, key=graded_lex_key):
        report.append({"side": "linear", "class": a,
                       "match": got.eps[a] == want.eps[a]})
    if got.sd_eps is not None and want.sd_eps is not None:
        for th in sorted(got.sd_eps, key=graded_lex_key):
            report.append({"side": "self-dual", "class": th,
                           "match": got.sd_eps[th] == want.sd_eps[th]})
    return report
