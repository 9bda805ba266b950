"""Transforms relating invariants at different stability conditions.

Tables of epsilon integrals cross from one slope function to another by
re-factorisation in the twisted algebra (see wallcross_epsilon), carried
out on Laurent numerators, each an integer Laurent polynomial over an
integer in lowest terms, over the motive denominators with the invariants
module's integer kernels, so that the only rational functions built are
the source values read and the target values returned.  The exponential
of a slope's epsilon element is invariants._series of exp over the source
engine's steps of each class, the decompositions into two classes of its
value with their twists (_exp_weights): Miller's recurrence where each
twist is 0, as on every two-vertex and every symmetric quiver; and the
running product is invariants._chain_sum over a factor's own classes
(_factor_steps).  Slope values, as integer pairs, and steps come from the
source slope's engine (filled by epsilon_table), source values only from
the table.  The stack element is factored at the target slope on the
engine invariants._seeded_engine picks: the cached one where its
numerators are the quiver's own, as for every table epsilon_table makes.
Both functions read their table off an engine the one way, _tabulate.  The
same transform has a combinatorial form, a sum over ordered decompositions
of each class weighted by rational coefficients; those coefficients are
test code (tests/reference.py), and the tests check the re-factorisation
against them.

Duality maps the epsilon element of value s to that of value -s and
reverses the product (M. B. Young, The Hall module of an exact category
with duality, 2016).  So at a self-dual source slope, a table with eps(a^v)
= eps(a) for every class, as every table epsilon_table makes there, has the
factor of value -s equal to that of s with each class a read at a^v: the
transform builds the factors of values s >= 0 only.  Any other table is
crossed at every slope value.  Whether a slope is self-dual is read off its
engine's self_dual flag.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Callable, Dict, List, NamedTuple, Optional

from .invariants import (_ZERO, Step, TwistedStep, Value, Weight,
                         _box_steps, _chain_sum, _dual_symmetric, _engine,
                         _Engine, _ray_of, _sd_action, _seeded_engine,
                         _series, _star_powers)
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


def _numerators(values: Dict[DimVector, RatFunc],
                den: Callable[[DimVector], Dict[int, int]],
                what: str) -> Dict[DimVector, Laurent]:
    """Y with values[a] = Y(a) / den(a), Y(a) in Z[q, 1/q] over an
    integer (RatFunc.cleared)."""
    out = {}
    for a, v in values.items():
        y = v.cleared(den(a))
        if y is None:
            _refuse(what, a, "rational")
        out[a] = y
    return out


def _integral(num: Laurent, what: Callable[[], str],
              at: DimVector) -> Laurent:
    """num, refused unless it lies in Z[q, 1/q], which in lowest terms is den
    1; what() names num in the refusal, and is called only there."""
    if num.den != 1:
        _refuse(what(), at, "integer")
    return num


# The weights of invariants._series for exp(t) - 1.
_EXP = (2, 0, 2)


def _exp_weights(steps: Callable[[DimVector], List[TwistedStep]],
                 y: Dict[DimVector, Laurent]):
    """weight(g, c) = W with exp(e / c)_g = (q - 1/q) W / M(g), for the
    epsilon element e = sum_a (q - 1/q) y[a] / M(a) [a] of one slope and g
    not zero: W = sum_n P_n(g) / (n! c^n), P_n the star powers of y, by
    invariants._series once per g and c over steps(g), g's decompositions
    with their twists (the source engine's _steps)."""
    def x(a: DimVector) -> Laurent:
        return y.get(a, _ZERO)

    @cache
    def powers(g: DimVector) -> List[Laurent]:
        return _star_powers(g, steps(g), x, powers)

    @cache
    def weight(g: DimVector, c: int) -> Laurent:
        return _series(g, steps(g), x, c, lambda p: weight(p, c), _EXP,
                       powers)
    return weight


def _factor_steps(a: DimVector, factor: Dict[DimVector, Laurent]
                  ) -> List[Step]:
    """The steps (a - g, g, binomials) of invariants._box_steps(a) at the
    classes g of the factor: those at which a slope factor, zero off its
    own classes, can make a term of the product."""
    steps = _box_steps(a)
    return [steps[g] for g in factor if g in steps]


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

    All of it runs on Laurent numerators over M(a) and M_sd(theta) (see
    invariants): each epsilon value becomes an integer numerator over an
    integer (RatFunc.cleared), the exponential of a slope's element is
    invariants._series (_exp_weights), and the slope's semistable numerators
    X_s are its values at c = 1, which every sum leaves in lowest terms, so
    X_s lies in Z[q, 1/q] exactly where its denominator is 1 (_integral);
    the running product is multiplied by each slope's factor by
    invariants._chain_sum over that factor's nonzero classes g alone
    (_factor_steps: the entry at a - g, the binomials [a; a - g] and q^<a -
    g, g> for each g < a), and the factors act on the self-dual side by
    _sd_action, their unit terms left implicit, so a class that no nonzero
    step of a factor reaches keeps its entry.  A
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
    value = source.value
    classes = q.dim_vectors_up_to(bound)
    mirror = source.self_dual and _dual_symmetric(q, table.eps)
    of_value: Dict[Value, List[DimVector]] = {}
    for g in classes:
        of_value.setdefault(value(g), []).append(g)
    by_slope: Dict[Value, Dict[DimVector, RatFunc]] = {}
    for a, e in table.eps.items():
        if e:
            by_slope.setdefault(value(a), {})[a] = e
    exps = {s: _exp_weights(source._steps, _numerators(eps, gl_poly,
                                                       "M(a) eps(a)"))
            for s, eps in by_slope.items() if not (mirror and s[0] < 0)}
    # X_s(g) = M(g) J_s(g) for the classes g of slope s; X_s(0) = 1 is left
    # to _chain_sum and _sd_action.  Mirrored, X_-s(g^v) = X_s(g).
    factors: Dict[Value, Dict[DimVector, Laurent]] = {}
    for s, weight in exps.items():
        n, d = s

        def what() -> str:  # called in this pass, at its n and d
            slope = _ray_of(pair.plus)[1] * Fraction(n, d)
            return f"M(a) J(a) at slope {slope}"
        x = factors[s] = {g: _integral(weight(g, 1), what, g)
                          for g in of_value[s]}
        if mirror and n > 0:
            factors[-n, d] = {q.dual_vector(g): xg for g, xg in x.items()}
    # The product starts at the first factor, as 1 F_s = F_s.  The values
    # descend, compared as integers over their common denominator.
    den = math.lcm(*(d for _, d in factors))
    slopes = sorted(factors, key=lambda s: s[0] * (den // s[1]), reverse=True)
    stack = factors[slopes[0]] if slopes else {}
    for s in slopes[1:]:
        factor = {g: xg for g, xg in factors[s].items() if xg.poly}
        stack = {a: _chain_sum(q, stack, a, factor.get,
                               _factor_steps(a, factor)) for a in classes}

    sd_stack = None
    sd_side = (table.sd_eps is not None and source.self_dual
               and target.self_dual)
    if sd_side:
        sd_classes = q.sd_classes_up_to(bound)
        z = _numerators(table.sd_eps, lambda th: sd_gl_poly(q, th),
                        "M_sd(theta) eps_sd(theta)")
        root = exps.get((0, 1))

        def half(g: DimVector) -> Weight:
            return root(g, 2) if root and value(g) == (0, 1) else None
        module = {th: _sd_action(q, th, half, lambda rho: z.get(rho, _ZERO))
                  for th in sd_classes}
        for s in [s for s in reversed(slopes) if s[0] > 0]:
            x = factors[s].get
            module = {th: _sd_action(q, th, x, module.get)
                      for th in sd_classes}
        sd_stack = {th: _integral(module[th],
                                  lambda: "M_sd(theta) I_sd(theta)", th)
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
