"""Transforms relating invariants at different stability conditions.

Tables of epsilon integrals cross from one slope function to another by
re-factorisation in the twisted algebra (see wallcross_epsilon), carried
out on Laurent numerators, each an integer Laurent polynomial over an
integer in lowest terms, over the motive denominators with the invariants
module's integer kernels, so that the only rational functions built are
the source values read and the target values returned.  One exponential
serves a crossing (_ExpMemo): invariants._series of exp over the
source engine's steps of each class, which never leave its value, and
Miller's recurrence where each twist is 0, as on every two-vertex and every
symmetric quiver.  The running product is invariants._chain_sum over a
factor's own classes (_factor_steps), and the action invariants._sd_action:
both are invariants._hall_sum.  Slope values, as integer pairs, and steps
come from the source slope's engine (filled by epsilon_table), source
values only from the table.  The stack element is factored at the target
slope on the engine invariants._seeded_engine picks: the cached one where
its numerators are the quiver's own, as for every table epsilon_table
makes.  Both functions read their table off an engine the one way,
_tabulate.  The same transform has a combinatorial form, a sum over
ordered decompositions of each class weighted by rational coefficients;
those coefficients are test code (tests/reference.py), and the tests check
the re-factorisation against them.

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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .invariants import (_ZERO, Step, TwistedStep, Value, _box_steps,
                         _chain_sum, _dual_symmetric, _engine, _Engine,
                         _ray_of, _sd_action, _seeded_engine, _series,
                         _star_powers)
from .motives import gl_poly, sd_gl_poly
from .quiver import (DimVector, SelfDualQuiver, Slope, ValidationError,
                     graded_lex_key, read_bound)
from .ratfunc import Laurent, RatFunc


class SlopePair(NamedTuple):
    """Source and target slope functions for a single crossing.

    Both live on the same quiver; the source is `plus`, the target `minus`.
    Any pair is admissible because the trivial slope function compares all
    classes equally, hence refines into both members.  wallcross_epsilon
    refuses a pair whose weight count is not the quiver's vertex count.
    """

    quiver: SelfDualQuiver
    plus: Slope
    minus: Slope


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
    read_bound(bound)
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


class _ExpMemo:
    """The star powers and the exp weights of one crossing's epsilon
    numerators y, memoised in dicts by methods bound per call: no function
    refers to itself, so no reference cycle keeps the memo, or the source
    engine that steps belongs to, once the crossing drops weight."""

    def __init__(self, steps: Callable[[DimVector], List[TwistedStep]],
                 y: Dict[DimVector, Laurent]):
        self.steps, self.x = steps, lambda a: y.get(a, _ZERO)
        self._powers: Dict[DimVector, List[Laurent]] = {}
        self._weights: Dict[Tuple[DimVector, int], Laurent] = {}

    def powers(self, g: DimVector) -> List[Laurent]:
        got = self._powers.get(g)
        if got is None:
            got = self._powers[g] = _star_powers(g, self.steps(g), self.x,
                                                 self.powers)
        return got

    def weight(self, g: DimVector, c: int) -> Laurent:
        """W with exp(e / c)_g = (q - 1/q) W / M(g), for g not zero and the
        epsilon element e = sum_a (q - 1/q) y[a] / M(a) [a] over the classes
        a of g's slope value: W = sum_n P_n(g) / (n! c^n), P_n the star
        powers of y, by invariants._series once per g and c over steps(g),
        g's decompositions into two classes of its value with their twists
        (the source engine's _steps), which never leave g's value: so y
        holds the numerators of every value."""
        got = self._weights.get((g, c))
        if got is None:
            got = self._weights[g, c] = _series(
                g, self.steps(g), self.x, c, lambda p: self.weight(p, c),
                _EXP, self.powers)
        return got


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
    invariants): each epsilon value that the crossing reads becomes an
    integer numerator over an integer (RatFunc.cleared), one exponential
    serves every slope's element (_ExpMemo, invariants._series over
    each class's steps), and the slope's semistable numerators X_s are its
    values at c = 1, which every sum leaves in lowest terms, so X_s lies in
    Z[q, 1/q] exactly where its denominator is 1 (_integral); the running
    product is multiplied by each slope's factor by invariants._chain_sum
    over that factor's nonzero classes g alone (_factor_steps: the entry at
    a - g, the binomials [a; a - g] and q^<a - g, g> for each g < a), and
    the factors act on the self-dual side by _sd_action, whose weights at
    slope 0 are the exponential's at c = 2, the unit terms left implicit,
    so a class that no nonzero step of a factor reaches keeps its entry.  A
    source table whose slope factors or self-dual numerators do not lie in
    Z[q, 1/q] is refused with ValueError.

    At a self-dual source slope and with a dual-symmetric table, the
    factors of values s < 0 are those of -s read at the dual classes (see
    the module docstring).  The self-dual side is crossed where the table
    has one and both slopes are self-dual.  A pair with a weight count or
    type that invariants._ray_of refuses is refused first, before any
    engine is read.
    """
    q, bound = pair.quiver, table.bound
    scale = _ray_of(pair.plus, q)[1]
    _ray_of(pair.minus, q)
    if table.quiver is not q:
        raise ValidationError("table and slope pair use different quivers")
    if table.slope.weights != pair.plus.weights:
        raise ValidationError("table was not computed at the source slope")
    source, target = _engine(q, pair.plus), _engine(q, pair.minus)
    value = source.value
    classes = q.dim_vectors_up_to(bound)
    mirror = source.self_dual and _dual_symmetric(q, table.eps)
    of_value: Dict[Value, List[DimVector]] = {}
    for g in classes:
        of_value.setdefault(value(g), []).append(g)
    # Mirrored, the values below 0 are read off their duals.
    y = _numerators({a: e for a, e in table.eps.items()
                     if e and not (mirror and value(a)[0] < 0)},
                    gl_poly, "M(a) eps(a)")
    weight = _ExpMemo(source._steps, y).weight
    # X_s(g) = M(g) J_s(g) for the classes g of slope s; X_s(0) = 1 is left
    # to _chain_sum and _sd_action.  Mirrored, X_-s(g^v) = X_s(g).
    factors: Dict[Value, Dict[DimVector, Laurent]] = {}
    for s in {value(a) for a in y}:
        n, d = s

        def what() -> str:  # called in this pass, at its n and d
            return f"M(a) J(a) at slope {scale * Fraction(n, d)}"
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

        def half(g: DimVector) -> Laurent:
            return (weight(g, 2) if value(g) == (0, 1) and (0, 1) in factors
                    else _ZERO)
        module = {th: _sd_action(q, th, half, lambda rho: z.get(rho, _ZERO))
                  for th in sd_classes}
        for s in [s for s in reversed(slopes) if s[0] > 0]:
            x = factors[s].get
            module = {th: _sd_action(q, th, x, module.get)
                      for th in sd_classes}
        sd_stack = {th: _integral(module[th],
                                  lambda: "M_sd(theta) I_sd(theta)", th)
                    for th in sd_classes}

    eng = _seeded_engine(target, {a: stack.get(a, _ZERO) for a in classes},
                         sd_stack)
    return _tabulate(eng, pair.minus, bound, sd_side)


def diff_tables(got: EpsilonTable, want: EpsilonTable) -> List[dict]:
    """Per-class comparison of two epsilon tables of one quiver and bound."""
    if got.bound != want.bound:
        raise ValidationError("cannot compare tables with different bounds")
    if got.quiver is not want.quiver:
        raise ValidationError("cannot compare tables on different quivers")
    sides = (("linear", got.eps, want.eps),
             ("self-dual", got.sd_eps, want.sd_eps))
    return [{"side": side, "class": a, "match": g[a] == w[a]}
            for side, g, w in sides if g is not None and w is not None
            for a in sorted(g, key=graded_lex_key)]
