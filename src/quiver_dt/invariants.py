"""Semistable integrals, epsilon integrals, and DT invariants.

One engine per quiver and weight ray holds every invariant as a memoised
function of its class, computed on first use from the classes below it, so
no value depends on the bound a query names.

Component integrals from the motives module feed a gated prefix-sum
recursion that inverts the filtration identity and yields the semistable
integrals of each slope s; its entries live on the zero class and the
classes of slope above s.  A stack class is q^e(a) / M(a), with M(a) =
prod_i P(a_i) and P(n) = prod_{k=1..n} (q^2k - 1) (see motives), so the
recursion keeps D = M d in place of each rational entry d, and every step
is an integer product through q^2-binomials (Reineke, The Harder-Narasimhan
system in quantum groups and cohomology of quiver moduli, 2003).  The entry
at p reads s only through the classes c <= p of slope above s, so slope
values that agree on them share it: each engine computes it once per such
region (_Engine._dom_table).  The star powers of a slope's semistable
element are integer numerators over M in the same way, listed up to the
last one that can be nonzero.  A power series in them, such as the
star-logarithm that gives the epsilon integrals or the inverse square root
at slope 0, is one integer numerator over one integer, the lcm of its
coefficients' denominators (_series), divided by M only at the end, as a
RatFunc.  Where a class has no decomposition into two
or more nonzero classes of its slope value, the star-log is its first term,
so the epsilon integral is the semistable integral, the same RatFunc.

On the self-dual side, semistable integrals are the slope-0 entries acting
on the module stack classes, and epsilon integrals are the inverse square
root acting on those (M. B. Young, The Hall module of an exact category
with duality, 2016): sums over theta = g + rho + g^v, kept as integer
numerators over M_sd(theta) (see motives), since the ratio of
M_sd(theta) to M(g) M_sd(rho) is a polynomial (_sd_action), so each value
is one RatFunc built at the end.  Meinhardt and Reineke (arXiv:1411.4062)
show why the motivic invariants are Laurent polynomials, which the tables
check as no pole at q = 1 or q = -1 (no_pole_report).  On the linear side
the motivic invariant is (q - 1/q) times the epsilon integral, taken from
the epsilon integral's canonical form without a gcd
(RatFunc.times_q_minus_qinv).  Numerical invariants evaluate the motivic
ones at q = -1; pole orders and values are read off the integer form of a
RatFunc, and a table renders as JSON through json_text, which has each
RatFunc write itself (RatFunc.to_json).

At a self-dual slope, duality maps the semistable objects of class a and
value s to those of class a^v and value -s and reverses the Hall product
(Young 2016, above), and M(a^v) = M(a).  So X, the star powers, epsilon,
DTmot and the inverse square root's weights agree at a and a^v: the engine
computes them once per pair, at _Engine._rep(a), and builds no recursion
table at a negative value.

Slope values are integer pairs (n, d) in lowest terms, d > 0, never
Fractions: an engine's weights are integers (_ray), so a class's value is
one integer sum and one gcd, equal values are equal pairs that key one
recursion table, and regions, star powers and the mirror compare values by
cross-multiplying.  Slope.value is the same rule in Fraction arithmetic.

Wall-crossing, which shares the integer kernels _chain_sum, _star_powers
and _sd_action, factors a stack element on the engine _seeded_engine picks:
the cached engine where the element's numerators are its own q^e(a) and
q^e_sd(theta), else a seeded engine that reads them in their place and
computes both halves.

Engines are cached on their quiver, keyed by weight ray (_engine) and
emptied when the calibration changes (SelfDualQuiver.set_calibration), so
repeated queries share work, a new calibration never returns values
computed under the old one, and the engines go when the quiver does.
_engine alone checks a slope and calibrates the quiver before an engine is
built.  Each engine memoises each class's finished scalars (_finish).
"""

from __future__ import annotations

import math
import weakref
from collections import defaultdict
from fractions import Fraction
from functools import cache, lru_cache, partial
from json.encoder import encode_basestring_ascii
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional,
                    Tuple)

from .motives import (over_gl_denominator, over_sd_denominator, q2_binomial,
                      sd_ratio, sd_stack_class, sd_stack_exponent,
                      stack_class, stack_exponent)
from .oracle import ensure_calibrated
from .quiver import (DimVector, SelfDualQuiver, Slope, ValidationError,
                     boxed_vectors, vadd, vsub, vtotal)
from .ratfunc import Laurent, RatFunc, laurent_sum, q_minus_qinv

if TYPE_CHECKING:
    from .torus import TorusElem, TorusModElem


class NoPoleViolation(RuntimeError):
    """A motivic invariant has a pole at q = 1 or q = -1."""


_ONE = Laurent({0: 1})
_ZERO = Laurent({})

# A weight for _sd_action: (W, k), or None where the element is zero.
Weight = Optional[Tuple[Laurent, int]]

# A slope value n / d as the integer pair (n, d) in lowest terms, d > 0, so
# that equal values are equal pairs.
Value = Tuple[int, int]


def _binomials(top: DimVector, p: DimVector) -> List[Laurent]:
    """The q^2-binomials [top_i, p_i] != 1: M(top) / (M(p) M(top - p))."""
    return [q2_binomial(n, k) for n, k in zip(top, p) if 0 < k < n]


def _chain_sum(quiver: SelfDualQuiver, tab: Dict[DimVector, Laurent],
               top: DimVector, x: Callable[[DimVector], Optional[Laurent]],
               sign: int = 1) -> Laurent:
    """sign times M(top) times the sum of d(p) c(top - p) q^<p, top - p>
    over the entries p <= top of tab, where d(p) = tab[p] / M(p), d(0) = 1,
    c(0) = 1 and c(v) = x(v) / M(v) for v nonzero, x(v) None where c is
    zero.  Each term 0 < p < top is tab[p] x(top - p) times the
    q^2-binomials [top_i, p_i]: no denominator is left.  The zero class's
    term is x(top), and tab is not asked at 0; the unit's term is tab[top]
    itself, if tab has it, and x is not asked at 0.  Where one of these two
    is the only term, it is returned as it is, negated for sign -1."""
    terms = []
    for p in boxed_vectors(top)[1:-1]:
        dp = tab.get(p)
        if dp is not None:
            step = vsub(top, p)
            c = x(step)
            if c is not None:
                terms.append((quiver.commutation_exponent(p, step),
                              [dp, c] + _binomials(top, p)))
    if any(top):
        c = x(top)
        if c is not None:
            terms.append((0, [c]))
    own = tab.get(top)
    if own is not None:
        terms.append((0, [own]))
    if len(terms) == 1 and len(terms[0][1]) == 1:
        only = terms[0][1][0]
        return only if sign == 1 else Laurent(
            {e: -c for e, c in only.poly.items()})
    return laurent_sum(terms, sign)


@lru_cache(maxsize=4096)
def _below(p: DimVector) -> Tuple[DimVector, ...]:
    """The classes p - e_i, for each i with p_i > 0."""
    return tuple(p[:i] + (n - 1,) + p[i + 1:] for i, n in enumerate(p) if n)


def _star_powers(quiver: SelfDualQuiver, g: DimVector,
                 value: Callable[[DimVector], Value],
                 x: Callable[[DimVector], Laurent],
                 powers: Callable[[DimVector], List[Laurent]]
                 ) -> List[Laurent]:
    """[P_1(g), ..., P_m(g)] with y^{*n}_g = (q - 1/q) P_n(g) / M(g), for
    y = sum_a (q - 1/q) x(a) / M(a) [a] over the classes a of g's value.  By
    the identity _chain_sum uses, P_1 = x and P_n(g) is the sum over the
    classes 0 < p < g of g's value of P_{n-1}(p) x(g - p) prod_i [g_i, p_i]
    q^<p, g - p>, with powers(p) the list at p.  The list stops at the last
    n whose sum has a term, every later P_n being zero, so m <= |g|, and m =
    1 exactly when no class 0 < p < g of g's value has x(g - p) nonzero."""
    s = value(g)
    terms: List[list] = []
    for p in boxed_vectors(g):
        if p == g or not any(p) or value(p) != s:
            continue
        step = vsub(g, p)
        xs = x(step)
        if xs.poly:
            rest = [xs] + _binomials(g, p)
            tw = quiver.commutation_exponent(p, step)
            for n, pn in enumerate(powers(p)):
                if n == len(terms):
                    terms.append([])
                terms[n].append((tw, [pn] + rest))
    return [x(g)] + [laurent_sum(t) for t in terms]


def _over_lcm(cs: List[Fraction]) -> Tuple[List[Laurent], int]:
    """([c_1 k, c_2 k, ...], k) for k the lcm of the denominators of cs."""
    k = math.lcm(*(c.denominator for c in cs))
    return [Laurent({0: c.numerator * (k // c.denominator)}) for c in cs], k


@cache
def _log_coeffs(n: int) -> Tuple[List[Laurent], int]:
    """The star-log coefficients (-1)^(i-1) / i, i = 1..n, over their lcm."""
    return _over_lcm([Fraction((-1) ** (i - 1), i) for i in range(1, n + 1)])


@cache
def _root_coeffs(n: int) -> Tuple[List[Laurent], int]:
    """The inverse-square-root coefficients binom(-1/2, i) = (-1)^i C(2i, i)
    / 4^i, i = 1..n, over their lcm."""
    return _over_lcm([Fraction((-1) ** i * math.comb(2 * i, i), 4 ** i)
                      for i in range(1, n + 1)])


def _series(powers: List[Laurent],
            coeffs: Tuple[List[Laurent], int]) -> Tuple[Laurent, int]:
    """(W, k) with sum_n c_n P_n = W / k, for powers = [P_1, P_2, ...] and
    coeffs = ([c_1 k, c_2 k, ...], k), as one of the cached coefficient
    lists over their lcm k gives them: W lies in Z[q, 1/q].  W is P_1
    itself where it is the only power and c_1 k = 1."""
    ms, k = coeffs
    if len(powers) == 1 and ms[0].poly == {0: 1}:
        return powers[0], k
    return laurent_sum([(0, [m, pn]) for m, pn in zip(ms, powers)]), k


def _sd_action(quiver: SelfDualQuiver, th: DimVector,
               weight: Callable[[DimVector], Weight],
               module: Callable[[DimVector], Laurent]) -> Tuple[Laurent, int]:
    """(S, k) with S / (k M_sd(th)) the th-coefficient of x acting on m, for
    x = [0] + sum_g (q - 1/q) W(g) / (k_g M(g)) [g] over g nonzero,
    weight(g) = (W(g), k_g) or None where x is zero, and m = sum_rho
    module(rho) / M_sd(rho) [rho].  Over th = g + rho + g^v, each term g
    nonzero is W(g) module(rho) q^tw(g, rho) k / k_g times the polynomial
    M_sd(th) / (M(g) M_sd(rho)) (motives.sd_ratio), k the lcm of the k_g.
    rho is self-dual whenever th is, as g + g^v is and has even entries at
    fixed vertices.  The unit's term is module(th) k, and weight is not
    asked at 0; where it is the only term, (module(th), 1) is returned."""
    terms = []
    for g in boxed_vectors(th)[1:]:
        rho = vsub(th, vadd(g, quiver.dual_vector(g)))
        if min(rho) < 0:
            continue
        w = weight(g)
        if w is None or not w[0].poly:
            continue
        m = module(rho)
        if m.poly:
            terms.append((w[1], quiver.sd_twist_exponent(g, rho),
                          [w[0], m] + sd_ratio(quiver, g, rho)))
    own = module(th)
    if not terms:
        return own, 1
    if own.poly:
        terms.append((1, 0, [own]))
    k = math.lcm(*(kg for kg, _, _ in terms))
    return laurent_sum([
        (tw, factors if kg == k else factors + [Laurent({0: k // kg})])
        for kg, tw, factors in terms]), k


def _dual_symmetric(quiver: SelfDualQuiver, values: dict) -> bool:
    """Whether values[a^v] is values[a], or an equal value, for every class a
    of values."""
    for a, v in values.items():
        w = values.get(quiver.dual_vector(a))
        if w is not v and (w is None or v != w):
            return False
    return True


def _per_class(method, mirrored=False):
    """An engine method of one class, computed once per engine and class, or
    once per duality pair {a, a^v} if mirrored (see _Engine._rep)."""
    name = method.__name__

    def memoised(self, a):
        if mirrored:
            a = self._rep(a)
        memo = self._memo[name]
        if a not in memo:
            memo[a] = method(self, a)
        return memo[a]
    memoised.__doc__ = method.__doc__
    return memoised


# _per_class for a linear value that a and a^v share.
_per_pair = partial(_per_class, mirrored=True)


class _Engine:
    """Every invariant of one quiver and weight ray, memoised per class: as
    integer Laurent numerators over M(a) on the linear side and over
    M_sd(theta) on the self-dual side, and as the RatFunc values built from
    them.

    A cached engine at a self-dual slope memoises the linear values that a
    and a^v share once per pair, at _rep(a) (Young 2016, as in the module
    docstring); a seeded one (seed_bound set, see _seeded_engine) computes
    both halves."""

    def __init__(self, quiver: SelfDualQuiver, slope: Slope):
        self.quiver = quiver
        # The slope of the primitive integer vector on slope's ray (_ray).
        self.slope = Slope(_ray_of(slope)[0])
        self.zero = tuple(0 for _ in quiver.vertices)
        self.seed_bound: Optional[int] = None
        self.self_dual = self.slope.is_self_dual(quiver)
        self._memo: Dict[str, dict] = defaultdict(dict)
        self._dom: Dict[Value, Dict[DimVector, Optional[Laurent]]] = {}
        self._ids: Dict[Value, Dict[DimVector, int]] = {}
        self._regions: Dict[tuple, int] = {}
        self._store: Dict[int, Laurent] = {}

    # -- component integrals ----------------------------------------------

    @_per_class
    def value(self, a: DimVector) -> Value:
        """The slope value of a nonzero class, slope.value(a) as a pair."""
        n = sum([w * x for w, x in zip(self.slope.weights, a)])
        d = sum(a)
        g = math.gcd(n, d)
        return n // g, d // g

    @_per_class
    def _rep(self, a: DimVector) -> DimVector:
        """The class whose linear values a reads: a^v where the engine is
        cached at a self-dual slope and a's value is below 0, or is 0 with
        a^v < a; else a."""
        if not self.self_dual or self.seed_bound is not None or not any(a):
            return a
        n = self.value(a)[0]
        b = self.quiver.dual_vector(a)
        return b if n < 0 or n == 0 and b < a else a

    def _refuse_beyond_seed(self, a: DimVector) -> None:
        if self.seed_bound is not None:
            raise ValueError(
                f"{a} lies beyond the seeded bound {self.seed_bound}")

    @_per_class
    def _numerator(self, a: DimVector) -> Laurent:
        """N(a) = M(a) times the component integral of a: q^e(a)."""
        self._refuse_beyond_seed(a)
        return Laurent({stack_exponent(self.quiver, a): 1})

    @_per_class
    def _sd_numerator(self, th: DimVector) -> Laurent:
        """M_sd(th) times the self-dual component integral: q^e_sd(th)."""
        self._refuse_beyond_seed(th)
        return Laurent({sd_stack_exponent(self.quiver, th): 1})

    # -- gated prefix-sum recursion -----------------------------------------

    def _dom_table(self, s: Value,
                   top: DimVector) -> Dict[DimVector, Optional[Laurent]]:
        """The entries D(s, p) = M(p) d(s, p), filled in up to top, where d
        is the inverse of the component-integral element restricted to the
        zero class and the region of s, the classes of slope above s; None
        on every other class.  An entry reads only the entries below it
        (see _chain_sum), and boxed_vectors lists those first.

        D(s, p) depends on s only through the region's part in the box [0,
        p], which is {p, if p lies in the region} with the parts at each p -
        e_i.  So the slot (s, p) gets the id interned from p, whether p lies
        in the region, and the ids at p - e_i (_region_key): equal ids are
        equal parts.  The engine's store holds one entry per id, computed
        the first time the id appears, and the table of s refers into it."""
        tab = self._dom.get(s)
        if tab is None:
            # The zero class's entry is the unit; no region has id -1.
            tab = self._dom[s] = {self.zero: _ONE}
            self._ids[s] = {self.zero: -1}
        if top not in tab:
            ids, regions, store = self._ids[s], self._regions, self._store
            for p in boxed_vectors(top):
                if p not in tab:
                    key = self._region_key(s, p, ids)
                    rid = regions.get(key)
                    if rid is None:
                        rid = regions[key] = len(regions)
                        n, d = self.value(p)
                        if n * s[1] > s[0] * d:
                            store[rid] = _chain_sum(self.quiver, tab, p,
                                                    self._numerator, -1)
                    ids[p] = rid
                    tab[p] = store.get(rid)
        return tab

    def _region_key(self, s: Value, p: DimVector,
                    ids: Dict[DimVector, int]) -> tuple:
        """p, whether p lies in the region of s, and the ids at p - e_i."""
        n, d = self.value(p)
        return (p, n * s[1] > s[0] * d, *[ids[b] for b in _below(p)])

    @_per_pair
    def _semistable_num(self, a: DimVector) -> Laurent:
        """X(a) = M(a) times the semistable integral of a."""
        if not any(a):
            return _ONE
        return _chain_sum(self.quiver, self._dom_table(self.value(a), a), a,
                          self._numerator)

    @_per_pair
    def semistable(self, a: DimVector) -> RatFunc:
        return over_gl_denominator(self._semistable_num(a).poly, a)

    # -- star powers: star-log and inverse square root ----------------------

    @_per_pair
    def _powers(self, g: DimVector) -> List[Laurent]:
        """The star powers of the semistable element of g's slope at g (see
        _star_powers), with P_1 = X."""
        return _star_powers(self.quiver, g, self.value, self._semistable_num,
                            self._powers)

    @_per_pair
    def epsilon(self, a: DimVector) -> RatFunc:
        """The epsilon integral of a, E(a) / (L M(a)) with E / L = sum_n
        (-1)^(n-1) P_n / n, the star-log at a (see _series): the semistable
        integral itself where it has one term (E / L = X).  Zero at 0."""
        if not any(a):
            return over_gl_denominator({}, a)
        powers = self._powers(a)
        if len(powers) == 1:
            return self.semistable(a)
        e, lcm = _series(powers, _log_coeffs(len(powers)))
        return over_gl_denominator(e.poly, a, Fraction(1, lcm))

    @_per_pair
    def dt_motivic(self, a: DimVector) -> RatFunc:
        """The motivic invariant of a, (q - 1/q) times the epsilon
        integral."""
        return self.epsilon(a).times_q_minus_qinv()

    @_per_pair
    def _root_weight(self, g: DimVector) -> Weight:
        """(W(g), k) with (1 + x)^(-1/2) = [0] + sum_g (q - 1/q) W(g) / (k
        M(g)) [g] for the semistable element x at slope 0, g nonzero, None
        off slope 0: W(g) / k = sum_n binom(-1/2, n) P_n(g) (see _series),
        where binom(-1/2, n) = (-1)^n C(2n, n) / 4^n."""
        if self.value(g)[0]:
            return None
        powers = self._powers(g)
        return _series(powers, _root_coeffs(len(powers)))

    # -- self-dual side -----------------------------------------------------

    def _check_sd(self, th: DimVector) -> None:
        if not self.quiver.is_sd_class(th):
            raise ValueError(f"{th} is not a self-dual class")
        if not self.self_dual:
            self.slope.validate_self_dual(self.quiver)

    @_per_class
    def _sd_semistable_num(self, th: DimVector) -> Laurent:
        """M_sd(th) times the self-dual semistable integral of th: the
        slope-0 entries d(0, g) acting on the self-dual component
        integrals."""
        dom = self._dom_table((0, 1), th)
        return _sd_action(self.quiver, th, lambda g: None if dom[g] is None
                          else (dom[g], 1), self._sd_numerator)[0]

    @_per_class
    def sd_semistable(self, th: DimVector) -> RatFunc:
        self._check_sd(th)
        return over_sd_denominator(self.quiver,
                                   self._sd_semistable_num(th).poly, th)

    @_per_class
    def sd_dt_motivic(self, th: DimVector) -> RatFunc:
        """The self-dual epsilon integral of th: the inverse square root of
        the semistable element at slope 0 acting on the self-dual
        semistable element."""
        self._check_sd(th)
        num, k = _sd_action(self.quiver, th, self._root_weight,
                            self._sd_semistable_num)
        return over_sd_denominator(self.quiver, num.poly, th, Fraction(1, k))

    # -- finished scalars (_finish) -----------------------------------------

    @_per_pair
    def _finished(self, a: DimVector) -> tuple:
        return _finish(self.dt_motivic(a))

    @_per_class
    def _sd_finished(self, th: DimVector) -> tuple:
        return _finish(self.sd_dt_motivic(th))


def _finish(dtm: RatFunc) -> Tuple[int, int, Optional[Fraction]]:
    """A motivic invariant's pole orders at q = 1 and q = -1 and its value
    at -1, None at a pole."""
    minus = dtm.pole_order_at(-1)
    return dtm.pole_order_at(1), minus, None if minus > 0 else dtm.eval_at(-1)


# Engines live in their quiver's engine_cache, so they go when the quiver
# does.  _CACHE_OWNERS lets clear_cache reach every live quiver holding one.
_CACHE_OWNERS: "weakref.WeakSet[SelfDualQuiver]" = weakref.WeakSet()


@lru_cache(maxsize=4096)
def _ray(weights: Tuple[Tuple[int, int], ...]) -> Tuple[tuple, Fraction]:
    """(r, c), r primitive integral and c > 0, with w = c r for the weights
    w_i = n_i / d_i given as pairs (n_i, d_i); r = 0 and c = 1 for w = 0."""
    den = math.lcm(*(d for _, d in weights))
    nums = [n * (den // d) for n, d in weights]
    g = math.gcd(*nums) or den
    return tuple(n // g for n in nums), Fraction(g, den)


def _ray_of(slope: Slope) -> Tuple[tuple, Fraction]:
    """_ray of the slope's weights, read as integers: no Fraction hashed."""
    return _ray(tuple([(w.numerator, w.denominator) for w in slope.weights]))


def _engine(quiver: SelfDualQuiver, slope: Slope) -> _Engine:
    """The quiver's cached engine on slope's ray, once each weight is found
    to be an int or a Fraction (0.5 or True would find the engine of 1/2 or
    1) and the quiver calibrated: the one gate before an engine is built.
    Stability reads the weights only through the order of slope values
    (Rudakov, Stability for an abelian category, 1997), which c > 0 keeps:
    weights c r share the engine at the primitive integer vector r (_ray),
    and a value handed to a caller is c times the engine's."""
    for w in slope.weights:
        if type(w) is bool or not isinstance(w, (int, Fraction)):
            raise ValidationError(f"slope weight of type {type(w).__name__} "
                                  "is not an int or a Fraction")
    ensure_calibrated(quiver)
    ray = _ray_of(slope)[0]
    eng = quiver.engine_cache.get(ray)
    if eng is None:
        if len(slope.weights) != len(quiver.vertices):
            raise ValidationError(
                f"slope has {len(slope.weights)} weights for "
                f"{len(quiver.vertices)} vertices")
        eng = quiver.engine_cache[ray] = _Engine(quiver, slope)
        _CACHE_OWNERS.add(quiver)
    return eng


def _seeded_engine(quiver: SelfDualQuiver, slope: Slope,
                   numerators: Dict[DimVector, Laurent],
                   sd_numerators: Optional[Dict[DimVector, Laurent]]
                   ) -> _Engine:
    """The engine whose component integrals are read off the numerators
    given, N(a) = M(a) I(a) on the linear side and M_sd(theta) I_sd(theta)
    on the self-dual side.  Where these are the quiver's own, q^e(a) and
    q^e_sd(theta), it is the cached engine at slope, as an engine's values
    depend on its numerators alone; else it is a new engine that reads them,
    refuses a class beyond the largest total of a linear class given (its
    seed_bound) and stays out of the engine cache."""
    eng = _engine(quiver, slope)
    sd_numerators = sd_numerators or {}
    own = [(eng._numerator, numerators), (eng._sd_numerator, sd_numerators)]
    if all(f(a).poly == n.poly for f, ns in own for a, n in ns.items()):
        return eng
    eng = _Engine(quiver, slope)
    eng.seed_bound = max(map(vtotal, numerators), default=0)
    eng._memo["_numerator"].update(numerators)
    eng._memo["_sd_numerator"].update(sd_numerators)
    return eng


def clear_cache() -> None:
    for quiver in list(_CACHE_OWNERS):
        quiver.engine_cache.clear()
    _CACHE_OWNERS.clear()


def _query(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int]) -> tuple[_Engine, DimVector]:
    """The engine for a scalar query at alpha, and alpha as a tuple, once
    alpha is checked to be a class of the quiver within the bound, if one
    is given."""
    a = tuple(alpha) if isinstance(alpha, (tuple, list)) else ()
    if len(a) != len(quiver.vertices) or not all(
            type(x) is int and x >= 0 for x in a):
        raise ValidationError(
            f"{alpha!r} is not a class: it needs {len(quiver.vertices)} "
            "non-negative integer entries")
    if bound is not None and vtotal(a) > bound:
        raise ValueError(f"class {a} lies beyond the bound {bound}")
    return _engine(quiver, slope), a


# -- scalar interface -------------------------------------------------------------

def semistable_integral(quiver: SelfDualQuiver, slope: Slope,
                        alpha: DimVector, bound: Optional[int] = None) -> RatFunc:
    eng, a = _query(quiver, slope, alpha, bound)
    return eng.semistable(a)


def sd_semistable_integral(quiver: SelfDualQuiver, slope: Slope,
                           theta: DimVector,
                           bound: Optional[int] = None) -> RatFunc:
    eng, th = _query(quiver, slope, theta, bound)
    return eng.sd_semistable(th)


def epsilon_integral(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
                     bound: Optional[int] = None) -> RatFunc:
    eng, a = _query(quiver, slope, alpha, bound)
    return eng.epsilon(a)


def sd_epsilon_integral(quiver: SelfDualQuiver, slope: Slope,
                        theta: DimVector,
                        bound: Optional[int] = None) -> RatFunc:
    eng, th = _query(quiver, slope, theta, bound)
    return eng.sd_dt_motivic(th)


def _regular(fin: tuple, what: str, alpha: DimVector) -> Fraction:
    """The value at q = -1 of a finished scalar, once the motivic invariant
    it finishes, what at alpha, is found to have no pole at q = 1 or -1."""
    for point, order in zip((1, -1), fin):
        if order > 0:
            raise NoPoleViolation(f"{what} at {alpha} has a pole of order "
                                  f"{order} at q = {point}")
    return fin[2]


def dt_mot(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int] = None) -> RatFunc:
    eng, a = _query(quiver, slope, alpha, bound)
    _regular(eng._finished(a), "motivic invariant", alpha)
    return eng.dt_motivic(a)


def sd_dt_mot(quiver: SelfDualQuiver, slope: Slope, theta: DimVector,
              bound: Optional[int] = None) -> RatFunc:
    eng, th = _query(quiver, slope, theta, bound)
    _regular(eng._sd_finished(th), "self-dual motivic invariant", theta)
    return eng.sd_dt_motivic(th)


def dt_num(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int] = None) -> Fraction:
    eng, a = _query(quiver, slope, alpha, bound)
    return _regular(eng._finished(a), "motivic invariant", alpha)


def sd_dt_num(quiver: SelfDualQuiver, slope: Slope, theta: DimVector,
              bound: Optional[int] = None) -> Fraction:
    eng, th = _query(quiver, slope, theta, bound)
    return _regular(eng._sd_finished(th), "self-dual motivic invariant", theta)


# -- element interface ------------------------------------------------------------

def slope_values(quiver: SelfDualQuiver, slope: Slope,
                 bound: int) -> List[Fraction]:
    value, c = _engine(quiver, slope).value, _ray_of(slope)[1]
    pairs = {value(a) for a in quiver.dim_vectors_up_to(bound)}
    return sorted((c * Fraction(n, d) for n, d in pairs), reverse=True)


# The engine and the transform build no torus elements; the functions below
# do, for the tests and for comparisons with the torus algebra, and import
# the torus module when called, so the CLI and the scalar and table queries
# never load it.

def _slope_element(quiver: SelfDualQuiver, slope: Slope, value: Fraction,
                   bound: int, coeff: Callable) -> TorusElem:
    from .torus import TorusElem
    eng = _engine(quiver, slope)
    v = value / _ray_of(slope)[1]
    s = v.numerator, v.denominator
    return TorusElem(quiver, {a: coeff(eng, a)
                              for a in quiver.dim_vectors_up_to(bound)
                              if eng.value(a) == s}, bound)


def _module_element(quiver: SelfDualQuiver, slope: Slope, bound: int,
                    coeff: Callable) -> TorusModElem:
    from .torus import TorusModElem
    eng = _engine(quiver, slope)
    return TorusModElem(quiver, {th: coeff(eng, th) for th
                                 in quiver.sd_classes_up_to(bound)}, bound)


def semistable_element(quiver: SelfDualQuiver, slope: Slope, value: Fraction,
                       bound: int) -> TorusElem:
    return _slope_element(quiver, slope, value, bound, lambda eng, a:
                          eng.semistable(a).times_q_minus_qinv())


def epsilon_element(quiver: SelfDualQuiver, slope: Slope, value: Fraction,
                    bound: int) -> TorusElem:
    """log(1 + x) for the semistable element x of slope value."""
    return _slope_element(quiver, slope, value, bound, _Engine.dt_motivic)


def sd_semistable_element(quiver: SelfDualQuiver, slope: Slope,
                          bound: int) -> TorusModElem:
    return _module_element(quiver, slope, bound, _Engine.sd_semistable)


def sd_epsilon_element(quiver: SelfDualQuiver, slope: Slope,
                       bound: int) -> TorusModElem:
    return _module_element(quiver, slope, bound, _Engine.sd_dt_motivic)


def integrated_stack_element(quiver: SelfDualQuiver, bound: int) -> TorusElem:
    """Unit plus the integrated component classes of all nonzero classes."""
    from .torus import TorusElem, integrated_unit
    ensure_calibrated(quiver)
    pref = q_minus_qinv()
    coeffs = {a: pref * stack_class(quiver, a)
              for a in quiver.dim_vectors_up_to(bound)}
    return integrated_unit(quiver, bound) + TorusElem(quiver, coeffs, bound)


def sd_stack_element(quiver: SelfDualQuiver, bound: int) -> TorusModElem:
    from .torus import TorusModElem
    ensure_calibrated(quiver)
    coeffs = {th: sd_stack_class(quiver, th)
              for th in quiver.sd_classes_up_to(bound)}
    return TorusModElem(quiver, coeffs, bound)


# -- JSON -----------------------------------------------------------------------------

def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), for obj built of dicts
    with str keys, lists, str, int, bool, None and RatFunc, each RatFunc
    written as its to_data(); TypeError on anything else.  The standard
    encoder runs in pure Python whenever it indents; this writer joins the
    strings of each container in one step, and a RatFunc writes itself in
    one step (RatFunc.to_json), with no data built for it."""
    return _json_text(obj, "\n")


def _json_text(obj, nl: str) -> str:
    # The exact types of table output are tried first; subclasses, bool and
    # None take the isinstance tests after them.
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is RatFunc:
        return obj.to_json(nl)
    if t is list or isinstance(obj, list):
        if not obj:
            return "[]"
        inner = nl + "  "
        # The item strings go once joined, before the brackets are added.
        return ("[" + inner + ("," + inner).join(
            map(int.__repr__, obj) if all(type(v) is int for v in obj)
            else [_json_text(v, inner) for v in obj]) + nl + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object key {key!r} is not a str")
            parts.append(encode_basestring_ascii(key) + ": "
                         + _json_text(obj[key], inner))
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON-writable")


# -- tables ---------------------------------------------------------------------------

class InvariantRow(NamedTuple):
    dim_vector: DimVector
    semistable: RatFunc
    epsilon: RatFunc
    dt_motivic: RatFunc
    dt_numeric: Optional[Fraction]


class InvariantTable(NamedTuple):
    """Per-class invariants for one quiver, slope, and bound.

    Rows list every class within the bound whose semistable integral is
    nonzero, in graded lexicographic order.  sd_rows may be empty when the
    slope is not self-dual (flagged by sd_included)."""

    quiver_data: dict
    slope_data: Dict[str, str]
    bound: int
    sd_included: bool
    rows: List[InvariantRow]
    sd_rows: List[InvariantRow]

    def _data(self, ratfunc: Callable[[RatFunc], object]) -> dict:
        """The table as JSON data, each RatFunc as ratfunc gives it."""
        def row_data(r: InvariantRow) -> dict:
            return {
                "class": list(r.dim_vector),
                "J": ratfunc(r.semistable),
                "eps": ratfunc(r.epsilon),
                "DTmot": ratfunc(r.dt_motivic),
                "DTnum": (str(r.dt_numeric)
                          if r.dt_numeric is not None else None),
            }
        return {
            "quiver": self.quiver_data,
            "slope": dict(self.slope_data),
            "bound": self.bound,
            "sd_included": self.sd_included,
            "rows": [row_data(r) for r in self.rows],
            "sd_rows": [row_data(r) for r in self.sd_rows],
        }

    def to_data(self) -> dict:
        return self._data(RatFunc.to_data)

    @classmethod
    def from_data(cls, data: dict) -> "InvariantTable":
        def parse_row(row: dict) -> InvariantRow:
            num = row.get("DTnum")
            return InvariantRow(
                tuple(int(x) for x in row["class"]),
                RatFunc.from_data(row["J"]),
                RatFunc.from_data(row["eps"]),
                RatFunc.from_data(row["DTmot"]),
                Fraction(num) if num is not None else None,
            )
        return cls(
            quiver_data=data["quiver"],
            slope_data={str(k): str(v) for k, v in data["slope"].items()},
            bound=int(data["bound"]),
            sd_included=bool(data["sd_included"]),
            rows=[parse_row(r) for r in data["rows"]],
            sd_rows=[parse_row(r) for r in data["sd_rows"]],
        )

    def to_json(self) -> str:
        """json_text(self.to_data()), with each RatFunc written by
        json_text itself."""
        return json_text(self._data(lambda rf: rf))

    CSV_HEADER = ("side", "class", "J", "eps", "DTmot", "DTnum")

    def csv_rows(self) -> List[tuple]:
        out = [self.CSV_HEADER]
        for side, rows in (("linear", self.rows), ("self-dual", self.sd_rows)):
            for r in rows:
                out.append((
                    side,
                    " ".join(str(x) for x in r.dim_vector),
                    str(r.semistable),
                    str(r.epsilon),
                    str(r.dt_motivic),
                    str(r.dt_numeric) if r.dt_numeric is not None else "",
                ))
        return out


def build_table(quiver: SelfDualQuiver, slope: Slope,
                bound: int) -> InvariantTable:
    """Compute the full invariant table.  Rows with a pole at q = -1 carry a
    null numeric entry instead of raising, so diagnostic reports can still be
    produced; the scalar dt functions raise instead."""
    eng = _engine(quiver, slope)
    rows = [InvariantRow(a, eng.semistable(a), eng.epsilon(a),
                         eng.dt_motivic(a), eng._finished(a)[2])
            for a in [eng.zero] + quiver.dim_vectors_up_to(bound)]
    sd_classes = quiver.sd_classes_up_to(bound) if eng.self_dual else []
    sd_rows = [InvariantRow(th, eng.sd_semistable(th), eng.sd_dt_motivic(th),
                            eng.sd_dt_motivic(th), eng._sd_finished(th)[2])
               for th in sd_classes]
    return InvariantTable(quiver.to_data(), slope.to_dict(quiver), bound,
                          eng.self_dual, rows, sd_rows)


def no_pole_report(table: InvariantTable) -> List[dict]:
    """Pole orders at q = 1 and q = -1 of each row's motivic invariant: (q -
    1/q) times the epsilon integral on the linear side, the epsilon integral
    itself on the self-dual side.  Both must be <= 0 everywhere."""
    out = []
    for side, rows in (("linear", table.rows), ("self-dual", table.sd_rows)):
        for r in rows:
            plus = r.dt_motivic.pole_order_at(1)
            minus = r.dt_motivic.pole_order_at(-1)
            out.append({
                "side": side,
                "class": r.dim_vector,
                "order_at_1": plus,
                "order_at_-1": minus,
                "ok": plus <= 0 and minus <= 0,
            })
    return out


def table_all_regular(table: InvariantTable) -> bool:
    return all(row["ok"] for row in no_pole_report(table))
