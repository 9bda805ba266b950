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
region (_Engine._dom_table).  The kernels that sum over the decompositions
a = p + (a - p) of a class iterate one cached table per class, _box_steps(a),
which holds each p with a - p and its binomials, keyed by a - p: _chain_sum
all of it, the transform the entries at its factor's classes, and
_star_powers and _series the part with p of a's slope value, which each
engine keeps per class with the twists <p, a - p> (_Engine._steps); the
self-dual action iterates the decompositions theta = g + rho + g^v with
their ratios, kept per quiver and class (_sd_steps).  The Hall product and
the module action are one convolution over such steps, _hall_sum: a left
coefficient times a right one, times the ratio of motive denominators and
a q-power twist, plus the unit terms; _chain_sum twists by the commutation
form, _sd_action by the self-dual twist, which must be an integer.  A power
series in a slope's semistable element, such as the star-logarithm that
gives the epsilon integrals or the inverse square root at slope 0, is at
each class one Laurent, an integer numerator over an integer in lowest
terms, divided by M only at the end, as a RatFunc: one _series of the
differential equation it solves.  Where every twist of the class's steps
is 0, _series solves it through the degree derivation, one convolution per
class; elsewhere it sums the star powers of the element (_star_powers)
with the coefficients the equation gives (_coeffs).  Where no class below
contributes to the star-log, the epsilon integral is the semistable
integral, the same RatFunc.

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
ones at q = -1; a RatFunc reads its pole order and value at a point off
its integer num and den, one sweep of each (RatFunc.eval_at), and a table
renders as JSON through json_text, which has each RatFunc write itself
(RatFunc.to_json), once per object.

At a self-dual slope, duality maps the semistable objects of class a and
value s to those of class a^v and value -s and reverses the Hall product
(Young 2016, above), and M(a^v) = M(a).  So X, the series, the star
powers, epsilon, DTmot and the inverse square root's weights agree at a
and a^v: the engine computes them once per pair, at _Engine._rep(a), and
builds no recursion table at a negative value.

Slope values are integer pairs (n, d) in lowest terms, d > 0, never
Fractions: an engine's weights are integers (_ray), so a class's value is
one integer sum and one gcd, equal values are equal pairs that key one
recursion table, and regions, star powers and the mirror compare values by
cross-multiplying.  Slope.value is the same rule in Fraction arithmetic.

Wall-crossing, which shares the integer kernels _chain_sum and _sd_action
(both _hall_sum), _series and _star_powers, factors a stack element on the
engine _seeded_engine picks: the cached engine where the element's
numerators are its own q^e(a) and q^e_sd(theta), else a seeded engine that
reads them in their place and computes both halves.

Engines are cached on their quiver, keyed by weight ray (_engine) and
emptied when the calibration changes (SelfDualQuiver.set_calibration), so
repeated queries share work and a new calibration never returns values
computed under the old one.  An engine holds its quiver weakly
(_Engine.quiver), and no memo of an engine or of a crossing refers back to
the engine (wallcross._ExpMemo), so no reference cycle holds a quiver's
engines: by reference counting alone, they go with every table, Laurent
and RatFunc they memoise when the last reference to the quiver goes.
_engine alone checks a slope and calibrates the quiver before an engine is
built.  Each engine memoises each class's DTmot object, and each RatFunc
keeps one entry per point it has read (RatFunc.pole_order_at), so the
scalar queries, the tables and their no-pole report sweep each DTmot's
polynomials at q = 1 and q = -1 once per engine and class.
"""

from __future__ import annotations

import math
import weakref
from collections import defaultdict
from fractions import Fraction
from functools import cache, lru_cache, partial
from json.encoder import encode_basestring_ascii
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from .motives import (over_gl_denominator, over_sd_denominator, q2_binomial,
                      sd_ratio, sd_stack_exponent, stack_exponent)
from .oracle import CalibrationError, ensure_calibrated
from .quiver import (DimVector, SelfDualQuiver, Slope, ValidationError,
                     boxed_vectors, read_bound, vadd, vsub, vtotal)
from .ratfunc import Laurent, RatFunc, laurent_sum


class NoPoleViolation(RuntimeError):
    """A motivic invariant has a pole at q = 1 or q = -1."""


_ONE = Laurent({0: 1})
_ZERO = Laurent({})

# A slope value n / d as the integer pair (n, d) in lowest terms, d > 0, so
# that equal values are equal pairs.
Value = Tuple[int, int]


# A decomposition of a class into two classes, with the factors other than
# 1 of the ratio of motive denominators it needs: (p, top - p, the
# q^2-binomials [top_i, p_i] != 1) in _box_steps, (g, rho, the sd_ratio
# factors) in _sd_steps.  _Engine._steps adds the twist <p, top - p>.
Step = Tuple[DimVector, DimVector, Tuple[Laurent, ...]]
TwistedStep = Tuple[DimVector, DimVector, Tuple[Laurent, ...], int]


@lru_cache(maxsize=4096)
def _box_steps(top: DimVector) -> Dict[DimVector, Step]:
    """The steps (p, top - p, binomials) for each class 0 < p < top, keyed
    by top - p, in graded-lex order of p: a pure function of top, so every
    kernel, every engine and the transform read one table per class."""
    steps = {}
    for p in boxed_vectors(top)[1:-1]:
        r = vsub(top, p)
        steps[r] = (p, r, tuple([q2_binomial(n, k) for n, k in zip(top, p)
                                 if 0 < k < n]))
    return steps


def _hall_sum(steps: Iterable[Step],
              left: Callable[[DimVector], Optional[Laurent]],
              right: Callable[[DimVector], Optional[Laurent]],
              twist: Callable[[DimVector, DimVector], int],
              units: Iterable[Optional[Laurent]], sign: int = 1) -> Laurent:
    """sign times the sum of left(a) right(b) q^twist(a, b) times the
    factors, over the steps (a, b, factors) where both coefficients are
    nonzero, None reading as zero, plus the nonzero units: a coefficient of
    a Hall product or of the Hall module's action, on numerators over the
    motive denominators, whose ratios are the factors.  right and twist are
    asked only where left, and twist only where right, is nonzero.  A lone
    unit is returned as it is, negated for sign -1, and no term gives
    zero."""
    terms = []
    for a, b, factors in steps:
        la = left(a)
        if la is not None and la.poly:
            rb = right(b)
            if rb is not None and rb.poly:
                terms.append((twist(a, b), (la, rb, *factors)))
    units = [(0, (u,)) for u in units if u is not None and u.poly]
    if not terms and len(units) < 2:
        if not units:
            return _ZERO
        only = units[0][1][0]
        return only if sign == 1 else Laurent(
            {e: -c for e, c in only.poly.items()}, only.den)
    return laurent_sum(terms + units, sign)


def _chain_sum(quiver: SelfDualQuiver, tab: Dict[DimVector, Laurent],
               top: DimVector, x: Callable[[DimVector], Optional[Laurent]],
               steps: Iterable[Step], sign: int = 1) -> Laurent:
    """sign times M(top) times the sum of d(p) c(top - p) q^<p, top - p>
    over the entries p <= top of tab, where d(p) = tab[p] / M(p), d(0) = 1,
    c(0) = 1 and c(v) = x(v) / M(v) for v nonzero, x(v) None where c is
    zero: _hall_sum of tab and x over the steps (p, top - p, binomials)
    given, twisted by the commutation form, with the zero class's term
    x(top) and the unit's term tab[top] as units; tab is not asked at 0, and
    the q^2-binomials [top_i, p_i] leave no denominator.  The steps are
    those of _box_steps(top), or any of them outside which every term is
    zero (_factor_steps in wallcross)."""
    return _hall_sum(steps, tab.get, x, quiver.commutation_exponent,
                     (x(top), tab.get(top)), sign)


@lru_cache(maxsize=4096)
def _below(p: DimVector) -> Tuple[DimVector, ...]:
    """The classes p - e_i, for each i with p_i > 0."""
    return tuple(p[:i] + (n - 1,) + p[i + 1:] for i, n in enumerate(p) if n)


def _star_powers(g: DimVector, steps: List[TwistedStep],
                 x: Callable[[DimVector], Laurent],
                 powers: Callable[[DimVector], List[Laurent]]
                 ) -> List[Laurent]:
    """[P_1(g), ..., P_m(g)] with y^{*n}_g = (q - 1/q) P_n(g) / M(g), for
    y = sum_a (q - 1/q) x(a) / M(a) [a] over the classes a of g's value and
    steps g's decompositions (p, g - p, binomials, twist) into two classes
    of that value (_Engine._steps).  By the identity _chain_sum uses, P_1 =
    x and P_n(g) is the sum over the steps of P_{n-1}(p) x(g - p) prod_i
    [g_i, p_i] q^<p, g - p>, with powers(p) the list at p.  The list stops
    at the last n whose sum has a term, every later P_n being zero, so m <=
    |g|, and m = 1 exactly when no step has x(g - p) nonzero."""
    terms: List[list] = []
    for p, r, bins, tw in steps:
        xr = x(r)
        if xr.poly:
            for n, pn in enumerate(powers(p)):
                if n == len(terms):
                    terms.append([])
                terms[n].append((tw, (pn, xr, *bins)))
    return [x(g)] + [laurent_sum(t) for t in terms]


# _series's weights for the star-log and the inverse square root.
_LOG = (2, -2, 0)
_ROOT = (-1, -2, -1)


@cache
def _coeffs(abc: Tuple[int, int, int], n: int, dx: int) -> List[Laurent]:
    """[c_1 / dx, ..., c_n / dx^n], each a constant in lowest terms, for F(t)
    = sum_i c_i t^i solving (1 + beta t) F' = alpha + gamma F, F(0) = 0, abc
    = (2 alpha, -2 beta, 2 gamma): c_1 = alpha and (i + 1) c_{i+1} = (gamma
    - beta i) c_i."""
    a, b, c = abc
    cs = [Fraction(a, 2 * dx)]
    for i in range(1, n):
        cs.append(cs[-1] * Fraction(c + b * i, 2 * (i + 1) * dx))
    return [Laurent({0: f.numerator}, f.denominator) for f in cs]


def _series(g: DimVector, steps: List[TwistedStep],
            x: Callable[[DimVector], Laurent], dx: int,
            z: Callable[[DimVector], Laurent],
            abc: Tuple[int, int, int],
            powers: Callable[[DimVector], List[Laurent]]) -> Laurent:
    """sum_n c_n P_n(g) / dx^n, P_n the star powers of x (powers), for F(t) =
    sum_n c_n t^n solving (1 + beta t) F' = alpha + gamma F, F(0) = 0, abc =
    (2 alpha, -2 beta, 2 gamma): (2, -2, 0) is log(1 + t), (-1, -2, -1) is
    (1 + t)^(-1/2) - 1 and (2, 0, 2) is exp(t) - 1; steps are g's
    decompositions into two classes of its value, with their twists
    (_Engine._steps).  Where a twist is nonzero, it sums powers(g) with the
    coefficients of _coeffs.  Else any two elements on g's value commute in
    their coefficient at g, and each word of D(u^n) is a rotation of (D u)
    u^(n-1), so D(u^n)_g = n ((D u) u^(n-1))_g and the degree derivation
    D[p] = |p| [p] turns D F(u) = F'(u) D u at g, u = sum_p x(p) / (dx M(p))
    [p], into J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), one
    convolution per class, z(p) the value at p however p took it: 2 |g| dx
    Z(g) = a |g| x(g) + sum over the steps of Z(p) x(g - p) prod_i [g_i,
    p_i] (b |p| + c |g - p|); x(g) / dx (x(g) itself at dx = 1) where no
    step contributes and a = 2."""
    if any([step[3] for step in steps]):
        pg = powers(g)
        ms = _coeffs(abc, len(pg), dx)
        return laurent_sum([(0, [m, pn]) for m, pn in zip(ms, pg)])
    a, b, c = abc
    terms = []
    for p, r, bins, _ in steps:
        zp = z(p)
        xr = x(r)
        m = b * vtotal(p) + c * vtotal(r)
        if zp.poly and xr.poly and m:
            terms.append((0, (Laurent({0: m}), zp, xr, *bins)))
    xg = x(g)
    if not terms and a == 2:
        return xg.over(dx)
    n = vtotal(g)
    return laurent_sum([(0, [Laurent({0: a * n}), xg])] + terms).over(
        2 * n * dx)


def _sd_steps(quiver: SelfDualQuiver, th: DimVector) -> Tuple[Step, ...]:
    """(g, rho, the factors of M_sd(th) / (M(g) M_sd(rho)) other than 1)
    for each class g != 0 with rho = th - g - g^v >= 0, in graded-lex order
    of g: the decompositions of th that _sd_action sums over, kept on the
    quiver (SelfDualQuiver.sd_steps), as they read only its involution."""
    steps = quiver.sd_steps.get(th)
    if steps is None:
        steps = []
        for g in boxed_vectors(th)[1:]:
            rho = vsub(th, vadd(g, quiver.dual_vector(g)))
            if min(rho) >= 0:
                steps.append((g, rho, tuple(sd_ratio(quiver, g, rho))))
        steps = quiver.sd_steps[th] = tuple(steps)
    return steps


def _sd_action(quiver: SelfDualQuiver, th: DimVector,
               weight: Callable[[DimVector], Optional[Laurent]],
               module: Callable[[DimVector], Laurent]) -> Laurent:
    """S with S / M_sd(th) the th-coefficient of x acting on m, for x = [0] +
    sum_g (q - 1/q) weight(g) / M(g) [g] over g nonzero, weight(g) None
    where x is zero, and m = sum_rho module(rho) / M_sd(rho) [rho]: _hall_sum
    of weight and module over the cached decompositions th = g + rho + g^v
    (_sd_steps), each term times the polynomial M_sd(th) / (M(g) M_sd(rho))
    (motives.sd_ratio) and q^tw(g, rho), with the unit's term module(th);
    weight is not asked at 0.  CalibrationError where a term's twist is not
    an integer, as under a calibration with half-integral kappa.  rho is
    self-dual whenever th is, as g + g^v is and has even entries at fixed
    vertices."""
    def twist(g: DimVector, rho: DimVector) -> int:
        tw = quiver.sd_twist_exponent(g, rho)
        if type(tw) is not int:
            raise CalibrationError(
                f"twist exponent not integral at {g}, {rho}")
        return tw
    return _hall_sum(_sd_steps(quiver, th), weight, module, twist,
                     (module(th),))


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
    if mirrored once per duality pair {a, a^v}, at _rep(a) (see
    _Engine._rep), and kept under each class read, so that every later read
    of either is one memo lookup."""
    name = method.__name__

    def memoised(self, a):
        memo = self._memo[name]
        v = memo.get(a)
        if v is None:
            b = self._rep(a) if mirrored else a
            v = memo[a] = method(self, a) if b == a else memoised(self, b)
        return v
    memoised.__doc__ = method.__doc__
    return memoised


# _per_class for a linear value that a and a^v share.
_per_pair = partial(_per_class, mirrored=True)


class _Engine:
    """Every invariant of one quiver and primitive integer weight ray (the
    one _engine reads, _ray), memoised per class: as integer Laurent
    numerators over M(a) on the linear side and over M_sd(theta) on the
    self-dual side, and as the RatFunc values built from them.

    Configured here alone.  With no seed it reads the quiver's own
    numerators and mirrors at a self-dual slope: it computes what a and a^v
    share once per pair, at _rep(a) (Young 2016, as in the module
    docstring), and keeps it under each class read (_per_pair).  A seed (numerators, sd_numerators) fills the _numerator and
    _sd_numerator memos and seed_bound, and the engine does not mirror."""

    def __init__(self, quiver: SelfDualQuiver, ray: tuple,
                 seed: Optional[tuple] = None):
        self._quiver = weakref.ref(quiver)
        self.slope = Slope(ray)
        self.zero = tuple(0 for _ in quiver.vertices)
        self.self_dual = self.slope.is_self_dual(quiver)
        self.mirrors = self.self_dual and seed is None
        self.seed_bound: Optional[int] = None
        self._memo: Dict[str, dict] = defaultdict(dict)
        if seed is not None:
            self.seed_bound = max(map(vtotal, seed[0]), default=0)
            self._memo["_numerator"].update(seed[0])
            self._memo["_sd_numerator"].update(seed[1])
        self._dom: Dict[Value, Dict[DimVector, Optional[Laurent]]] = {}
        self._ids: Dict[Value, Dict[DimVector, int]] = {}
        self._regions: Dict[tuple, Tuple[int, Optional[Laurent]]] = {}

    @property
    def quiver(self) -> SelfDualQuiver:
        """The quiver, held weakly, so that the quiver's engine_cache is no
        reference cycle.  Alive wherever the engine is asked: an engine lives
        in its quiver's engine_cache, or, seeded, for one crossing."""
        return self._quiver()

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
        """The class whose linear values a reads: a^v where the engine
        mirrors and a's value is below 0, or is 0 with a^v < a; else a."""
        if not self.mirrors or not any(a):
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
        equal parts.  The region table holds each id with its entry,
        computed the first time the id appears where key[1] says p lies in
        the region, and the table of s refers into it."""
        tab = self._dom.get(s)
        if tab is None:
            # The zero class's entry is the unit; no region has id -1.
            tab = self._dom[s] = {self.zero: _ONE}
            self._ids[s] = {self.zero: -1}
        if top not in tab:
            ids, regions = self._ids[s], self._regions
            for p in boxed_vectors(top):
                if p not in tab:
                    key = self._region_key(s, p, ids)
                    got = regions.get(key)
                    if got is None:
                        got = regions[key] = (len(regions), _chain_sum(
                            self.quiver, tab, p, self._numerator,
                            _box_steps(p).values(), -1) if key[1] else None)
                    ids[p], tab[p] = got
        return tab

    def _region_key(self, s: Value, p: DimVector,
                    ids: Dict[DimVector, int]) -> tuple:
        """p, whether p lies in the region of s, and the ids at p - e_i."""
        n, d = self._memo["value"].get(p) or self.value(p)
        return (p, n * s[1] > s[0] * d, *[ids[b] for b in _below(p)])

    @_per_pair
    def _semistable_num(self, a: DimVector) -> Laurent:
        """X(a) = M(a) times the semistable integral of a."""
        if not any(a):
            return _ONE
        return _chain_sum(self.quiver, self._dom_table(self.value(a), a), a,
                          self._numerator, _box_steps(a).values())

    @_per_pair
    def semistable(self, a: DimVector) -> RatFunc:
        return over_gl_denominator(self._semistable_num(a), a)

    # -- star powers: star-log and inverse square root ----------------------

    @_per_class
    def _steps(self, g: DimVector) -> List[TwistedStep]:
        """The steps (p, g - p, binomials) of _box_steps(g) with p of g's
        value, so g - p of it too, each with its twist <p, g - p>: what
        _star_powers and _series sum over, here and in the transform."""
        s, comm = self.value(g), self.quiver.commutation_exponent
        return [(p, r, bins, comm(p, r))
                for p, r, bins in _box_steps(g).values()
                if self.value(p) == s]

    @_per_pair
    def _powers(self, g: DimVector) -> List[Laurent]:
        """The star powers of the semistable element of g's slope at g (see
        _star_powers), with P_1 = X."""
        return _star_powers(g, self._steps(g), self._semistable_num,
                            self._powers)

    @_per_pair
    def _log(self, g: DimVector) -> Laurent:
        """sum_n (-1)^(n-1) P_n(g) / n, the star-log at g, by _series."""
        return _series(g, self._steps(g), self._semistable_num, 1,
                       self._log, _LOG, self._powers)

    @_per_pair
    def epsilon(self, a: DimVector) -> RatFunc:
        """The epsilon integral of a, E(a) / M(a) for the star-log E at a
        (_log).  The semistable integral itself where E is X as it is.
        Zero at 0."""
        if not any(a):
            return over_gl_denominator(_ZERO, a)
        e = self._log(a)
        if e is self._semistable_num(a):
            return self.semistable(a)
        return over_gl_denominator(e, a)

    @_per_pair
    def dt_motivic(self, a: DimVector) -> RatFunc:
        """The motivic invariant of a, (q - 1/q) times the epsilon
        integral."""
        return self.epsilon(a).times_q_minus_qinv()

    @_per_pair
    def _root_weight(self, g: DimVector) -> Laurent:
        """W(g) with (1 + x)^(-1/2) = [0] + sum_g (q - 1/q) W(g) / M(g) [g]
        for the semistable element x at slope 0, g nonzero, zero off slope
        0: W(g) = sum_n binom(-1/2, n) P_n(g), where binom(-1/2, n) =
        (-1)^n C(2n, n) / 4^n, by _series."""
        if self.value(g)[0]:
            return _ZERO
        return _series(g, self._steps(g), self._semistable_num, 1,
                       self._root_weight, _ROOT, self._powers)

    # -- self-dual side -----------------------------------------------------

    def _check_sd(self, th: DimVector) -> None:
        if not self.quiver.is_sd_class(th):
            raise ValidationError(f"{th} is not a self-dual class")
        if not self.self_dual:
            self.slope.validate_self_dual(self.quiver)

    @_per_class
    def _sd_semistable_num(self, th: DimVector) -> Laurent:
        """M_sd(th) times the self-dual semistable integral of th: the
        slope-0 entries d(0, g) acting on the self-dual component
        integrals."""
        dom = self._dom_table((0, 1), th)
        return _sd_action(self.quiver, th, dom.get, self._sd_numerator)

    @_per_class
    def sd_semistable(self, th: DimVector) -> RatFunc:
        self._check_sd(th)
        return over_sd_denominator(self.quiver, self._sd_semistable_num(th),
                                   th)

    @_per_class
    def sd_dt_motivic(self, th: DimVector) -> RatFunc:
        """The self-dual epsilon integral of th: the inverse square root of
        the semistable element at slope 0 acting on the self-dual
        semistable element."""
        self._check_sd(th)
        return over_sd_denominator(self.quiver, _sd_action(
            self.quiver, th, self._root_weight, self._sd_semistable_num), th)


@lru_cache(maxsize=4096)
def _ray(weights: Tuple[Tuple[int, int], ...]) -> Tuple[tuple, Fraction]:
    """(r, c), r primitive integral and c > 0, with w = c r for the weights
    w_i = n_i / d_i given as pairs (n_i, d_i); r = 0 and c = 1 for w = 0."""
    den = math.lcm(*(d for _, d in weights))
    nums = [n * (den // d) for n, d in weights]
    g = math.gcd(*nums) or den
    return tuple(n // g for n in nums), Fraction(g, den)


def _ray_of(slope: Slope, quiver: SelfDualQuiver) -> Tuple[tuple, Fraction]:
    """_ray of the weights as integer pairs, in the one pass over them: a
    slope whose weight count is not the quiver's vertex count is refused,
    then a weight not an int or a Fraction (True would read as 1)."""
    n, m = len(slope.weights), len(quiver.vertices)
    if n != m:
        raise ValidationError(f"slope has {n} weights for {m} vertices")
    pairs = []
    for w in slope.weights:
        if type(w) is bool or not isinstance(w, (int, Fraction)):
            raise ValidationError(f"slope weight of type {type(w).__name__} "
                                  "is not an int or a Fraction")
        pairs.append((w.numerator, w.denominator))
    return _ray(tuple(pairs))


def _engine(quiver: SelfDualQuiver, slope: Slope) -> _Engine:
    """The quiver's cached engine on slope's ray, once the ray is read
    (_ray_of, which refuses a wrong weight count or weight type) and the
    quiver calibrated: the one gate before an engine is built, and it is
    built from the ray.  Stability reads the weights only through the order of
    slope values (Rudakov, Stability for an abelian category, 1997), which
    c > 0 keeps: weights c r share the engine at the primitive integer
    vector r (_ray), and a value handed to a caller is c times the
    engine's.  It lives in engine_cache alone."""
    ray = _ray_of(slope, quiver)[0]
    ensure_calibrated(quiver)
    eng = quiver.engine_cache.get(ray)
    if eng is None:
        eng = quiver.engine_cache[ray] = _Engine(quiver, ray)
    return eng


def _seeded_engine(eng: _Engine, numerators: Dict[DimVector, Laurent],
                   sd_numerators: Optional[Dict[DimVector, Laurent]]
                   ) -> _Engine:
    """The engine on eng's quiver and ray whose component integrals are read
    off the numerators given, N(a) = M(a) I(a) on the linear side and
    M_sd(theta) I_sd(theta) on the self-dual side.  Where these are the
    quiver's own, q^e(a) and q^e_sd(theta), it is eng, the cached engine
    _engine gave, as an engine's values depend on its numerators alone;
    else it is a new engine seeded with them (_Engine), which refuses a
    class beyond the largest total of a linear class given (its seed_bound)
    and stays out of the engine cache."""
    sd_numerators = sd_numerators or {}
    own = [(eng._numerator, numerators), (eng._sd_numerator, sd_numerators)]
    if all(f(a).poly == n.poly for f, ns in own for a, n in ns.items()):
        return eng
    return _Engine(eng.quiver, eng.slope.weights, (numerators, sd_numerators))


def clear_cache() -> None:
    """Empty the module's memos of pure functions, as a fresh process has."""
    for memoised in (_box_steps, _below, _ray, _coeffs):
        memoised.cache_clear()


def _query(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int]) -> tuple[_Engine, DimVector]:
    """The engine for a scalar query at alpha, and alpha as a tuple, once
    alpha is checked to be a class of the quiver within the bound, if one
    is given, a bound that is not an int refused (read_bound)."""
    a = tuple(alpha) if isinstance(alpha, (tuple, list)) else ()
    if len(a) != len(quiver.vertices) or not all(
            type(x) is int and x >= 0 for x in a):
        raise ValidationError(
            f"{alpha!r} is not a class: it needs {len(quiver.vertices)} "
            "non-negative integer entries")
    if bound is not None and vtotal(a) > read_bound(bound):
        raise ValidationError(f"class {a} lies beyond the bound {bound}")
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


def _regular(dtm: RatFunc, what: str, alpha: DimVector) -> RatFunc:
    """dtm, the motivic invariant what at alpha, once it is found to have
    no pole at q = 1 or -1."""
    for point in (1, -1):
        order = dtm.pole_order_at(point)
        if order > 0:
            raise NoPoleViolation(f"{what} at {alpha} has a pole of order "
                                  f"{order} at q = {point}")
    return dtm


def dt_mot(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int] = None) -> RatFunc:
    eng, a = _query(quiver, slope, alpha, bound)
    return _regular(eng.dt_motivic(a), "motivic invariant", alpha)


def sd_dt_mot(quiver: SelfDualQuiver, slope: Slope, theta: DimVector,
              bound: Optional[int] = None) -> RatFunc:
    eng, th = _query(quiver, slope, theta, bound)
    return _regular(eng.sd_dt_motivic(th), "self-dual motivic invariant",
                    theta)


def dt_num(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int] = None) -> Fraction:
    return dt_mot(quiver, slope, alpha, bound).eval_at(-1)


def sd_dt_num(quiver: SelfDualQuiver, slope: Slope, theta: DimVector,
              bound: Optional[int] = None) -> Fraction:
    return sd_dt_mot(quiver, slope, theta, bound).eval_at(-1)


# -- element interface ------------------------------------------------------------
# The slope values, and the epsilon elements as {class: RatFunc} dicts, that
# perfbench's traced phases ask for; the tests read the dicts as elements of
# the twisted algebra (tests/torus.py).

def slope_values(quiver: SelfDualQuiver, slope: Slope,
                 bound: int) -> List[Fraction]:
    read_bound(bound)
    value, c = _engine(quiver, slope).value, _ray_of(slope, quiver)[1]
    pairs = {value(a) for a in quiver.dim_vectors_up_to(bound)}
    return sorted((c * Fraction(n, d) for n, d in pairs), reverse=True)


def epsilon_element(quiver: SelfDualQuiver, slope: Slope, value: Fraction,
                    bound: int) -> Dict[DimVector, RatFunc]:
    """The nonzero coefficients of log(1 + x), for the semistable element x
    of slope value, by class."""
    read_bound(bound)
    eng = _engine(quiver, slope)
    v = value / _ray_of(slope, quiver)[1]
    s = v.numerator, v.denominator
    return {a: c for a in quiver.dim_vectors_up_to(bound)
            if eng.value(a) == s and (c := eng.dt_motivic(a))}


def sd_epsilon_element(quiver: SelfDualQuiver, slope: Slope,
                       bound: int) -> Dict[DimVector, RatFunc]:
    """The nonzero self-dual epsilon integrals within the bound, by class."""
    read_bound(bound)
    eng = _engine(quiver, slope)
    return {th: c for th in quiver.sd_classes_up_to(bound)
            if (c := eng.sd_dt_motivic(th))}


# -- JSON -----------------------------------------------------------------------------

def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), for obj built of dicts
    with str keys, lists, str, int, True, False, None and RatFunc, each
    RatFunc written as its to_data(); TypeError on anything else, a subclass
    of any of these types included.  The standard encoder runs in pure
    Python whenever it indents; this writer joins the strings of each
    container in one step, and a RatFunc writes itself in one step
    (RatFunc.to_json), with no data built for it, once per object and indent
    in a call: the rows of a and a^v at a self-dual slope hold the same
    objects, and J is eps where the star-log is X as it is."""
    return _json_text(obj, "\n", {})


def _json_text(obj, nl: str, memo: Dict[Tuple[int, str], str]) -> str:
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is RatFunc:
        # obj lives until the call ends, so its id names it until then.
        key = id(obj), nl
        out = memo.get(key)
        if out is None:
            out = memo[key] = obj.to_json(nl)
        return out
    if t is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        # The item strings go once joined, before the brackets are added.
        return ("[" + inner + ("," + inner).join(
            map(int.__repr__, obj) if all(type(v) is int for v in obj)
            else [_json_text(v, inner, memo) for v in obj]) + nl + "]")
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        parts = []
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"JSON object key {key!r} is not a str")
            parts.append(encode_basestring_ascii(key) + ": "
                         + _json_text(obj[key], inner, memo))
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
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
    read_bound(bound)
    eng = _engine(quiver, slope)

    def row(a: DimVector, j: RatFunc, eps: RatFunc,
            dtm: RatFunc) -> InvariantRow:
        return InvariantRow(a, j, eps, dtm, None if dtm.pole_order_at(-1) > 0
                            else dtm.eval_at(-1))
    rows = [row(a, eng.semistable(a), eng.epsilon(a), eng.dt_motivic(a))
            for a in [eng.zero] + quiver.dim_vectors_up_to(bound)]
    sd_classes = quiver.sd_classes_up_to(bound) if eng.self_dual else []
    sd_rows = [row(th, eng.sd_semistable(th), eng.sd_dt_motivic(th),
                   eng.sd_dt_motivic(th)) for th in sd_classes]
    return InvariantTable(quiver.to_data(), slope.to_dict(quiver), bound,
                          eng.self_dual, rows, sd_rows)


def no_pole_report(table: InvariantTable) -> List[dict]:
    """Pole orders at q = 1 and q = -1 of each row's motivic invariant: (q -
    1/q) times the epsilon integral on the linear side, the epsilon integral
    itself on the self-dual side.  Both must be <= 0 everywhere.  Each
    order is read once per RatFunc object (RatFunc.pole_order_at), so the
    report of a table build_table made reads the orders at -1 it found."""
    out = []
    for side, rows in (("linear", table.rows), ("self-dual", table.sd_rows)):
        for r in rows:
            plus, minus = map(r.dt_motivic.pole_order_at, (1, -1))
            out.append({"side": side, "class": r.dim_vector,
                        "order_at_1": plus, "order_at_-1": minus,
                        "ok": plus <= 0 and minus <= 0})
    return out


def table_all_regular(table: InvariantTable) -> bool:
    return all(row["ok"] for row in no_pole_report(table))
