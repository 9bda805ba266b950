"""Twisted algebra of the dimension lattice and its self-dual module: the
reference algebra the tests check the engine against (Young, The Hall
module of an exact category with duality, 2016).  It imports only
quiver_dt.quiver and quiver_dt.ratfunc, and sd_completion from
tests/reference.py.

Linear elements are finite sums of class generators with rational-function
coefficients; the product of two generators is the generator of the sum
twisted by q to the commutation exponent over q - q^{-1}.  The module side is
spanned by self-dual class generators; a linear generator acts by completing
the class with its dual, twisted by the sd exponent over the same prefactor.

Both element kinds carry an optional total-dimension bound.  All dimension
totals only grow under the products, so coefficients at classes within the
bound are exact; truncation just drops everything beyond it.

The product, the action and the duality are the methods x.star(y),
x.diamond(m) and x.dualize(); a numerical bracket coefficient is the motivic
one evaluated at q = -1, bracket_coeff(...).eval_at(-1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

from quiver_dt.quiver import DimVector, SelfDualQuiver, vadd, vtotal
from quiver_dt.ratfunc import RatFunc
from reference import sd_completion

Coeffs = Dict[DimVector, RatFunc]

# The scalars q - 1/q and 1/(q - 1/q).
Q_MINUS_QINV = RatFunc(1).times_q_minus_qinv()
INV_Q_MINUS_QINV = Q_MINUS_QINV.reciprocal()


def _merge_bound(b1: Optional[int], b2: Optional[int]) -> Optional[int]:
    if b1 is None:
        return b2
    if b2 is None:
        return b1
    return min(b1, b2)


class TorusElem:
    """Linear-side element: finite sum of scaled class generators.  The
    module side shares this body; its sums, scalings and negations build
    elements of their own type."""

    __slots__ = ("quiver", "bound", "coeffs")

    def __init__(self, quiver: SelfDualQuiver, coeffs: Coeffs,
                 bound: Optional[int] = None):
        self.quiver = quiver
        self.bound = bound
        clean: Coeffs = {}
        for k, v in coeffs.items():
            key = tuple(k)
            if bound is not None and vtotal(key) > bound:
                continue
            if not isinstance(v, RatFunc):
                v = RatFunc(v)
            if v:
                clean[key] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, quiver: SelfDualQuiver, bound: Optional[int] = None):
        return cls(quiver, {}, bound)

    @classmethod
    def generator(cls, quiver: SelfDualQuiver, alpha: DimVector,
                  coeff: "RatFunc | Fraction | int" = 1,
                  bound: Optional[int] = None):
        return cls(quiver, {tuple(alpha): coeff}, bound)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def get(self, alpha: DimVector) -> RatFunc:
        return self.coeffs.get(tuple(alpha), RatFunc(0))

    def scale(self, c: "RatFunc | Fraction | int"):
        if not isinstance(c, RatFunc):
            c = RatFunc(c)
        return type(self)(self.quiver,
                          {k: v * c for k, v in self.coeffs.items()},
                          self.bound)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, RatFunc(0)) + v
        return type(self)(self.quiver, out,
                          _merge_bound(self.bound, other.bound))

    def __neg__(self):
        return type(self)(self.quiver,
                          {k: -v for k, v in self.coeffs.items()}, self.bound)

    def __sub__(self, other):
        return self + (-other)

    def star(self, other: "TorusElem") -> "TorusElem":
        q = self.quiver
        bound = _merge_bound(self.bound, other.bound)
        out: Coeffs = {}
        for a, ca in self.coeffs.items():
            ta = vtotal(a)
            for b, cb in other.coeffs.items():
                if bound is not None and ta + vtotal(b) > bound:
                    continue
                tw = q.commutation_exponent(a, b)
                term = ca * cb * RatFunc.q_power(tw) * INV_Q_MINUS_QINV
                key = vadd(a, b)
                out[key] = out.get(key, RatFunc(0)) + term
        return TorusElem(q, out, bound)

    def diamond(self, mod: "TorusModElem") -> "TorusModElem":
        q = self.quiver
        bound = _merge_bound(self.bound, mod.bound)
        out: Coeffs = {}
        for a, ca in self.coeffs.items():
            for t, ct in mod.coeffs.items():
                key = sd_completion(q, a, t)
                if bound is not None and vtotal(key) > bound:
                    continue
                tw = q.sd_twist_exponent(a, t)
                assert isinstance(tw, int), "twist exponent not integral"
                term = ca * ct * RatFunc.q_power(tw) * INV_Q_MINUS_QINV
                out[key] = out.get(key, RatFunc(0)) + term
        return TorusModElem(q, out, bound)

    def dualize(self) -> "TorusElem":
        q = self.quiver
        return TorusElem(q, {q.dual_vector(k): v for k, v in self.coeffs.items()},
                         self.bound)

    def min_total(self) -> Optional[int]:
        if not self.coeffs:
            return None
        return min(vtotal(k) for k in self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.quiver is other.quiver and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in self.items_sorted())
        return f"{type(self).__name__}({{{body}}})"


class TorusModElem(TorusElem):
    """Module-side element: finite sum of scaled self-dual class generators."""

    __slots__ = ()

    def __init__(self, quiver: SelfDualQuiver, coeffs: Coeffs,
                 bound: Optional[int] = None):
        for k in coeffs:
            key = tuple(k)
            if bound is not None and vtotal(key) > bound:
                continue
            if not quiver.is_sd_class(key):
                raise ValueError(f"{key} is not a self-dual class")
        super().__init__(quiver, coeffs, bound)


# -- derived operations --------------------------------------------------------

def bracket(x: TorusElem, y: TorusElem) -> TorusElem:
    return x.star(y) - y.star(x)


def heart(x: TorusElem, m: TorusModElem) -> TorusModElem:
    return x.diamond(m) - x.dualize().diamond(m)


def integrated_unit(quiver: SelfDualQuiver,
                    bound: Optional[int] = None) -> TorusElem:
    """Unit of the algebra carried by the zero class."""
    zero = tuple(0 for _ in quiver.vertices)
    return TorusElem(quiver, {zero: Q_MINUS_QINV}, bound)


def module_unit(quiver: SelfDualQuiver,
                bound: Optional[int] = None) -> TorusModElem:
    zero = tuple(0 for _ in quiver.vertices)
    return TorusModElem(quiver, {zero: RatFunc(1)}, bound)


def series_star(x: TorusElem, coeff_at: Callable[[int], "Fraction | RatFunc"],
                nmax: int) -> TorusElem:
    """sum_{n <= nmax} coeff_at(n) x^{*n}, the 0th power being the unit."""
    mt = x.min_total()
    if mt is not None and mt <= 0:
        raise ValueError("series need elements supported in positive degrees")
    out = integrated_unit(x.quiver, x.bound).scale(coeff_at(0))
    power = x
    for n in range(1, nmax + 1):
        out = out + power.scale(coeff_at(n))
        if n < nmax:
            power = power.star(x)
    return out


def series_diamond(x: TorusElem, m: TorusModElem,
                   coeff_at: Callable[[int], "Fraction | RatFunc"],
                   nmax: int) -> TorusModElem:
    """sum_{n <= nmax} coeff_at(n) x^{*n} acting on m, by iterated action."""
    mt = x.min_total()
    if mt is not None and mt <= 0:
        raise ValueError("series need elements supported in positive degrees")
    out = m.scale(coeff_at(0))
    cur = m
    for n in range(1, nmax + 1):
        cur = x.diamond(cur)
        if not cur.coeffs:
            break
        out = out + cur.scale(coeff_at(n))
    return out


def star_log_one_plus(x: TorusElem, nmax: int) -> TorusElem:
    """log of (unit + x), truncated."""
    def coeff(n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        return Fraction((-1) ** (n - 1), n)
    return series_star(x, coeff, nmax)


def star_exp(x: TorusElem, nmax: int) -> TorusElem:
    return series_star(x, lambda n: Fraction(1, math.factorial(n)), nmax)


# -- bracket coefficients --------------------------------------------------------

def bracket_coeff(quiver: SelfDualQuiver,
                  alphas: Sequence[DimVector]) -> RatFunc:
    """Coefficient of the target generator in the left-nested bracket word."""
    if not alphas:
        raise ValueError("need at least one class")
    x = TorusElem.generator(quiver, alphas[0])
    target = tuple(alphas[0])
    for a in alphas[1:]:
        x = bracket(x, TorusElem.generator(quiver, a))
        target = vadd(target, tuple(a))
    return x.get(target)


def sd_bracket_coeff(quiver: SelfDualQuiver, alphas: Sequence[DimVector],
                     rho: DimVector) -> RatFunc:
    """Coefficient of the target generator in the right-nested heart word
    ending on the self-dual generator of rho."""
    m = TorusModElem.generator(quiver, rho)
    target = tuple(rho)
    for a in reversed(list(alphas)):
        m = heart(TorusElem.generator(quiver, a), m)
        target = sd_completion(quiver, tuple(a), target)
    return m.get(target)
