"""Motivic classes of representation stacks.

All values live in Q(q) with L = q^2 the Lefschetz class.  The group motives
are the reciprocals of the counting polynomials of the classical groups in
the normalization that makes stack classes come out as q-power prefactors
times products of group motives:

  motive_gl(n)   = prod_{i<n} 1/(L^n - L^i)
  motive_o(2n)   = L^n    * prod_{i<n} 1/(L^{2n} - L^{2i})
  motive_o(2n+1) = L^{-n} * prod_{i<n} 1/(L^{2n} - L^{2i})
  motive_sp(2n)  = L^{-n} * prod_{i<n} 1/(L^{2n} - L^{2i})

The stack of all representations of a class alpha contributes
q^(dim R + dim G) times the motive of its automorphism group, and likewise
on the self-dual side with orthogonal and symplectic factors at fixed
vertices.

Since motive_gl(n) = q^(-n(n-1)) / P(n) with P(n) = prod_{k=1..n} (q^2k - 1),
a stack class is q^e(alpha) / M(alpha) with M(alpha) = prod_i P(alpha_i) and
e(alpha) = dim R + dim G - sum_i alpha_i (alpha_i - 1); and M(alpha) over
M(beta) M(alpha - beta) is the product of q^2-binomials [alpha_i, beta_i].
So sums of products of stack classes can run in Z[q, 1/q] and divide by one
M at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .quiver import DimVector, SelfDualQuiver
from .ratfunc import Laurent, RatFunc

_gl_cache: Dict[int, RatFunc] = {}
_o_cache: Dict[int, RatFunc] = {}
_sp_cache: Dict[int, RatFunc] = {}
_binom_cache: Dict[Tuple[int, int], Laurent] = {}


def _inv_l_product(n: int, step: int) -> RatFunc:
    # prod_{i<n} 1/(L^{step*n} - L^{step*i}) with L = q^2
    out = RatFunc(1)
    for i in range(n):
        out = out / (RatFunc.q_power(2 * step * n)
                     - RatFunc.q_power(2 * step * i))
    return out


def motive_gl(n: int) -> RatFunc:
    if n < 0:
        raise ValueError("negative rank")
    if n not in _gl_cache:
        _gl_cache[n] = _inv_l_product(n, 1)
    return _gl_cache[n]


def motive_o(m: int) -> RatFunc:
    if m < 0:
        raise ValueError("negative rank")
    if m not in _o_cache:
        n, odd = divmod(m, 2)
        base = _inv_l_product(n, 2)
        power = -2 * n if odd else 2 * n
        _o_cache[m] = RatFunc.q_power(power) * base
    return _o_cache[m]


def motive_sp(m: int) -> RatFunc:
    if m < 0 or m % 2:
        raise ValueError("symplectic rank must be even and nonnegative")
    if m not in _sp_cache:
        n = m // 2
        _sp_cache[m] = RatFunc.q_power(-2 * n) * _inv_l_product(n, 2)
    return _sp_cache[m]


def stack_class(quiver: SelfDualQuiver, alpha: DimVector) -> RatFunc:
    """Motivic class of the stack of all representations of class alpha:
    q^(dim R + dim G) times prod_i motive_gl(alpha_i), kept as
    q^e(alpha) / M(alpha)."""
    return over_gl_denominator({stack_exponent(quiver, alpha): 1}, alpha)


def stack_exponent(quiver: SelfDualQuiver, alpha: DimVector) -> int:
    """e(alpha), with stack_class(alpha) = q^e(alpha) / M(alpha)."""
    return (quiver.dim_rep(alpha) + quiver.dim_aut(alpha)
            - sum(x * (x - 1) for x in alpha))


def _gl_profile(alpha: DimVector) -> Dict[int, int]:
    """M(alpha) as (q^m - 1) factors: {2k: #{i : alpha_i >= k}}."""
    out: Dict[int, int] = {}
    for x in alpha:
        for k in range(1, x + 1):
            out[2 * k] = out.get(2 * k, 0) + 1
    return out


def over_gl_denominator(num: Dict[int, int], alpha: DimVector) -> RatFunc:
    """num / M(alpha) for an integer Laurent polynomial num, kept lazy over
    the profile of M(alpha)."""
    return RatFunc._make(Fraction(1), 0, num, _gl_profile(alpha), None)


def q2_binomial(n: int, k: int) -> Laurent:
    """The q^2-binomial [n, k] = P(n) / (P(k) P(n - k)), by Pascal's rule
    [n, k] = [n-1, k-1] + q^2k [n-1, k]."""
    out = _binom_cache.get((n, k))
    if out is None:
        if k == 0 or k == n:
            poly = {0: 1}
        else:
            poly = dict(q2_binomial(n - 1, k - 1).poly)
            for e, c in q2_binomial(n - 1, k).poly.items():
                poly[e + 2 * k] = poly.get(e + 2 * k, 0) + c
        out = _binom_cache[(n, k)] = Laurent(poly)
    return out


def sd_stack_class(quiver: SelfDualQuiver, theta: DimVector) -> RatFunc:
    """Motivic class of the stack of all self-dual representations."""
    if not quiver.is_sd_class(theta):
        raise ValueError(f"{theta} is not a self-dual class")
    out = RatFunc.q_power(quiver.sd_dim_rep(theta) + quiver.sd_dim_aut(theta))
    for i, _ in quiver.vertex_pairs:
        out = out * motive_gl(theta[i])
    for i in quiver.fixed_vertices:
        if quiver.vertex_sign[i] > 0:
            out = out * motive_o(theta[i])
        else:
            out = out * motive_sp(theta[i])
    return out
