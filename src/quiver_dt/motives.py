"""Motivic classes of representation stacks, as integer data.

All values live in Q(q) with L = q^2 the Lefschetz class.  The stack of all
representations of a class alpha has the class q^(dim R + dim G) times the
group motives prod_i motive_GL(alpha_i), with motive_GL(n) = prod_{i<n}
1/(L^n - L^i) = q^(-n(n-1)) / P(n) and P(n) = prod_{k=1..n} (q^2k - 1).  So
the stack class is q^e(alpha) / M(alpha), with

  e(alpha) = dim R + dim G - sum_i alpha_i (alpha_i - 1)   (stack_exponent)
  M(alpha) = prod_i P(alpha_i)                             (gl_poly)

and M(alpha) over M(beta) M(alpha - beta) is the product of q^2-binomials
[alpha_i, beta_i].  So sums of products of stack classes can run in
Z[q, 1/q] and divide by one M at the end.

The stack of self-dual representations of a self-dual class theta has the
class q^(sd dim R + sd dim G) times motive_GL(theta_i) at each vertex pair
and, at each fixed vertex, the orthogonal or symplectic group motive

  motive_O(2n)   = L^n    prod_{i<n} 1/(L^{2n} - L^{2i})
  motive_O(2n+1) = L^{-n} prod_{i<n} 1/(L^{2n} - L^{2i})
  motive_Sp(2n)  = L^{-n} prod_{i<n} 1/(L^{2n} - L^{2i}).

So it is q^e_sd(theta) / M_sd(theta) (sd_stack_exponent, sd_gl_poly), with
M_sd(theta) = prod over vertex pairs of P(theta_i) times prod over fixed
vertices of P_2(theta_i // 2), P_2(n) = prod_{k=1..n} (q^4k - 1).  When a
class g acts on a self-dual class rho, M_sd(theta) / (M(g) M_sd(rho)) for
theta = rho + g + dual(g) is a polynomial (sd_ratio): a q^2-multinomial at
each pair and [n + a, a]_{q^4} prod_{k<=a} (q^2k + 1) at each fixed vertex,
since P_2(n + a) / P_2(n) = [n + a, a]_{q^4} P_2(a) and P_2(a) / P(a) =
prod_{k<=a} (q^2k + 1) (M. B. Young, The Hall module of an exact category
with duality, 2016).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Dict, List

from .quiver import DimVector, SelfDualQuiver
from .ratfunc import Laurent, RatFunc, _ip_mul


def stack_exponent(quiver: SelfDualQuiver, alpha: DimVector) -> int:
    """e(alpha), with the stack class of alpha q^e(alpha) / M(alpha)."""
    return (quiver.dim_rep(alpha) + quiver.dim_aut(alpha)
            - sum(x * (x - 1) for x in alpha))


@cache
def _m_poly(key: tuple) -> Dict[int, int]:
    """prod over n in key[0] of P(n) times prod over n in key[1] of P_2(n),
    expanded."""
    out = {0: 1}
    for step, ranks in zip((2, 4), key):
        for x in ranks:
            for k in range(1, x + 1):
                out = _ip_mul(out, {step * k: 1, 0: -1})
    return out


def gl_poly(alpha: DimVector) -> Dict[int, int]:
    """M(alpha) = prod_i prod_{k=1..alpha_i} (q^2k - 1), expanded."""
    return _m_poly((tuple(sorted(x for x in alpha if x)),))


def sd_gl_poly(quiver: SelfDualQuiver, theta: DimVector) -> Dict[int, int]:
    """M_sd(theta) = prod over vertex pairs (i, j) of P(theta_i) times prod
    over fixed vertices of P_2(theta_i // 2), expanded."""
    return _m_poly((
        tuple(sorted(theta[i] for i, _ in quiver.vertex_pairs if theta[i])),
        tuple(sorted(theta[i] // 2 for i in quiver.fixed_vertices
                     if theta[i] > 1))))


def over_gl_denominator(num: Laurent, alpha: DimVector) -> RatFunc:
    """num / M(alpha) for a Laurent num."""
    return RatFunc._make(Fraction(1, num.den), 0, num.poly, gl_poly(alpha))


def over_sd_denominator(quiver: SelfDualQuiver, num: Laurent,
                        theta: DimVector) -> RatFunc:
    """num / M_sd(theta) for a Laurent num."""
    return RatFunc._make(Fraction(1, num.den), 0, num.poly,
                         sd_gl_poly(quiver, theta))


@cache
def q2_binomial(n: int, k: int) -> Laurent:
    """The q^2-binomial [n, k] = P(n) / (P(k) P(n - k)), by Pascal's rule
    [n, k] = [n-1, k-1] + q^2k [n-1, k]."""
    if k == 0 or k == n:
        return Laurent({0: 1})
    poly = dict(q2_binomial(n - 1, k - 1).poly)
    for e, c in q2_binomial(n - 1, k).poly.items():
        poly[e + 2 * k] = poly.get(e + 2 * k, 0) + c
    return Laurent(poly)


@cache
def _fixed_ratio(n: int, a: int) -> Laurent:
    """P_2(n + a) / (P(a) P_2(n)) = [n + a, a]_{q^4} prod_{k<=a} (q^2k + 1)."""
    poly = {2 * e: c for e, c in q2_binomial(n + a, a).poly.items()}
    for k in range(1, a + 1):
        poly = _ip_mul(poly, {2 * k: 1, 0: 1})
    return Laurent(poly)


def sd_ratio(quiver: SelfDualQuiver, g: DimVector,
             rho: DimVector) -> List[Laurent]:
    """The factors other than 1 of M_sd(theta) / (M(g) M_sd(rho)), theta =
    rho + g + dual(g): at a vertex pair (i, j) the q^2-multinomial
    P(theta_i) / (P(g_i) P(g_j) P(rho_i)) = [theta_i, rho_i] [g_i + g_j, g_i],
    at a fixed vertex i the ratio _fixed_ratio(rho_i // 2, g_i)."""
    out = []
    for i, j in quiver.vertex_pairs:
        gi, gj, r = g[i], g[j], rho[i]
        if r and (gi or gj):
            out.append(q2_binomial(r + gi + gj, r))
        if gi and gj:
            out.append(q2_binomial(gi + gj, gi))
    for i in quiver.fixed_vertices:
        if g[i]:
            out.append(_fixed_ratio(rho[i] // 2, g[i]))
    return out


def sd_stack_exponent(quiver: SelfDualQuiver, theta: DimVector) -> int:
    """e_sd(theta), with the self-dual stack class of theta q^e_sd(theta) /
    M_sd(theta): the q-powers of the group motives are -n(n - 1) for GL(n),
    2n - 2n(n - 1) for O(2n) and -2n - 2n(n - 1) for O(2n + 1) and
    Sp(2n)."""
    e = quiver.sd_dim_rep(theta) + quiver.sd_dim_aut(theta)
    for i, _ in quiver.vertex_pairs:
        e -= theta[i] * (theta[i] - 1)
    for i in quiver.fixed_vertices:
        n, odd = divmod(theta[i], 2)
        orthogonal_even = quiver.vertex_sign[i] > 0 and not odd
        e -= 2 * n * (n - 1) + (-2 * n if orthogonal_even else 2 * n)
    return e
