"""Group motives against brute-force finite-field counts, stack class values."""

from fractions import Fraction
from itertools import product

import pytest

from helpers import calibrated_kron, calibrated_mixed, calibrated_two_pairs
from quiver_dt.motives import (gl_poly, motive_gl, motive_o, motive_sp,
                               over_gl_denominator, q2_binomial, sd_gl_poly,
                               sd_ratio, sd_stack_class, stack_class,
                               stack_exponent)
from quiver_dt.quiver import (boxed_vectors, kronecker_variant, point_quiver,
                              vadd, vsub)
from quiver_dt.ratfunc import RatFunc, _ip_mul

F = Fraction


def frac(num_shift, num, den):
    return RatFunc.from_frac_polys(num_shift,
                                   {e: F(c) for e, c in num.items()},
                                   {e: F(c) for e, c in den.items()})


def test_motive_gl_frozen():
    assert motive_gl(0) == RatFunc(1)
    assert motive_gl(1) == frac(0, {0: 1}, {2: 1, 0: -1})
    want2 = RatFunc(1) / ((RatFunc.q_power(4) - RatFunc.q_power(2))
                          * (RatFunc.q_power(4) - RatFunc.q_power(0)))
    assert motive_gl(2) == want2


def test_motive_o_sp_frozen():
    assert motive_o(0) == RatFunc(1)
    assert motive_o(1) == RatFunc(1)
    assert motive_o(2) == frac(2, {0: 1}, {4: 1, 0: -1})
    assert motive_sp(2) == frac(-2, {0: 1}, {4: 1, 0: -1})
    assert motive_o(3) == motive_sp(2)
    assert motive_o(5) == motive_sp(4)
    with pytest.raises(ValueError):
        motive_sp(3)


# ---------------------------------------------------------------------------
# finite-field oracle: brute-force general linear group orders

def gl_count_prime_field(n, p):
    count = 0
    for entries in product(range(p), repeat=n * n):
        mat = [entries[i * n:(i + 1) * n] for i in range(n)]
        if det_mod(mat, p) % p:
            count += 1
    return count


def det_mod(mat, p):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) % p
    total = 0
    for j in range(3):
        minor = [[mat[r][c] for c in range(3) if c != j] for r in (1, 2)]
        sgn = 1 if j % 2 == 0 else -1
        total += sgn * mat[0][j] * det_mod(minor, p)
    return total % p


# the field with four elements: 0, 1, w, w+1 coded as 0..3, w^2 = w + 1
def f4_mul(a, b):
    out = 0
    bb = b
    for bit in range(2):
        if a & (1 << bit):
            out ^= bb
        bb <<= 1
        if bb & 4:
            bb = (bb ^ 4) ^ 2 ^ 1  # reduce w^2 -> w + 1
    return out


def f4_det2(mat):
    return f4_mul(mat[0][0], mat[1][1]) ^ f4_mul(mat[0][1], mat[1][0])


def gl_count_f4(n):
    assert n == 2
    count = 0
    for entries in product(range(4), repeat=4):
        mat = [entries[:2], entries[2:]]
        if f4_det2(mat):
            count += 1
    return count


def test_motive_gl_matches_finite_field_counts():
    for p in (2, 3):
        for n in (1, 2, 3):
            count = gl_count_prime_field(n, p)
            assert motive_gl(n).subs_square(p) == F(1, count)
    assert motive_gl(2).subs_square(4) == F(1, gl_count_f4(2))


def test_f4_is_a_field():
    # every nonzero element invertible, multiplication commutative/associative
    for a in range(1, 4):
        assert any(f4_mul(a, b) == 1 for b in range(1, 4))
    for a in range(4):
        for b in range(4):
            assert f4_mul(a, b) == f4_mul(b, a)
            for c in range(4):
                assert f4_mul(f4_mul(a, b), c) == f4_mul(a, f4_mul(b, c))


# ---------------------------------------------------------------------------
# stack classes

def test_stack_class_frozen_values():
    k = kronecker_variant((1, 1), 1)
    assert stack_class(k, (1, 0)) == frac(1, {0: 1}, {2: 1, 0: -1})
    assert stack_class(k, (1, 1)) == frac(4, {0: 1}, {4: 1, 2: -2, 0: 1})
    p = point_quiver(1)
    assert stack_class(p, (1,)) == frac(1, {0: 1}, {2: 1, 0: -1})
    assert stack_class(p, (0,)) == RatFunc(1)


def test_sd_stack_class_frozen_values():
    kpp = kronecker_variant((1, 1), 1)
    kpm = kronecker_variant((1, -1), 1)
    kmm = kronecker_variant((-1, -1), 1)
    assert sd_stack_class(kpp, (1, 1)) == frac(3, {0: 1}, {2: 1, 0: -1})
    assert sd_stack_class(kpm, (1, 1)) == frac(2, {0: 1}, {2: 1, 0: -1})
    assert sd_stack_class(kmm, (1, 1)) == frac(1, {0: 1}, {2: 1, 0: -1})
    assert sd_stack_class(kpp, (0, 0)) == RatFunc(1)
    plus = point_quiver(1)
    minus = point_quiver(-1)
    assert sd_stack_class(plus, (2,)) == frac(3, {0: 1}, {4: 1, 0: -1})
    assert sd_stack_class(minus, (2,)) == frac(1, {0: 1}, {4: 1, 0: -1})
    assert sd_stack_class(plus, (1,)) == RatFunc(1)
    with pytest.raises(ValueError):
        sd_stack_class(minus, (1,))


def test_sd_stack_class_odd_orthogonal_matches_symplectic_shifted():
    # odd orthogonal and symplectic points have equal motives and equal
    # group dimensions, so the point-quiver sd stack classes agree
    plus = point_quiver(1)
    minus = point_quiver(-1)
    for n in (1, 2, 3):
        odd = sd_stack_class(plus, (2 * n + 1,))
        even = sd_stack_class(minus, (2 * n,))
        assert plus.sd_dim_aut((2 * n + 1,)) == minus.sd_dim_aut((2 * n,))
        assert odd == even


def _p(n):
    """P(n) = (q^2 - 1)(q^4 - 1)...(q^2n - 1) as an integer polynomial."""
    out = {0: 1}
    for k in range(1, n + 1):
        out = _ip_mul(out, {2 * k: 1, 0: -1})
    return out


def test_q2_binomials_clear_the_motive_denominators():
    for n in range(9):
        for k in range(n + 1):
            got = _ip_mul(_ip_mul(q2_binomial(n, k).poly, _p(k)), _p(n - k))
            assert got == _p(n), (n, k)


def test_stack_class_is_the_product_of_group_motives():
    for q in (calibrated_kron(), calibrated_mixed(), calibrated_two_pairs(),
              point_quiver(1)):
        for a in q.dim_vectors_up_to(4):
            want = RatFunc.q_power(q.dim_rep(a) + q.dim_aut(a))
            for x in a:
                want = want * motive_gl(x)
            got = stack_class(q, a)
            assert got == want
            assert got == over_gl_denominator({stack_exponent(q, a): 1}, a)


def sd_quivers():
    return [calibrated_kron(e, v) for e in ((1, 1), (1, -1), (-1, -1))
            for v in (1, -1)] + [calibrated_mixed(), calibrated_two_pairs(),
                                 point_quiver(1), point_quiver(-1)]


def test_sd_stack_class_is_the_product_of_group_motives():
    for q in sd_quivers():
        for th in q.sd_classes_up_to(6):
            want = RatFunc.q_power(q.sd_dim_rep(th) + q.sd_dim_aut(th))
            for i, _ in q.vertex_pairs:
                want = want * motive_gl(th[i])
            for i in q.fixed_vertices:
                motive = motive_o if q.vertex_sign[i] > 0 else motive_sp
                want = want * motive(th[i])
            assert sd_stack_class(q, th) == want, th


def test_sd_ratio_clears_the_self_dual_denominators():
    # M_sd(rho + g + dual(g)) = sd_ratio(g, rho) M(g) M_sd(rho)
    count = 0
    for q in sd_quivers():
        for th in q.sd_classes_up_to(7):
            for g in boxed_vectors(th):
                rho = vsub(th, vadd(g, q.dual_vector(g)))
                if min(rho) < 0:
                    continue
                got = _ip_mul(gl_poly(g), sd_gl_poly(q, rho))
                for factor in sd_ratio(q, g, rho):
                    got = _ip_mul(got, factor.poly)
                assert got == sd_gl_poly(q, th), (th, g)
                count += 1
    assert count > 100
