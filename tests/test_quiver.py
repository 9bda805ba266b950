"""Self-dual quiver validation, orbit structure, dims, and exponent forms."""

import itertools
from fractions import Fraction

import pytest

from reference import euler_form
from suite import acceptance_suite
from quiver_dt.quiver import (
    Calibration,
    Edge,
    SelfDualQuiver,
    Slope,
    UncalibratedError,
    ValidationError,
    kronecker_variant,
    make_calibration,
    point_quiver,
    vadd,
    vsub,
)

F = Fraction


def three_vertex_mixed():
    """Swapped pair (i, k) plus a fixed vertex j, edges i->j (pair) and i->k fixed."""
    edges = [Edge("a", "i", "j"), Edge("b", "j", "k"), Edge("c", "i", "k")]
    return SelfDualQuiver(
        ["i", "j", "k"], edges,
        {"i": "k", "k": "i", "j": "j"},
        {"a": "b", "b": "a", "c": "c"},
        {"i": 1, "j": -1, "k": 1},
        {"a": 1, "b": -1, "c": 1},
    )


def test_reference_quivers_validate():
    point_quiver(1)
    point_quiver(-1)
    for signs in [(1, 1), (1, -1), (-1, -1)]:
        for u in (1, -1):
            kronecker_variant(signs, u)
    three_vertex_mixed()


def test_orbit_structure():
    q = three_vertex_mixed()
    assert q.fixed_vertices == (1,)
    assert q.vertex_pairs == ((0, 2),)
    assert q.fixed_edges == (2,)
    assert q.edge_pairs == ((0, 1),)
    k = kronecker_variant((1, -1), 1)
    assert k.fixed_vertices == ()
    assert k.vertex_pairs == ((0, 1),)
    assert k.fixed_edges == (0, 1)
    assert k.edge_pairs == ()


def test_validation_rejects_non_involutive_vertex_map():
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i", "j", "k"], [], {"i": "j", "j": "k", "k": "i"},
                       {}, {}, {})


def test_validation_rejects_broken_contravariance():
    # a fixed edge must run from the dual of its target; with the identity
    # involution a fixed edge between two distinct fixed vertices is illegal
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i", "j"], [Edge("a", "i", "j")], {}, {}, {}, {})
    # swapped edges between swapped vertices must reverse direction too
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i", "j"], [Edge("a", "i", "j"), Edge("b", "j", "i")],
                       {"i": "j", "j": "i"}, {"a": "b", "b": "a"}, {}, {})
    # sanity: the legal fixed-edge version validates
    SelfDualQuiver(["i", "j"], [Edge("a", "i", "j"), Edge("b", "i", "j")],
                   {"i": "j", "j": "i"}, {"a": "a", "b": "b"}, {}, {})


def test_validation_rejects_sign_violations():
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i", "j"], [], {"i": "j", "j": "i"}, {},
                       {"i": 1, "j": -1}, {})
    edges = [Edge("a", "i", "j"), Edge("b", "i", "j")]
    # swapped edge pair: v(a) v(b) must equal u(i) u(j) = +1 here
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i", "j"], edges, {"i": "j", "j": "i"},
                       {"a": "b", "b": "a"},
                       {"i": -1, "j": -1}, {"a": 1, "b": -1})
    SelfDualQuiver(["i", "j"], edges, {"i": "j", "j": "i"},
                   {"a": "b", "b": "a"},
                   {"i": -1, "j": -1}, {"a": 1, "b": 1})
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i"], [], {}, {}, {"i": 2}, {})


def test_validation_rejects_unknown_names():
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i"], [Edge("a", "i", "z")], {}, {}, {}, {})
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i"], [], {"z": "i"}, {}, {}, {})
    with pytest.raises(ValidationError):
        SelfDualQuiver(["i", "i"], [], {}, {}, {}, {})


def test_dual_vector_and_sd_classes():
    q = three_vertex_mixed()
    assert q.dual_vector((1, 2, 3)) == (3, 2, 1)
    assert q.is_sd_class((2, 2, 2))
    # the fixed middle vertex is symplectic, so odd entries there are illegal
    assert not q.is_sd_class((2, 1, 2))
    assert not q.is_sd_class((1, 2, 3))
    p = point_quiver(-1)
    assert p.is_sd_class((2,))
    assert not p.is_sd_class((1,))
    assert point_quiver(1).is_sd_class((1,))
    k = kronecker_variant((1, 1), 1)
    assert k.sd_classes_up_to(5) == [(0, 0), (1, 1), (2, 2)]
    assert p.sd_classes_up_to(5) == [(0,), (2,), (4,)]


def test_euler_form_frozen_values():
    k = kronecker_variant((1, 1), 1)
    assert euler_form(k, (1, 0), (0, 1)) == -2
    assert euler_form(k, (0, 1), (1, 0)) == 0
    assert euler_form(k, (1, 1), (1, 1)) == 0
    p = point_quiver(1)
    assert euler_form(p, (3,), (2,)) == 6


def test_dim_formulas_match_independent_recount():
    # independent recount via whole-quiver sums:
    #   2 * sd_dim_rep = dim_rep + sum over fixed edges of sigma_a theta_t
    #   2 * sd_dim_aut = dim_aut - sum over fixed vertices of u_i theta_i
    for q in [point_quiver(1), point_quiver(-1), kronecker_variant((1, -1), 1),
              kronecker_variant((-1, -1), -1), three_vertex_mixed()]:
        for theta in q.sd_classes_up_to(6):
            cross = sum(q.fixed_edge_sign(a) * theta[q.edge_endpoints[a][1]]
                        for a in q.fixed_edges)
            assert 2 * q.sd_dim_rep(theta) == q.dim_rep(theta) + cross
            fixed = sum(q.vertex_sign[i] * theta[i] for i in q.fixed_vertices)
            assert 2 * q.sd_dim_aut(theta) == q.dim_aut(theta) - fixed


def test_dim_frozen_values():
    k = kronecker_variant((1, 1), 1)
    assert k.dim_rep((1, 1)) == 2 and k.dim_aut((1, 1)) == 2
    assert k.sd_dim_rep((1, 1)) == 2 and k.sd_dim_aut((1, 1)) == 1
    kpm = kronecker_variant((1, -1), 1)
    assert kpm.sd_dim_rep((1, 1)) == 1
    kmm = kronecker_variant((-1, -1), 1)
    assert kmm.sd_dim_rep((1, 1)) == 0
    p = point_quiver(1)
    assert p.sd_dim_aut((2,)) == 1
    assert point_quiver(-1).sd_dim_aut((2,)) == 3


def test_exponent_forms_need_calibration():
    k = kronecker_variant((1, 1), 1)
    with pytest.raises(UncalibratedError):
        k.commutation_exponent((1, 0), (0, 1))
    with pytest.raises(UncalibratedError):
        k.sd_twist_exponent((1, 0), (0, 0))
    for q in form_quivers():
        assert q.calibration is None
        zero = tuple(0 for _ in q.vertices)
        with pytest.raises(UncalibratedError):
            q.commutation_exponent(zero, zero)
        with pytest.raises(UncalibratedError):
            q.sd_twist_exponent(zero, zero)
    with pytest.raises(AttributeError):
        k.calibration = make_calibration(k, -1, 1)


# Reference exponent forms, derived from the edge lists through the Euler
# form with Fraction arithmetic.  The integer forms that set_calibration
# builds must agree with them everywhere.

def reference_commutation(q, cal, alpha, beta):
    return cal.orientation * (euler_form(q, beta, alpha)
                              - euler_form(q, alpha, beta))


def reference_twist(q, cal, alpha, theta):
    main = reference_commutation(q, cal, alpha, theta)
    half = F(reference_commutation(q, cal, alpha, q.dual_vector(alpha)), 2)
    lin = sum((k * x for k, x in zip(cal.kappa, alpha)), F(0))
    return F(main) + half + lin


ALL_SIGNS = [(o, p) for o in (1, -1) for p in (1, -1)]


def form_quivers():
    """Uncalibrated copies of the suite quivers (loops at fixed vertices,
    multi-edges), the six Kronecker variants, both point quivers and a
    three-vertex quiver with a swapped edge pair."""
    out = [SelfDualQuiver.from_data(q.to_data()) for q, _ in acceptance_suite()]
    out += [kronecker_variant(e, u) for e in [(1, 1), (1, -1), (-1, -1)]
            for u in (1, -1)]
    return out + [point_quiver(1), point_quiver(-1), three_vertex_mixed()]


def assert_forms_match_reference(q, cal, bound=3):
    zero = tuple(0 for _ in q.vertices)
    alphas = [zero] + q.dim_vectors_up_to(bound)
    thetas = q.sd_classes_up_to(bound)
    for a in alphas:
        for b in alphas:
            assert q.commutation_exponent(a, b) == reference_commutation(
                q, cal, a, b), (q.to_data(), cal, a, b)
        for th in thetas:
            got = q.sd_twist_exponent(a, th)
            # an int when integral, a Fraction half otherwise
            assert isinstance(got, int if got.denominator == 1 else Fraction)
            assert got == reference_twist(q, cal, a, th), (q.to_data(), cal,
                                                           a, th)


def test_exponent_forms_match_euler_reference():
    quivers = form_quivers()
    assert any(s == t for q in quivers for s, t in q.edge_endpoints)
    assert any(len(set(q.edge_endpoints)) < len(q.edges) for q in quivers)
    for q in quivers:
        for signs in ALL_SIGNS:
            cal = make_calibration(q, *signs)
            q.set_calibration(cal)
            assert q.calibration is cal
            assert_forms_match_reference(q, cal)


def test_twist_is_an_int_unless_it_is_half_integral():
    q = point_quiver(1)
    q.set_calibration(Calibration(1, 1, (Fraction(1, 2),)))
    # 2B((a,), theta) = 2 kappa a = a
    assert q.sd_twist_exponent((2,), (0,)) == 1
    assert type(q.sd_twist_exponent((2,), (0,))) is int
    half = q.sd_twist_exponent((1,), (0,))
    assert half == Fraction(1, 2)
    assert q.sd_twist_exponent((1,), (2,)) == half


def test_recalibration_rebuilds_both_forms():
    for q in form_quivers():
        first = make_calibration(q, -1, 1)
        q.set_calibration(first)
        assert_forms_match_reference(q, first)
        second = make_calibration(q, 1, -1)
        q.set_calibration(second)
        assert_forms_match_reference(q, second)
    # the flip is visible: both forms change sign with the calibration
    k = kronecker_variant((1, 1), 1)
    k.set_calibration(make_calibration(k, -1, 1))
    assert k.commutation_exponent((1, 0), (0, 1)) == -2
    assert k.sd_twist_exponent((1, 0), (0, 0)) == -2
    k.set_calibration(make_calibration(k, 1, -1))
    assert k.commutation_exponent((1, 0), (0, 1)) == 2
    assert k.sd_twist_exponent((1, 0), (0, 0)) == 2


def test_calibration_without_half_integral_kappa_is_rejected():
    p = point_quiver(1)
    for kappa in [(F(1, 3),), (F(1, 4),), (0.25,)]:
        with pytest.raises(ValueError):
            p.set_calibration(Calibration(-1, 1, kappa))
    assert p.calibration is None
    with pytest.raises(UncalibratedError):
        p.commutation_exponent((1,), (1,))
    k = kronecker_variant((1, 1), 1)
    good = make_calibration(k, -1, 1)
    k.set_calibration(good)
    with pytest.raises(ValueError):
        k.set_calibration(Calibration(-1, 1, (F(1, 4), F(-1, 4))))
    with pytest.raises(ValueError):
        k.set_calibration(Calibration(-1, 1, (F(1),)))
    with pytest.raises(ValueError):
        k.set_calibration(Calibration(2, 1, good.kappa))
    # a rejected calibration leaves the previous one and its forms in place
    assert k.calibration is good
    assert k.sd_twist_exponent((1, 0), (0, 0)) == -2
    # half-integral and integral kappa are fine
    p.set_calibration(Calibration(-1, 1, (F(1, 2),)))
    assert p.sd_twist_exponent((1,), (0,)) == F(1, 2)
    p.set_calibration(Calibration(-1, 1, (1,)))
    assert p.sd_twist_exponent((3,), (0,)) == 3


def test_calibrated_exponent_values():
    k = kronecker_variant((1, 1), 1)
    k.set_calibration(make_calibration(k, -1, 1))
    assert k.commutation_exponent((1, 0), (0, 1)) == -2
    assert k.commutation_exponent((0, 1), (1, 0)) == 2
    assert k.sd_twist_exponent((1, 0), (0, 0)) == -2
    kpm = kronecker_variant((1, -1), 1)
    kpm.set_calibration(make_calibration(kpm, -1, 1))
    assert kpm.sd_twist_exponent((1, 0), (0, 0)) == -1
    kmm = kronecker_variant((-1, -1), 1)
    kmm.set_calibration(make_calibration(kmm, -1, 1))
    assert kmm.sd_twist_exponent((1, 0), (0, 0)) == 0


def test_kappa_weights():
    k = kronecker_variant((1, 1), 1)
    cal = make_calibration(k, -1, 1)
    assert cal.kappa == (F(-1), F(1))
    kpm = kronecker_variant((1, -1), 1)
    assert make_calibration(kpm, -1, 1).kappa == (F(0), F(0))
    p = point_quiver(-1)
    assert make_calibration(p, -1, 1).kappa == (F(0),)


def test_slopes():
    k = kronecker_variant((1, 1), 1)
    s = Slope.from_dict(k, {"i": 1, "j": -1})
    s.validate_self_dual(k)
    assert s.value((1, 0)) == 1
    assert s.value((1, 1)) == 0
    assert s.value((1, 2)) == F(-1, 3)
    bad = Slope.from_dict(k, {"i": 1, "j": 0})
    with pytest.raises(ValidationError):
        bad.validate_self_dual(k)
    p = point_quiver(1)
    with pytest.raises(ValidationError):
        Slope.from_dict(p, {"x": 1}).validate_self_dual(p)
    assert Slope.trivial(k).weights == (0, 0)
    with pytest.raises(ValueError):
        s.value((0, 0))


def test_json_round_trip_and_defaults():
    q = three_vertex_mixed()
    data = q.to_data()
    q2 = SelfDualQuiver.from_data(data)
    assert q2.to_data() == data
    minimal = SelfDualQuiver.from_data({"vertices": ["x"], "edges": []})
    assert minimal.inv_vertex == (0,)
    assert minimal.vertex_sign == (1,)
    with pytest.raises(ValidationError):
        SelfDualQuiver.from_data({"vertices": ["i", "j"],
                                  "edges": [{"name": "a", "from": "i", "to": "q"}]})


@pytest.mark.parametrize("data, message", [
    ({"vertices": [1, [2]]}, "vertex name must be a string, not 1"),
    ({"vertices": ["i"], "edges": [{"name": 7, "from": "i", "to": "i"}]},
     "edge field must be a string, not 7"),
    ({"vertices": ["i", "j"],
      "edges": [{"name": "a", "from": "i", "to": None}]},
     "edge field must be a string, not None"),
    ({"vertices": ["i", "j"], "involution": {"vertices": {"i": ["j"]}}},
     "involution target must be a string, not ['j']"),
], ids=["vertex", "edge_name", "edge_target", "involution_target"])
def test_from_data_rejects_non_string_names(data, message):
    with pytest.raises(ValidationError) as err:
        SelfDualQuiver.from_data(data)
    assert str(err.value) == message


def test_class_enumeration_is_graded_lex():
    k = kronecker_variant((1, 1), 1)
    vecs = k.dim_vectors_up_to(2)
    assert vecs == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert vadd((1, 2), (3, 4)) == (4, 6)
    assert vsub((3, 4), (1, 2)) == (2, 2)


def test_changing_a_class_list_changes_no_later_one():
    k = kronecker_variant((1, 1), 1)
    for listed in (k.dim_vectors_up_to, k.sd_classes_up_to):
        first = listed(3)
        want = list(first)
        first.append((9, 9))
        first[0] = (7, 7)
        again = listed(3)
        assert again == want and again is not listed(3)


def discrete_quiver(n):
    """n fixed orthogonal vertices and no edges."""
    return SelfDualQuiver([f"v{i}" for i in range(n)], [], {}, {}, {}, {})


@pytest.mark.parametrize("n", range(1, 6))
def test_class_enumeration_matches_product_and_filter(n):
    q = discrete_quiver(n)
    for bound in range(-1, 7):
        want = [t for t in itertools.product(range(bound + 1), repeat=n)
                if 0 < sum(t) <= bound]
        want.sort(key=lambda t: (sum(t), t))
        assert q.dim_vectors_up_to(bound) == want


def test_class_enumeration_grows_with_the_classes_not_the_box():
    # the (bound + 1)^n box of 24 vertices at bound 2 has 3^24 vectors
    vecs = discrete_quiver(24).dim_vectors_up_to(2)
    assert len(vecs) == len(set(vecs)) == 24 + 24 * 25 // 2 == 324
    assert all(len(v) == 24 and min(v) >= 0 and 0 < sum(v) <= 2
               for v in vecs)
    assert vecs == sorted(vecs, key=lambda t: (sum(t), t))
    assert vecs[:2] == [(0,) * 23 + (1,), (0,) * 22 + (1, 0)]
