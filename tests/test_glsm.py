import itertools
import random
from types import SimpleNamespace

import pytest

from flagdual import glsm
from flagdual.exactalg import GF, QQ, Mat, Poly
from flagdual.duality import QuadricSystem, pushforward_to_g25
from flagdual.glsm import (GLSMPoint, _singular_rows, critical_gauge_class_count,
                           critical_member, gauge_reduce, gauge_transform,
                           instability_certificate, model_for, okonek_scan,
                           random_semistable, random_unstable, rank2_point_over,
                           reduced_quartics, semistable, superpotential,
                           verify_certificate)
from flagdual.grassflag import (GrassPoint, SectionMatrix, pluecker,
                                random_grass_point, random_hf_section,
                                script_matrix)
from flagdual.motivic import (_section_array, count_M_via_g25, eval_poly,
                              gauss_binomial, y_points)

F13 = GF(13)
F11 = GF(11)


def unit_cols(field, idx):
    return Mat(field, [[1 if r == i else 0 for i in idx] for r in range(5)])


def test_superpotential_zero_omega():
    rng = random.Random(3)
    s = random_hf_section(F13, rng)
    pt = GLSMPoint(Mat.random(F13, 5, 3, rng), (0, 0, 0))
    assert superpotential(pt, s) == 0


def test_superpotential_low_rank_b():
    rng = random.Random(5)
    s = random_hf_section(F13, rng)
    a = random_grass_point(F13, 2, rng).rep
    B = a * Mat.random(F13, 2, 3, rng)
    pt = GLSMPoint(B, tuple(F13.rand(rng) for _ in range(3)))
    assert superpotential(pt, s) == 0


def test_superpotential_gauge_invariant():
    rng = random.Random(7)
    s = random_hf_section(F13, rng)
    for _ in range(100):
        pt = GLSMPoint(Mat.random(F13, 5, 3, rng),
                       tuple(F13.rand(rng) for _ in range(3)))
        g = Mat.random_invertible(F13, 3, rng)
        assert superpotential(gauge_transform(pt, g), s) == superpotential(pt, s)


def test_semistable_examples():
    B = unit_cols(F13, (0, 1, 2))
    assert semistable(GLSMPoint(B, (0, 0, 0)), "plus")
    assert not semistable(GLSMPoint(B, (0, 0, 0)), "minus")
    # zero first column with omega killing e1: common kernel
    B0 = Mat(F13, [[0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert not semistable(GLSMPoint(B0, (0, 2, 3)), "minus")
    assert semistable(GLSMPoint(B0, (1, 0, 0)), "minus")


def test_semistability_gauge_invariant():
    rng = random.Random(11)
    for _ in range(200):
        pt = GLSMPoint(Mat.random(F13, 5, 3, rng),
                       tuple(F13.rand(rng) for _ in range(3)))
        g = Mat.random_invertible(F13, 3, rng)
        for chamber in ("plus", "minus"):
            assert semistable(pt, chamber) == semistable(gauge_transform(pt, g), chamber)


def test_instability_certificates_verify():
    rng = random.Random(13)
    for chamber in ("plus", "minus"):
        for _ in range(100):
            pt = random_unstable(F13, chamber, rng)
            cert = instability_certificate(pt, chamber)
            rep = verify_certificate(pt, cert, chamber)
            assert rep["valid"], (chamber, rep)


def test_certificate_weights_match_construction():
    rng = random.Random(17)
    # common-kernel point: the published family diag(n^3, n^-2, n^-2)
    f = F13
    v = (1, 2, 3)
    from flagdual.glsm import _complete_basis
    C = _complete_basis(f, v)
    B0 = Mat(f, [[0] + [f.rand(rng) for _ in range(2)] for _ in range(5)])
    om0 = (0, 1, 5)
    pt = gauge_transform(GLSMPoint(B0, om0), C.inverse())
    assert not semistable(pt, "minus")
    cert = instability_certificate(pt, "minus")
    assert cert.weights == (3, -2, -2)
    assert verify_certificate(pt, cert, "minus")["valid"]


def test_certificate_on_semistable_errors():
    rng = random.Random(19)
    pt = random_semistable(F13, "minus", rng)
    with pytest.raises(ValueError):
        instability_certificate(pt, "minus")


def test_gauge_reduce_examples():
    B = Mat(F13, [[0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
    pt = GLSMPoint(B, (1, 0, 0))
    g = gauge_reduce(pt)
    assert g.pluecker == pluecker(unit_cols(F13, (0, 1)))


def test_gauge_reduce_well_defined():
    rng = random.Random(23)
    s = random_hf_section(F13, rng)
    span = random_grass_point(F13, 2, rng).rep
    base = rank2_point_over(span, F13, rng)
    ref = gauge_reduce(base).pluecker
    for _ in range(50):
        g = Mat.random_invertible(F13, 3, rng)
        moved = gauge_transform(base, g)
        if not semistable(moved, "minus"):
            continue
        assert gauge_reduce(moved).pluecker == ref


def test_critical_member_minus_matches_quadrics():
    rng = random.Random(29)
    s = random_hf_section(F11, rng)
    qs = pushforward_to_g25(s)
    hits = 0
    for _ in range(300):
        span = random_grass_point(F11, 2, rng).rep
        pt = rank2_point_over(span, F11, rng)
        member = critical_member(pt, s, "minus")
        expected = qs.vanishes_at(GrassPoint(span))
        assert member == expected
        hits += member
    # rank-3 B is never critical in the minus chamber
    pt3 = random_semistable(F11, "minus", rng)
    if pt3.B.rank() == 3:
        assert not critical_member(pt3, s, "minus")


def test_critical_member_gauge_invariant():
    rng = random.Random(31)
    s = random_hf_section(F11, rng)
    for _ in range(50):
        span = random_grass_point(F11, 2, rng).rep
        pt = rank2_point_over(span, F11, rng)
        val = critical_member(pt, s, "minus")
        g = Mat.random_invertible(F11, 3, rng)
        moved = gauge_transform(pt, g)
        assert critical_member(moved, s, "minus") == val


def test_reduced_quartics_equal_pushforward_quadrics():
    rng = random.Random(37)
    s = random_hf_section(F11, rng)
    quartics = reduced_quartics(s)
    qs = pushforward_to_g25(s)
    for _ in range(50):
        a = random_grass_point(F11, 2, rng).rep
        B0 = Mat(F11, [[0] + list(a.data[r]) for r in range(5)])
        flat = [B0.data[r][c] for r in range(5) for c in range(3)]
        vals = [p.evaluate(flat) for p in quartics]
        expected = qs.evaluate(pluecker(a))
        assert tuple(vals) == tuple(expected)


def test_plus_chamber_critical_forces_omega_zero():
    rng = random.Random(41)
    s = random_hf_section(GF(7), rng)
    rep = okonek_scan(s, 7)
    assert rep["found"] > 0 and rep["singular"] == 0, rep
    # at a regular Y-point, omega = 0 is critical and nonzero omega is not
    for b in itertools.islice((b for _, B in y_points(s, 7) for b in B), 10):
        B7 = Mat(GF(7), b.tolist())
        assert critical_member(GLSMPoint(B7, (0, 0, 0)), s, "plus")
        for omega in ((1, 0, 0), (0, 3, 0), (2, 5, 6)):
            assert not critical_member(GLSMPoint(B7, omega), s, "plus")


def test_singular_verdict_matches_symbolic_jacobian():
    # the scan's central differences against the rank of the symbolic
    # 3x15 Jacobian, on 75 regular and 75 singular points of Y(F_7)
    f = GF(7)
    s = script_matrix(f)
    S_arr = _section_array(s, 7)
    points = {True: [], False: []}
    for pivots, B in y_points(s, 7):
        for b, sing in zip(B, _singular_rows(S_arr, pivots, B, 7)):
            points[bool(sing)].append(b)
    rng = random.Random(0)
    jac = model_for(s).jacobian
    for sing, pts in points.items():
        assert len(pts) >= 75
        for b in rng.sample(pts, 75):
            flat = Mat(f, b.tolist()).flatten()
            rank = Mat(f, [[p.evaluate(flat) for p in row] for row in jac]).rank()
            assert (rank < 3) == sing


def test_scan_finds_every_point_of_Y():
    # |Y(F_5)| from the G(2,5)-side count of M: M = G (q+1) + |Y| q^2
    q = 5
    s = script_matrix(GF(q))
    M = count_M_via_g25(s, q)
    G = eval_poly(gauss_binomial(5, 2), q)
    assert okonek_scan(s, q)["found"] == (M - G * (q + 1)) // q ** 2 == 841


def test_scan_reduces_a_rational_section():
    # the script matrix has entries -1, so its reduction mod 13 is not a
    # matrix over GF(7); a GF(p) section is never moved to another prime
    assert Mat(GF(7), script_matrix(GF(13)).mat.data) != script_matrix(GF(7)).mat
    assert script_matrix(QQ).to_field(GF(7)) == script_matrix(GF(7))
    with pytest.raises(ValueError):
        script_matrix(GF(13)).to_field(GF(7))
    with pytest.raises(ValueError):
        okonek_scan(script_matrix(GF(13)), 7)


def test_critical_gauge_classes_biject_with_X(monkeypatch):
    def no_scalar_evaluate(self, point):
        raise AssertionError("the count called Poly.evaluate")

    # the enumerated route evaluates the quadrics in one batch
    monkeypatch.setattr(Poly, "evaluate", no_scalar_evaluate)
    rng = random.Random(43)
    q = 3
    s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    rep = critical_gauge_class_count(s, q)
    assert rep["agree"] and rep["X_enumerated"] == rep["X_count"], rep


def test_critical_gauge_class_count_sees_a_wrong_quadric(monkeypatch):
    rng = random.Random(43)
    q = 3
    s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    real = model_for(s)
    q0 = real.quadrics.quadrics[0]
    m = max(q0.terms)
    wrong = QuadricSystem(real.quadrics.ring,
                          [q0 + Poly(q0.ring, {m: 1})] + real.quadrics.quadrics[1:])
    monkeypatch.setattr(glsm, "model_for", lambda S: SimpleNamespace(quadrics=wrong))
    rep = critical_gauge_class_count(s, q)
    assert rep["X_count"] > 0 and not rep["agree"], rep


def test_model_cache_is_bounded():
    rng = random.Random(3)
    sections = [SectionMatrix(Mat.random(GF(3), 10, 10, rng)) for _ in range(12)]
    for s in sections:
        model_for(s)
    assert model_for.cache_info().currsize < len(sections)
    # equal sections share one model
    copy = SectionMatrix(Mat(GF(3), sections[-1].mat.data))
    assert model_for(copy) is model_for(sections[-1])
