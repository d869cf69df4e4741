import itertools
import random
import tracemalloc

import numpy as np
import pytest

from flagdual import glsm, motivic
from flagdual.exactalg import (GF, QQ, Field, Mat, Poly, PolyRing, det, is_prime,
                               minors)
from flagdual.duality import QUINTIC_VARS, pushforward_to_g25, pushforward_to_g35
from flagdual.glsm import (GLSMPoint, _complete_basis, _singular_rows,
                           critical_gauge_class_count, critical_member, evaluate_batch,
                           instability_certificate, model_for, okonek_scan,
                           semistable, verify_certificate)
from flagdual.grassflag import SectionMatrix, random_hf_section, script_matrix
from flagdual.motivic import (_section_array, count_M_via_g25, eval_poly,
                              gauss_binomial, y_points)
from points import pluecker, random_grass_point, random_invertible, random_point

F13 = GF(13)
F11 = GF(11)
F17 = GF(17)
X = PolyRing(F17, ("x", "y")).var(0)


def unit_cols(field, idx):
    return Mat(field, [[1 if r == i else 0 for i in idx] for r in range(5)])


def superpotential(pt: GLSMPoint, S: SectionMatrix):
    """W(B, omega) = omega . shat(B); gauge-invariant."""
    f = pt.field
    quintics, _ = model_for(S)
    sh = [c.evaluate(pt.B.flatten()) for c in quintics]
    acc = f.zero
    for w, v in zip(pt.omega, sh):
        acc = f.add(acc, f.mul(w, v))
    return acc


def gauge_transform(pt: GLSMPoint, g: Mat) -> GLSMPoint:
    """g . (B, omega) = (B g^{-1}, det(g)^2 omega g^{-1})."""
    f = pt.field
    gi = g.inverse()
    d = f.coerce(det(g.data))
    d2 = f.mul(d, d)
    om = tuple(f.mul(d2, x) for x in gi.transpose().apply(pt.omega))
    return GLSMPoint(pt.B * gi, om)


def random_unstable(field: Field, chamber: str, rng: random.Random) -> GLSMPoint:
    """Draw from the unstable strata: rank-deficient B (plus chamber);
    omega = 0 or a common kernel vector (minus chamber)."""
    f = field
    while True:
        if chamber == "plus":
            a = random_grass_point(f, 2, rng)
            mix = Mat.random(f, 2, 3, rng)
            pt = GLSMPoint(a * mix, tuple(f.rand(rng) for _ in range(3)))
        elif rng.random() < 0.5:
            pt = GLSMPoint(Mat.random(f, 5, 3, rng), (f.zero,) * 3)
        else:
            # force a common kernel vector
            v = [f.rand(rng) for _ in range(3)]
            if all(f.is_zero(x) for x in v):
                continue
            C = _complete_basis(f, v)
            B0 = Mat(f, [[f.zero] + [f.rand(rng) for _ in range(2)] for _ in range(5)])
            om0 = (f.zero, f.rand(rng), f.rand(rng))
            pt = gauge_transform(GLSMPoint(B0, om0), C.inverse())
        if not semistable(pt, chamber):
            return pt


def random_semistable(field: Field, chamber: str, rng: random.Random) -> GLSMPoint:
    while True:
        pt = random_point(field, rng)
        if semistable(pt, chamber):
            return pt


def rank2_point_over(span: Mat, field: Field, rng: random.Random) -> GLSMPoint:
    """A random minus-chamber semistable point whose column span is `span`."""
    while True:
        B = span * Mat.random(field, 2, 3, rng)
        if B.rank() == 2:
            pt = GLSMPoint(B, tuple(field.rand(rng) for _ in range(3)))
            if semistable(pt, "minus"):
                return pt


def test_superpotential_zero_omega():
    rng = random.Random(3)
    s = random_hf_section(F13, rng)
    pt = GLSMPoint(Mat.random(F13, 5, 3, rng), (0, 0, 0))
    assert superpotential(pt, s) == 0


def test_superpotential_low_rank_b():
    rng = random.Random(5)
    s = random_hf_section(F13, rng)
    a = random_grass_point(F13, 2, rng)
    B = a * Mat.random(F13, 2, 3, rng)
    pt = GLSMPoint(B, tuple(F13.rand(rng) for _ in range(3)))
    assert superpotential(pt, s) == 0


def test_superpotential_gauge_invariant():
    rng = random.Random(7)
    s = random_hf_section(F13, rng)
    for _ in range(100):
        pt = GLSMPoint(Mat.random(F13, 5, 3, rng),
                       tuple(F13.rand(rng) for _ in range(3)))
        g = random_invertible(F13, 3, rng)
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
        g = random_invertible(F13, 3, rng)
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


def test_critical_member_minus_matches_quadrics():
    rng = random.Random(29)
    s = random_hf_section(F11, rng)
    qs = pushforward_to_g25(s)
    for _ in range(300):
        span = random_grass_point(F11, 2, rng)
        pt = rank2_point_over(span, F11, rng)
        member = critical_member(pt, s, "minus")
        x = pluecker(span)
        expected = all(F11.is_zero(quad.evaluate(x)) for quad in qs)
        assert member == expected


def test_critical_member_minus_is_critical_over_X():
    # the F_11 draws above almost never land on X; over F_3 walk X itself:
    # every point of X carries critical rank-2 points, and 41 points off X none
    rng = random.Random(43)
    f = GF(3)
    s = SectionMatrix(Mat.random(f, 10, 10, rng))
    qs = pushforward_to_g25(s)
    on_X = {True: [], False: []}
    for rep in motivic.enumerate_grassmannian(3, 2):
        span = Mat(f, rep.tolist())
        x = pluecker(span)
        on_X[all(f.is_zero(quad.evaluate(x)) for quad in qs)].append(span)
    assert len(on_X[True]) == motivic.count_X(s, 3) == 41
    for expected, spans in on_X.items():
        for span in spans[:41]:
            assert critical_member(rank2_point_over(span, f, rng), s, "minus") == expected


def test_critical_member_gauge_invariant():
    rng = random.Random(31)
    s = random_hf_section(F11, rng)
    for _ in range(50):
        span = random_grass_point(F11, 2, rng)
        pt = rank2_point_over(span, F11, rng)
        val = critical_member(pt, s, "minus")
        g = random_invertible(F11, 3, rng)
        moved = gauge_transform(pt, g)
        assert critical_member(moved, s, "minus") == val


def _at_normal_form(poly, ring):
    """poly in the common ring with the first column b_{p1} of B set to 0."""
    return Poly(ring, {m: c for m, c in poly.terms.items()
                       if not any(ring.decode(m)[0::3])})


def _compose(poly, subs):
    """poly with its variables replaced by the polynomials ``subs``."""
    ring = subs[0].ring
    acc = ring.zero()
    for m, c in poly.terms.items():
        term = ring.const(c)
        for sub, e in zip(subs, poly.ring.decode(m)):
            term = term * sub ** e
        acc = acc + term
    return acc


def test_dW_at_normal_form_is_the_pushforward_quadrics():
    # at B0 = (0 | A): shat(B0) = 0, every d shat_c / d b vanishes except
    # d shat_1 / d b_{p1}, and that one is q_p(Pl(A)), as polynomials in the
    # entries of A.  All three sides are linear in S, so the 100 unit
    # matrices over QQ prove it for every S.
    ring = PolyRing(QQ, QUINTIC_VARS)
    b = [[ring.var(3 * r + c) for c in range(3)] for r in range(5)]
    pl = [row[0] for row in minors([row[1:] for row in b], 2)]
    for a in range(10):
        for c in range(10):
            E = Mat(QQ, [[int((i, j) == (a, c)) for j in range(10)] for i in range(10)])
            shat, jacobian = model_for(SectionMatrix(E))
            quadrics = pushforward_to_g25(SectionMatrix(E))
            for k, (component, row) in enumerate(zip(shat, jacobian)):
                assert not _at_normal_form(component, ring)
                for col, d in enumerate(row):
                    d0 = _at_normal_form(d, ring)
                    if k == 0 and col % 3 == 0:
                        assert d0 == _compose(quadrics[col // 3], pl), (a, c, col)
                    else:
                        assert not d0, (a, c, k, col)


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
    # off Y, omega = 0 is not critical: dW = 0 also asks shat(B) = 0
    off_Y = [B for B in (Mat.random(GF(7), 5, 3, rng) for _ in range(20))
             if B.rank() == 3 and any(c.evaluate(B.flatten()) for c in model_for(s)[0])]
    assert len(off_Y) >= 5
    for B in off_Y:
        assert not critical_member(GLSMPoint(B, (0, 0, 0)), s, "plus")


def _first_point_of_Y(s, p, singular):
    """The first point of Y(F_p) that ``_singular_rows`` flags (or passes)."""
    S_arr = _section_array(s, p)
    for pivots, B in y_points(s, p):
        for b, sing in zip(B, _singular_rows(S_arr, pivots, B, p)):
            if sing == singular:
                return Mat(GF(p), b.tolist())


def test_one_critical_rule_in_both_chambers():
    # dW = 0 in both phases, on the script matrix over GF(7): at the first
    # singular point of Y every omega in the left kernel of the Jacobian is
    # critical in both chambers; at the first regular point no omega != 0 is
    f = GF(7)
    s = script_matrix(f)
    B = _first_point_of_Y(s, 7, True)
    flat = B.flatten()
    jac = Mat(f, [[d.evaluate(flat) for d in row] for row in model_for(s)[1]])
    kernel = jac.transpose().kernel()
    assert B.rank() == 3 and (1, 0, 0) in kernel
    combined = tuple(f.add(x, y) for x, y in zip(*kernel))
    for omega in kernel + [combined]:
        for chamber in ("plus", "minus"):
            assert critical_member(GLSMPoint(B, tuple(omega)), s, chamber)
    B = _first_point_of_Y(s, 7, False)
    for omega in ((1, 0, 0), (0, 3, 0), (2, 5, 6)):
        for chamber in ("plus", "minus"):
            assert not critical_member(GLSMPoint(B, omega), s, chamber)


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
    _, jac = model_for(s)
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


def test_singular_rows_of_a_cell_without_points():
    # a Schubert cell with no point of Y(F_p) reaches the Jacobian check as
    # an empty block
    S_arr = _section_array(script_matrix(GF(7)), 7)
    for pivots in itertools.combinations(range(5), 3):
        empty = np.zeros((0, 5, 3), dtype=np.int64)
        assert _singular_rows(S_arr, pivots, empty, 7).shape == (0,)


def test_scan_reduces_a_rational_section():
    # the script matrix has entries -1, so its reduction mod 13 is not a
    # matrix over GF(7); a GF(p) section is never moved to another prime
    assert Mat(GF(7), script_matrix(GF(13)).mat.data) != script_matrix(GF(7)).mat
    assert script_matrix(QQ).to_field(GF(7)) == script_matrix(GF(7))
    with pytest.raises(ValueError):
        script_matrix(GF(13)).to_field(GF(7))
    with pytest.raises(ValueError):
        okonek_scan(script_matrix(GF(13)), 7)


def _random_poly(ring, rng, terms, degree):
    """A sum of ``terms`` random monomials of degree at most ``degree`` with
    random coefficients, one of them of degree exactly ``degree``."""
    f = ring.field
    acc = Poly(ring, {ring.encode([degree] + [0] * (ring.nvars - 1)): f.rand(rng) or 1})
    for _ in range(terms - 1):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(degree + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        acc = acc + Poly(ring, {ring.encode(exps): 1}) * f.rand(rng)
    return acc


@pytest.mark.parametrize("p", [7, 17, 2 ** 31 - 1])
def test_evaluate_batch_matches_evaluate(p):
    f = GF(p)
    rng = random.Random(p)
    ring = PolyRing(f, tuple(f"x{i}" for i in range(6)))
    x = [ring.var(i) for i in range(6)]
    # x5 occurs in no term of the first sparse one, and every variable in
    # exactly one term of either
    sparse = [x[0] ** 2 * x[1] * 3 + x[2] * 5 + x[3] * x[4] ** 3 + 2, x[5] ** 4 * 6]
    polys = [ring.zero(), ring.const(p - 3), _random_poly(ring, rng, 15, 4),
             _random_poly(ring, rng, 60, 9)] + sparse
    assert polys[3].degree() == 9
    # residues, p - 1 (the largest products) and representatives off [0, p)
    points = [[f.rand(rng) for _ in range(6)] for _ in range(40)]
    points += [[p - 1] * 6, [0] * 6, [rng.randrange(-3 * p, 3 * p) for _ in range(6)]]
    got = evaluate_batch(polys, points, p)
    assert got.shape == (len(points), len(polys))
    assert got.tolist() == [[g.evaluate(pt) for g in polys] for pt in points]
    assert not got[:, 0].any() and (got[:, 1] == p - 3).all()
    # the quintic triple of a generic section, with shared variable powers
    st = pushforward_to_g35(random_hf_section(f, rng))
    points = [Mat.random(f, 5, 3, rng).flatten() for _ in range(10)]
    assert evaluate_batch(st, points, p).tolist() == [
        [s.evaluate(pt) for s in st] for pt in points]


def test_evaluate_batch_is_gf_p_only():
    x = PolyRing(QQ, ("x",)).var(0)
    with pytest.raises(ValueError):
        evaluate_batch([x], [[1]], 7)
    big = 2 ** 31 + 11
    assert is_prime(big)
    with pytest.raises(ValueError):
        evaluate_batch([PolyRing(GF(big), ("x",)).var(0)], [[1]], big)
    with pytest.raises(ValueError):     # the ring's prime is not p
        evaluate_batch([X], [[1, 2]], 7)
    with pytest.raises(ValueError):     # two rings
        evaluate_batch([X, PolyRing(F17, ("x", "y")).var(0)], [[1, 2]], 17)


def test_critical_gauge_classes_biject_with_X(monkeypatch):
    def no_scalar_evaluate(self, point):
        raise AssertionError("the count called Poly.evaluate")

    # the enumerated route evaluates the five quartics in one batch
    monkeypatch.setattr(Poly, "evaluate", no_scalar_evaluate)
    rng = random.Random(43)
    q = 3
    s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    rep = critical_gauge_class_count(s, q)
    assert rep["agree"] and rep["X_enumerated"] == rep["X_count"], rep


def test_critical_gauge_class_count_memory_is_pinned():
    # the five quartics at the 1,210 points of G(2,5)(F_3) in evaluate_batch.
    # The bound is the peak of multiplying every term by every variable's
    # powers, 3,094,208 bytes here; multiplying a variable's gathered rows
    # by a gathered power array peaked at 3,307,644, and by one power row in
    # place at 3,026,772
    s = SectionMatrix(Mat.random(GF(3), 10, 10, random.Random(43)))
    critical_gauge_class_count(s, 3)         # the model is built and cached
    tracemalloc.start()
    try:
        critical_gauge_class_count(s, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_094_208, peak


def test_critical_gauge_class_count_sees_a_wrong_quartic(monkeypatch):
    # the W side: one coefficient of d shat_1 / d b_11 moved, on a monomial
    # free of A_12 and A_21 (entries 2 and 4 of B), so that it is read on the
    # chart of G(2,5) where the top 2x2 block of A is the identity
    rng = random.Random(43)
    q = 3
    s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    jac = [list(row) for row in model_for(s.to_field(GF(q)))[1]]
    quartic = jac[0][0]
    m = max(t for t in quartic.terms if not any(quartic.ring.decode(t)[2:5:2]))
    jac[0][0] = quartic + Poly(quartic.ring, {m: 1})
    monkeypatch.setattr(glsm, "model_for", lambda S: (None, jac))
    rep = critical_gauge_class_count(s, q)
    assert rep["X_count"] > 0 and not rep["agree"], rep


def test_critical_gauge_class_count_sees_a_wrong_quadric(monkeypatch):
    # the X side: one coefficient of count_X's first quadric moved
    real = motivic._quadric_arrays

    def wrong(S, q):
        mats = real(S, q)
        i, j = np.argwhere(mats[0])[0]
        mats[0][i, j] = (mats[0][i, j] + 1) % q
        return mats

    monkeypatch.setattr(motivic, "_quadric_arrays", wrong)
    rng = random.Random(43)
    q = 3
    s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    rep = critical_gauge_class_count(s, q)
    assert rep["X_enumerated"] > 0 and not rep["agree"], rep


def test_model_cache_is_bounded():
    rng = random.Random(3)
    sections = [SectionMatrix(Mat.random(GF(3), 10, 10, rng)) for _ in range(12)]
    for s in sections:
        model_for(s)
    assert model_for.cache_info().currsize < len(sections)
    # equal sections share one model
    copy = SectionMatrix(Mat(GF(3), sections[-1].mat.data))
    assert model_for(copy) is model_for(sections[-1])
