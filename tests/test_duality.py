import inspect
import itertools
import random
import time

import numpy as np
import pytest

from flagdual import duality
from flagdual.exactalg import (GF, QQ, GroebnerStats, Mat, Poly, PolyRing, det,
                               exterior_square, groebner_basis, rref_kernel)
from flagdual.duality import (QUINTIC_VARS, charpoly_squarefree, commutant_space,
                              _unknowns, hf_member, is_symmetric,
                              nonbirational_certificate,
                              pushforward_to_g25, pushforward_to_g35,
                              selfdual_test, verify_pushforwards)
from flagdual.grassflag import (D_SIGN, PAIR_POS, TRIPLES, DualityMap,
                                SectionMatrix, complement_pair,
                                flag_ideal_space, hf_project, hf_space, iota_action,
                                perm_sign, random_hf_section, script_matrix)
from flagdual.motivic import (_pushforward_vectors, _quadric_arrays, _section_array,
                              count_Y, divisible, enumerate_grassmannian, minors_batch,
                              y_points)
from oracles import contains, intertwiner_conditions
from points import dual_coordinates, pluecker, random_grass_point, section_on_fiber

F11 = GF(11)
F13 = GF(13)
F17 = GF(17)


def zero_section(field):
    return SectionMatrix(Mat.zero(field, 10, 10))


def values(polys, point):
    """The values of ``polys`` at ``point``, in order."""
    return tuple(p.evaluate(point) for p in polys)


def test_pushforward_g25_zero_section():
    qs = pushforward_to_g25(zero_section(F11))
    assert not any(qs)


def test_pushforward_g25_kills_flag_ideal():
    rng = random.Random(41)
    ideal = flag_ideal_space(F11)
    s = SectionMatrix(ideal.basis[7])
    qs = pushforward_to_g25(s)
    for _ in range(500):
        a = random_grass_point(F11, 2, rng)
        assert all(F11.is_zero(v) for v in values(qs, pluecker(a)))


def test_pushforward_g35_zero_section():
    st = pushforward_to_g35(zero_section(F13))
    assert not any(st)


def test_quintics_vanish_on_low_rank():
    rng = random.Random(47)
    s = random_hf_section(F13, rng)
    st = pushforward_to_g35(s)
    a = random_grass_point(F13, 2, rng)
    # rank-2 5x3: duplicate a column
    B = Mat(F13, [[a.data[r][0], a.data[r][1], a.data[r][0]]
                  for r in range(5)])
    assert values(st, B.flatten()) == (0, 0, 0)


def test_quintic_column_degrees():
    rng = random.Random(53)
    s = random_hf_section(F13, rng)
    st = pushforward_to_g35(s)
    B = Mat.random(F13, 5, 3, rng)
    lam = 7
    base = values(st, B.flatten())
    for c in range(3):
        scaled = Mat(F13, [[F13.mul(B.data[r][cc], lam) if cc == c else B.data[r][cc]
                            for cc in range(3)] for r in range(5)])
        vals = values(st, scaled.flatten())
        for cc in range(3):
            expect = F13.mul(base[cc], lam if cc == c else F13.mul(lam, lam))
            assert vals[cc] == expect


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


def _reconstruction_failures(units):
    """The unit positions (a, c) among ``units`` where, for S = E_ac,
    sum_c shat_c(B) * b_pc = Q_p of S^T at the dual coordinates y(B) fails as
    polynomials in the entries of B."""
    ring = PolyRing(QQ, QUINTIC_VARS)
    b = [[ring.var(3 * r + c) for c in range(3)] for r in range(5)]
    y = [None] * 10
    for t in TRIPLES:
        y[PAIR_POS[complement_pair(t)]] = det([b[i - 1] for i in t]) * D_SIGN[t]
    failed = []
    for a, c in units:
        E = Mat(QQ, [[int((i, j) == (a, c)) for j in range(10)] for i in range(10)])
        shat = [Poly(ring, sh.terms) for sh in duality.pushforward_to_g35(SectionMatrix(E))]
        quadrics = pushforward_to_g25(SectionMatrix(E.transpose()))
        if any(sum((shat[k] * b[p][k] for k in range(3)), ring.zero())
               != _compose(quadrics[p], y) for p in range(5)):
            failed.append((a, c))
    return failed


def test_quintic_reconstruction_identity():
    # Y_S is X_{S^T}.  Both sides are linear in S, so the 100 unit matrices
    # over QQ prove it for every S; gauge covariance follows (the duality
    # module docstring)
    assert _reconstruction_failures(itertools.product(range(10), repeat=2)) == []


def test_reconstruction_fails_on_a_wrong_quintic(monkeypatch):
    # one extra monomial in component 0 breaks the identity on a unit matrix
    real = duality.pushforward_to_g35

    def corrupted(S):
        st = real(S)
        extra = Poly(st[0].ring, {st[0].ring.encode([5] + [0] * 14): 1})
        assert extra.leading_monomial() not in st[0].terms
        st[0] = st[0] + extra
        return st

    monkeypatch.setattr(duality, "pushforward_to_g35", corrupted)
    assert _reconstruction_failures([(0, 0)]) == [(0, 0)]


def test_gauge_covariance():
    # shat(B g^{-1}) = det(g)^{-2} g shat(B)
    rng = random.Random(61)
    s = random_hf_section(F13, rng)
    st = pushforward_to_g35(s)
    for _ in range(100):
        B = Mat.random(F13, 5, 3, rng)
        g = Mat.random_invertible(F13, 3, rng)
        gi = g.inverse()
        lhs = values(st, (B * gi).flatten())
        d = F13.coerce(det(g.data))
        d2 = F13.inv(F13.mul(d, d))
        gs = g.apply(values(st, B.flatten()))
        rhs = tuple(F13.mul(d2, x) for x in gs)
        assert lhs == rhs


def test_verify_pushforwards_draws_nothing(monkeypatch):
    # the stage takes no rng and makes none: every draw raises
    def draw(*_args):
        raise AssertionError("the stage drew a random value")

    for name in ("random", "getrandbits"):
        monkeypatch.setattr(random.Random, name, draw)
    monkeypatch.setattr(random, "random", draw)
    with pytest.raises(AssertionError):
        random.Random(0).randrange(2)
    assert not inspect.signature(verify_pushforwards).parameters
    assert verify_pushforwards() == {
        "ok": True, "details": {"contraction_identity_proved_on_unit_basis": True}}


def test_verify_pushforwards_fails_on_a_wrong_quadric(monkeypatch):
    real = duality.pushforward_to_g25

    def corrupted(S):
        qs = real(S)
        q0 = qs[0]
        if q0:                # a unit matrix leaves most quadrics zero
            m = max(q0.terms)
            qs[0] = q0 + Poly(q0.ring, {m: 1})     # one coefficient moves
            assert qs[0].terms.keys() - {m} == q0.terms.keys() - {m}
        return qs

    monkeypatch.setattr(duality, "pushforward_to_g25", corrupted)
    assert not verify_pushforwards()["ok"]


def test_fiber_class_zero_section_all_p2():
    # every fiber is a P^2: all quadrics vanish on G(2,5), and on G(3,5) read
    # as X_{S^T} at the dual coordinates
    rng = random.Random(67)
    s = zero_section(F11)
    quadrics, dual = pushforward_to_g25(s), pushforward_to_g25(s.transpose())
    for _ in range(5):
        assert not any(values(quadrics, pluecker(random_grass_point(F11, 2, rng))))
        assert not any(values(dual, dual_coordinates(random_grass_point(F11, 3, rng))))


def test_fiber_class_matches_exhaustive_fiber_count():
    # char 3 has no invariant-complement split, but fiber dichotomy holds
    # for arbitrary section matrices
    q = 3
    F3 = GF(q)
    rng = random.Random(71)
    s = SectionMatrix(Mat.random(F3, 10, 10, rng))
    quadrics, dual = pushforward_to_g25(s), pushforward_to_g25(s.transpose())
    reps = [v for v in _proj_reps(q, 3)]
    for _ in range(30):
        a = random_grass_point(F3, 2, rng)
        comp = _complement_basis(a)
        count = 0
        for lam in reps:
            w = [F3.zero] * 5
            for t in range(3):
                for r in range(5):
                    w[r] = F3.add(w[r], F3.mul(lam[t], comp[t][r]))
            if F3.is_zero(section_on_fiber(s, a, w)):
                count += 1
        p2 = not any(values(quadrics, pluecker(a)))
        assert count == (q * q + q + 1 if p2 else q + 1)
    # the fiber over W = col(B) in G(3,5): the planes col(B K_lam), with the
    # columns of K_lam spanning the kernel of lam, one plane per lam in P^2
    kers = [Mat(F3, [list(lam)]).kernel() for lam in reps]
    planes = [Mat(F3, [list(col) for col in zip(*k)]) for k in kers]
    on_y = [Mat(F3, B.tolist()) for _, block in y_points(s, q) for B in block][:5]
    classes = []
    for B in [random_grass_point(F3, 3, rng) for _ in range(30)] + on_y:
        y = dual_coordinates(B)
        count = sum(F3.is_zero(s.evaluate(pluecker(B * K), y)) for K in planes)
        classes.append(not any(values(dual, y)))
        assert count == (q * q + q + 1 if classes[-1] else q + 1)
    assert {False, True} <= set(classes)


def _proj_reps(q, n):
    """Representatives of P^{n-1}(F_q): first nonzero coordinate 1."""
    out = []
    for v in _all_vecs(q, n):
        nz = next((i for i, x in enumerate(v) if x), None)
        if nz is not None and v[nz] == 1 and all(x == 0 for x in v[:nz]):
            out.append(v)
    return out


def _all_vecs(q, n):
    if n == 0:
        yield ()
        return
    for rest in _all_vecs(q, n - 1):
        for x in range(q):
            yield (x,) + rest


def _complement_basis(A):
    """Three vectors spanning a complement of the column space of A."""
    f = A.field
    cols = [tuple(A.data[r][c] for r in range(5)) for c in range(2)]
    basis = list(cols)
    out = []
    for i in range(5):
        e = tuple(f.one if r == i else f.zero for r in range(5))
        m = Mat(f, [list(v) for v in basis + [e]])
        if m.rank() == len(basis) + 1:
            basis.append(e)
            out.append(e)
        if len(out) == 3:
            break
    return out


def test_selfdual_symmetric_identity():
    rng = random.Random(73)
    s = random_hf_section(F17, rng)
    sym = SectionMatrix((s.mat + s.mat.transpose()) * F17.inv(2))
    assert contains(hf_space(F17), sym.mat)
    ident = DualityMap(Mat.identity(F17, 5))
    assert selfdual_test(sym, ident)
    if not is_symmetric(s.mat):
        assert not selfdual_test(s, ident)


def test_selfdual_up_to_sign():
    # S = (wedge^2 T)^-1 K with T symmetric and K antisymmetric gives
    # S^T M = -M S: f_T identifies X_S with Y_S, although S^T M = M S fails
    # (the equation the non-birationality certificate saturates)
    F5 = GF(5)
    L = Mat(F5, [[int(i - j in (0, 1)) for j in range(5)] for i in range(5)])
    T = L * L.transpose()
    f = DualityMap(T)
    R = Mat.random(F5, 10, 10, random.Random(0))
    s = hf_project(SectionMatrix(f.M_inv * (R - R.transpose())))
    assert s.mat.transpose() * f.M == f.M * s.mat * (-1) != f.M * s.mat
    assert selfdual_test(s, f)
    # f_T sends [A] to (T A)^perp, the kernel of A^T T
    G = enumerate_grassmannian(5, 2)
    x = minors_batch(G, 2, 5)[:, :, 0]
    on_x = np.ones(len(x), dtype=bool)
    for C in _quadric_arrays(s, 5):
        on_x &= np.einsum("ni,ij,nj->n", x, C, x) % 5 == 0
    # a kernel basis is the identity on the free columns, so as the columns
    # of B it has B[free] = I: the images go to _pushforward_vectors by cell
    images = {}
    for A in G[on_x]:
        R, piv = (Mat(F5, A.tolist()).transpose() * T).rref()
        free = tuple(c for c in range(5) if c not in piv)
        images.setdefault(free, []).append(list(zip(*rref_kernel(R, piv))))
    S_arr = _section_array(s, 5)
    v = np.concatenate([_pushforward_vectors(S_arr, np.array(Bs, dtype=np.int64), 5, free)
                        for free, Bs in images.items()])
    assert len(v) == count_Y(s, 5) == 188
    assert divisible(v, 5).all()


def test_script_not_selfdual_for_random_maps():
    rng = random.Random(79)
    s = hf_project(script_matrix(F17))
    for _ in range(100):
        f = DualityMap.random(F17, rng)
        assert not selfdual_test(s, f)


def test_commutant_identity_matrix():
    s = SectionMatrix(Mat.identity(F17, 10))
    assert commutant_space(s).dim == 100


def test_commutant_distinct_diagonal():
    s = SectionMatrix(Mat(F17, [[i + 1 if i == j else 0 for j in range(10)]
                                for i in range(10)]))
    W = commutant_space(s)
    assert W.dim == 10
    for m in W.basis:
        assert is_symmetric(m)
        assert all(F17.is_zero(m.data[i][j]) for i in range(10) for j in range(10) if i != j)


def test_commutant_resubstitution():
    rng = random.Random(83)
    s = random_hf_section(F17, rng)
    W = commutant_space(s)
    ST = s.mat.transpose()
    for m in W.basis:
        assert ST * m == m * s.mat


@pytest.mark.parametrize("section, expected", [
    (SectionMatrix(Mat.identity(F17, 10)), False),
    (script_matrix(F17), False),
    (SectionMatrix(Mat(F17, [[i + 1 if i == j else 0 for j in range(10)]
                             for i in range(10)])), True),
], ids=["identity", "script", "distinct-diagonal"])
def test_charpoly_squarefree(section, expected):
    assert charpoly_squarefree(section) is expected


def test_commutant_generic_hf_rational():
    rng = random.Random(89)
    s = random_hf_section(QQ, rng)
    assert charpoly_squarefree(s)
    W = commutant_space(s)
    assert W.dim == 10
    assert all(is_symmetric(m) for m in W.basis)
    # independent of the elimination: each basis matrix intertwines exactly in
    # Fraction arithmetic, and the basis reduced mod 2^31 - 1 is the
    # commutant computed over GF(2^31 - 1)
    ST = s.mat.transpose()
    assert all(ST * m == m * s.mat for m in W.basis)
    P = GF(2 ** 31 - 1)
    assert [Mat(P, m.data) for m in W.basis] == commutant_space(s.to_field(P)).basis


_SPLIT_SECTIONS = {
    "generic-qq": lambda: random_hf_section(QQ, random.Random(3)),
    "generic-mod-17": lambda: random_hf_section(QQ, random.Random(3)).to_field(F17),
    "script": lambda: script_matrix(F17),
    "script-hf": lambda: hf_project(script_matrix(F17)),
    "identity": lambda: SectionMatrix(Mat.identity(F17, 10)),
    "random-gf17": lambda: SectionMatrix(Mat.random(F17, 10, 10, random.Random(23))),
}


@pytest.mark.parametrize("name, dims", [
    ("generic-qq", (10, 0)), ("generic-mod-17", (10, 0)), ("script", (19, 9)),
    ("script-hf", (12, 2)), ("identity", (55, 45)), ("random-gf17", (10, 0)),
])
def test_transpose_blocks_solve_the_full_system(name, dims):
    # oracle: the 100x100 system of intertwiner_conditions, solved whole
    s = _SPLIT_SECTIONS[name]()
    f = s.field
    full = intertwiner_conditions(s)
    sym, anti = duality._transpose_blocks(s)
    assert (len(sym.kernel()), len(anti.kernel())) == dims
    # the commutant basis is the full system's kernel basis, in its order
    expected = [Mat(f, [v[10 * i:10 * i + 10] for i in range(10)]) for v in full.kernel()]
    assert commutant_space(s).basis == expected
    # the unfolded annihilator rows span the full system's row space
    dim, symmetric, ann = duality._commutant_facts(s)
    assert (dim, symmetric) == (sum(dims), dims[1] == 0)
    R, pivots = full.rref()
    assert Mat(f, ann).rref() == (Mat(f, R.data[:len(pivots)]), pivots)


def test_transpose_split_refuses_characteristic_2():
    s = script_matrix(GF(2))
    for call in (lambda: commutant_space(s), lambda: nonbirational_certificate(s, 2)):
        with pytest.raises(ValueError, match="characteristic 2"):
            call()


def test_det_of_unknowns_is_the_permutation_sum():
    # the det T that the certificate saturates by, against the Leibniz sum
    ring, grid = _unknowns(F17, "rabinowitsch")
    acc = ring.zero()
    for sigma in itertools.permutations(range(5)):
        term = ring.one()
        for r in range(5):
            term = term * grid[r][sigma[r]]
        acc = acc + (term if perm_sign(sigma) == 1 else -term)
    assert det(grid) == acc
    assert len(acc.terms) == 120


def test_certificate_symmetric_counterexample():
    rng = random.Random(97)
    s = random_hf_section(F17, rng)
    sym = SectionMatrix((s.mat + s.mat.transpose()) * F17.inv(2))
    rep = nonbirational_certificate(sym, 17)
    assert rep.status == "counterexample"


def test_certificate_script_matrix():
    rep = nonbirational_certificate(script_matrix(F17), 17)
    assert rep.status == "certified_empty"
    assert rep.route == "rabinowitsch"
    assert rep.saturation_result == "unit"
    assert rep.dim_commutant == 28
    assert not rep.hf_member
    # pins the strength of the pair criteria and the selection rule: a weaker
    # M, F or B criterion, or plain lcm-degree order for a pair whose lcm is
    # an older leading term, still gives a correct basis, but after more
    # S-pair reductions
    assert groebner_basis.last_stats.reductions == 2415


def test_certificate_never_certifies_a_self_dual_section():
    # S = (wedge^2 T)^-1 K with T, K symmetric: S^T wedge^2 T = K = wedge^2 T S,
    # so T solves the equation and the saturation is not the unit ideal
    rng = random.Random(3)

    def symmetric(n):
        m = Mat.random(F17, n, n, rng)
        return m + m.transpose()

    T = symmetric(5)
    while T.rank() < 5:
        T = symmetric(5)
    M = exterior_square(T)
    s = SectionMatrix(M.inverse() * symmetric(10))
    assert not is_symmetric(s.mat)
    assert s.mat.transpose() * M == M * s.mat
    rep = nonbirational_certificate(s, 17)
    assert rep.route == "reduced"
    assert rep.saturation_result == "non-unit"
    assert rep.status == "inconclusive"


def test_certificate_random_hf():
    rng = random.Random(101)
    s = random_hf_section(F17, rng)
    rep = nonbirational_certificate(s, 17)
    assert rep.status == "certified_empty"
    assert rep.route == "reduced"
    assert rep.dim_commutant == 10 and rep.symmetric
    # with the 2415 pin above: the memoised divisor search keeps the reducer;
    # z*det - 1 is reduced as soon as a cubic's leading term divides its own,
    # and that reduction gives 1 (all 242 pairs before it are of degree 3)
    assert groebner_basis.last_stats.reductions == 243


def test_certificate_rabinowitsch_fallback_on_a_generic_section():
    # the charpoly of this QQ section is not squarefree mod 17, so the
    # certificate takes the 25-variable route (about 3 in 100 generic draws)
    rep = nonbirational_certificate(random_hf_section(QQ, random.Random(901)), 17)
    assert (rep.status, rep.route) == ("certified_empty", "rabinowitsch")
    assert rep.dim_commutant == 10 and rep.symmetric
    assert not rep.charpoly_squarefree
    assert groebner_basis.last_stats.reductions == 687


def test_certificate_runs_the_full_loop_on_a_non_unit_ideal():
    # the self-dual construction of ROADMAP item 9: S_hf = P + iota_0(P) is
    # self-dual through T_0 = L L^T, and flag-ideal noise leaves its HF part.
    # On that part the saturation is proper: the one pinned run that empties
    # the pair queue and ends with the final interreduce
    rng = random.Random(7)
    P = random_hf_section(F17, rng)
    L = Mat(F17, [[int(i - j in (0, 1)) for j in range(5)] for i in range(5)])
    f0 = DualityMap(L * L.transpose())
    s_hf = SectionMatrix(P.mat + iota_action(P, f0).mat)
    noise = Mat.zero(F17, 10, 10)
    for k in flag_ideal_space(F17).basis:
        noise = noise + k * F17.rand(rng)
    s = hf_project(SectionMatrix(s_hf.mat + noise))
    assert s == s_hf and selfdual_test(s, f0)
    rep = nonbirational_certificate(s, 17)
    assert (rep.status, rep.route, rep.saturation_result) == ("inconclusive", "reduced",
                                                              "non-unit")
    assert rep.hf_member
    assert groebner_basis.last_stats == GroebnerStats(basis_size=15, reductions=1378,
                                                      max_degree_seen=7)


@pytest.mark.parametrize("field", [QQ, GF(7), F17], ids=["QQ", "GF7", "GF17"])
def test_hf_member_matches_the_hf_space(field):
    # oracle: membership in the 75-dimensional hf_space, read off its rows;
    # a flag-ideal term, the raw script matrix and a random matrix leave HF
    rng = random.Random(71)
    hf, ideal = hf_space(field), flag_ideal_space(field)
    members = [random_hf_section(field, rng) for _ in range(3)]
    members.append(hf_project(script_matrix(field)))
    others = [SectionMatrix(m.mat + k) for m, k in zip(members, ideal.basis[::8])]
    others += [script_matrix(field), SectionMatrix(Mat.random(field, 10, 10, rng))]
    for s in members:
        assert hf_member(s) and contains(hf, s.mat)
    for s in others:
        assert not hf_member(s) and not contains(hf, s.mat)


def test_hf_member_refuses_characteristic_3():
    s = script_matrix(GF(3))
    for call in (lambda: hf_member(s), lambda: nonbirational_certificate(s, 3)):
        with pytest.raises(ValueError, match="characteristic 3"):
            call()


def test_certificate_never_reads_the_clock(monkeypatch):
    # the cap counts reductions only: with a clock that jumps an hour per read
    # the verdict and the work are those of test_certificate_random_hf
    clock = itertools.count(3600, 3600)
    monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
    rep = nonbirational_certificate(random_hf_section(F17, random.Random(101)), 17)
    assert (rep.status, rep.route) == ("certified_empty", "reduced")
    assert groebner_basis.last_stats.reductions == 243
