import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from flagdual import motivic
from flagdual.exactalg import GF, Mat, minors
from flagdual.duality import pushforward_to_g25
from flagdual.grassflag import (D_SIGN, PAIR_POS, PAIRS, TRIPLE_POS, TRIPLES,
                                SectionMatrix, complement_pair, perm_sign,
                                random_hf_section, to_dual)
from flagdual.motivic import (MotivicClass, count_M_via_g25, count_M_via_g35,
                              count_X, count_Y, degree_check,
                              derive_l_relation, enumerate_grassmannian,
                              eval_poly, fibration_report, gauss_binomial,
                              integral, l_relation_expected, pieri,
                              schubert_mul)
from points import dual_coordinates, pluecker, section_on_fiber


def test_gauss_binomial_values():
    assert eval_poly(gauss_binomial(5, 2), 2) == 155
    assert gauss_binomial(7, 0) == [1]
    assert gauss_binomial(5, 2) == gauss_binomial(5, 3)


@pytest.mark.parametrize("n,k,q", [(4, 2, 2), (4, 2, 3), (5, 2, 2), (5, 2, 3),
                                   (5, 3, 2), (5, 3, 3)])
def test_gauss_binomial_against_enumeration(n, k, q):
    if n == 5:
        count = len(enumerate_grassmannian(q, k))
    else:
        count = _brute_grassmannian_count(n, k, q)
    assert eval_poly(gauss_binomial(n, k), q) == count


def _brute_grassmannian_count(n, k, q):
    # count rank-k subspaces by counting rank-k matrices / |GL_k|
    total = 0
    f = GF(q)
    for entries in itertools.product(range(q), repeat=n * k):
        m = Mat(f, [entries[i * k:(i + 1) * k] for i in range(n)])
        if m.rank() == k:
            total += 1
    glk = 1
    for i in range(k):
        total_glk = q ** k - q ** i
        glk *= total_glk
    assert total % glk == 0
    return total // glk


def test_l_relation_derivation():
    assert derive_l_relation() == l_relation_expected()


def test_l_relation_collapses_when_classes_agree():
    rel = derive_l_relation().substitute("[X]", "[Y]")
    # ([Y] - [Y]) L^2 = 0
    assert rel == MotivicClass()


def test_l_relation_evaluates_to_zero_on_counts():
    rng = random.Random(11)
    q = 3
    s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    values = {"1": 1, "[X]": count_X(s, q), "[Y]": count_Y(s, q),
              "[G25]": len(enumerate_grassmannian(q, 2)),
              "[G35]": len(enumerate_grassmannian(q, 3)),
              "[M]": count_M_via_g35(s, q)}
    # the point-counting realization: L = q, each generator its count
    assert sum(values[g] * sum(v * q ** k for k, v in poly.items())
               for g, poly in derive_l_relation().data.items()) == 0


def test_pieri_oracle_integrals():
    one = {(0, 0): 1}
    s = one
    for _ in range(6):
        s = pieri(s, 1)
    assert integral(s) == 5                     # deg G(2,5)
    s = pieri({(0, 0): 1}, 3)
    for _ in range(3):
        s = pieri(s, 1)
    assert integral(s) == 1                     # sigma_3 sigma_1^3
    s = pieri({(0, 0): 1}, 2)
    for _ in range(4):
        s = pieri(s, 1)
    assert integral(s) == 3                     # sigma_2 sigma_1^4


def test_degree_check():
    assert degree_check() == 25


def test_schubert_products_commute_and_associate():
    rng = random.Random(13)
    parts = [(l1, l2) for l1 in range(4) for l2 in range(l1 + 1)]
    for _ in range(30):
        a = {rng.choice(parts): rng.randrange(1, 5)}
        b = {rng.choice(parts): rng.randrange(1, 5)}
        c = {rng.choice(parts): rng.randrange(1, 5)}
        assert schubert_mul(a, b) == schubert_mul(b, a)
        assert schubert_mul(schubert_mul(a, b), c) == schubert_mul(a, schubert_mul(b, c))


def test_enumeration_sizes():
    for q in (2, 3):
        n = eval_poly(gauss_binomial(5, 2), q)
        assert len(enumerate_grassmannian(q, 2)) == n
        assert len(enumerate_grassmannian(q, 3)) == n


def test_count_X_matches_pointwise_quadrics():
    rng = random.Random(17)
    q = 3
    f = GF(q)
    s = SectionMatrix(Mat.random(f, 10, 10, rng))
    qs = pushforward_to_g25(s)
    brute = 0
    for rep in enumerate_grassmannian(q, 2):
        x = pluecker(Mat(f, rep.tolist()))
        if all(f.is_zero(quad.evaluate(x)) for quad in qs):
            brute += 1
    assert count_X(s, q) == brute


@pytest.mark.parametrize("q", [2, 3])
def test_count_Y_matches_pointwise_vector(q):
    # oracle: Y_S is X_{S^T} read in the dual coordinates of B; q = 3 has signs
    rng = random.Random(19)
    f = GF(q)
    s = SectionMatrix(Mat.random(f, 10, 10, rng))
    qs = pushforward_to_g25(s.transpose())
    brute = 0
    for rep in enumerate_grassmannian(q, 3):
        y = dual_coordinates(Mat(f, rep.tolist()))
        if all(f.is_zero(quad.evaluate(y)) for quad in qs):
            brute += 1
    assert count_Y(s, q) == brute


@pytest.mark.parametrize("q", [2, 3])
def test_fibration_identities(q):
    rng = random.Random(23 + q)
    s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    rep = fibration_report(s, q)
    assert rep["M_counts_agree"]
    assert rep["identity_X"]
    assert rep["identity_Y"]
    assert rep["X_equals_Y"]


def test_count_X_requires_prime_q():
    s = SectionMatrix(Mat.random(GF(2), 10, 10, random.Random(29)))
    with pytest.raises(ValueError):
        count_X(s, 4)


def test_hf_section_counting():
    # sections drawn in the invariant complement work the same way
    rng = random.Random(31)
    q = 5
    s = random_hf_section(GF(q), rng)
    rep = fibration_report(s, q)
    assert rep["identity_X"] and rep["identity_Y"] and rep["X_equals_Y"]


# --- reference counting routes ----------------------------------------------
#
# The same flags evaluated with loops, outer products and one unchunked
# einsum: no Cauchy-Binet, no matrix-product triple minors, no chunks.

def _ref_cell_block(q, k, pivots):
    free = [(r, i) for i in range(k) for r in range(5)
            if r > pivots[i] and r not in pivots]
    base = np.zeros((5, k), dtype=np.int64)
    for i, p in enumerate(pivots):
        base[p, i] = 1
    if not free:
        return base[None, :, :]
    grids = np.array(list(itertools.product(range(q), repeat=len(free))),
                     dtype=np.int64)
    block = np.repeat(base[None, :, :], len(grids), axis=0)
    for n, (r, i) in enumerate(free):
        block[:, r, i] = grids[:, n]
    return block


def _ref_minors2(A, q):
    out = np.empty((A.shape[0], 10), dtype=np.int64)
    for n, (i, j) in enumerate(PAIRS):
        out[:, n] = (A[:, i - 1, 0] * A[:, j - 1, 1]
                     - A[:, i - 1, 1] * A[:, j - 1, 0]) % q
    return out


@pytest.mark.parametrize("shape", [(64, 5, 3), (64, 3, 6)])
@pytest.mark.parametrize("k", [2, 3])
def test_minors_batch_matches_minors(shape, k):
    q = 7
    M = np.random.default_rng(k * shape[2]).integers(0, q, shape, dtype=np.int64)
    out = motivic.minors_batch(M, k, q)
    assert out.shape == (shape[0], math.comb(shape[1], k), math.comb(shape[2], k))
    for m, got in zip(M, out):
        assert got.tolist() == [[x % q for x in row] for row in minors(m.tolist(), k)]
    if shape[1] == 5 and k == 2:
        for b, cols in enumerate(itertools.combinations(range(shape[2]), 2)):
            assert (out[:, :, b] == _ref_minors2(M[:, :, list(cols)], q)).all()


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_echelon_minors_match_minors_batch(q):
    # every block of G(2,5)(F_q) and G(3,5)(F_q) and its empty slice: the
    # Pluecker coordinates, wedge^2 B, and the blocks B +- E of the glsm
    # Jacobian scan, E a unit matrix off the pivot rows, so that B +- E
    # keeps B[pivots] = I
    for k, sizes in ((2, (2,)), (3, (3, 2))):
        for pivots, B in motivic.grassmannian_chunks(q, k):
            blocks = [B, B[:0]]
            if k == 3:
                for r, c in itertools.product(set(range(5)) - set(pivots), range(3)):
                    E = np.zeros((5, 3), dtype=np.int64)
                    E[r, c] = 1
                    blocks += [(B + E) % q, (B - E) % q]
            for j, D in itertools.product(sizes, blocks):
                got, want = motivic.echelon_minors(D, pivots, j, q), motivic.minors_batch(D, j, q)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def _ref_count_M_via_g25(S, q):
    S_arr = motivic._section_array(S, q)
    total = 0
    lam = motivic._proj_plane_reps(q)
    for pivots in itertools.combinations(range(5), 2):
        comp = [r for r in range(5) if r not in pivots]
        x = _ref_minors2(_ref_cell_block(q, 2, pivots), q)
        W = np.zeros((len(lam), 5), dtype=np.int64)
        for t in range(3):
            W[:, comp[t]] = lam[:, t]
        vals = np.zeros((len(x), len(lam)), dtype=np.int64)
        z = (x @ S_arr.T) % q
        for t in TRIPLES:
            i, j, k = t
            contrib = (np.outer(x[:, PAIR_POS[(j, k)]], W[:, i - 1])
                       - np.outer(x[:, PAIR_POS[(i, k)]], W[:, j - 1])
                       + np.outer(x[:, PAIR_POS[(i, j)]], W[:, k - 1]))
            ycoord = PAIR_POS[complement_pair(t)]
            vals += D_SIGN[t] * contrib % q * z[:, ycoord][:, None]
            vals %= q
        total += int((vals % q == 0).sum())
    return total


def _ref_count_M_via_g35(S, q):
    S_arr = motivic._section_array(S, q)
    f = GF(q)
    K = np.stack([np.array(Mat(f, [[int(v) for v in l]]).kernel(),
                           dtype=np.int64).T
                  for l in motivic._proj_plane_reps(q)])        # (P,3,2)
    B = enumerate_grassmannian(q, 3)
    pl3 = motivic.minors_batch(B, 3, q)[:, :, 0]
    z = (np.stack(to_dual(pl3.T), axis=1) % q @ S_arr) % q
    A = np.einsum("nij,pjk->npik", B, K) % q                     # (N,P,5,2)
    x = _ref_minors2(A.reshape(-1, 5, 2), q).reshape(len(B), len(K), 10)
    return int((np.einsum("npa,na->np", x, z) % q == 0).sum())


def _section(kind, q, seed):
    rng = random.Random(seed)
    if kind == "random":
        return SectionMatrix(Mat.random(GF(q), 10, 10, rng))
    return random_hf_section(GF(q), rng)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_enumeration_order_matches_cell_reference(q, k):
    ref = np.concatenate([_ref_cell_block(q, k, piv)
                          for piv in itertools.combinations(range(5), k)])
    assert np.array_equal(enumerate_grassmannian(q, k), ref)


# random_hf_section needs the invariant complement, which characteristic 3
# lacks (see grassflag.flag_ideal_space), so its sections stop at q = 2, 5.
@pytest.mark.parametrize("q,kind", [(2, "random"), (3, "random"), (5, "random"),
                                    (2, "hf"), (5, "hf")])
def test_M_counts_match_reference_routes(q, kind):
    s = _section(kind, q, 41 + q)
    assert count_M_via_g25(s, q) == _ref_count_M_via_g25(s, q)
    assert count_M_via_g35(s, q) == _ref_count_M_via_g35(s, q)


def test_M_count_via_g25_matches_reference_route_at_q7():
    s = _section("random", 7, 48)
    assert count_M_via_g25(s, 7) == _ref_count_M_via_g25(s, 7)


def test_M_counts_agree_at_q7():
    # no reference g35 route runs at q = 7: it holds every flag at once
    s = _section("hf", 7, 49)
    assert count_M_via_g35(s, 7) == count_M_via_g25(s, 7)


# --- exact float64 arithmetic -------------------------------------------------

def _largest_prime_below(n):
    return next(p for p in range(n - 1, 1, -1)
                if all(p % d for d in range(2, math.isqrt(p) + 1)))


@pytest.mark.parametrize("q", [2, 3, 7, 13, _largest_prime_below(motivic.Q_LIMIT)])
def test_divisible_and_reduce_match_int_remainder(q):
    # k q and k q +- 1 of both signs, up to the kernels' 100 q^3 and up to
    # the helpers' own |v| + q <= 2^53; the float64 values are exact
    rng = random.Random(q)
    top = (2 ** 53 - q) // q
    ks = {0, 1, 2, 100 * q * q - 1, 100 * q * q, top - 1, top}
    ks |= {rng.randrange(100 * q * q) for _ in range(500)}
    ks |= {rng.randrange(top) for _ in range(500)}
    ints = [0] + [s * (k * q + d) for k in ks for d in (-1, 0, 1) for s in (1, -1)]
    ints = [v for v in ints if abs(v) + q <= 2 ** 53]
    assert 2 ** 53 - q - max(map(abs, ints)) < q       # the top is reached
    v = np.array([-0.0] + ints, dtype=np.float64)
    assert np.signbit(v[0]) and (v[1:] == ints).all()
    expected = [x % q == 0 for x in [0] + ints]
    assert motivic.divisible(v, q).tolist() == expected
    r = motivic._reduce(v.copy(), q)
    assert [x % q for x in [0] + ints] == r.tolist()


# the gather-einsum of the int64 v_p: sign(p ^ pair a) and the triple
# position of p ^ pair a, both (5, 10)
_REF_V_SIGN = np.array([[perm_sign((p,) + lm) * (p not in lm) for lm in PAIRS]
                        for p in range(1, 6)])
_REF_V_TRIPLE = np.array([[TRIPLE_POS.get(tuple(sorted({p, *lm})), 0) for lm in PAIRS]
                          for p in range(1, 6)])


@pytest.mark.parametrize("kind", ["random", "hf"])
def test_float_forms_match_int64_formulation_at_q7(kind):
    # every point of G(2,5)(F_7) and G(3,5)(F_7): the float64 quadratic forms
    # in their (n, 5, 10) layout against one int64 einsum per quadric, and
    # against the int64 gather-einsum of v over the dual coordinates
    q = 7
    s = _section(kind, q, 50)
    mats = motivic._quadric_arrays(s, q)
    K = np.concatenate(mats, axis=1).astype(np.float64)
    on_x = 0
    for _, A in motivic.grassmannian_chunks(q, 2):
        x = motivic.minors_batch(A, 2, q)[:, :, 0]
        ref = np.stack([np.einsum("ni,ij,nj->n", x, C, x) % q for C in mats], axis=1)
        assert np.array_equal(motivic._five_forms(K, x) % q, ref)
        on_x += int((ref == 0).all(axis=1).sum())
    S_arr = motivic._section_array(s, q)
    on_y = 0
    for pivots, B in motivic.grassmannian_chunks(q, 3):
        pl3 = motivic.minors_batch(B, 3, q)[:, :, 0]
        z = (np.stack(to_dual(pl3.T), axis=1) % q @ S_arr) % q
        ref = np.einsum("na,pa,npa->np", z, _REF_V_SIGN, pl3[:, _REF_V_TRIPLE]) % q
        assert np.array_equal(motivic._pushforward_vectors(S_arr, B, q, pivots) % q, ref)
        on_y += int((ref == 0).all(axis=1).sum())
    assert count_X(s, q) == on_x > 0 and count_Y(s, q) == on_y > 0


def test_M_count_matches_brute_force_over_gf2():
    # every flag (A, A+w) of F_2^5, found as the vectors w outside col(A):
    # each 3-space A+w arises from q^3 - q^2 of them, all giving the same
    # value of the section up to a nonzero scalar
    q = 2
    f = GF(q)
    s = SectionMatrix(Mat.random(f, 10, 10, random.Random(43)))
    hits = 0
    for rep in enumerate_grassmannian(q, 2):
        A = Mat(f, rep.tolist())
        for w in itertools.product(range(q), repeat=5):
            if Mat(f, [list(r) + [w[n]] for n, r in enumerate(A.data)]).rank() < 3:
                continue
            if f.is_zero(section_on_fiber(s, A, list(w))):
                hits += 1
    assert hits % (q ** 3 - q ** 2) == 0
    brute = hits // (q ** 3 - q ** 2)
    assert count_M_via_g25(s, q) == brute
    assert count_M_via_g35(s, q) == brute


@pytest.mark.parametrize("q,kind", [(3, "random"), (5, "hf")])
def test_counts_do_not_depend_on_chunk_size(q, kind, monkeypatch):
    # 37 is odd and prime, so chunk boundaries fall inside Schubert cells
    s = _section(kind, q, 47 + q)
    rep = fibration_report(s, q)
    monkeypatch.setattr(motivic, "CHUNK_ROWS", 37)
    assert fibration_report(s, q) == rep


def test_counting_kernels_keep_no_enumeration():
    # G(2,5)(F_7) and G(3,5)(F_7) enumerated whole take 10-16 MB each; a
    # streaming kernel peaks at its chunk temporaries and keeps nothing
    q = 7
    s = _section("random", q, 53)
    for kernel in (count_X, count_Y, count_M_via_g25, count_M_via_g35):
        tracemalloc.start()
        try:
            kernel(s, q)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20, (kernel.__name__, peak)
        assert held < 2 ** 20, (kernel.__name__, held)
