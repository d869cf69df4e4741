"""Grothendieck-ring bookkeeping, the symbolic derivation of the
L-equivalence relation, Schubert-calculus intersection numbers on G(2,5),
and exact point counting over small prime fields.

Counting is exact integer arithmetic throughout: enumeration runs over
Schubert-cell echelon representatives as int64 numpy arrays with explicit
reductions mod p (no floating point is involved anywhere).  The kernels
stream over ``grassmannian_chunks`` and nothing is cached, so their memory
does not grow with q.  Every intermediate stays below about 100 q^3 in
absolute value; the largest is the quadratic form x^T C x of ``count_X``, a
sum of 100 products of three residues.  Operands are residues in [0, q) with
one exception: ``count_M_via_g25`` multiplies the products x z < q^2 of two
residues, with their signs, by the residues of w, and its 18 such terms per
flag stay below 18 q^3; that kernel never forms the per-A coefficient vector
(see its docstring).  100 q^3 < 2^63 holds for q < 4.5 * 10^5, far beyond any
q whose Grassmannian (about q^6 points) can be enumerated, so int64 never
wraps.
"""
from __future__ import annotations

import itertools

import numpy as np

from .exactalg import GF, Mat, minors
from .grassflag import (D_SIGN, PAIRS, PAIR_POS, TRIPLES, TRIPLE_POS,
                        SectionMatrix, complement_pair, perm_sign, to_dual)
from .duality import pushforward_to_g25

Q_LIMIT = 450_000     # the int64 bound of the module docstring

GENERATORS = ("1", "[X]", "[Y]", "[G25]", "[G35]", "[M]")


class MotivicClass:
    """Z[L]-combination of formal variety generators."""

    def __init__(self, data=None):
        # generator -> {power of L: integer coefficient}
        self.data = {}
        for g, poly in (data or {}).items():
            poly = {int(k): int(v) for k, v in poly.items() if v}
            if poly:
                self.data[g] = poly

    @classmethod
    def generator(cls, name):
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name}")
        return cls({name: {0: 1}})

    def __add__(self, other):
        out = {g: dict(p) for g, p in self.data.items()}
        for g, poly in other.data.items():
            tgt = out.setdefault(g, {})
            for k, v in poly.items():
                tgt[k] = tgt.get(k, 0) + v
        return MotivicClass(out)

    def __neg__(self):
        return MotivicClass({g: {k: -v for k, v in p.items()}
                             for g, p in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def times_L_poly(self, poly: dict) -> "MotivicClass":
        """Multiply by an element of Z[L] given as {power: coeff}."""
        out = {}
        for g, p in self.data.items():
            tgt = out.setdefault(g, {})
            for k1, v1 in p.items():
                for k2, v2 in poly.items():
                    tgt[k1 + k2] = tgt.get(k1 + k2, 0) + v1 * v2
        return MotivicClass(out)

    def substitute(self, src: str, dst: str) -> "MotivicClass":
        out = {g: dict(p) for g, p in self.data.items() if g != src}
        if src in self.data:
            tgt = out.setdefault(dst, {})
            for k, v in self.data[src].items():
                tgt[k] = tgt.get(k, 0) + v
        return MotivicClass(out)

    def __eq__(self, other):
        return isinstance(other, MotivicClass) and self.data == other.data

    def __repr__(self):
        def fmt(poly):
            return " + ".join(f"{v}*L^{k}" if k else str(v)
                              for k, v in sorted(poly.items()))
        return " + ".join(f"({fmt(p)})*{g}" for g, p in sorted(self.data.items())) or "0"


def derive_l_relation() -> MotivicClass:
    """Subtract the two piecewise-trivial fibration decompositions of [M]
    and use [G25] = [G35]; the result is ([X] - [Y]) * L^2."""
    X = MotivicClass.generator("[X]")
    Y = MotivicClass.generator("[Y]")
    G25 = MotivicClass.generator("[G25]")
    G35 = MotivicClass.generator("[G35]")
    P2 = {k: 1 for k in range(3)}
    P1 = {k: 1 for k in range(2)}
    m_via_x = X.times_L_poly(P2) + (G25 - X).times_L_poly(P1)
    m_via_y = Y.times_L_poly(P2) + (G35 - Y).times_L_poly(P1)
    diff = m_via_x - m_via_y
    return diff.substitute("[G35]", "[G25]")


def l_relation_expected() -> MotivicClass:
    X = MotivicClass.generator("[X]")
    Y = MotivicClass.generator("[Y]")
    return (X - Y).times_L_poly({2: 1})


def l_relation_verdict() -> dict:
    """The derived relation and whether it is ([X] - [Y]) L^2."""
    rel = derive_l_relation()
    return {"relation": repr(rel), "equals_([X]-[Y])L^2": rel == l_relation_expected()}


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    assert all(c == 0 for c in num)
    return out


def gauss_binomial(n: int, k: int) -> list:
    """[G(k,n)] as a polynomial in L (coefficient list, constant first)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    num = [1]
    den = [1]
    for i in range(k):
        num = _poly_mul(num, [-1] + [0] * (n - i - 1) + [1])   # L^(n-i) - 1
        den = _poly_mul(den, [-1] + [0] * i + [1])             # L^(i+1) - 1
    return _poly_divexact(num, den)


def eval_poly(coeffs, q):
    return sum(c * q ** i for i, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# Schubert calculus on G(2,5)
# ---------------------------------------------------------------------------
#
# Classes are dicts {(l1, l2): coeff} with 3 >= l1 >= l2 >= 0.  sigma_k is
# the k-th special class (k-th Chern class of the quotient bundle).

def pieri(cls: dict, k: int) -> dict:
    """Multiply by sigma_k via the Pieri rule in the 2x3 box."""
    out: dict = {}
    for (l1, l2), c in cls.items():
        for m1 in range(l1, 4):
            m2 = l1 + l2 + k - m1
            if l2 <= m2 <= l1 and m2 <= m1:
                key = (m1, m2)
                out[key] = out.get(key, 0) + c
    return {k2: v for k2, v in out.items() if v}


def schubert_mul(a: dict, b: dict) -> dict:
    """Product of two classes on G(2,5) by the two-row Jacobi-Trudi rule
    sigma_(b1,b2) = sigma_b1 sigma_b2 - sigma_(b1+1) sigma_(b2-1), each
    special factor applied by ``pieri``; the second term is zero when b2 = 0
    or b1 = 3."""
    out: dict = {}
    for (b1, b2), cb in b.items():
        term = {k: v * cb for k, v in a.items()}
        first = pieri(pieri(term, b1), b2)
        second = {}
        if b2 - 1 >= 0 and b1 + 1 <= 3:
            second = pieri(pieri(term, b1 + 1), b2 - 1)
        for k, v in first.items():
            out[k] = out.get(k, 0) + v
        for k, v in second.items():
            out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def integral(cls: dict) -> int:
    """Integration over G(2,5): coefficient of the point class (3,3)."""
    return cls.get((3, 3), 0)


def degree_check() -> int:
    """deg X = integral of c3(Q2*(2)) . sigma_1^3 over G(2,5).

    c3(Q2*(2)) = 4 sigma_1^3 + 2 sigma_1 sigma_2 - sigma_3."""
    one = {(0, 0): 1}
    s1_3 = pieri(pieri(pieri(one, 1), 1), 1)
    c3 = {}
    for k, v in s1_3.items():
        c3[k] = c3.get(k, 0) + 4 * v
    s1s2 = pieri(pieri(one, 1), 2)
    for k, v in s1s2.items():
        c3[k] = c3.get(k, 0) + 2 * v
    s3 = pieri(one, 3)
    for k, v in s3.items():
        c3[k] = c3.get(k, 0) - v
    total = dict(c3)
    for _ in range(3):
        total = pieri(total, 1)
    return integral(total)


def degree_verdict() -> dict:
    """deg X and whether it is 25, the degree of the G(2,5)-side threefold."""
    d = degree_check()
    return {"degree": d, "expected": 25, "ok": d == 25}


# ---------------------------------------------------------------------------
# exact point counting
# ---------------------------------------------------------------------------

# Rows of G(k,5)(F_q) that a counting kernel processes at once; the kernels'
# temporaries have at most this many rows.
CHUNK_ROWS = 4096


def _schubert_cells(k: int):
    """The Schubert cells of G(k,5) in enumeration order, as (pivot rows,
    free (row, column) entries); the pivots run in itertools.combinations
    order."""
    for pivots in itertools.combinations(range(5), k):
        free = [(r, i) for i in range(k) for r in range(5)
                if r > pivots[i] and r not in pivots]
        yield pivots, free


def grassmannian_chunks(q: int, k: int):
    """All points of G(k,5)(F_q) as reduced column-echelon representatives,
    one per point, in blocks of at most ``CHUNK_ROWS``: yields (pivots,
    block), block an int64 array of shape (n, 5, k) from the Schubert cell
    with those pivot rows.  Cells follow ``_schubert_cells``; within a cell
    the free entries run through F_q^n in lexicographic order, each block
    built from its row indices, so no cell is held whole."""
    for pivots, free in _schubert_cells(k):
        n = len(free)
        for lo in range(0, q ** n, CHUNK_ROWS):
            idx = np.arange(lo, min(lo + CHUNK_ROWS, q ** n))
            block = np.zeros((len(idx), 5, k), dtype=np.int64)
            block[:, list(pivots), np.arange(k)] = 1
            for d, (r, i) in enumerate(free):
                block[:, r, i] = idx // q ** (n - 1 - d) % q
            yield pivots, block


def enumerate_grassmannian(q: int, k: int) -> np.ndarray:
    """The blocks of ``grassmannian_chunks`` in one (N, 5, k) array."""
    return np.concatenate([block for _, block in grassmannian_chunks(q, k)])


def minors_batch(M: np.ndarray, k: int, q: int) -> np.ndarray:
    """(N,r,c) -> (N, C(r,k), C(c,k)): ``minors`` of every matrix mod q, row
    and column k-subsets in lex order.  For r = 5 the single column of an
    (N,5,k) batch holds its Pluecker coordinates."""
    return np.moveaxis(np.array(minors(M.transpose(1, 2, 0), k)), 2, 0) % q


def dual_batch(PL3: np.ndarray, q: int) -> np.ndarray:
    """Triple-minor coordinates -> wedge^2 V5* coordinates (pair-indexed)."""
    return np.stack(to_dual(PL3.T), axis=1) % q


def _section_array(S: SectionMatrix, q: int) -> np.ndarray:
    f = GF(q)
    sm = S.to_field(f)
    return np.array([[int(x) for x in row] for row in sm.mat.data], dtype=np.int64)


def _quadric_arrays(S: SectionMatrix, q: int):
    """The five quadrics as 10x10 coefficient arrays over F_q."""
    mats = []
    for poly in pushforward_to_g25(S.to_field(GF(q))):
        C = np.zeros((10, 10), dtype=np.int64)
        for m, c in poly.terms.items():
            exps = poly.ring.decode(m)
            idx = [i for i, e in enumerate(exps) for _ in range(e)]
            if len(idx) == 1:
                idx = [idx[0], idx[0]]
            C[idx[0], idx[1]] += int(c)
        mats.append(C % q)
    return mats


def count_X(S: SectionMatrix, q: int) -> int:
    mats = _quadric_arrays(S, q)
    total = 0
    for _, A in grassmannian_chunks(q, 2):
        x = minors_batch(A, 2, q)[:, :, 0]
        ok = np.ones(len(x), dtype=bool)
        for C in mats:
            ok &= np.einsum("ni,ij,nj->n", x, C, x) % q == 0
        total += int(ok.sum())
    return total


# v_p = sum_a sign(p ^ pair a) z_a pl3(p ^ pair a): the signs (0 where p lies
# in pair a) and the triple positions of p ^ pair a, both (5, 10)
_V_SIGN = np.array([[perm_sign((p,) + lm) * (p not in lm) for lm in PAIRS]
                    for p in range(1, 6)])
_V_TRIPLE = np.array([[TRIPLE_POS.get(tuple(sorted({p, *lm})), 0) for lm in PAIRS]
                      for p in range(1, 6)])


def _pushforward_vectors(S_arr: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """(N,5) matrix of v_p(B) values mod q."""
    pl3 = minors_batch(B, 3, q)[:, :, 0]
    z = (dual_batch(pl3, q) @ S_arr) % q
    return np.einsum("na,pa,npa->np", z, _V_SIGN, pl3[:, _V_TRIPLE]) % q


def y_points(S: SectionMatrix, q: int):
    """All points of Y(F_q): for each block of ``grassmannian_chunks(q, 3)``
    yields (pivots, the rows of the block where v vanishes)."""
    S_arr = _section_array(S, q)
    for pivots, B in grassmannian_chunks(q, 3):
        yield pivots, B[np.all(_pushforward_vectors(S_arr, B, q) == 0, axis=1)]


def count_Y(S: SectionMatrix, q: int) -> int:
    return sum(len(B) for _, B in y_points(S, q))


def _proj_plane_reps(q: int) -> np.ndarray:
    """Representatives of P^2(F_q): first nonzero coordinate 1; (q^2+q+1, 3)."""
    reps = [(1, a, b) for a in range(q) for b in range(q)]
    reps += [(0, 1, b) for b in range(q)]
    reps += [(0, 0, 1)]
    return np.array(reps, dtype=np.int64)


# psi_t([A|w]) = w_i x_jk - w_j x_ik + w_k x_ij for t = (i,j,k), x = Pl(A),
# and the flag's value is sum_t D_SIGN[t] z_t psi_t, z_t the entry of z = S x
# at the pair position of the complement of t.  Its 30 products, three per
# triple in TRIPLES order, are _M_SIGN[m] * x[_M_X[m]] * z[_M_Z[m]] * w[_M_W[m]].
_M_SIGN = np.array([D_SIGN[(i, j, k)] * s for i, j, k in TRIPLES for s in (1, -1, 1)])
_M_X = np.array([PAIR_POS[pr] for i, j, k in TRIPLES
                 for pr in ((j, k), (i, k), (i, j))])
_M_W = np.array([r - 1 for t in TRIPLES for r in t])
_M_Z = np.repeat([PAIR_POS[complement_pair(t)] for t in TRIPLES], 3)


def count_M_via_g25(S: SectionMatrix, q: int) -> int:
    """Honest enumeration of M(F_q) through the G(2,5)-side flags: for each
    cell representative A the complement rows give canonical coset
    representatives w of V5 / col(A).

    Every flag (A, A+w) is evaluated on its own: its value is the sum over
    the ten triple minors of [A | w], each paired with z = S x(A), taken as
    one matmul per block of the products x z against the entries of every w.
    The route stays a per-flag evaluation, not a per-A test, because it is
    the cross-check of the G(3,5)-side count: the kernel never sums the
    products of one A into a coefficient vector of w, since that vector is
    the quadrics of X, and factoring through it would make the fibration
    identity for X true by construction.  Of the 30 products x z w of a
    flag, the 18 with w off the pivot rows can be nonzero, so every value
    lies below 18 q^3 < 30 q^3 in absolute value."""
    S_arr = _section_array(S, q)
    lamT = _proj_plane_reps(q).T                   # (3, P)
    total = 0
    for pivots, A in grassmannian_chunks(q, 2):
        # w_p = sum_s lamT[s, p] e_comp[s] vanishes on the pivot rows, so
        # only the 18 products whose w entry lies off them count
        W = np.zeros((5, lamT.shape[1]), dtype=np.int64)
        W[[r for r in range(5) if r not in pivots]] = lamT
        live = ~np.isin(_M_W, pivots)
        x = minors_batch(A, 2, q)[:, :, 0]         # (n,10)
        z = (x @ S_arr.T) % q                      # z[n, row] = (S x)_row
        prods = _M_SIGN[live] * x[:, _M_X[live]] * z[:, _M_Z[live]]
        vals = prods @ W[_M_W[live]]               # (n, P): one value per flag
        total += int((vals % q == 0).sum())
    return total


def count_M_via_g35(S: SectionMatrix, q: int) -> int:
    """Honest enumeration of M(F_q) through the G(3,5)-side flags: points of
    the fiber over [B] are kernels of functionals on the column space.

    For the functional lambda_p with kernel basis K_p (3x2), the fiber point
    is col(B K_p), and by Cauchy-Binet wedge^2(B K_p) = wedge^2(B) wedge^2(K_p),
    with wedge^2(B) the 10x3 matrix of 2x2 minors of B and wedge^2(K_p) the
    3 minors of K_p.  The section there is z . wedge^2(B K_p) with
    z = dual(wedge^3 B) S, so it equals u(B) . wedge^2(K_p) for the one
    vector u(B) = z wedge^2(B) per point of G(3,5)."""
    S_arr = _section_array(S, q)
    f = GF(q)
    K = np.stack([np.array(Mat(f, [[int(v) for v in l]]).kernel(),
                           dtype=np.int64).T
                  for l in _proj_plane_reps(q)])                 # (P,3,2)
    CK = minors_batch(K, 2, q)[:, :, 0]                          # (P,3)
    total = 0
    for _, B in grassmannian_chunks(q, 3):
        z = (dual_batch(minors_batch(B, 3, q)[:, :, 0], q) @ S_arr) % q
        u = np.einsum("na,nac->nc", z, minors_batch(B, 2, q)) % q   # (n,3)
        total += int(((u @ CK.T) % q == 0).sum())
    return total


def fibration_report(S: SectionMatrix, q: int) -> dict:
    """All counts plus the two piecewise-fibration identities and |X| = |Y|."""
    nG = eval_poly(gauss_binomial(5, 2), q)
    nX = count_X(S, q)
    nY = count_Y(S, q)
    nM1 = count_M_via_g25(S, q)
    nM2 = count_M_via_g35(S, q)
    p2 = q * q + q + 1
    p1 = q + 1
    return {
        "q": q,
        "G": nG, "X": nX, "Y": nY,
        "M_via_g25": nM1, "M_via_g35": nM2,
        "M_counts_agree": nM1 == nM2,
        "identity_X": nM1 == nX * p2 + (nG - nX) * p1,
        "identity_Y": nM2 == nY * p2 + (nG - nY) * p1,
        "X_equals_Y": nX == nY,
    }


def fibration_ok(rep: dict) -> bool:
    """A fibration_report's two identities, |X| = |Y| and equal M counts."""
    return (rep["identity_X"] and rep["identity_Y"] and rep["X_equals_Y"]
            and rep["M_counts_agree"])


def verify_l_equivalence(qs, rng) -> dict:
    """Count identities on a random section for each q in qs, deg X, the L-relation."""
    details = {}
    ok = True
    for q in qs:
        rep = fibration_report(SectionMatrix(Mat.random(GF(q), 10, 10, rng)), q)
        details[f"q={q}"] = rep
        ok &= fibration_ok(rep)
    degree, relation = degree_verdict(), l_relation_verdict()
    details["degree"] = degree["degree"]
    details["l_relation"] = relation["relation"]
    ok &= degree["ok"] and relation["equals_([X]-[Y])L^2"]
    return {"ok": ok, "details": details}
