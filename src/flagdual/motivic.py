"""Grothendieck-ring bookkeeping, the symbolic derivation of the
L-equivalence relation, Schubert-calculus intersection numbers on G(2,5),
and exact point counting over small prime fields.

Counting is exact integer arithmetic held in float64.  Enumeration runs over
Schubert-cell echelon representatives as int64 numpy arrays, with
B[pivots] = I.  Their minors, the Pluecker coordinates and wedge^2 B, are
residues mod q read off the entries off the pivot rows (``echelon_minors``):
each is 0, +-1, +-one entry or +-one 2 x 2 determinant, never a general 3 x 3
one (Fulton, Young Tableaux, section 9.4).  ``minors_batch`` computes the
minors of general matrices: the glsm Jacobians and the kernels K_p of
``count_M_via_g35``.  The kernels evaluate their forms on those coordinates
with float64 matrix products, which numpy hands to BLAS (it has none for
integers).  A float64 sum of integers is exact while the sum of
the absolute values of its terms stays below 2^53, whatever the order of
summation, so every product below is exact if that sum is bounded.  Operands
are residues of absolute value below q, and the largest intermediate of each
kernel is its value per point or per flag:

- ``count_X``: the quadratic forms x^T C x, sums of 100 products of three
  residues, below 100 q^3;
- ``_pushforward_vectors`` (``count_Y``, ``y_points`` and the Jacobian scan
  of ``glsm``): the forms pl3^T K_p pl3, 60 products of three residues, below
  60 q^3;
- ``count_M_via_g25``: 18 products x z w of residues per flag, z = S x
  reduced mod q, below 18 q^3 (that kernel never forms the per-A coefficient
  vector, see its docstring);
- ``count_M_via_g35``: u . wedge^2(K_p), three products of a residue with a
  sum u of 10 products of two residues (z = dual(pl3) S again reduced mod
  q), below 30 q^3.

So every value stays below 100 q^3, and ``divisible`` decides v = 0 mod q
exactly for |v| + q <= 2^53.  Both hold for q < 44,800 (100 q^3 < 2^53 up to
q = 44,825), far beyond any q whose Grassmannian (about q^6 points) can be
enumerated.  The kernels stream over ``grassmannian_chunks`` and nothing is
cached, so their memory does not grow with q.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .exactalg import GF, Mat, minors
from .grassflag import (D_SIGN, PAIR_POS, TRIPLES,
                        SectionMatrix, complement_pair, perm_sign, to_dual)
from .duality import pushforward_to_g25

Q_LIMIT = 44_800      # the float64 bound of the module docstring

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


@functools.lru_cache(maxsize=None)
def _echelon_rule(pivots: tuple, k: int) -> tuple:
    """How ``echelon_minors`` reads the k x k minors of a 5 x c block with
    B[pivots] = I, c = len(pivots), pivots increasing: minor m (row subset T,
    column subset C, in ``minors_batch`` order) is sign * det(B[R, S]), R the
    rows of T off the pivots and S the columns of C whose pivot row is not in
    T.  Laplace expansion along the pivot rows of T gives it: pivot row
    pivots[j] is the unit row e_j, so the minor is 0 unless j lies in C, and
    otherwise those rows meet C in an identity block (pivots increase with j),
    with sign (-1)^(positions in T + positions in C).  |R| <= 5 - c and
    |R| <= k, so |R| <= 2 for G(2,5) and G(3,5).

    Returns (number of minors, ones, singles, pairs): ones (m, sign) where
    R is empty, singles (m, sign, i) where the minor is sign * B[i], pairs
    (m, a, b, c, d) where it is B[a] B[b] - B[c] B[d], with entry (r, s) of
    B at index r * len(pivots) + s and the sign of a pair folded into the
    order of S.  The minors in none of the three are 0."""
    c = len(pivots)
    ones, singles, pairs = [], [], []
    subsets = itertools.product(itertools.combinations(range(5), k),
                                itertools.combinations(range(c), k))
    for m, (T, C) in enumerate(subsets):
        at = [a for a, r in enumerate(T) if r in pivots]
        js = [pivots.index(T[a]) for a in at]
        if not set(js) <= set(C):
            continue
        sign = (-1) ** (sum(at) + sum(C.index(j) for j in js))
        R = [r for r in T if r not in pivots]
        S = [j for j in C if j not in js][::sign]
        if not R:
            ones.append((m, sign))
        elif len(R) == 1:
            singles.append((m, sign, R[0] * c + S[0]))
        else:
            (r0, r1), (s0, s1) = R, S
            pairs.append((m, r0 * c + s0, r1 * c + s1, r0 * c + s1, r1 * c + s0))
    return math.comb(5, k) * math.comb(c, k), ones, singles, pairs


def echelon_minors(B: np.ndarray, pivots: tuple, k: int, q: int) -> np.ndarray:
    """``minors_batch(B, k, q)`` of an (N, 5, c) block with B[pivots] = I, as a
    block of ``grassmannian_chunks`` is: each minor is read off the entries
    off the pivot rows by ``_echelon_rule``, so a Pluecker coordinate costs at
    most one 2 x 2 determinant.  Each minor is one contiguous row of the
    result, which is returned as a transposed view."""
    n, _, cols = B.shape
    size, ones, singles, pairs = _echelon_rule(pivots, k)
    Bt = B.reshape(n, 5 * cols).T               # entry r * cols + s, a view
    out = np.zeros((size, n), dtype=np.int64)
    for m, sign in ones:
        out[m] = sign
    for m, sign, i in singles:
        out[m] = Bt[i] if sign > 0 else -Bt[i]
    for m, a, b, c, d in pairs:
        out[m] = Bt[a] * Bt[b] - Bt[c] * Bt[d]
    out %= q
    rows = math.comb(5, k)
    return out.reshape(rows, size // rows, n).transpose(2, 0, 1)


def divisible(v: np.ndarray, q: int) -> np.ndarray:
    """v = 0 mod q, elementwise, for a float64 array of integers with
    |v| + q <= 2^53.  Division is correctly rounded, so v / q is exact where q
    divides v; elsewhere rint(v / q) q is a multiple of q of absolute value
    at most |v| + q, exact, and not v."""
    r = v / q
    np.rint(r, out=r)
    r *= q
    return r == v


def _reduce(z: np.ndarray, q: int) -> np.ndarray:
    """z mod q, in place, for a float64 array of integers with |z| + q <= 2^53:
    residues in [0, q).  The floor of the rounded z / q is floor(z / q):
    rounding is monotone and keeps integers, and a z / q that is not one lies
    at least 1/q below the next, more than its rounding error |z / q| 2^-53."""
    z -= np.floor(z / q) * q
    return z


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


def _five_forms(K: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The quadratic forms x^T K_p x, p = 0..4, at every row of x (n, 10), for
    K = [K_0 | ... | K_4] of shape (10, 50): an (n, 5) float64 array."""
    x = x.astype(np.float64)
    return np.einsum("npt,nt->np", (x @ K).reshape(-1, 5, 10), x)


def count_X(S: SectionMatrix, q: int) -> int:
    K = np.concatenate(_quadric_arrays(S, q), axis=1).astype(np.float64)
    total = 0
    for pivots, A in grassmannian_chunks(q, 2):
        v = _five_forms(K, echelon_minors(A, pivots, 2, q)[:, :, 0])
        total += int(np.count_nonzero(divisible(v, q).all(axis=1)))
    return total


# D on triple-indexed coordinates as a matrix: dual(pl3) = pl3 @ _D
_D = np.array(to_dual(np.eye(10, dtype=np.int64))).T

# v_p = sum_a sign(p ^ pair a) z_a pl3(p ^ pair a), z = pl3 D S.  Each triple
# t containing p is p ^ pair a for one pair a = t - {p}, so v_p is the
# quadratic form pl3^T K_p pl3 with K_p[:, t] = sign(p ^ pair a) (D S)[:, a];
# column 10 p + t of the (10, 50) matrix [K_0 | ... | K_4] is _V_SIGN times
# column _V_PAIR of D S (sign 0 where t does not contain p).
_V_PAIR = np.array([PAIR_POS[tuple(sorted(set(t) - {p}))] if p in t else 0
                    for p in range(1, 6) for t in TRIPLES])
_V_SIGN = np.array([perm_sign((p,) + tuple(sorted(set(t) - {p}))) * (p in t)
                    for p in range(1, 6) for t in TRIPLES])


def _pushforward_vectors(S_arr: np.ndarray, B: np.ndarray, q: int,
                         pivots: tuple) -> np.ndarray:
    """(N,5) float64 matrix of the values v_p(B) of a block with
    B[pivots] = I, integers below 60 q^3 in absolute value; [B] lies on Y
    where all five are divisible by q."""
    K = ((_D @ S_arr % q)[:, _V_PAIR] * _V_SIGN).astype(np.float64)
    return _five_forms(K, echelon_minors(B, pivots, 3, q)[:, :, 0])


def y_points(S: SectionMatrix, q: int):
    """All points of Y(F_q): for each block of ``grassmannian_chunks(q, 3)``
    yields (pivots, the rows of the block where v vanishes)."""
    S_arr = _section_array(S, q)
    for pivots, B in grassmannian_chunks(q, 3):
        v = _pushforward_vectors(S_arr, B, q, pivots)
        yield pivots, B[divisible(v, q).all(axis=1)]


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
    ST = _section_array(S, q).T.astype(np.float64)
    lamT = _proj_plane_reps(q).T                   # (3, P)
    # one array takes the flag values of every block: a new (n, P) array
    # per block was mapped and faulted in afresh by the allocator, which
    # took 2.2 of the 6.2 s of count_M_via_g35 at q = 11
    vals = np.empty((CHUNK_ROWS, lamT.shape[1]))
    total = 0
    for pivots, A in grassmannian_chunks(q, 2):
        # w_p = sum_s lamT[s, p] e_comp[s] vanishes on the pivot rows, so
        # only the 18 products whose w entry lies off them count
        W = np.zeros((5, lamT.shape[1]))
        W[[r for r in range(5) if r not in pivots]] = lamT
        live = ~np.isin(_M_W, pivots)
        x = echelon_minors(A, pivots, 2, q)[:, :, 0].astype(np.float64)
        z = _reduce(x @ ST, q)                     # z[n, row] = (S x)_row
        # (n, P): one value per flag; the products are freed before the test
        v = np.matmul(_M_SIGN[live] * x[:, _M_X[live]] * z[:, _M_Z[live]],
                      W[_M_W[live]], out=vals[:len(A)])
        total += int(np.count_nonzero(divisible(v, q)))
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
    DS = (_D @ _section_array(S, q) % q).astype(np.float64)
    f = GF(q)
    K = np.stack([np.array(Mat(f, [[int(v) for v in l]]).kernel(),
                           dtype=np.int64).T
                  for l in _proj_plane_reps(q)])                 # (P,3,2)
    CKT = minors_batch(K, 2, q)[:, :, 0].T.astype(np.float64)    # (3,P)
    vals = np.empty((CHUNK_ROWS, CKT.shape[1]))   # as in count_M_via_g25
    total = 0
    for pivots, B in grassmannian_chunks(q, 3):
        z = _reduce(echelon_minors(B, pivots, 3, q)[:, :, 0] @ DS, q)  # (n,10)
        u = np.einsum("na,nac->nc", z, echelon_minors(B, pivots, 2, q))  # (n,3)
        v = np.matmul(u, CKT, out=vals[:len(B)])                 # (n,P)
        total += int(np.count_nonzero(divisible(v, q)))
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
