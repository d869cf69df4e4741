"""Pluecker geometry of G(2,V5), G(3,V5) and the flag F(2,3,V5) inside
P(wedge^2 V5) x P(wedge^2 V5*), the 25-dimensional flag ideal, its invariant
75-dimensional complement, and the duality action on section matrices.

Index conventions (shared by every module):
  * pairs (i,j), 1 <= i < j <= 5, in lexicographic order;
  * triples likewise;
  * wedge^3 V5 is identified with wedge^2 V5* by e_{ijk} -> sign(i,j,k,l,m) e*_{lm}
    where {l,m} is the complement of {i,j,k} (``to_dual``).
"""
from __future__ import annotations

import functools
import random
from typing import Sequence

from .exactalg import Field, GF, QQ, Mat, exterior_square

PAIRS = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
TRIPLES = [(i, j, k) for i in range(1, 6)
           for j in range(i + 1, 6) for k in range(j + 1, 6)]
PAIR_POS = {p: n for n, p in enumerate(PAIRS)}
TRIPLE_POS = {t: n for n, t in enumerate(TRIPLES)}

# Macaulay2 lists subsets in colexicographic order; the published 10x10
# verification matrix is written in that basis.
PAIRS_COLEX = sorted(PAIRS, key=lambda p: (p[1], p[0]))


def perm_sign(seq) -> int:
    s = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                s = -s
    return s


def complement_pair(t: tuple) -> tuple:
    return tuple(sorted(set(range(1, 6)) - set(t)))


# D-sign: D(e_t) = D_SIGN[t] * e*_{complement(t)}
D_SIGN = {t: perm_sign(t + complement_pair(t)) for t in TRIPLES}


def _wedge(a: tuple, b: tuple):
    if set(a) & set(b):
        return None
    merged = a + b
    return perm_sign(merged), tuple(sorted(merged))


def _contract(i: int, t: tuple):
    if i not in t:
        return None
    return (-1) ** t.index(i), tuple(x for x in t if x != i)


def to_dual(v) -> tuple:
    """D on triple-indexed coordinates: the pair-indexed coordinates in
    wedge^2 V5*, entry a being D_SIGN[t] v_t with t the complement of pair a.
    Applied to the Pluecker vector (the maximal minors) of a G(3,5)
    representative, it gives the dual coordinates of that point."""
    return tuple(D_SIGN[t] * v[TRIPLE_POS[t]] for t in map(complement_pair, PAIRS))


# ---------------------------------------------------------------------------
# section matrices
# ---------------------------------------------------------------------------

class SectionMatrix:
    """A 10x10 matrix S representing the bilinear form s(x, y) = y^T S x
    on wedge^2 V5 x wedge^2 V5* (a section of O(1,1) on the ambient product)."""

    def __init__(self, mat: Mat):
        if mat.rows != 10 or mat.cols != 10:
            raise ValueError("section matrix must be 10x10")
        self.mat = mat

    @property
    def field(self):
        return self.mat.field

    def evaluate(self, xvec, yvec):
        """s(x, y) = y^T S x."""
        return self.field.dot(yvec, self.mat.apply(xvec))

    def transpose(self):
        return SectionMatrix(self.mat.transpose())

    def to_field(self, field: Field) -> "SectionMatrix":
        """S over ``field``; a GF(p) matrix has no reduction to another prime."""
        if isinstance(self.field, GF) and isinstance(field, GF) and field.p != self.field.p:
            raise ValueError(f"cannot reduce a matrix over {self.field!r} to {field!r}")
        return SectionMatrix(Mat(field, self.mat.data))

    def __eq__(self, other):
        return isinstance(other, SectionMatrix) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"SectionMatrix({self.field!r})"


def flag_equation(xstar: Sequence, y: Sequence, field: Field) -> SectionMatrix:
    """The section s_{x* (x) y}(alpha, omega) = (contraction of omega by x*)
    wedge alpha wedge y, which vanishes identically on the flag variety.

    ``xstar`` and ``y`` are 5-vectors (coordinates in the dual/primal basis).
    """
    xstar = [field.coerce(c) for c in xstar]
    y = [field.coerce(c) for c in y]
    data = [[field.zero] * 10 for _ in range(10)]
    for i in range(1, 6):
        if field.is_zero(xstar[i - 1]):
            continue
        for j in range(1, 6):
            c_ij = field.mul(xstar[i - 1], y[j - 1])
            if field.is_zero(c_ij):
                continue
            for q, lm in enumerate(PAIRS):
                t = complement_pair(lm)
                sgn_d = D_SIGN[t]
                con = _contract(i, t)
                if con is None:
                    continue
                s1, rest = con
                for p, ab in enumerate(PAIRS):
                    w1 = _wedge(rest, ab)
                    if w1 is None:
                        continue
                    s2, four = w1
                    w2 = _wedge(four, (j,))
                    if w2 is None:
                        continue
                    s3, _ = w2
                    val = sgn_d * s1 * s2 * s3
                    data[q][p] = field.add(data[q][p], field.mul(c_ij, field.coerce(val)))
    return SectionMatrix(Mat(field, data))


# ---------------------------------------------------------------------------
# matrix subspaces
# ---------------------------------------------------------------------------

class MatrixSubspace:
    """A linear subspace of the 100-dimensional space of 10x10 matrices."""

    def __init__(self, field: Field, basis: Sequence[Mat]):
        flat = Mat(field, [m.flatten() for m in basis])
        rref, pivots = flat.rref()
        if len(pivots) != len(basis):
            raise ValueError("basis is linearly dependent")
        self._set(field, basis, pivots, rref.data)

    def _set(self, field: Field, basis, pivots, rows):
        self.field = field
        self.basis = list(basis)
        self._pivots = pivots
        self._rref_cols = tuple(zip(*rows))

    @classmethod
    def _of(cls, field: Field, basis: Sequence[Mat], pivots) -> "MatrixSubspace":
        """The span of ``basis``, whose flattened vectors are already the
        identity on the columns ``pivots`` (in basis order), not checked and
        not reduced again."""
        space = cls.__new__(cls)
        space._set(field, basis, pivots, [m.flatten() for m in basis])
        return space

    @property
    def dim(self):
        return len(self.basis)

    def sum_rank(self, other: "MatrixSubspace") -> int:
        stacked = Mat(self.field, [m.flatten() for m in self.basis] +
                      [m.flatten() for m in other.basis])
        return stacked.rank()


def _check_split(field: Field):
    """Characteristic 3 collapses the trace part of the ideal (rank drops to
    24) and the 25 + 75 splitting fails; rejected explicitly."""
    if isinstance(field, GF) and field.p == 3:
        raise ValueError("the ideal/complement split degenerates in characteristic 3")


@functools.lru_cache(maxsize=None)
def flag_ideal_space(field: Field) -> MatrixSubspace:
    """The 25-dimensional space of section matrices vanishing on the flag."""
    _check_split(field)
    eis = [[1 if r == i else 0 for r in range(5)] for i in range(5)]
    basis = [flag_equation(eis[i], eis[j], field).mat
             for i in range(5) for j in range(5)]
    return MatrixSubspace(field, basis)


@functools.lru_cache(maxsize=None)
def hf_space(field: Field) -> MatrixSubspace:
    """The invariant complement of the flag ideal: matrices S with
    tr(S K) = 0 for every K in the dual flag ideal, which in the dual basis
    has the matrices of the flag ideal.  Dimension 75."""
    _check_split(field)
    rows = [k.transpose().flatten() for k in flag_ideal_space(field).basis]
    conds = Mat(field, rows)
    basis = [Mat(field, [v[10 * i:10 * i + 10] for i in range(10)])
             for v in conds.kernel()]
    return MatrixSubspace(field, basis)


def hf_project(s: SectionMatrix) -> SectionMatrix:
    """Canonical representative: the component of S in the invariant
    complement, obtained by subtracting its flag-ideal component.

    The projection changes nothing on the flag variety itself, so the
    threefolds cut out by the pushforwards are identical before and after.
    """
    f = s.field
    ideal = flag_ideal_space(f)      # also the basis of the dual flag ideal

    # gram[j][k] = tr(K_k K_j): K_k and K_j^T flattened, dotted
    flat = [k.flatten() for k in ideal.basis]
    flat_t = [k.transpose().flatten() for k in ideal.basis]
    gram = Mat(f, [[f.dot(a, b) for a in flat] for b in flat_t])
    v = s.mat.flatten()
    rhs = tuple(f.dot(v, b) for b in flat_t)
    try:
        coeffs = gram.inverse().apply(rhs)
    except ZeroDivisionError:     # characteristic 2: the ideal meets its annihilator
        raise ValueError(f"no unique invariant complement over {f!r}") from None
    out = s.mat
    for c, k in zip(coeffs, ideal.basis):
        out = out - k * c
    return SectionMatrix(out)


def random_hf_section(field: Field, rng: random.Random) -> SectionMatrix:
    hf = hf_space(field)
    f = field
    acc = Mat.zero(f, 10, 10)
    for b in hf.basis:
        acc = acc + b * f.rand(rng)
    return SectionMatrix(acc)


# ---------------------------------------------------------------------------
# duality maps
# ---------------------------------------------------------------------------

class DualityMap:
    """An isomorphism G(2,5) -> G(3,5) induced by an invertible T: V5 -> V5*.

    Carries M_f = wedge^2 T_f; its inverse is computed on first use.
    """

    def __init__(self, T: Mat):
        if T.rows != 5 or T.cols != 5:
            raise ValueError("T must be 5x5")
        if T.rank() != 5:
            raise ValueError("T must be invertible")
        self.M = exterior_square(T)

    @functools.cached_property
    def M_inv(self) -> Mat:
        return self.M.inverse()

    @classmethod
    def random(cls, field: Field, rng: random.Random) -> "DualityMap":
        return cls(Mat.random_invertible(field, 5, rng))


def iota_action(s: SectionMatrix, f: DualityMap) -> SectionMatrix:
    """The induced action on sections: S -> M_f^{-1} S^T M_f."""
    return SectionMatrix(f.M_inv * s.mat.transpose() * f.M)


# ---------------------------------------------------------------------------
# the published verification matrix
# ---------------------------------------------------------------------------

# Raw data as printed, in Macaulay2's colexicographic pair basis.
SCRIPT_MATRIX_COLEX = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, -1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)


def script_matrix(field: Field) -> SectionMatrix:
    """The verification matrix converted to the lexicographic pair basis."""
    perm = [PAIRS_COLEX.index(p) for p in PAIRS]
    data = [[SCRIPT_MATRIX_COLEX[perm[i]][perm[j]] for j in range(10)]
            for i in range(10)]
    return SectionMatrix(Mat(field, data))


def _generators(field: GF) -> list:
    """The 8 adjacent transvections I + E_{i,i+-1} and diag(3, 1, 1, 1, 1).
    They generate GL_5(F_p) when 3 is a primitive root mod p, as for p = 7
    and p = 17: the commutator of I + E_ij and I + E_jk is I + E_ik for
    distinct i, j, k, so they give every transvection I + E_ij, whose powers
    generate SL_5(F_p), and the diagonal one reaches every determinant."""
    def elementary(i, j, c):
        return [[c if (r, k) == (i, j) else int(r == k) for k in range(5)]
                for r in range(5)]
    pairs = [(i, i + 1) for i in range(4)] + [(i + 1, i) for i in range(4)]
    return ([Mat(field, elementary(i, j, 1)) for i, j in pairs]
            + [Mat(field, elementary(0, 0, 3))])


def _iota_images_inside(space: MatrixSubspace, maps: Sequence[Mat]):
    """(len(maps), dim) bool numpy array: entry [i, j] says whether iota_T,
    T = maps[i], maps basis vector j of ``space`` into ``space``; over GF(p).

    For each map the images M_T^-1 K^T M_T of all the basis matrices K are
    one stacked int64 product, reduced mod p after each factor.  They are
    then tested at once as ``contains`` tests one: with R the rows of the
    space, the identity on its pivot columns, an image v lies in it iff
    v = v[pivots] R mod p.  Every value is a sum of at most max(10, dim)
    products of two residues: below 25 p^2 for the 25-dimensional ideal, and
    below 100 p^2 < 2^63 for any subspace.  numpy is imported here so that
    the exact-algebra commands, which never call this, start without it."""
    import numpy as np
    p = space.field.p
    Kt = np.array([K.data for K in space.basis], dtype=np.int64).transpose(0, 2, 1)
    rows = np.array(space._rref_cols, dtype=np.int64).T
    inside = []
    for T in maps:
        dm = DualityMap(T)
        M, M_inv = (np.array(m.data, dtype=np.int64) for m in (dm.M, dm.M_inv))
        img = (M_inv @ Kt % p @ M % p).reshape(len(Kt), 100)
        inside.append(~((img[:, space._pivots] @ rows - img) % p).any(axis=1))
    return np.array(inside)


def _iota_invariant(space: MatrixSubspace) -> bool:
    """Whether iota_f maps each basis vector of ``space`` into ``space``, for
    f the identity and every map of ``_generators``; ``space`` over GF(p)."""
    maps = [Mat.identity(space.field, 5)] + _generators(space.field)
    return bool(_iota_images_inside(space, maps).all())


def verify_spaces() -> dict:
    """Flag ideal (25) + invariant complement (75) = all 100 section matrices
    over QQ and GF(17); both are invariant under every GF(17) duality map.

    Proof on generators: iota_f(S) = c_f(S^T) with c_f(S) = M_f^{-1} S M_f,
    an action of GL_5 as M_f = wedge^2 T_f is multiplicative, and iota_T
    after iota_I (the transpose) is c_T.  An ideal that iota_I and every
    iota_T, T in ``_generators``, map into itself is closed under
    transposition and under c_f for every f in GL_5(F_17), so under every
    iota_f.  The complement is the annihilator of the ideal under tr(S K);
    tr(S^T K) = tr(S K^T) and tr(c_f(S) K) = tr(S c_{f^{-1}}(K)) make it
    invariant too.  The stage checks the 25 basis vectors of the ideal; the
    tests check the complement's 75 as well, over GF(17) and GF(7)."""
    results = {}
    for field in (QQ, GF(17)):
        ideal = flag_ideal_space(field)
        hf = hf_space(field)
        results[repr(field)] = {
            "ideal_dim": ideal.dim, "hf_dim": hf.dim,
            "direct_sum_rank": ideal.sum_rank(hf),
        }
    inv = _iota_invariant(flag_ideal_space(GF(17)))
    results["iota_invariance_generators"] = inv
    ok = inv and all(r["ideal_dim"] == 25 and r["hf_dim"] == 75
                     and r["direct_sum_rank"] == 100
                     for k, r in results.items() if isinstance(r, dict))
    return {"ok": ok, "details": results}
