"""Direct oracles of the tests for the package's fast paths: the full
100x100 system of S^T M = M S, which the commutant solves in two transpose
blocks, membership in a matrix subspace read off its reduced rows, which
``hf_member`` decides by the 25 trace conditions, and the flag equation
evaluated at every (row, column) pair, of which ``flag_equation`` visits only
the nonzero entries."""
from typing import Sequence

from flagdual.exactalg import Field, Mat
from flagdual.grassflag import (D_SIGN, PAIRS, MatrixSubspace, SectionMatrix, _contract,
                                complement_pair, perm_sign)


def intertwiner_conditions(S: SectionMatrix, lam: int = 1) -> Mat:
    """The 100x100 matrix of the linear system S^T M - lam M S = 0 in vec(M),
    rows indexed by output entries (i,j), columns by input entries (a,b)."""
    f = S.field
    ST = S.mat.transpose()
    rows = []
    for i in range(10):
        for j in range(10):
            row = [f.zero] * 100
            for a in range(10):
                # d/dM_ab of (S^T M)_{ij} = S^T_{ia} delta_{bj}
                row[10 * a + j] = f.add(row[10 * a + j], ST.data[i][a])
            for bcol in range(10):
                row[10 * i + bcol] = f.sub(row[10 * i + bcol],
                                           f.mul(lam, S.mat.data[bcol][j]))
            rows.append(row)
    return Mat(f, rows)


def contains(space: MatrixSubspace, m: Mat) -> bool:
    """Whether m lies in ``space``.  The rows R_r of the space (the RREF of
    its basis, or the basis given to ``_of``) are the identity on their pivot
    columns pc_r, so v lies in their span iff v = sum_r v[pc_r] R_r: one dot
    per column."""
    v = m.flatten()
    coeffs = [v[pc] for pc in space._pivots]
    dot = space.field.dot
    return all(dot(coeffs, col) == x for col, x in zip(space._rref_cols, v))


def _wedge(a: tuple, b: tuple):
    if set(a) & set(b):
        return None
    merged = a + b
    return perm_sign(merged), tuple(sorted(merged))


def flag_equation_at_every_pair(xstar: Sequence, y: Sequence, field: Field) -> SectionMatrix:
    """``flag_equation`` by trying every row pair q and column pair p: the
    wedge (contraction of e*_lm's dual by e*_i) ^ e_ab ^ e_j, for each i, j."""
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
