"""Direct oracles of the tests for the package's fast paths: the full
100x100 system of S^T M = M S, which the commutant solves in two transpose
blocks, and membership in a matrix subspace read off its reduced rows, which
``hf_member`` decides by the 25 trace conditions."""
from flagdual.exactalg import Mat
from flagdual.grassflag import MatrixSubspace, SectionMatrix


def intertwiner_conditions(S: SectionMatrix) -> Mat:
    """The 100x100 matrix of the linear system S^T M - M S = 0 in vec(M),
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
                row[10 * i + bcol] = f.sub(row[10 * i + bcol], S.mat.data[bcol][j])
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
