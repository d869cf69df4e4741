"""Dual threefold pair from one section matrix: the five quadrics on G(2,5),
the three quintics on G(3,5), the self-duality test, and the
non-birationality certificate.

The pushforward conventions: a point of the fiber of F over [A] in G(2,5) is
represented by B = [A | w]; the section restricted to that fiber is linear in
w and its coefficient vector is the five quadrics.  With these conventions
the contraction identity holds with constant exactly 1, which pins the
normalization the antisymmetrized index formulas leave open;
``verify_pushforwards`` proves it.

Y_S is X_{S^T} in dual coordinates: B shat(B) = Q^{S^T}(y(B)), with B shat(B)
= sum_c shat_c(B) column_c(B), as polynomials (proved in the tests on the unit
basis).  Gauge covariance is a corollary.  y(Bg) = det(g) y(B) and Q is
quadratic, so (Bg) shat(Bg) = det(g)^2 B shat(B), that is
B (g shat(Bg) - det(g)^2 shat(B)) = 0.  B has rank 3 on a dense open set, so
shat(Bg) = det(g)^2 g^-1 shat(B) as polynomials.

A map f makes the pair self-dual when iota_f(S) is a multiple of S, since
X_{lambda S} = X_S: M_f lies in W_lambda = {M : S^T M = lambda M S} for some
lambda, with S its HF part, as flag-ideal terms change neither X_S nor Y_S.
The certificate decides that for every lambda the charpoly allows, whenever
those are +-1, so the self-duality scan draws no maps.

W_lambda, lambda = +-1, is solved as two blocks.  E(M) = S^T M - lambda M S
has E(M)^T = -lambda E(M^T): E keeps symmetric and antisymmetric M apart, so
W_lambda is the sum of its symmetric and antisymmetric parts when 2 is
invertible (characteristic 2 is refused).  The blocks are built from S
directly, about 20 entries per equation; their solutions and annihilator
rows unfold back to vec(M).  For a nonderogatory S every intertwiner in W_1
is symmetric (Taussky-Zassenhaus), so a generic W_1 is 10-dimensional and
the antisymmetric block has no kernel.  ``commutant_space`` returns the same
basis of W_1 as a solve of the full system.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field as dc_field

from .exactalg import (GF, MAX_REDUCTIONS, QQ, BudgetExceeded, Field, Mat,
                       PolyRing, det, is_unit_ideal, minors, saturate)
from .grassflag import (D_SIGN, PAIRS, PAIR_POS, TRIPLES, DualityMap,
                        MatrixSubspace, SectionMatrix, _check_split,
                        complement_pair, flag_equation, hf_project,
                        iota_action, to_dual)

QUADRIC_VARS = tuple(f"p{i}{j}" for (i, j) in PAIRS)
QUINTIC_VARS = tuple(f"b{r}{c}" for r in range(1, 6) for c in range(1, 4))


def pushforward_to_g25(S: SectionMatrix) -> list:
    """The five quadrics of the pushforward to G(2,5), in the ten Pluecker
    coordinates: quadric r is the w_r-coefficient of s([A], [A|w]), and
    together they cut out X."""
    f = S.field
    ring = PolyRing(f, QUADRIC_VARS)
    psi = ring.gens()
    Sx = []  # (S x)_q as linear polys
    for q in range(10):
        acc = ring.zero()
        for p in range(10):
            c = S.mat.data[q][p]
            if not f.is_zero(c):
                acc = acc + psi[p] * c
        Sx.append(acc)
    quadrics = []
    for r in range(1, 6):
        acc = ring.zero()
        for t in TRIPLES:
            if r not in t:
                continue
            rest = tuple(x for x in t if x != r)
            # y-coordinate carrying psi_t sits at the pair position of the
            # complement of t
            row = PAIR_POS[complement_pair(t)]
            sgn = D_SIGN[t] * ((-1) ** t.index(r))
            term = psi[PAIR_POS[rest]] * Sx[row]
            acc = acc + (term if sgn == 1 else -term)
        quadrics.append(acc)
    return quadrics


def pushforward_to_g35(S: SectionMatrix) -> list:
    """The three quintics of the pushforward to G(3,5), in the fifteen entries
    of a representative B.  Component c is linear in column c and quadratic in
    the other two columns, and  sum_c shat_c(B) * column_c(B) = v(B)  holds
    identically, with v the quadrics of S^T at the dual coordinates of B."""
    f = S.field
    ring = PolyRing(f, QUINTIC_VARS)
    b = [[ring.var(3 * r + c) for c in range(3)] for r in range(5)]
    y = to_dual([row[0] for row in minors(b, 3)])       # the dual coordinates of B
    z = [sum((y[q] * c for q, c in enumerate(col) if not f.is_zero(c)), ring.zero())
         for col in S.mat.transpose().data]              # z = y^T S
    pair_minors = minors(b, 2)       # column pair 2 - c omits column c
    components = []
    for c in range(3):
        acc = sum((za * m[2 - c] for za, m in zip(z, pair_minors) if za), ring.zero())
        components.append(acc if c % 2 == 0 else -acc)     # (-1)^{1+c}, c 1-based
    return components


def selfdual_test(S: SectionMatrix, f: DualityMap) -> bool:
    """S^T M_f and M_f S are proportional, i.e. iota_f(S) is a multiple of S:
    f identifies X_S with Y_S.  S must lie in the invariant complement
    (``hf_project``): flag-ideal terms change neither X_S nor Y_S, but they
    can break the proportion."""
    return Mat(S.field, [(S.mat.transpose() * f.M).flatten(),
                         (f.M * S.mat).flatten()]).rank() <= 1


# The unknowns m_ab of a symmetric M (a <= b) and of an antisymmetric M
# (a < b), row-major.  They also index the equations E_ij of the other block.
_SYM_PAIRS = tuple((a, b) for a in range(10) for b in range(a, 10))
_ANTI_PAIRS = tuple((a, b) for a in range(10) for b in range(a + 1, 10))
# Where entry (x, y) of M lands: the symmetric unknown of {x, y}, and the
# antisymmetric unknown of {x, y} with the sign of M_xy in it (x != y).
_SYM_AT = [[_SYM_PAIRS.index((min(x, y), max(x, y))) for y in range(10)]
           for x in range(10)]
_ANTI_AT = [[(_ANTI_PAIRS.index((min(x, y), max(x, y))), 1 if x < y else -1)
             if x != y else None for y in range(10)] for x in range(10)]


def _check_transpose_split(f: Field):
    if isinstance(f, GF) and f.p == 2:
        raise ValueError("the symmetric/antisymmetric split of S^T M = M S "
                         "needs 2 invertible: characteristic 2 is refused")


def _transpose_blocks(S: SectionMatrix, lam: int = 1):
    """S^T M = lam M S, lam = +-1, on symmetric M (55 unknowns m_ab, a <= b)
    and on antisymmetric M (45 unknowns m_ab, a < b).  E(M) = S^T M - lam M S
    has E(M)^T = -lam E(M^T), so for lam = 1 the symmetric block has the 45
    equations E_ij, i < j, and the antisymmetric block the 55 with i <= j;
    for lam = -1 the two index sets trade places.  Each equation is built
    from S in 20 accumulations: E_ij = sum_a S_ai M_aj - lam sum_a M_ia S_aj,
    and each M_xy is the unknown of {x, y}, with the sign of (x, y) in the
    antisymmetric block, where M_xx = 0."""
    f = S.field
    _check_transpose_split(f)
    sym_eqs, anti_eqs = (_ANTI_PAIRS, _SYM_PAIRS) if lam == 1 else (_SYM_PAIRS, _ANTI_PAIRS)
    s = S.mat.data
    sym = []
    for i, j in sym_eqs:
        row = [f.zero] * len(_SYM_PAIRS)
        for a in range(10):
            row[_SYM_AT[a][j]] += s[a][i]
            row[_SYM_AT[i][a]] -= lam * s[a][j]
        sym.append(row)
    anti = []
    for i, j in anti_eqs:
        row = [f.zero] * len(_ANTI_PAIRS)
        for a in range(10):
            if a != j:
                k, sign = _ANTI_AT[a][j]
                row[k] += sign * s[a][i]
            if a != i:
                k, sign = _ANTI_AT[i][a]
                row[k] -= lam * sign * s[a][j]
        anti.append(row)
    return Mat(f, sym), Mat(f, anti)


def _unfold(f: Field, vec, pairs, sign: int, diagonal: int) -> list:
    """``vec``, indexed by ``pairs``, as a flattened 10x10 matrix: x at
    (a, b), sign * x at (b, a), and diagonal * x at (a, a)."""
    v = [f.zero] * 100
    for (a, b), x in zip(pairs, vec):
        if a == b:
            v[11 * a] = f.mul(diagonal, x)
        else:
            v[10 * a + b] = x
            v[10 * b + a] = f.mul(sign, x)
    return v


def commutant_space(S: SectionMatrix) -> MatrixSubspace:
    """Solution space W of S^T M = M S as 10x10 matrices, from its two
    transpose blocks (``_transpose_blocks``).  A kernel vector of the
    symmetric block unfolds to M_ab = M_ba = m_ab, one of the antisymmetric
    block to M_ab = m_ab, M_ba = -m_ab.

    The basis is the canonical one: the unique basis of W that is the
    identity on the free columns of the full 100x100 system, in the order of
    those columns.  Its vectors have their last nonzero entry, a 1, at their
    own free column and are zero on the others, so they are the RREF of any
    basis of W with the columns reversed, in reverse order.  Being the
    identity on the free columns, they serve the space as its reduced rows,
    with no second elimination.  Characteristic 2 is refused."""
    f = S.field
    sym, anti = _transpose_blocks(S)
    vecs = ([_unfold(f, k, _SYM_PAIRS, 1, 1) for k in sym.kernel()]
            + [_unfold(f, k, _ANTI_PAIRS, -1, 1) for k in anti.kernel()])
    R, pivots = Mat._of(f, [v[::-1] for v in vecs]).rref()
    flat = [row[::-1] for row in reversed(R.data)]
    basis = [Mat._of(f, [v[10 * i:10 * i + 10] for i in range(10)]) for v in flat]
    return MatrixSubspace._of(f, basis, [99 - c for c in reversed(pivots)])


def _poly_gcd_degree(a, b, f: Field) -> int:
    """Degree of the gcd of two univariate polynomials given by coefficient
    lists (leading first), by Euclid; -1 when both are zero."""
    def strip(u):
        while u and f.is_zero(u[0]):
            u = u[1:]
        return u

    a, b = strip(list(a)), strip(list(b))
    while b:
        while len(a) >= len(b):          # a <- a mod b
            lead = f.div(a[0], b[0])
            a = strip([f.sub(x, f.mul(lead, y)) for x, y in zip(a, b)] + a[len(b):])
        a, b = b, a
    return len(a) - 1


def charpoly_squarefree(S: SectionMatrix) -> bool:
    """gcd(chi, chi') = 1, certifying distinct eigenvalues over the closure."""
    f = S.field
    cp = list(S.mat.charpoly())
    n = len(cp) - 1
    dcp = [f.mul(c, f.coerce(n - i)) for i, c in enumerate(cp[:-1])]
    return _poly_gcd_degree(cp, dcp, f) <= 0


def charpoly_period(cp) -> int:
    """d = gcd{k >= 1 : c_k != 0} for the charpoly coefficients
    [1, c_1, ..., c_n] of S; 0 when every c_k is 0 (x^n).

    If S^T M = lambda M S with M invertible, then S^T is similar to lambda S,
    and chi_{S^T} = chi_S.  chi_{lambda S}(x) = sum_k lambda^k c_k x^{n-k}, so
    lambda^k c_k = c_k for every k: lambda^k = 1 wherever c_k != 0, that is
    lambda^d = 1.  d = 0 puts no condition on lambda."""
    return math.gcd(*(k for k, c in enumerate(cp) if k and c))


def hf_member(S: SectionMatrix) -> bool:
    """S lies in HF, the invariant complement of the flag ideal: tr(S K) = 0
    for the 25 flag-ideal matrices K = ``flag_equation(e_i, e_j)``, the
    conditions whose solution space is ``hf_space``.  tr(S K) is the dot of
    S^T and K flattened.  Characteristic 3 is refused, as by ``hf_space``."""
    f = S.field
    _check_split(f)
    st = S.mat.transpose().flatten()
    units = [[int(r == i) for r in range(5)] for i in range(5)]
    return all(f.is_zero(f.dot(st, flag_equation(x, y, f).mat.flatten()))
               for x in units for y in units)


def is_symmetric(m: Mat) -> bool:
    return m == m.transpose()


@dataclass
class CertificateReport:
    status: str      # certified_empty | counterexample | inconclusive | budget_exceeded
    route: str
    dim_commutant: int
    symmetric: bool                  # every commutant basis matrix symmetric
    saturation_result: str           # "unit" | "non-unit" | "not-computed"
    hf_member: bool = False          # the input was already in HF
    charpoly_squarefree: bool = False
    lambdas: list = dc_field(default_factory=list)     # the lambda the verdict covers
    lambda_minus_1: dict | None = None     # the four facts of the lambda = -1 system
    counterexample: list | None = None
    notes: list = dc_field(default_factory=list)

    def as_dict(self):
        return asdict(self)


def _commutant_facts(S: SectionMatrix, lam: int = 1):
    """From one reduction of each transpose block of S^T M = lam M S
    (``_transpose_blocks``): the dimension of W_lam (the sum of the two
    kernel dimensions), whether every matrix in it is symmetric (the
    antisymmetric block has no kernel), and the annihilator rows in vec(M)
    coordinates.  These unfold the nonzero RREF rows of the blocks: a
    symmetric-block row r puts r_ab at (a, b) and (b, a) and 2 r_aa at
    (a, a), so that it reads r on the symmetric part (M + M^T) / 2, doubled;
    an antisymmetric-block row r puts r_ab at (a, b) and -r_ab at (b, a).
    Together they span the row space of the full system, so the reduced
    echelon basis of the certificate's generators, and hence its Groebner
    run, is that of the full system.  Characteristic 2 is refused."""
    f = S.field
    (Rs, ps), (Ra, pa) = (block.rref() for block in _transpose_blocks(S, lam))
    dim = 100 - len(ps) - len(pa)
    ann = ([_unfold(f, r, _SYM_PAIRS, 1, 2) for r in Rs.data[:len(ps)]]
           + [_unfold(f, r, _ANTI_PAIRS, -1, 1) for r in Ra.data[:len(pa)]])
    return dim, len(pa) == len(_ANTI_PAIRS), ann


def _unknowns(field: Field, route: str):
    """The unknown T of the certificate: 15 symmetric variables for
    ``reduced``, 25 for ``rabinowitsch``."""
    if route == "reduced":
        upper = list(itertools.combinations_with_replacement(range(5), 2))
        ring = PolyRing(field, tuple(f"n{i + 1}{j + 1}" for i, j in upper))
        pos = {ij: k for k, ij in enumerate(upper)}
        return ring, [[ring.var(pos[min(i, j), max(i, j)]) for j in range(5)]
                      for i in range(5)]
    ring = PolyRing(field, tuple(f"t{i}{j}" for i in range(1, 6) for j in range(1, 6)))
    return ring, [[ring.var(5 * i + j) for j in range(5)] for i in range(5)]


def _system(S: SectionMatrix, lam: int, sqfree: bool):
    """The report facts of S^T M = lam M S, unsaturated, and its annihilator rows."""
    dim, sym, ann = _commutant_facts(S, lam)
    route = "reduced" if sqfree and dim == 10 and sym else "rabinowitsch"
    return {"route": route, "dim_commutant": dim, "symmetric": sym,
            "saturation_result": "not-computed"}, ann


def nonbirational_certificate(S: SectionMatrix, p: int,
                              max_reductions: int = MAX_REDUCTIONS) -> CertificateReport:
    """Certify over GF(p) that no linear isomorphism f_T, M = wedge^2 T with
    det T != 0, maps X_S onto Y_S: that S^T M = lambda M S has no solution on
    the HF part of S (``hf_project``), which alone defines X_S and Y_S.

    A symmetric HF part has T = identity for a counterexample.  Otherwise
    lambda^d = 1 (``charpoly_period``).  Transposition maps W_lambda to
    W_{1/lambda}, so the transpose split holds for lambda = +-1 only: any d
    but 1 and 2 is ``inconclusive``, with nothing saturated.  For each lambda
    covered, the ideal of the annihilator rows of its system at the entries
    of wedge^2 T is saturated by det T (Rabinowitsch), each saturation capped
    at ``max_reductions`` S-pair reductions.  Its route picks the unknowns:

      * ``reduced``  - T symmetric, 15 variables; valid when W_lambda is
        10-dimensional and entirely symmetric (then any solution wedge^2 T
        is symmetric, forcing T symmetric) and the charpoly is squarefree.
      * ``rabinowitsch`` - T general, 25 variables, otherwise.

    ``certified_empty``: every saturation is the unit ideal; ``inconclusive``:
    one is proper; ``budget_exceeded``: none is, and one ran out.  The top
    level has the facts of lambda = 1, ``lambda_minus_1`` those of -1.
    Characteristic 2 is refused before the projection."""
    field = GF(p)
    _check_transpose_split(field)
    S = S.to_field(field)
    member = hf_member(S)
    S = hf_project(S)
    sqfree = charpoly_squarefree(S)
    facts, ann = _system(S, 1, sqfree)
    report = CertificateReport(status="inconclusive", **facts, hf_member=member,
                               charpoly_squarefree=sqfree)
    if is_symmetric(S.mat):
        report.status, report.route = "counterexample", "symmetric-shortcut"
        report.saturation_result, report.lambdas = "non-unit", [1]
        report.counterexample = [[int(i == j) for j in range(5)] for i in range(5)]
        report.notes.append("the HF part of S is symmetric; T = identity solves "
                            "S^T M = M S")
        return report
    d = charpoly_period(S.mat.charpoly())
    if d not in (1, 2):
        report.notes.append(f"the charpoly of the HF part gives d = {d}: lambda = +-1 "
                            "does not cover every lambda with lambda^d = 1")
        return report
    report.lambdas = [1, -1][:d]
    systems = [(facts, ann)] + [_system(S, lam, sqfree) for lam in report.lambdas[1:]]
    for lam, (facts, ann) in zip(report.lambdas, systems):
        ring, grid = _unknowns(field, facts["route"])
        wedge = [x for row in minors(grid, 2) for x in row]
        gens = [sum((w * c for c, w in zip(row, wedge) if not field.is_zero(c)), ring.zero())
                for row in ann]
        try:
            unit = is_unit_ideal(saturate(gens, det(grid), max_reductions))
        except BudgetExceeded as exc:
            report.notes.append(f"lambda = {lam}: {exc}; commutant facts stand")
            continue
        facts["saturation_result"] = "unit" if unit else "non-unit"
        if not unit:
            report.notes.append(f"lambda = {lam}: saturation is proper: solutions "
                                "off det=0 may exist")
    results = [facts["saturation_result"] for facts, _ in systems]
    report.saturation_result = results[0]
    report.lambda_minus_1 = systems[1][0] if d == 2 else None
    if "non-unit" not in results:
        report.status = "budget_exceeded" if "not-computed" in results else "certified_empty"
    return report


def verify_pushforwards() -> dict:
    """The quadrics are the fiber coefficients of the section, proved: on
    B = [A | w], y(B)^T S x(A) = sum_r w_r Q_r(x(A)) as polynomials in the 15
    entries of B, with x the Pluecker vector of A and y the dual coordinates
    of B.  Both sides are linear in S, so the 100 unit matrices over QQ prove
    it for every S and every field.  Draws nothing.  Gauge covariance of the
    quintics follows from the reconstruction identity (module docstring)."""
    ring = PolyRing(QQ, QUINTIC_VARS)
    b = [[ring.var(3 * r + c) for c in range(3)] for r in range(5)]
    x = [row[0] for row in minors([row[:2] for row in b], 2)]
    y = to_dual([row[0] for row in minors(b, 3)])
    products = {}               # w_r x_i x_j, shared by the unit matrices
    ok = True
    for a, c in itertools.product(range(10), repeat=2):
        E = Mat(QQ, [[int((i, j) == (a, c)) for j in range(10)] for i in range(10)])
        rhs = ring.zero()
        for r, quadric in enumerate(pushforward_to_g25(SectionMatrix(E))):
            for m, coeff in quadric.terms.items():
                i, j = (v for v, e in enumerate(quadric.ring.decode(m)) for _ in range(e))
                if (r, i, j) not in products:
                    products[r, i, j] = b[r][2] * x[i] * x[j]
                rhs = rhs + products[r, i, j] * coeff
        ok &= y[a] * x[c] == rhs
    return {"ok": ok, "details": {"contraction_identity_proved_on_unit_basis": ok}}


def selfdual_scan(S: SectionMatrix) -> dict:
    """The self-duality test hits its two controls on the HF part of S:
    S +- iota_0(S), self-dual (lambda = +-1) through the fixed T_0 = L L^T, L
    the identity plus ones below the diagonal (det T_0 = 1 over every field).
    Draws nothing: whether some map hits S itself, the ``nonbirational``
    certificate decides (module docstring)."""
    S = hf_project(S)
    L = Mat(S.field, [[int(i - j in (0, 1)) for j in range(5)] for i in range(5)])
    f0 = DualityMap(L * L.transpose())
    image = iota_action(S, f0).mat
    controls = all(selfdual_test(SectionMatrix(S.mat + image * sign), f0)
                   for sign in (1, -1))
    return {"ok": controls, "details": {"controls_hit": controls}}


def verify_nonbirational(S: SectionMatrix, p: int, max_reductions: int) -> dict:
    """X and Y admit no linear isomorphism: the certificate over GF(p) is
    ``certified_empty`` within ``max_reductions`` S-pair reductions."""
    rep = nonbirational_certificate(S, p, max_reductions)
    return {"ok": rep.status == "certified_empty", "details": rep.as_dict()}
