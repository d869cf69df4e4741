import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from flagdual.exactalg import (GF, QQ, BudgetExceeded, Mat,
                               Poly, PolyRing, exterior_square,
                               format_matrix, det, groebner_basis, interreduce,
                               is_prime, is_unit_ideal, minors, normal_form,
                               parse_matrix, saturate, spolynomials_reduce_to_zero)
from flagdual.duality import pushforward_to_g35
from flagdual.grassflag import random_hf_section, script_matrix
from oracles import intertwiner_conditions

F17 = GF(17)
F7 = GF(7)


def test_gf_basics():
    assert F17.add(9, 12) == 4
    assert F17.mul(F17.inv(5), 5) == 1
    with pytest.raises(ZeroDivisionError):
        F17.inv(0)
    with pytest.raises(ValueError):
        GF(15)


def test_primality_is_exact_and_fast():
    for p in range(10 ** 4):
        assert is_prime(p) == (p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1)))
    assert GF(10 ** 18 + 3).p == 10 ** 18 + 3
    # Carmichael numbers, and the least strong pseudoprime to the first 12
    # prime bases
    for n in (561, 41041, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            GF(n)
    with pytest.raises(ValueError, match="too large"):
        GF(10 ** 25 + 13)


def test_qq_exact():
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@pytest.mark.parametrize("field", [F17, QQ])
@pytest.mark.parametrize("shape", [(5, 2), (5, 3), (10, 10), (7, 11)])
def test_rank_nullity(field, shape):
    rng = random.Random(hash(shape) & 0xFFFF)
    for _ in range(5):
        m = Mat.random(field, *shape, rng)
        assert m.rank() + len(m.kernel()) == shape[1]


def _assert_canonical(field, entries):
    if field is QQ:
        assert all(type(x) is Fraction for x in entries)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in entries)


@pytest.mark.parametrize("field", [QQ, F17])
def test_mat_results_have_canonical_entries(field):
    # the operations that skip coercion must still return canonical entries;
    # the rank-deficient rref has zero rows, which must be field.zero too
    rng = random.Random(3)
    a = Mat.random_invertible(field, 4, rng)
    b = Mat.random(field, 4, 4, rng)
    deficient = Mat(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]])
    R, pivots = deficient.rref()
    assert pivots == [0, 1] and R.data[2:] == ((field.zero,) * 3,) * 2
    results = [R, Mat(field, [[1, 2], [2, 4]]).rref()[0], a.rref()[0], a.inverse(),
               a.transpose(), a.augment(b), a + b, a - b, -a, a * b, a * -20,
               3 * a, a * Fraction(1, 2), Mat.zero(field, 2, 3),
               Mat.identity(field, 3), b]
    for m in results:
        _assert_canonical(field, m.flatten())
    kernel = deficient.kernel()
    assert len(kernel) == 1
    _assert_canonical(field, kernel[0])


def _dot_by_add_mul(f, a, b):
    acc = f.zero
    for x, y in zip(a, b):
        acc = f.add(acc, f.mul(x, y))
    return acc


@pytest.mark.parametrize("field, n", [(F17, 30), (GF(2 ** 61 - 1), 100), (QQ, 30)])
def test_field_dot_matches_add_mul_loop(field, n):
    rng = random.Random(n)
    top = field.coerce(-1)            # p - 1 over GF(p): the largest products
    cases = [([top] * n, [top] * n), ([], [])]
    cases += [([field.rand(rng) for _ in range(n)], [field.rand(rng) for _ in range(n)])
              for _ in range(20)]
    for a, b in cases:
        assert field.dot(a, b) == _dot_by_add_mul(field, a, b)
    if field is not QQ and field.p > 2 ** 32:
        assert (field.p - 1) ** 2 * n > 2 ** 63    # past int64, no wrap


def _assert_rref_matches_sympy(field, data):
    """Mat.rref against sympy: Matrix.rref over QQ, DomainMatrix.rref over
    GF(p); the pivot list and every entry must agree.  Returns the pivots."""
    sympy = pytest.importorskip("sympy")
    rows, cols = len(data), len(data[0]) if data else 0
    R, pivots = Mat(field, data).rref()
    if field is QQ:
        oracle, opiv = sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator)
                                                 for row in data for x in row]).rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in oracle.row(i)]
                    for i in range(rows)]
    else:
        from sympy.polys.matrices import DomainMatrix
        K = sympy.GF(field.p)
        oracle, opiv = DomainMatrix([[K(x) for x in row] for row in data],
                                    (rows, cols), K).rref()
        expected = [[K.to_int(x) % field.p for x in row] for row in oracle.to_list()]
    assert pivots == list(opiv)
    assert [list(row) for row in R.data] == expected
    return pivots


@st.composite
def _rref_cases(draw):
    """(field, data): entries from the field, some matrices a product through
    a narrow middle (rank deficient), some sparse, then zero rows and columns
    spliced in.  QQ entries are Fraction(n, d) with d of either sign and often
    sharing a factor with n.  A sparse matrix is up to 10x12, each entry 0
    with probability at least 2/3, so pivot rows differ in their number of
    nonzeros and tie often: the pivot search and the back-substitution of
    ``Mat.rref`` both matter there."""
    field = draw(st.sampled_from([QQ, F7, F17]))
    if field is QQ:
        entry = st.builds(Fraction, st.integers(-12, 12),
                          st.integers(-12, 12).filter(bool))
    else:
        entry = st.integers(0, field.p - 1)
    regime = draw(st.sampled_from(["product", "dense", "sparse"]))
    if regime == "sparse":
        rows, cols = draw(st.integers(3, 10)), draw(st.integers(3, 12))
        zero_p = draw(st.sampled_from([2 / 3, 3 / 4, 7 / 8]))
        rng = draw(st.randoms(use_true_random=False))
        data = [[field.zero if rng.random() < zero_p else field.coerce(draw(entry))
                 for _ in range(cols)] for _ in range(rows)]
    else:
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if regime == "product":
        inner = draw(st.integers(0, min(rows, cols) - 1))
        left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                             min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                              min_size=inner, max_size=inner))
        data = [[field.coerce(sum(a * right[k][j] for k, a in enumerate(row)))
                 for j in range(cols)] for row in left]
    elif regime == "dense":
        data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data.insert(at, [field.zero] * cols)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, cols))
        data = [row[:at] + [field.zero] + row[at:] for row in data]
        cols += 1
    return field, data


@given(_rref_cases())
@settings(max_examples=150, deadline=None)
def test_rref_matches_sympy(case):
    _assert_rref_matches_sympy(*case)


@given(_rref_cases(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_rref_is_invariant_under_row_permutations(case, rng):
    # the pivot search sees the rows in another order and may pick other
    # pivots; the RREF of a matrix is unique, so the result may not change
    field, data = case
    shuffled = list(data)
    rng.shuffle(shuffled)
    assert Mat(field, shuffled).rref() == Mat(field, data).rref()


def _commutant_system(name):
    """One of the three 100x100 systems S^T M = M S of the full-size oracle
    test, with its field and rank."""
    if name == "script-gf17":
        return F17, intertwiner_conditions(script_matrix(F17)).data, 72
    system = intertwiner_conditions(random_hf_section(QQ, random.Random(3)))
    if name == "random3-qq":
        return QQ, system.data, 90
    return F17, [[F17.coerce(x) for x in row] for row in system.data], 90


@pytest.mark.parametrize("name", ["random3-qq", "random3-gf17", "script-gf17"])
def test_rref_matches_sympy_on_the_commutant_systems(name):
    # the 100x100 systems the commutant and certificate solve, at full size:
    # sparse (under 1,800 nonzeros of 10,000), where the pivot order matters
    field, data, rank = _commutant_system(name)
    assert sum(x != 0 for row in data for x in row) < 1800
    assert len(_assert_rref_matches_sympy(field, data)) == rank


@pytest.mark.parametrize("field", [QQ, F7, F17])
@pytest.mark.parametrize("data", [[], [[]], [[0, 0], [0, 0]],
                                  [[Fraction(6, -4), Fraction(-10, -15)], [3, -2]]],
                         ids=["0x0", "1x0", "zero", "signed-denominators"])
def test_rref_edge_cases_match_sympy(field, data):
    _assert_rref_matches_sympy(field, [[field.coerce(x) for x in row] for row in data])


def _sympy_det(m):
    """The determinant of m by sympy over QQ, coerced into m's field."""
    sympy = pytest.importorskip("sympy")
    d = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in m.data]).det()
    return m.field.coerce(Fraction(int(d.p), int(d.q)))


def test_inverse_iff_nonzero_det():
    rng = random.Random(3)
    singular = set()
    for _ in range(20):
        m = Mat.random(F7, 4, 4, rng)
        d = _sympy_det(m)
        assert (m.rank() == 4) == (d != 0)
        singular.add(d == 0)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            assert m * m.inverse() == Mat.identity(F7, 4)
    assert singular == {True, False}


def test_kernel_examples():
    assert len(Mat.zero(F17, 3, 3).kernel()) == 3
    assert Mat.identity(F17, 3).kernel() == []
    # 5x3 matrix with zero first column and full-rank remainder: kernel = e1
    rng = random.Random(5)
    while True:
        rest = Mat.random(F17, 5, 2, rng)
        if rest.rank() == 2:
            break
    b = Mat(F17, [[0] + list(row) for row in rest.data])
    ker = b.kernel()
    assert len(ker) == 1
    v = ker[0]
    assert v[0] != 0 and v[1] == 0 and v[2] == 0


def test_exterior_square_identity_and_scaling():
    I5 = Mat.identity(F17, 5)
    assert exterior_square(I5) == Mat.identity(F17, 10)
    assert exterior_square(I5 * 2) == Mat.identity(F17, 10) * 4


def brute_minor(T, i, j, k, l):
    f = T.field
    return f.sub(f.mul(T.data[i][k], T.data[j][l]), f.mul(T.data[i][l], T.data[j][k]))


def test_exterior_square_diag_example():
    d = Mat(QQ, [[i + 1 if i == j else 0 for j in range(5)] for i in range(5)])
    e = exterior_square(d)
    expected = [2, 3, 4, 5, 6, 8, 10, 12, 15, 20]
    assert [e.data[i][i] for i in range(10)] == [Fraction(x) for x in expected]


@pytest.mark.parametrize("field", [F17, QQ])
def test_exterior_square_is_brute_minor_grid(field):
    rng = random.Random(11)
    T = Mat.random(field, 5, 5, rng)
    E = exterior_square(T)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            assert E.data[a][b] == brute_minor(T, i, j, k, l)


@pytest.mark.parametrize("field", [F17, QQ])
def test_exterior_square_multiplicative(field):
    rng = random.Random(13)
    for _ in range(25):
        A = Mat.random(field, 5, 5, rng)
        B = Mat.random(field, 5, 5, rng)
        assert exterior_square(A * B) == exterior_square(A) * exterior_square(B)


def test_det_wedge_power():
    rng = random.Random(17)
    for _ in range(25):
        T = Mat.random_invertible(F17, 5, rng)
        d = _sympy_det(T)
        assert d != 0
        assert _sympy_det(exterior_square(T)) == pow(d, 4, 17)


@pytest.mark.parametrize("field", [F17, QQ])
def test_det3_is_det(field):
    rng = random.Random(5)
    for _ in range(50):
        m = Mat.random(field, 3, 3, rng)
        assert field.coerce(det(m.data)) == _sympy_det(m)


@pytest.mark.parametrize("field", [F17, QQ])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_det_matches_sympy(field, n):
    rng = random.Random(n)
    for _ in range(20):
        m = Mat.random(field, n, n, rng)
        assert field.coerce(det(m.data)) == _sympy_det(m)


@pytest.mark.parametrize("field", [F17, QQ])
@pytest.mark.parametrize("shape", [(5, 3), (3, 6), (5, 5)])
@pytest.mark.parametrize("k", [2, 3])
def test_minors_match_sympy(field, shape, k):
    m = Mat.random(field, *shape, random.Random(10 * shape[0] + shape[1] + k))
    rows = list(itertools.combinations(range(shape[0]), k))
    cols = list(itertools.combinations(range(shape[1]), k))
    grid = minors(m.data, k)
    assert [len(row) for row in grid] == [len(cols)] * len(rows)
    for a, r in enumerate(rows):
        for b, c in enumerate(cols):
            sub = Mat(field, [[m.data[i][j] for j in c] for i in r])
            assert field.coerce(grid[a][b]) == _sympy_det(sub)


def test_charpoly_companion():
    # x^3 - 2x - 5 companion matrix
    C = Mat(QQ, [[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert C.charpoly() == [Fraction(1), Fraction(0), Fraction(-2), Fraction(-5)]


def test_matrix_file_roundtrip():
    rng = random.Random(19)
    m = Mat.random(QQ, 3, 4, rng)
    assert parse_matrix(format_matrix(m), QQ) == m


# --- polynomials -----------------------------------------------------------

R2 = PolyRing(F17, ("x", "y"))
X, Y = R2.gens()


def rand_poly(ring, rng, nterms=4, deg=3):
    out = ring.zero()
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(deg + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        out = out + Poly(ring, {ring.encode(exps): 1}) * rng.randrange(1, 17)
    return out


def sympy_expr(g, syms):
    sympy = pytest.importorskip("sympy")
    return sum(c * sympy.prod([v ** k for v, k in zip(syms, g.ring.decode(m))])
               for m, c in g.terms.items())


@pytest.mark.parametrize("n", [4, 16, 26])
def test_mono_lcm_and_divides_match_exponent_vectors(n):
    # the packed lcm and divisibility against encode/decode on plain vectors;
    # 16 and 26 are the sizes of the certificate's two rings with z adjoined
    ring = PolyRing(F7, tuple(f"x{i}" for i in range(n)))
    rng = random.Random(41)
    vecs = [[0] * n, [127] + [0] * (n - 1), [0] * (n - 1) + [127],
            [0, 127] + [0] * (n - 2)]
    for _ in range(60):
        exps = [0] * n
        for _ in range(rng.choice([1, 5, 40, 90, 127])):
            exps[rng.randrange(n)] += 1
        vecs.append(exps)
    overflows = 0
    for ea in vecs:
        for eb in vecs:
            a, b = ring.encode(ea), ring.encode(eb)
            assert ring.mono_divides(a, b) == all(x <= y for x, y in zip(ea, eb))
            try:
                want = ring.encode([max(x, y) for x, y in zip(ea, eb)])
            except ValueError:
                overflows += 1
                with pytest.raises(ValueError, match="exponent overflow"):
                    ring.mono_lcm(a, b)
            else:
                assert ring.mono_lcm(a, b) == want
    assert overflows
    # total degree 128: one more than the cap
    with pytest.raises(ValueError, match="exponent overflow"):
        ring.mono_lcm(ring.encode([0] * (n - 1) + [127]), ring.encode([0] * (n - 2) + [1, 0]))


@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(sa, sb, sc):
    ra, rb, rc = random.Random(sa), random.Random(sb), random.Random(sc)
    a, b, c = rand_poly(R2, ra), rand_poly(R2, rb), rand_poly(R2, rc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


def test_no_zero_coefficients_stored():
    p = X + (-X) + Y
    assert p == Y
    assert all(c != 0 for c in p.terms.values())


def test_zero_coefficients_are_dropped_at_construction():
    # a zero (or non-canonical) coefficient given to the constructor never
    # reaches the reductions, which invert leading coefficients
    R = PolyRing(F7, ("x", "y"))
    x, y = R.gens()
    x2 = R.encode([2, 0])
    assert not Poly(R, {x2: 0}) and Poly(R, {x2: 0}) == R.zero()
    assert Poly(R, {x2: 14}) == R.zero() and Poly(R, {x2: 8}) == x * x
    bad = Poly(R, {x2: 0, R.encode([0, 1]): 1})
    assert bad == y and bad.leading_coeff() == 1
    for good in (y, bad):
        assert normal_form(x * x + y, [good]) == x * x
        assert interreduce([good, x * x + y * 3]) == [y, x * x]
        # the basis of I + (z*x - 1) in R[z]: <x y, x^2 y> : x^inf = <y>
        assert [g.format() for g in saturate([good * x, x * x * y], x)] == ["y", "x*_z + 6"]


def test_degrevlex_order():
    # x^2 > xy > y^2 > xz-type comparisons in three variables
    R3 = PolyRing(F17, ("x", "y", "z"))
    x, y, z = R3.gens()
    ms = [R3.encode(e) for e in [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]]
    assert sorted(ms, reverse=True) == ms


def test_derivative():
    p = X ** 3 * Y + 2 * X
    assert p.derivative("x") == 3 * X ** 2 * Y + 2
    assert p.derivative("y") == X ** 3


def test_evaluate():
    p = X ** 2 + Y * 3
    assert p.evaluate([2, 5]) == (4 + 15) % 17


def test_groebner_single_var():
    basis = groebner_basis([X])
    assert [g.format() for g in basis] == ["x"]


def test_groebner_unit_ideal():
    # x*(xy+1) - y*x^2 = x, then 1 in the ideal
    basis = groebner_basis([X * X, X * Y + 1])
    assert is_unit_ideal(basis)


def test_groebner_last_stats_follow_unit_ideals():
    groebner_basis([X * Y - 1, Y * Y - 1])
    assert groebner_basis.last_stats.basis_size == 2
    groebner_basis([X * X, X * Y + 1])     # 1 found by an S-pair
    stats = groebner_basis.last_stats
    assert stats.basis_size == 1 and stats.reductions > 0
    groebner_basis([X, R2.one()])          # 1 among the generators
    stats = groebner_basis.last_stats
    assert stats.basis_size == 1 and stats.reductions == 0


def test_groebner_stats_read_the_lcm_degree_of_a_lowered_pair():
    # z*x*y^4 - 1 interreduces to -(z*y^5 + 1); the pair (x^2, xy + y^2)
    # gives y^3, whose leading term divides z*y^5, so the pair that gives 1
    # is queued at degree 3 (before the degree-4 pair of xy + y^2 and y^3)
    # and is recorded at the degree of its lcm z*y^5
    assert is_unit_ideal(saturate([X * X, X * Y + Y * Y], X * Y ** 4))
    stats = groebner_basis.last_stats
    assert (stats.reductions, stats.max_degree_seen) == (2, 6)


def test_groebner_hand_example():
    basis = groebner_basis([X * Y - 1, Y * Y - 1])
    assert basis == [X - Y, Y * Y - 1]


def test_groebner_spolys_reduce_and_membership():
    rng = random.Random(23)
    R3 = PolyRing(F7, ("x", "y", "z"))
    for _ in range(10):
        gens = [rand_poly(R3, rng) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        basis = groebner_basis(gens)
        assert spolynomials_reduce_to_zero(basis)
        for g in gens:
            assert not normal_form(g, basis)
    # S(xy - 1, y^2 - 1) = x - y does not reduce: not a Groebner basis
    assert not spolynomials_reduce_to_zero([X * Y - 1, Y * Y - 1])


@pytest.mark.parametrize("p", [7, 17])
def test_groebner_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("x y z")
    R3 = PolyRing(GF(p), ("x", "y", "z"))
    rng = random.Random(37 + p)

    def canonical(terms):
        # reduced bases agree up to scaling; fix the scale by one chosen term
        inv = pow(terms[max(terms)], -1, p)
        return frozenset((e, c * inv % p) for e, c in terms.items())

    for _ in range(8):
        gens = [g for g in (rand_poly(R3, rng) for _ in range(3)) if g]
        if not gens:
            continue
        ours = {canonical({R3.decode(m): c for m, c in g.terms.items()})
                for g in groebner_basis(gens)}
        exprs = [sympy_expr(g, syms) for g in gens]
        oracle = sympy.groebner(exprs, *syms, modulus=p, order="grevlex")
        theirs = {canonical({e: int(c) % p for e, c in
                             sympy.Poly(g, *syms, modulus=p).terms()})
                  for g in oracle.exprs}
        assert ours == theirs


def test_groebner_budget():
    rng = random.Random(29)
    R4 = PolyRing(F7, tuple("abcd"))
    gens = [rand_poly(R4, rng, nterms=5, deg=4) for _ in range(4)]
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, max_reductions=2)


def test_groebner_last_stats_after_budget_exceeded():
    # the capped run records its own stats, not those of the run before it
    groebner_basis([X])
    rng = random.Random(29)
    R4 = PolyRing(F7, tuple("abcd"))
    gens = [rand_poly(R4, rng, nterms=5, deg=4) for _ in range(4)]
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, max_reductions=2)
    assert groebner_basis.last_stats.reductions == 3


def test_ideal_calls_refuse_mixed_rings():
    other = PolyRing(F17, ("x", "y"))
    with pytest.raises(ValueError, match="different rings"):
        groebner_basis([X, other.var(0)])
    with pytest.raises(ValueError, match="different rings"):
        saturate([X * Y, other.var(1)], X)
    with pytest.raises(ValueError, match="different rings"):
        saturate([X * Y], other.var(0))      # f from another ring
    # (0) : x^inf, in the ring of x with z adjoined
    assert [g.format() for g in saturate([], X)] == ["x*_z + 16"]


def test_groebner_requires_prime_field():
    RQ = PolyRing(QQ, ("x",))
    with pytest.raises(ValueError):
        groebner_basis([RQ.var(0)])


def test_reduction_requires_prime_field():
    RQ = PolyRing(QQ, ("x", "y"))
    x, y = RQ.gens()
    for call in (lambda: normal_form(x * y, [x]), lambda: interreduce([x * y, x]),
                 lambda: interreduce([x]), lambda: spolynomials_reduce_to_zero([x * y, x])):
        with pytest.raises(ValueError, match="requires a prime field"):
            call()


def test_saturate_examples():
    # <x y> : x^inf = <y>: the basis of <x y, x z - 1> is y and x z - 1
    sat = saturate([X * Y], X)
    assert not is_unit_ideal(sat)
    assert [g.format() for g in sat] == ["y", "x*_z + 16"]
    assert sat[0].ring.names == ("x", "y", "_z")
    assert [g.format() for g in saturate([X], X)] == ["1"]


def test_saturate_removes_component():
    # <x^2 y> : y^inf = <x^2>, so not the unit ideal; x^2 lies in the basis
    sat = saturate([X * X * Y], Y)
    assert not is_unit_ideal(sat)
    assert [g.format() for g in sat] == ["y*_z + 16", "x^2"]


def _form(ring, rng, degree):
    """A homogeneous form of ``degree`` with a random coefficient on every
    monomial of that degree."""
    f = ring.field
    out = ring.zero()
    for vs in itertools.combinations_with_replacement(range(ring.nvars), degree):
        exps = [0] * ring.nvars
        for v in vs:
            exps[v] += 1
        out = out + Poly(ring, {ring.encode(exps): 1}) * f.rand(rng)
    return out


def _degree_monomials(ring, degree):
    """Every monomial of ``degree``, packed, in decreasing degrevlex order."""
    out = []
    for vs in itertools.combinations_with_replacement(range(ring.nvars), degree):
        exps = [0] * ring.nvars
        for v in vs:
            exps[v] += 1
        out.append(ring.encode(exps))
    return sorted(out, reverse=True)


@pytest.mark.parametrize("p", [7, 17])
def test_interreduce_of_forms_of_one_degree_is_their_rref(p):
    # oracle: the RREF of the coefficient matrix over every monomial of the
    # degree, columns in decreasing order; its nonzero rows, by increasing
    # leading term.  Sparse forms leave some monomials out, and two forms
    # are combinations of the others, so rows drop out
    rng = random.Random(61 + p)
    ring = PolyRing(GF(p), ("x", "y", "w", "v"))
    monos = _degree_monomials(ring, 3)
    forms = [_form(ring, rng, 3) for _ in range(3)]
    forms += [Poly(ring, {m: rng.randrange(1, p) for m in rng.sample(monos, 4)})
              for _ in range(5)]
    forms += [forms[0] * 2 + forms[4], forms[1] - forms[6] * 3]
    R, pivots = Mat(GF(p), [[g.terms.get(m, 0) for m in monos] for g in forms]).rref()
    expected = [Poly(ring, dict(zip(monos, row))) for row in reversed(R.data[:len(pivots)])]
    assert len(expected) == 8
    assert interreduce(forms) == expected


@pytest.mark.parametrize("p", [7, 17])
def test_interreduce_is_reduced_and_keeps_the_ideal(p):
    # seeded mixed-degree ideals, and quadrics with a Rabinowitsch-like
    # w*f - 1 as saturate builds: the output is monic, sorted by distinct
    # leading terms, no term of an element is divisible by another
    # element's leading term, and input and output reduce to zero modulo
    # each other's Groebner basis
    rng = random.Random(67 + p)
    ring = PolyRing(GF(p), ("x", "y", "w"))
    cases = [[rand_poly(ring, rng, nterms=4, deg=3) for _ in range(5)] for _ in range(8)]
    cases += [[_form(ring, rng, 2) for _ in range(2)]
              + [ring.var(2) * _form(ring, rng, 3) - 1] for _ in range(4)]
    for gens in cases:
        out = interreduce(gens)
        lts = [g.leading_monomial() for g in out]
        assert lts == sorted(set(lts))
        for g in out:
            assert g.leading_coeff() == 1
            others = [ring.decode(lt) for lt in lts if lt != g.leading_monomial()]
            for m in g.terms:
                e = ring.decode(m)
                assert not any(all(a <= b for a, b in zip(o, e)) for o in others)
        gens = [g for g in gens if g]
        assert not any(normal_form(g, groebner_basis(out)) for g in gens)
        assert not any(normal_form(g, groebner_basis(gens)) for g in out)


@pytest.mark.parametrize("p", [7, 17])
def test_saturate_matches_sympy(p):
    # I : f^inf = (I + (t f - 1)) meet k[x, ...], the t-free part of a lex
    # basis with t first; saturate's verdict (unit or not, read from a
    # degrevlex basis in R[z]) must match whether that part is <1>
    sympy = pytest.importorskip("sympy")
    verdicts = []

    def check(gens, h):
        """The unit verdict of saturate(gens, h), compared with sympy's."""
        ring = h.ring
        t, *syms = sympy.symbols(("t",) + ring.names)

        def from_sympy(expr):
            return sum((Poly(ring, {ring.encode(e): int(c) % p}) for e, c in
                        sympy.Poly(expr, *syms, modulus=p).terms()), ring.zero())

        ours = is_unit_ideal(saturate(gens, h))
        lex = sympy.groebner([sympy_expr(g, syms) for g in gens]
                             + [t * sympy_expr(h, syms) - 1],
                             t, *syms, order="lex", modulus=p)
        theirs = [from_sympy(g) for g in lex.exprs if not g.has(t)]
        assert ours == is_unit_ideal(theirs)
        verdicts.append(ours)

    R3 = PolyRing(GF(p), ("x", "y", "w"))
    rng = random.Random(53 + p)
    for _ in range(6):
        a, b, h = (rand_poly(R3, rng, nterms=3, deg=2) for _ in range(3))
        if not (a and b) or h.degree() < 1:
            continue
        check([a * h, b * rand_poly(R3, rng, nterms=2, deg=1) + a], h)
    # quadric ideals saturated by a quartic: z*f - 1 has degree 5, and a new
    # element of lower degree whose leading term divides z*LT(f) reduces it
    # before the pairs of degree 5 run
    for n in (3, 4):
        ring = PolyRing(GF(p), ("x", "y", "w", "v")[:n])
        # n general quadratic forms cut out the origin, where f vanishes
        check([_form(ring, rng, 2) for _ in range(n)], _form(ring, rng, 4))
        # l*x_1, ..., l*x_{n-1}, q: for general coefficients f = l*c removes
        # the hyperplane l = 0 and leaves the two points of q on the last axis
        l = _form(ring, rng, 1)
        q = _form(ring, rng, 2) + _form(ring, rng, 1) + ring.const(1)
        check([l * ring.var(i) for i in range(n - 1)] + [q], l * _form(ring, rng, 3))
    assert True in verdicts and False in verdicts
