import itertools
import random

import pytest

from flagdual.duality import commutant_space
from flagdual.exactalg import GF, QQ, Mat, exterior_square
from flagdual.grassflag import (PAIRS, TRIPLES, DualityMap, MatrixSubspace,
                                SectionMatrix, _generators, _iota_images_inside,
                                _iota_invariant, flag_equation,
                                flag_ideal_space, hf_project, hf_space,
                                iota_action, random_hf_section, script_matrix)
from oracles import contains, flag_equation_at_every_pair
from points import dual_coordinates, pluecker, random_grass_point, random_invertible

F7 = GF(7)
F11 = GF(11)
F17 = GF(17)


def unit_rep(field, cols):
    eis = [[1 if r == c else 0 for c in range(cols)] for r in range(5)]
    return Mat(field, eis)


def test_pluecker_unit():
    rep = Mat(QQ, [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
    assert pluecker(rep) == tuple([1] + [0] * 9)


def test_rank_deficient_rep_rejected():
    rep = Mat(QQ, [[1, 1], [0, 0], [0, 0], [0, 0], [0, 0]])
    assert all(c == 0 for c in pluecker(rep))
    # a rank-deficient draw is redrawn; over F_2 that is about one 5x2 draw
    # in eleven and one 5x3 draw in five
    rng = random.Random(3)
    for k in (2, 3):
        for _ in range(50):
            assert random_grass_point(GF(2), k, rng).rank() == k


@pytest.mark.parametrize("field", [F7, F11, QQ])
def test_pluecker_relations(field):
    rng = random.Random(101)
    for _ in range(40):
        p = pluecker(random_grass_point(field, 2, rng))
        pos = {pr: n for n, pr in enumerate(PAIRS)}
        for (i, j, k, l) in [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)]:
            lhs = field.sub(field.mul(p[pos[(i, j)]], p[pos[(k, l)]]),
                            field.mul(p[pos[(i, k)]], p[pos[(j, l)]]))
            lhs = field.add(lhs, field.mul(p[pos[(i, l)]], p[pos[(j, k)]]))
            assert field.is_zero(lhs)


def test_flag_equations_vanish_on_flags():
    rng = random.Random(13)
    e = [[1 if r == i else 0 for r in range(5)] for i in range(5)]
    s11 = flag_equation(e[0], e[0], F11)
    for _ in range(500):
        A = random_grass_point(F11, 2, rng)
        B = A.augment(Mat.random(F11, 5, 1, rng))       # col(A) in col([A | w])
        assert F11.is_zero(s11.evaluate(pluecker(A), dual_coordinates(B)))


def test_flag_equations_detect_nonincidence():
    rng = random.Random(17)
    e = [[1 if r == i else 0 for r in range(5)] for i in range(5)]
    eqs = [flag_equation(e[i], e[j], F11) for i in range(5) for j in range(5)]
    for _ in range(30):
        A = random_grass_point(F11, 2, rng)
        B = random_grass_point(F11, 3, rng)
        assert A.augment(B).rank() > 3      # col(A) is not in col(B)
        assert any(not F11.is_zero(s.evaluate(pluecker(A), dual_coordinates(B)))
                   for s in eqs)


@pytest.mark.parametrize("field", [QQ, F7, F17], ids=["QQ", "GF7", "GF17"])
def test_flag_equation_matches_the_every_pair_oracle(field):
    # the 25 unit pairs carry 6 entries when i = j and 3 otherwise, all +-1
    e = [[int(r == i) for r in range(5)] for i in range(5)]
    nonzero = 0
    for i, j in itertools.product(range(5), repeat=2):
        s = flag_equation(e[i], e[j], field)
        assert s == flag_equation_at_every_pair(e[i], e[j], field)
        entries = [x for x in s.mat.flatten() if not field.is_zero(x)]
        assert len(entries) == (6 if i == j else 3)
        assert all(x in (field.one, field.neg(field.one)) for x in entries)
        nonzero += len(entries)
    assert nonzero == 90
    rng = random.Random(59)
    for _ in range(6):
        xstar = [field.rand(rng) for _ in range(5)]
        y = [field.rand(rng) for _ in range(5)]
        assert flag_equation(xstar, y, field) == flag_equation_at_every_pair(xstar, y, field)


@pytest.mark.parametrize("field", [QQ, F7, F11, F17])
def test_dimension_split(field):
    ideal = flag_ideal_space(field)
    hf = hf_space(field)
    assert ideal.dim == 25
    assert hf.dim == 75
    assert ideal.sum_rank(hf) == 100


def test_all_ideal_elements_vanish_on_flags():
    rng = random.Random(19)
    ideal = flag_ideal_space(F7)
    for _ in range(50):
        A = random_grass_point(F7, 2, rng)
        B = A.augment(Mat.random(F7, 5, 1, rng))
        for m in ideal.basis[:5]:
            assert F7.is_zero(SectionMatrix(m).evaluate(pluecker(A), dual_coordinates(B)))


def test_iota_identity_and_scalar():
    rng = random.Random(23)
    s = random_hf_section(F17, rng)
    ident = DualityMap(Mat.identity(F17, 5))
    assert iota_action(s, ident).mat == s.mat.transpose()
    lam = DualityMap(Mat.identity(F17, 5) * 3)
    assert iota_action(s, lam).mat == s.mat.transpose()


@pytest.mark.parametrize("field", [F17, F7])
def test_iota_preserves_both_subspaces(field):
    # the stage's generator check on every basis vector of both subspaces;
    # for the complement it is the oracle of the annihilator lemma in
    # verify_spaces, which the stage relies on
    assert _iota_invariant(flag_ideal_space(field))
    assert _iota_invariant(hf_space(field))


def test_iota_check_sees_a_non_invariant_subspace():
    # the ideal with one basis vector swapped for one of the complement
    ideal, hf = flag_ideal_space(F17), hf_space(F17)
    assert not _iota_invariant(MatrixSubspace(F17, [hf.basis[0]] + ideal.basis[1:]))


@pytest.mark.parametrize("field", [F17, F7])
def test_stacked_invariance_check_matches_per_vector_oracle(field):
    # every (map, basis vector) verdict of the stacked int64 check against
    # iota_action and contains, one Mat product and one test at a time, on
    # both subspaces and on the non-invariant control above
    ideal, hf = flag_ideal_space(field), hf_space(field)
    control = MatrixSubspace(field, [hf.basis[0]] + ideal.basis[1:])
    maps = [Mat.identity(field, 5)] + _generators(field)
    for space in (ideal, hf, control):
        oracle = [[contains(space, iota_action(SectionMatrix(K), DualityMap(T)).mat)
                   for K in space.basis] for T in maps]
        assert _iota_images_inside(space, maps).tolist() == oracle
    assert not all(map(all, oracle)) and any(map(any, oracle))


@pytest.mark.parametrize("p", [17, 7])
def test_three_is_a_primitive_root(p):
    assert min(k for k in range(1, p) if pow(3, k, p) == 1) == p - 1


def test_commutators_give_every_transvection():
    # [I + E_ij, I + E_jk] = I + E_ik for distinct i, j, k, and from the
    # adjacent pairs (i, i +- 1) of the generators that rule reaches all 20
    def elementary(i, j, c=1):
        return Mat(F17, [[c if (r, k) == (i, j) else int(r == k) for k in range(5)]
                         for r in range(5)])

    for i, j, k in itertools.permutations(range(5), 3):
        x, y = elementary(i, j), elementary(j, k)
        assert x * y * x.inverse() * y.inverse() == elementary(i, k)
    adjacent = [(i, i + 1) for i in range(4)] + [(i + 1, i) for i in range(4)]
    assert _generators(F17) == [elementary(i, j) for i, j in adjacent] + [elementary(0, 0, 3)]
    reached = set(adjacent)
    for _ in range(4):
        reached |= {(i, k) for i, j in reached for j2, k in reached if j == j2 and i != k}
    assert len(reached) == 20


def test_iota_of_transpose_is_conjugation():
    rng = random.Random(29)
    s = random_hf_section(F17, rng)
    ident = DualityMap(Mat.identity(F17, 5))
    for T in _generators(F17) + [random_invertible(F17, 5, rng)]:
        dm = DualityMap(T)
        M = exterior_square(T)
        assert iota_action(iota_action(s, ident), dm).mat == M.inverse() * s.mat * M


def _contains_by_elimination(space, m):
    f = space.field
    R, pivots = Mat(f, [b.flatten() for b in space.basis]).rref()
    v = list(m.flatten())
    for row, pc in zip(R.data, pivots):
        c = v[pc]
        if f.is_zero(c):
            continue
        v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
    return all(f.is_zero(x) for x in v)


@pytest.mark.parametrize("space", ["hf17", "idealqq", "commutant17"])
def test_contains_matches_elimination(space):
    rng = random.Random(37)
    sp = {"hf17": lambda: hf_space(F17),
          "idealqq": lambda: flag_ideal_space(QQ),
          "commutant17": lambda: commutant_space(random_hf_section(F17, rng))}[space]()
    f = sp.field
    for k in (99, 0, 57, 38, 81, 12):
        member = Mat.zero(f, 10, 10)
        for b in sp.basis:
            member = member + b * f.rand(rng)
        unit = Mat(f, [[int(10 * i + j == k) for j in range(10)] for i in range(10)])
        assert contains(sp, member) and _contains_by_elimination(sp, member)
        for m in (Mat.random(f, 10, 10, rng), member + unit):
            assert not contains(sp, m) and not _contains_by_elimination(sp, m)


def test_script_matrix_canonical_representative():
    for field in (QQ, F17):
        raw = script_matrix(field)
        canon = hf_project(raw)
        assert contains(hf_space(field), canon.mat)
        assert contains(flag_ideal_space(field), raw.mat - canon.mat)
        assert not contains(hf_space(field), raw.mat)


def test_hf_space_rejects_characteristic_3():
    with pytest.raises(ValueError, match="characteristic 3"):
        random_hf_section(GF(3), random.Random(0))


def test_hf_projection_fixes_hf():
    rng = random.Random(31)
    s = random_hf_section(F17, rng)
    assert hf_project(s).mat == s.mat

