import itertools
import random
from collections import Counter

import pytest

from flagdual.bwb import (BLOCKS, BundleExpr, _irrep_weights,
                          _tensor_block, cohomology_table, ext_on_F,
                          ext_on_M_vanishing_certificate, ext_on_M_table,
                          gl_dim_branching, koszul_euler, koszul_h0, on_F,
                          tensor_decompose, vanishing_OO, vanishing_QO,
                          weyl_dim)


def tab(space, entries):
    return cohomology_table(BundleExpr.from_weight(space, entries))


def test_trivial_weight_everywhere():
    for space in BLOCKS:
        assert tab(space, (0, 0, 0, 0, 0)) == {0: 1}


def test_o1_anchors():
    assert cohomology_table(BundleExpr.line("G25", 1)) == {0: 10}
    assert cohomology_table(BundleExpr.line("G35", 1)) == {0: 10}
    assert cohomology_table(on_F("O", 1, 0)) == {0: 10}
    assert cohomology_table(on_F("O", 0, 1)) == {0: 10}
    assert cohomology_table(on_F("O", 1, 1)) == {0: 75}


def test_q2_sections():
    # H^0(G(2,5), Q2) = V5
    assert tab("G25", (0, 0, 0, 0, -1)) == {0: 5}


def test_canonical_bundles():
    # omega has exactly H^top = C
    assert cohomology_table(BundleExpr.line("G25", -5)) == {6: 1}
    assert cohomology_table(BundleExpr.line("G35", -5)) == {6: 1}
    assert cohomology_table(BundleExpr.line("F", -3, -3)) == {8: 1}


def test_bott_single_degree():
    rng = random.Random(3)
    for _ in range(200):
        entries = sorted((rng.randrange(-6, 7) for _ in range(5)), reverse=True)
        rng.shuffle(entries)
        for space, blocks in BLOCKS.items():
            segs = []
            pos = 0
            vals = list(entries)
            for b in blocks:
                segs.extend(sorted(vals[pos:pos + b], reverse=True))
                pos += b
            t = tab(space, tuple(segs))
            assert len(t) <= 1


def test_dominance_enforced():
    with pytest.raises(ValueError, match="not dominant"):
        BundleExpr.from_weight("G25", (0, 1, 0, 0, 0))
    BundleExpr.from_weight("F", (0, 0, 1, 0, 0))      # its own block on F
    with pytest.raises(ValueError, match="5 entries"):
        BundleExpr("F", {(0, 0, 0, 0): 1})


def test_weyl_dim_against_branching():
    weights = [w for w in itertools.product(range(3, -4, -1), repeat=5)
               if all(w[i] >= w[i + 1] for i in range(4))]
    assert len(weights) == 462
    for w in weights:
        assert weyl_dim(w) == gl_dim_branching(w)


def dominant(r, bound):
    """The non-increasing GL(r) weights with entries in [-bound, bound]."""
    return [w for w in itertools.product(range(bound, -bound - 1, -1), repeat=r)
            if all(w[i] >= w[i + 1] for i in range(r - 1))]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_irrep_weights_against_weyl(r):
    for lam in dominant(r, 3):
        weights = dict(_irrep_weights(lam))
        assert sum(weights.values()) == weyl_dim(lam)
        assert weights[lam] == 1
        for w, m in weights.items():
            assert all(weights[p] == m for p in itertools.permutations(w))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_tensor_block_matches_characters(r):
    # Klimyk's decomposition has the product of the two weight multisets as
    # its weight multiset
    def character(pairs):
        out = Counter()
        for nu, m in pairs:
            for w, mw in _irrep_weights(nu):
                out[w] += m * mw
        return out

    for lam, mu in itertools.product(dominant(r, 2), repeat=2):
        product = Counter()
        for (a, ma), (b, mb) in itertools.product(_irrep_weights(lam),
                                                  _irrep_weights(mu)):
            product[tuple(x + y for x, y in zip(a, b))] += ma * mb
        assert character(_tensor_block(lam, mu)) == product, (lam, mu)


def test_tensor_u2_square():
    u2 = BundleExpr.from_weight("G25", (0, -1, 0, 0, 0))
    sq = tensor_decompose(u2, u2)
    assert sq.terms == {
        (0, -2, 0, 0, 0): 1,   # Sym^2 U2
        (-1, -1, 0, 0, 0): 1,  # wedge^2 U2
    }
    assert sq.rank() == 4


def test_tensor_q2_with_dual():
    q2 = BundleExpr.from_weight("G25", (0, 0, 0, 0, -1))
    q2d = BundleExpr.from_weight("G25", (0, 0, 1, 0, 0))
    prod = tensor_decompose(q2, q2d)
    ranks = sorted((weyl_dim(w[:2]) * weyl_dim(w[2:]), m)
                   for w, m in prod.terms.items())
    assert prod.rank() == 9
    assert ranks == [(1, 1), (8, 1)]


def test_tensor_line_shifts():
    rng = random.Random(5)
    for _ in range(20):
        seg1 = sorted((rng.randrange(-3, 4) for _ in range(2)), reverse=True)
        seg2 = sorted((rng.randrange(-3, 4) for _ in range(3)), reverse=True)
        e = BundleExpr.from_weight("G25", tuple(seg1) + tuple(seg2))
        line = BundleExpr.line("G25", 2)
        prod = tensor_decompose(e, line)
        assert prod == e.twist(2)


def test_ext_q2_q2_simple():
    q2 = BundleExpr.from_weight("G25", (0, 0, 0, 0, -1))
    assert ext_on_F(q2, q2) == {0: 1}


def test_vanishing_qo_band():
    # zero exactly on 2+a <= b <= 7+a minus b = 3+a
    for a in range(8):
        for b in range(16):
            expected = (2 + a <= b <= 7 + a) and b != 3 + a
            assert vanishing_QO(a, b) == expected, (a, b)


def test_vanishing_qo_nonzero_at_excluded_point():
    assert ext_on_F(on_F("Q3", 1, 3), on_F("O", 2, 2)) != {}


def test_vanishing_oo_band():
    for a in range(11):
        for b in range(11):
            expected = 3 + a <= b <= 7 + a
            assert vanishing_OO(a, b) == expected, (a, b)


def test_serre_duality_on_F():
    rng = random.Random(7)
    for _ in range(100):
        entries = []
        for size in BLOCKS["F"]:
            seg = sorted((rng.randrange(-4, 5) for _ in range(size)), reverse=True)
            entries.extend(seg)
        e = BundleExpr.from_weight("F", entries)
        t = cohomology_table(e)
        td = cohomology_table(e.dual().twist(-3, -3))    # E* (x) K_F
        assert t == {8 - d: v for d, v in td.items()}


def test_pushforward_vanishing_lemma():
    # pullbacks from G(2,5) with second twist dropping by 1 or 2; irreducible
    # pullbacks only (for the extension Q2 the graded certificate is
    # one-sided and the true vanishing needs the cancellation in the
    # extension sequence)
    rng = random.Random(11)
    from_g25 = ["O", "U2", "U2d"]
    for _ in range(80):
        fa = rng.choice(from_g25)
        fb = rng.choice(from_g25)
        a, c = rng.randrange(-3, 4), rng.randrange(-3, 4)
        b = rng.randrange(-3, 4)
        drop = rng.choice([1, 2])
        assert ext_on_F(on_F(fa, a, b), on_F(fb, c, b - drop)) == {}


def test_pushforward_vanishing_q2_instances():
    # extension-bundle instances that the mutation replay relies on
    assert ext_on_M_vanishing_certificate(on_F("U2", 0, 4), on_F("Q2", 1, 3)) == "certified-zero"
    assert ext_on_M_vanishing_certificate(on_F("Q2", 1, 3), on_F("U2", 0, 4)) == "certified-zero"
    assert ext_on_M_vanishing_certificate(on_F("O", 0, 4), on_F("Q2", 1, 3)) == "certified-zero"
    assert ext_on_M_vanishing_certificate(on_F("Q2", 1, 3), on_F("O", 0, 4)) == "certified-zero"


def test_ext_on_m_certificate():
    o = on_F("O", 0, 0)
    assert ext_on_M_vanishing_certificate(o, o) == "unknown"
    # an orthogonality instance used by the mutation replay
    assert ext_on_M_vanishing_certificate(on_F("O", 0, 3), on_F("O", 1, 1)) == "certified-zero"
    assert ext_on_M_vanishing_certificate(on_F("O", 1, 1), on_F("O", 0, 3)) == "certified-zero"


def test_ext_on_m_rule_tables():
    # extension rule: Ext_M(Q3(a,b), O(a+1,b-1)) = C[-1], exactly
    t, exact = ext_on_M_table(on_F("Q3", 0, 2), on_F("O", 1, 1))
    assert exact and t == {1: 1}
    # cone rule: Ext_M(Q3*(a,b), O(a,b)) = C^5[0]
    q3d = BundleExpr.from_weight("F", (0, 0, 0, 1, 0))
    t, exact = ext_on_M_table(q3d.twist(1, 2), on_F("O", 1, 2))
    assert exact and t == {0: 5}
    # dual extension rule: Ext_M(O(a-1,b+1), U3*(a,b)) = C[0]
    t, exact = ext_on_M_table(on_F("O", 0, 3), on_F("U3d", 1, 2))
    assert exact and t == {0: 1}
    # cone rule on the G(2,5) side: Ext_M(O(a,b), Q2(a,b)) = C^5[0]
    t, exact = ext_on_M_table(on_F("O", 0, 2), on_F("Q2", 0, 2))
    assert exact and t == {0: 5}


def test_koszul_euler_anchors():
    o = BundleExpr.line("G25", 0)
    assert koszul_euler(o, 0) == 0          # chi(O_X) = 0 for a CY threefold
    q2 = BundleExpr.from_weight("G25", (0, 0, 0, 0, -1))
    assert koszul_euler(q2, 0) == 5


def test_koszul_h0():
    q2 = BundleExpr.from_weight("G25", (0, 0, 0, 0, -1))
    h0, cert = koszul_h0(q2, 0)
    assert cert and h0 == 5
    h0, cert = koszul_h0(q2, 1)
    assert cert and h0 == 0
    w2q = BundleExpr.from_weight("G25", (0, 0, 0, -1, -1))
    for t in (1, 2):
        h0, cert = koszul_h0(w2q, t)
        assert cert and h0 == 0


def test_rank_bookkeeping():
    assert on_F("U3", 0, 0).rank() == 3
    assert on_F("Q2", 0, 0).rank() == 3
    assert on_F("Q3", 0, 0).rank() == 2
    assert on_F("U2d", 3, -2).rank() == 2
