"""Cohomology engine for homogeneous bundles on G(2,5), G(3,5) and the
flag F(2,3,5), with Koszul-based vanishing certificates on the hyperplane
section M of F.

A bundle is a formal non-negative sum of blocked weights.  The weight
(a | c | b) on F stands for  S^a U2*  (x)  ((U3/U2)*)^c  (x)  S^b (V/U3)*;
on the Grassmannians the middle block is absorbed into the three-row block.
Pinned anchors: h0(O(1,0)) = h0(O(0,1)) = 10 and h0(O(1,1)) = 75 on F.

Pullbacks that are extensions rather than direct sums (U3, Q2 on F) enter
through their graded pieces; a vanishing verdict for every graded piece is a
sound vanishing certificate for the extension, while nonzero tables are the
graded dimensions.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

RHO = (4, 3, 2, 1, 0)

BLOCKS = {"G25": (2, 3), "G35": (3, 2), "F": (2, 1, 2)}

# line-bundle weight increments per space: O(1) twists on each block
_LINE = {
    "G25": {None: (1, 1, 0, 0, 0)},
    "G35": {None: (1, 1, 1, 0, 0)},
}


class BlockedWeight:
    """A GL(5) weight split into parabolic blocks, non-increasing per block."""

    __slots__ = ("entries", "blocks")

    def __init__(self, entries, blocks):
        self.entries = tuple(int(e) for e in entries)
        self.blocks = tuple(blocks)
        if sum(self.blocks) != 5 or len(self.entries) != 5:
            raise ValueError("blocked weight must have 5 entries")
        pos = 0
        for b in self.blocks:
            seg = self.entries[pos:pos + b]
            if any(seg[i] < seg[i + 1] for i in range(len(seg) - 1)):
                raise ValueError(f"not dominant per block: {self.entries} {self.blocks}")
            pos += b

    def dual(self) -> "BlockedWeight":
        out = []
        pos = 0
        for b in self.blocks:
            seg = self.entries[pos:pos + b]
            out.extend(-e for e in reversed(seg))
            pos += b
        return BlockedWeight(out, self.blocks)

    def shift(self, delta) -> "BlockedWeight":
        return BlockedWeight(tuple(e + d for e, d in zip(self.entries, delta)),
                             self.blocks)

    def block_parts(self):
        out = []
        pos = 0
        for b in self.blocks:
            out.append(self.entries[pos:pos + b])
            pos += b
        return out

    def __eq__(self, other):
        return (isinstance(other, BlockedWeight)
                and self.entries == other.entries and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.entries, self.blocks))

    def __repr__(self):
        parts = ["{}".format(",".join(str(e) for e in seg)) for seg in self.block_parts()]
        return "(" + "|".join(parts) + ")"


@lru_cache(maxsize=None)
def weyl_dim(mu: tuple) -> int:
    """Dimension of the GL(len(mu)) irrep with highest weight mu
    (non-increasing), by the Weyl product formula."""
    num = den = 1
    n = len(mu)
    for i in range(n):
        for j in range(i + 1, n):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


@lru_cache(maxsize=None)
def gl_dim_branching(mu: tuple) -> int:
    """Dimension by Gelfand-Tsetlin branching (independent oracle)."""
    n = len(mu)
    if n == 1:
        return 1
    total = 0
    lo = [mu[i + 1] for i in range(n - 1)]
    hi = [mu[i] for i in range(n - 1)]
    for nu in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        if all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1)):
            total += gl_dim_branching(nu)
    return total


@lru_cache(maxsize=None)
def bott(w: BlockedWeight) -> tuple:
    """Cohomology of the irreducible bundle E_w as ((degree, dim), ...).

    Add rho; a repeated entry kills all cohomology; otherwise sort
    descending by a permutation of length l and return the Weyl dimension of
    (sorted - rho) in degree l.
    """
    v = [e + r for e, r in zip(w.entries, RHO)]
    if len(set(v)) < 5:
        return ()
    inversions = sum(1 for i in range(5) for j in range(i + 1, 5) if v[i] < v[j])
    mu = tuple(x - r for x, r in zip(sorted(v, reverse=True), RHO))
    return ((inversions, weyl_dim(mu)),)


def _check_space(space):
    if space not in BLOCKS:
        raise ValueError(f"unknown space {space!r}")


class BundleExpr:
    """Formal non-negative sum of blocked weights on one space."""

    def __init__(self, space: str, terms: dict):
        _check_space(space)
        self.space = space
        self.terms = {w: int(m) for w, m in terms.items() if m}
        if any(m < 0 for m in self.terms.values()):
            raise ValueError("negative multiplicity")
        if any(w.blocks != BLOCKS[space] for w in self.terms):
            raise ValueError("weight blocks do not match the space")

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_weight(cls, space, entries, mult=1):
        return cls(space, {BlockedWeight(entries, BLOCKS[space]): mult})

    @classmethod
    def line(cls, space, *twist):
        """O(a) on a Grassmannian, O(a,b) on F."""
        if space == "F":
            a, b = twist
            return cls.from_weight("F", (a + b, a + b, b, 0, 0))
        (a,) = twist
        return cls.from_weight(space, tuple(x * a for x in _LINE[space][None]))

    def rank(self) -> int:
        total = 0
        for w, m in self.terms.items():
            r = 1
            for seg in w.block_parts():
                r *= weyl_dim(seg)
            total += m * r
        return total

    def dual(self) -> "BundleExpr":
        return BundleExpr(self.space, {w.dual(): m for w, m in self.terms.items()})

    def twist(self, *twist) -> "BundleExpr":
        if self.space == "F":
            a, b = twist
            delta = (a + b, a + b, b, 0, 0)
        else:
            (a,) = twist
            delta = tuple(x * a for x in _LINE[self.space][None])
        return BundleExpr(self.space, {w.shift(delta): m for w, m in self.terms.items()})

    def __add__(self, other):
        if other == 0:
            return self
        if self.space != other.space:
            raise ValueError("mixed spaces")
        out = dict(self.terms)
        for w, m in other.terms.items():
            out[w] = out.get(w, 0) + m
        return BundleExpr(self.space, out)

    __radd__ = __add__

    def __eq__(self, other):
        return (isinstance(other, BundleExpr) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items(), key=repr))))

    def __repr__(self):
        bits = [f"{m}x{w}" if m > 1 else f"{w}" for w, m in
                sorted(self.terms.items(), key=repr)]
        return f"BundleExpr({self.space}, {' + '.join(bits) or '0'})"


# -- Littlewood-Richardson via the Klimyk weight formula ----------------------

@lru_cache(maxsize=None)
def _irrep_weights(lam: tuple) -> tuple:
    """Weight multiset of the GL(r) irrep lam, as ((weight, mult), ...).

    Enumerated by semistandard tableaux contents after shifting lam to a
    partition; shift-equivariance restores the original weights.
    """
    r = len(lam)
    shift = -min(lam[-1], 0)
    part = tuple(e + shift for e in lam)
    counts: dict = {}

    def fill(row, col, prev_rows, cur_row):
        if row == len(shape):
            content = [0] * r
            for rr in rows_done:
                for v in rr:
                    content[v - 1] += 1
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        if col == shape[row]:
            rows_done.append(cur_row)
            fill(row + 1, 0, None, [])
            rows_done.pop()
            return
        lo = cur_row[col - 1] if col else 1
        if row:
            lo = max(lo, rows_done[row - 1][col] + 1)
        for v in range(lo, r + 1):
            cur_row.append(v)
            fill(row, col + 1, None, cur_row)
            cur_row.pop()

    shape = [p for p in part if p > 0]
    rows_done: list = []
    if not shape:
        counts[(0,) * r] = 1
    else:
        fill(0, 0, None, [])
    return tuple(sorted((tuple(w - shift for w in k), m) for k, m in counts.items()))


@lru_cache(maxsize=None)
def _tensor_block(lam: tuple, mu: tuple) -> tuple:
    """GL(r) decomposition of lam (x) mu via Klimyk: for each weight nu of mu,
    dot-sort lam + nu + rho_r with sign."""
    r = len(lam)
    if len(mu) != r:
        raise ValueError("rank mismatch")
    # enumerate weights of the smaller-dimensional factor
    if weyl_dim(mu) > weyl_dim(lam):
        lam, mu = mu, lam
    rho = tuple(range(r - 1, -1, -1))
    out: dict = {}
    for nu, mult in _irrep_weights(mu):
        v = [l + n + p for l, n, p in zip(lam, nu, rho)]
        if len(set(v)) < r:
            continue
        sign = 1
        vv = list(v)
        # count inversions for the sorting permutation
        inv = sum(1 for i in range(r) for j in range(i + 1, r) if vv[i] < vv[j])
        sign = -1 if inv % 2 else 1
        key = tuple(x - p for x, p in zip(sorted(v, reverse=True), rho))
        out[key] = out.get(key, 0) + sign * mult
    result = tuple(sorted((k, m) for k, m in out.items() if m))
    assert all(m > 0 for _, m in result)
    return result


def tensor_decompose(a: BundleExpr, b: BundleExpr) -> BundleExpr:
    """Littlewood-Richardson expansion per block; total rank is preserved."""
    if a.space != b.space:
        raise ValueError("mixed spaces")
    blocks = BLOCKS[a.space]
    out: dict = {}
    for wa, ma in a.terms.items():
        for wb, mb in b.terms.items():
            partials = [((), 1)]
            for seg_a, seg_b in zip(wa.block_parts(), wb.block_parts()):
                expand = _tensor_block(tuple(seg_a), tuple(seg_b))
                partials = [(ent + k, m * mm) for ent, m in partials
                            for k, mm in expand]
            for ent, m in partials:
                w = BlockedWeight(ent, blocks)
                out[w] = out.get(w, 0) + ma * mb * m
    result = BundleExpr(a.space, out)
    assert result.rank() == a.rank() * b.rank()
    return result


# -- cohomology and Ext -------------------------------------------------------

def cohomology_table(e: BundleExpr) -> dict:
    """H^*(space, e): degree -> dimension, zeros omitted."""
    table: dict = {}
    for w, m in e.terms.items():
        for deg, dim in bott(w):
            table[deg] = table.get(deg, 0) + m * dim
    return {d: v for d, v in table.items() if v}


def ext_on_F(a: BundleExpr, b: BundleExpr) -> dict:
    """Ext^*(a, b) computed as H^*(a^dual (x) b), graded-piece-wise."""
    return cohomology_table(tensor_decompose(a.dual(), b))


def ext_on_M_vanishing_certificate(a: BundleExpr, b: BundleExpr) -> str:
    """'certified-zero' when Ext_F(a,b) and Ext_F(a, b(-1,-1)) both vanish,
    via the restriction sequence 0 -> O_F(-1,-1) -> O_F -> O_M -> 0.
    Never claims nonvanishing."""
    if a.space != "F" or b.space != "F":
        raise ValueError("certificate lives on F")
    if not ext_on_F(a, b) and not ext_on_F(a, b.twist(-1, -1)):
        return "certified-zero"
    return "unknown"


def ext_on_M_table(a: BundleExpr, b: BundleExpr):
    """(table, exact) for Ext_M(a, b): when the (-1,-1)-twisted Ext on F
    vanishes completely the restriction map is an isomorphism and the table
    is exact; otherwise only a certificate-grade answer (exact=False)."""
    t0 = ext_on_F(a, b)
    t1 = ext_on_F(a, b.twist(-1, -1))
    return t0, not t1


# -- Koszul computations on G(2,5) --------------------------------------------

def _koszul_terms(field_twist: int):
    """wedge^i of (Q2(-2)) on G(2,5) for i = 0..3, with an extra O(-t)."""
    t = field_twist
    k0 = BundleExpr.line("G25", -t)
    k1 = BundleExpr.from_weight("G25", (0, 0, 0, 0, -1)).twist(-2 - t)
    k2 = BundleExpr.from_weight("G25", (0, 0, 1, 0, 0)).twist(-3 - t)
    k3 = BundleExpr.line("G25", -5 - t)
    return [k0, k1, k2, k3]


def koszul_euler(e: BundleExpr, t: int = 0) -> int:
    """chi(e|_X(-t)) for X the zero locus of a section of Q2*(2) on G(2,5),
    by the alternating sum over the Koszul resolution."""
    if e.space != "G25":
        raise ValueError("koszul_euler lives on G(2,5)")
    total = 0
    for i, k in enumerate(_koszul_terms(t)):
        term = tensor_decompose(e, k)
        chi = sum((-1) ** d * v for d, v in cohomology_table(term).items())
        total += (-1) ** i * chi
    return total


def koszul_h0(e: BundleExpr, t: int = 0):
    """(h0(X, e|_X(-t)), certified) -- equals h0(G, e(-t)) when the deeper
    Koszul terms K_i have H^{i-1} = H^i = 0 for i = 1..3 (chasing the two
    short exact sequences the resolution splits into)."""
    ks = _koszul_terms(t)
    tabs = [cohomology_table(tensor_decompose(e, k)) for k in ks]
    certified = all(tabs[i].get(i - 1, 0) == 0 and tabs[i].get(i, 0) == 0
                    for i in (1, 2, 3))
    return tabs[0].get(0, 0), certified


# -- named lemma grids --------------------------------------------------------

def Q3_on_F(a: int, b: int) -> BundleExpr:
    return BundleExpr.from_weight("F", (0, 0, 0, 0, -1)).twist(a, b)


def O_on_F(a: int, b: int) -> BundleExpr:
    return BundleExpr.line("F", a, b)


def U2_on_F(a: int, b: int) -> BundleExpr:
    return BundleExpr.from_weight("F", (0, -1, 0, 0, 0)).twist(a, b)


def U2dual_on_F(a: int, b: int) -> BundleExpr:
    return BundleExpr.from_weight("F", (1, 0, 0, 0, 0)).twist(a, b)


def U3_on_F(a: int, b: int) -> BundleExpr:
    pieces = (BundleExpr.from_weight("F", (0, -1, 0, 0, 0))
              + BundleExpr.from_weight("F", (0, 0, -1, 0, 0)))
    return pieces.twist(a, b)


def U3dual_on_F(a: int, b: int) -> BundleExpr:
    pieces = (BundleExpr.from_weight("F", (1, 0, 0, 0, 0))
              + BundleExpr.from_weight("F", (0, 0, 1, 0, 0)))
    return pieces.twist(a, b)


def Q2_on_F(a: int, b: int) -> BundleExpr:
    pieces = (BundleExpr.from_weight("F", (0, 0, -1, 0, 0))
              + BundleExpr.from_weight("F", (0, 0, 0, 0, -1)))
    return pieces.twist(a, b)


def vanishing_QO(a: int, b: int) -> bool:
    """Ext^*(Q3(1,b), O(2,2+a)) = 0?"""
    return not ext_on_F(Q3_on_F(1, b), O_on_F(2, 2 + a))


def vanishing_OO(a: int, b: int) -> bool:
    """Ext^*(O(1,b), O(2,2+a)) = 0?"""
    return not ext_on_F(O_on_F(1, b), O_on_F(2, 2 + a))


def canonical_weight_F() -> BlockedWeight:
    """omega_F = O(-3,-3)."""
    return BlockedWeight((-6, -6, -3, 0, 0), BLOCKS["F"])

# (a, b) where each vanishing lemma says its Ext groups vanish
VANISHING_BANDS = {
    "vanishingQO": lambda a, b: 2 + a <= b <= 7 + a and b != 3 + a,
    "vanishingOO": lambda a, b: 3 + a <= b <= 7 + a,
}


def lemma_grid(name: str, a_values, b_values) -> list:
    """Rows over a, columns over b: does the computed vanishing match the band?"""
    lemma = vanishing_QO if name == "vanishingQO" else vanishing_OO
    band = VANISHING_BANDS[name]
    return [[lemma(a, b) == band(a, b) for b in b_values] for a in a_values]


def verify_lemmas() -> dict:
    """Both vanishing lemmas on their grids, Ext(Q2, Q2) = C, h0(F, O(1,1)) = 75."""
    grids = (lemma_grid("vanishingQO", range(8), range(16))
             + lemma_grid("vanishingOO", range(11), range(11)))
    grid_ok = all(all(row) for row in grids)
    q2 = BundleExpr.from_weight("G25", (0, 0, 0, 0, -1))
    anchors = {
        "ext_q2_q2": ext_on_F(q2, q2) == {0: 1},
        "h0_O11_on_F": cohomology_table(BundleExpr.line("F", 1, 1)) == {0: 75},
    }
    return {"ok": grid_ok and all(anchors.values()),
            "details": {"grids": grid_ok, **anchors}}
