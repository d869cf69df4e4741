"""Cohomology engine for homogeneous bundles on G(2,5), G(3,5) and the
flag F(2,3,5), with Koszul-based vanishing certificates on the hyperplane
section M of F.

A bundle is a formal non-negative sum of GL(5) weights, plain 5-tuples that
the space's parabolic blocks (``BLOCKS``) split and that are non-increasing
within each block.  The weight (a | c | b) on F stands for
S^a U2*  (x)  ((U3/U2)*)^c  (x)  S^b (V/U3)*; on the Grassmannians the middle
block is absorbed into the three-row block.
Pinned anchors: h0(O(1,0)) = h0(O(0,1)) = 10 and h0(O(1,1)) = 75 on F.

Two primitives carry the engine.  ``_dot_sort`` is the rho-shifted dot
action: Bott's theorem (``bott``) and Klimyk's tensor formula
(``_tensor_block``) both read their answer from it.  ``_irrep_weights`` walks
the Gelfand-Tsetlin patterns of a GL(r) irrep (r <= 3 here) for the weights
Klimyk's formula sums over.

``F_BUNDLES`` names the homogeneous bundles on F by their graded-piece
weights, and ``on_F`` twists one.  Pullbacks that are extensions rather than
direct sums (U3, Q2 on F) enter through their graded pieces; a vanishing
verdict for every graded piece is a sound vanishing certificate for the
extension, while nonzero tables are the graded dimensions.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

BLOCKS = {"G25": (2, 3), "G35": (3, 2), "F": (2, 1, 2)}


def _twist_weight(space, twist) -> tuple:
    """The weight of O(a) on a Grassmannian, O(a, b) on F."""
    if space == "F":
        a, b = twist
        return (a + b, a + b, b, 0, 0)
    (a,) = twist
    k, rest = BLOCKS[space]
    return (a,) * k + (0,) * rest


def _blocks(space, w) -> list:
    """The weight w cut into the parabolic blocks of ``space``."""
    out, pos = [], 0
    for b in BLOCKS[space]:
        out.append(w[pos:pos + b])
        pos += b
    return out


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


def _dot_sort(v: tuple):
    """The dot action of GL(len(v)) on v: (l, mu) with mu + rho the
    descending sort of v + rho by a permutation of length l, or None when
    v + rho has a repeated entry (v lies on a wall)."""
    r = len(v)
    s = [x + r - 1 - i for i, x in enumerate(v)]
    if len(set(s)) < r:
        return None
    length = sum(1 for i in range(r) for j in range(i + 1, r) if s[i] < s[j])
    return length, tuple(x - r + 1 + i for i, x in enumerate(sorted(s, reverse=True)))


@lru_cache(maxsize=None)
def bott(w: tuple) -> tuple:
    """Cohomology of the irreducible bundle E_w as ((degree, dim), ...):
    nothing on a wall, else the Weyl dimension of the dot-sorted weight in
    degree l."""
    dot = _dot_sort(w)
    if dot is None:
        return ()
    length, mu = dot
    return ((length, weyl_dim(mu)),)


def _check_space(space):
    if space not in BLOCKS:
        raise ValueError(f"unknown space {space!r}")


class BundleExpr:
    """Formal non-negative sum of weights (5-tuples) on one space."""

    def __init__(self, space: str, terms: dict):
        _check_space(space)
        self.space = space
        self.terms = {w: int(m) for w, m in terms.items() if m}
        if any(m < 0 for m in self.terms.values()):
            raise ValueError("negative multiplicity")
        for w in self.terms:
            if len(w) != 5:
                raise ValueError("blocked weight must have 5 entries")
            if any(seg[i] < seg[i + 1] for seg in _blocks(space, w)
                   for i in range(len(seg) - 1)):
                raise ValueError(f"not dominant per block: {w} {BLOCKS[space]}")

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_weight(cls, space, entries, mult=1):
        return cls(space, {tuple(entries): mult})

    @classmethod
    def line(cls, space, *twist):
        """O(a) on a Grassmannian, O(a,b) on F."""
        return cls.from_weight(space, _twist_weight(space, twist))

    def rank(self) -> int:
        total = 0
        for w, m in self.terms.items():
            r = 1
            for seg in _blocks(self.space, w):
                r *= weyl_dim(seg)
            total += m * r
        return total

    def dual(self) -> "BundleExpr":
        return BundleExpr(self.space, {
            tuple(-e for seg in _blocks(self.space, w) for e in reversed(seg)): m
            for w, m in self.terms.items()})

    def twist(self, *twist) -> "BundleExpr":
        delta = _twist_weight(self.space, twist)
        return BundleExpr(self.space, {tuple(e + d for e, d in zip(w, delta)): m
                                       for w, m in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, BundleExpr) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self):
        return f"BundleExpr({self.space!r}, {self.terms!r})"


# -- Littlewood-Richardson via the Klimyk weight formula ----------------------

@lru_cache(maxsize=None)
def _irrep_weights(lam: tuple) -> tuple:
    """Weight multiset of the GL(r) irrep lam, as ((weight, mult), ...).

    One weight per Gelfand-Tsetlin pattern with top row lam: entry i is the
    sum of the row of length i minus the sum of the row of length i - 1.
    The walk recurses once per row, so r deep whatever the entries.
    """
    counts: dict = {}

    def walk(row, weight):
        if not row:
            counts[weight] = counts.get(weight, 0) + 1
            return
        # the rows below interlace: row[i] >= nu[i] >= row[i + 1]
        for nu in itertools.product(*map(range, row[1:], (x + 1 for x in row))):
            walk(nu, (sum(row) - sum(nu),) + weight)

    walk(lam, ())
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=None)
def _tensor_block(lam: tuple, mu: tuple) -> tuple:
    """GL(r) decomposition of lam (x) mu via Klimyk: for each weight nu of mu,
    dot-sort lam + nu with sign (-1)^l."""
    if len(mu) != len(lam):
        raise ValueError("rank mismatch")
    # enumerate weights of the smaller-dimensional factor
    if weyl_dim(mu) > weyl_dim(lam):
        lam, mu = mu, lam
    out: dict = {}
    for nu, mult in _irrep_weights(mu):
        dot = _dot_sort(tuple(l + n for l, n in zip(lam, nu)))
        if dot is not None:
            length, key = dot
            out[key] = out.get(key, 0) + (-1) ** length * mult
    result = tuple(sorted((k, m) for k, m in out.items() if m))
    assert all(m > 0 for _, m in result)
    return result


def tensor_decompose(a: BundleExpr, b: BundleExpr) -> BundleExpr:
    """Littlewood-Richardson expansion per block; total rank is preserved."""
    if a.space != b.space:
        raise ValueError("mixed spaces")
    out: dict = {}
    for wa, ma in a.terms.items():
        for wb, mb in b.terms.items():
            partials = [((), 1)]
            for seg_a, seg_b in zip(_blocks(a.space, wa), _blocks(a.space, wb)):
                expand = _tensor_block(seg_a, seg_b)
                partials = [(ent + k, m * mm) for ent, m in partials
                            for k, mm in expand]
            for w, m in partials:
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


def ext_on_M_table(a: BundleExpr, b: BundleExpr):
    """(table, exact) for Ext_M(a, b), via the restriction sequence
    0 -> O_F(-1,-1) -> O_F -> O_M -> 0: when the (-1,-1)-twisted Ext on F
    vanishes completely the restriction map is an isomorphism and the table
    is exact; otherwise only a certificate-grade answer (exact=False)."""
    if a.space != "F" or b.space != "F":
        raise ValueError("Ext on M is computed on F")
    return ext_on_F(a, b), not ext_on_F(a, b.twist(-1, -1))


def ext_on_M_vanishing_certificate(a: BundleExpr, b: BundleExpr) -> str:
    """'certified-zero' when Ext_M(a, b) is exactly zero, else 'unknown'.
    Never claims nonvanishing."""
    table, exact = ext_on_M_table(a, b)
    return "certified-zero" if exact and not table else "unknown"


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

# graded-piece weights of the named bundles on F; U3 and Q2 are extensions.
# Only on F: (0,0,0,0,-1) is Q3 (rank 2) here but Q (rank 3) on G(2,5).
F_BUNDLES = {
    "O": ((0, 0, 0, 0, 0),),
    "U2": ((0, -1, 0, 0, 0),),
    "U2d": ((1, 0, 0, 0, 0),),
    "U3": ((0, -1, 0, 0, 0), (0, 0, -1, 0, 0)),
    "U3d": ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0)),
    "Q2": ((0, 0, -1, 0, 0), (0, 0, 0, 0, -1)),
    "Q3": ((0, 0, 0, 0, -1),),
    "Q3d": ((0, 0, 0, 1, 0),),
}


def on_F(kind: str, a: int, b: int) -> BundleExpr:
    """The named bundle ``kind`` of F_BUNDLES twisted by O(a, b)."""
    return BundleExpr("F", dict.fromkeys(F_BUNDLES[kind], 1)).twist(a, b)


def vanishing_QO(a: int, b: int) -> bool:
    """Ext^*(Q3(1,b), O(2,2+a)) = 0?"""
    return not ext_on_F(on_F("Q3", 1, b), on_F("O", 2, 2 + a))


def vanishing_OO(a: int, b: int) -> bool:
    """Ext^*(O(1,b), O(2,2+a)) = 0?"""
    return not ext_on_F(on_F("O", 1, b), on_F("O", 2, 2 + a))



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
