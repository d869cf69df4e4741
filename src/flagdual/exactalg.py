"""Exact scalar arithmetic, dense matrices, sparse multivariate polynomials,
and a small Buchberger kernel.

Everything downstream is built on this module.  No floating point anywhere:
prime fields use Python ints reduced mod p, the rational field uses
``fractions.Fraction``.  Every ``Mat`` holds canonical field elements (an int
in [0, p), a Fraction): the public constructor coerces outside data, and the
operations here, whose entries are canonical already, skip that pass.
``Field.dot`` is the one dot product; over GF(p) it sums the int products and
reduces once.  ``Mat.rref`` is the one elimination loop, and rank, inverse and
kernel all read it.  It works on primitive integer rows over QQ and builds
Fractions only for its result.  It pivots on the sparsest candidate row, runs
a forward pass and then a back-substitution; since the RREF of a matrix is
unique, the pivot order changes its cost, never its result.  ``det`` and
``minors`` are the one minor rule (lexicographic k-subsets) for every grid of
scalars, Poly or numpy arrays.  An ideal is the list of its generators:
``groebner_basis`` and ``saturate`` read the ring from them and refuse a list
that mixes rings.  There is one monomial order, degrevlex: ``saturate``
adjoins the Rabinowitsch variable as the last variable, and its basis answers
whether the saturation is the unit ideal, which no order changes.  Buchberger
selects pairs by lowest lcm degree, except that a new element whose leading
term divides an older one's reduces it at once, at its own degree.  Its input
and its output are interreduced, and the linear part of that is one
``Mat.rref`` of the coefficient matrix; ``_normal_form`` is the one reduction
routine.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """Exact field interface.  Elements are plain values (int or Fraction)."""

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    zero = 0
    one = 1

    def is_zero(self, a):
        return a == self.zero

    def dot(self, a, b):
        """sum_i a_i b_i of two sequences of field elements."""
        return sum(map(operator.mul, a, b), self.zero)

    def rand(self, rng):
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, exact below 3.3 * 10^24 (the
    least strong pseudoprime to all of them; 12 bases are fooled at 3.2 *
    10^23); ValueError above."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"{n} is too large to test for primality")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s                                # n - 1 = d 2^s, d odd
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _MR_BASES)


class GF(Field):
    """Prime field GF(p); elements are ints in [0, p)."""

    _cache: dict[int, "GF"] = {}

    def __new__(cls, p: int):
        if p in cls._cache:
            return cls._cache[p]
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self = super().__new__(cls)
        self.p = p
        cls._cache[p] = self
        return self

    def coerce(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        return int(x) % self.p

    def dot(self, a, b):
        # Python ints do not overflow: one reduction for the whole sum
        return sum(map(operator.mul, a, b)) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def rand(self, rng):
        return rng.randrange(self.p)

    def parse(self, s: str):
        if "/" in s:
            num, den = s.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def __repr__(self):
        return f"GF({self.p})"


class Rationals(Field):
    """The rational field; elements are Fractions."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / Fraction(a)

    def rand(self, rng):
        # small numerators keep downstream arithmetic cheap
        return Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 1, 2, 3]))

    def parse(self, s: str):
        return Fraction(s)

    def __repr__(self):
        return "QQ"


QQ = Rationals()


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def _clear(m: list, k: int, c: int, targets, p) -> None:
    """Clear column c of the integer rows m[i], i in targets, against the
    pivot row m[k]: a row with b = m[i][c] nonzero becomes a*m[i] - b*m[k],
    a = m[k][c].  Over GF(p) the new row is reduced mod p; over QQ (p None)
    a and b are first divided by their gcd and the new row by the gcd of its
    entries, so rows stay primitive."""
    prow = m[k]
    pa = prow[c]
    for i in targets:
        row = m[i]
        b = row[c]
        if not b:
            continue
        if p:
            m[i] = [(pa * x - b * y) % p for x, y in zip(row, prow)]
            continue
        g = gcd(pa, b)
        a, b = pa // g, b // g
        new = [a * x - b * y for x, y in zip(row, prow)]
        g = gcd(*new)
        m[i] = [x // g for x in new] if g > 1 else new


class Mat:
    """Immutable dense matrix over an exact field.

    Its entries are canonical field elements.  ``Mat(field, rows)`` coerces
    every entry; the operations below build their results with ``_of``, which
    takes rows of canonical entries as they are."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence]):
        self._set(field, tuple(tuple(map(field.coerce, row)) for row in data))
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    def _set(self, field: Field, data: tuple):
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    @classmethod
    def _of(cls, field: Field, rows) -> "Mat":
        """The matrix of equal-length rows of canonical entries, not coerced."""
        m = cls.__new__(cls)
        m._set(field, tuple(map(tuple, rows)))
        return m

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field, rows, cols):
        return cls._of(field, [(field.zero,) * cols] * rows)

    @classmethod
    def identity(cls, field, n):
        return cls._of(field, [[field.one if i == j else field.zero for j in range(n)]
                               for i in range(n)])

    @classmethod
    def random(cls, field, rows, cols, rng):
        return cls._of(field, [[field.rand(rng) for _ in range(cols)]
                               for _ in range(rows)])

    @classmethod
    def random_invertible(cls, field, n, rng):
        while True:
            m = cls.random(field, n, n, rng)
            if m.rank() == n:
                return m

    # -- basics -------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((id(self.field), self.data))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __add__(self, other):
        f = self.field
        return Mat._of(f, [map(f.add, r1, r2) for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        f = self.field
        return Mat._of(f, [map(f.sub, r1, r2) for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        f = self.field
        return Mat._of(f, [map(f.neg, r) for r in self.data])

    def __mul__(self, other):
        f = self.field
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            bt = other.transpose().data
            return Mat._of(f, [[f.dot(r, c) for c in bt] for r in self.data])
        c = f.coerce(other)
        return Mat._of(f, [[f.mul(a, c) for a in r] for r in self.data])

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector (tuple)."""
        dot = self.field.dot
        return tuple(dot(r, vec) for r in self.data)

    def transpose(self):
        return Mat._of(self.field, zip(*self.data))

    def augment(self, other):
        return Mat._of(self.field, [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def flatten(self):
        return tuple(x for row in self.data for x in row)

    # -- elimination --------------------------------------------------------
    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list).

        The one elimination loop, over Python-int rows, for both fields: a
        QQ row is first scaled by the lcm of its denominators, a GF(p) row
        already is ints.  ``rank``, ``inverse`` and ``kernel`` all read it.

        - Pivot rule (Markowitz): in each column, among the rows that are not
          pivots yet and are nonzero there, the pivot is the row with the
          fewest nonzeros, the lowest row index on a tie.  Sparse systems
          such as the 100x100 commutant one then stay sparse.
        - Forward pass: the pivot clears its column in the other non-pivot
          rows only.  Clearing it in the pivot rows above as well
          (Gauss-Jordan) would copy the pivot row's later entries into each
          of them, for later pivots to clear again.
        - Back-substitution: then each pivot, the last one first, clears its
          column in the pivot rows above it.
        - Each pivot row is divided by its pivot once, at the end.

        Every step is the row operation of ``_clear`` or a swap: it scales a
        row by a nonzero constant or adds a multiple of one row to another,
        so the row space is unchanged.  The RREF of a matrix is unique, so
        the result, pivots and entries, is exactly that of any elimination
        in field arithmetic, whatever the pivot order.
        """
        f = self.field
        p = f.p if isinstance(f, GF) else None
        if p:
            m = [list(row) for row in self.data]
        else:
            m = []
            for row in self.data:
                d = lcm(*(x.denominator for x in row))
                m.append([x.numerator * (d // x.denominator) for x in row])
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            # zeros of each candidate row, -1 for a row that is no candidate
            zeros = [row.count(0) if row[c] else -1 for row in m[r:]]
            most = max(zeros)
            if most < 0:
                continue
            piv = r + zeros.index(most)
            m[r], m[piv] = m[piv], m[r]
            _clear(m, r, c, range(r + 1, self.rows), p)
            pivots.append(c)
            if len(pivots) == self.rows:
                break
        for k in range(len(pivots) - 1, 0, -1):
            _clear(m, k, pivots[k], range(k), p)
        for r, c in enumerate(pivots):
            a = m[r][c]
            if p:
                inv = f.inv(a)
                m[r] = [x * inv % p for x in m[r]]
            else:
                m[r] = [Fraction(x, a) for x in m[r]]
        # the zero rows: int 0 over QQ until here
        m[len(pivots):] = [(f.zero,) * self.cols] * (self.rows - len(pivots))
        return Mat._of(f, m), pivots

    def rank(self):
        return len(self.rref()[1])

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        f = self.field
        aug, pivots = self.augment(Mat.identity(f, self.rows)).rref()
        if pivots != list(range(self.rows)):
            raise ZeroDivisionError("matrix is singular")
        return Mat._of(f, [row[self.rows:] for row in aug.data])

    def kernel(self):
        """Basis of the right kernel, as a list of tuples."""
        return rref_kernel(*self.rref())

    def charpoly(self):
        """Characteristic polynomial coefficients [1, c1, ..., cn] of xI - A,
        by the division-free Berkowitz algorithm."""
        f = self.field
        n = self.rows
        if n != self.cols:
            raise ValueError("charpoly of non-square matrix")
        # iteratively build the coefficient vector
        coeffs = [f.one]
        for k in range(1, n + 1):
            A = [row[:k] for row in self.data[:k]]
            # Toeplitz column: [1, -a_kk, -(R A^0 C), -(R A^1 C), ...]
            R = A[k - 1][: k - 1]
            C = [A[i][k - 1] for i in range(k - 1)]
            entries = [f.one, f.neg(A[k - 1][k - 1])]
            v = C[:]
            Ak = [row[: k - 1] for row in A[: k - 1]]
            for _ in range(k - 1):
                entries.append(f.neg(f.dot(R, v)))
                v = [f.dot(row, v) for row in Ak]
            new = [f.zero] * (k + 1)
            for i, c in enumerate(coeffs):
                for j, e in enumerate(entries):
                    if i + j <= k:
                        new[i + j] = f.add(new[i + j], f.mul(c, e))
            coeffs = new
        return coeffs

    def __repr__(self):
        return f"Mat({self.field!r}, {self.rows}x{self.cols})"


def rref_kernel(R: Mat, pivots: list) -> list:
    """Basis of the right kernel of a matrix whose RREF is (R, pivots), one
    vector per free column, as a list of tuples."""
    f = R.field
    basis = []
    for fc in range(R.cols):
        if fc in pivots:
            continue
        v = [f.zero] * R.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(R.data[r][fc])
        basis.append(tuple(v))
    return basis


def exterior_square(T: Mat) -> Mat:
    """Second exterior power: entry at (pair (i,j), pair (k,l)) is the 2x2
    minor of T on rows {i,j}, columns {k,l}; pairs in lexicographic order."""
    if T.rows != T.cols:
        raise ValueError("exterior_square needs a square matrix")
    return Mat(T.field, minors(T.data, 2))


def det(rows):
    """The determinant of an n x n grid, n >= 2, whose entries support *, +
    and - (ints, Fractions, Poly, numpy arrays); over GF(p), ``coerce`` the
    result.  Closed forms for n = 2, 3, Laplace along the first row above."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        r0, r1, r2 = rows
        return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
                - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
                + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))
    acc = None
    for j in range(n):
        sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * det(sub)
        acc = term if acc is None else acc - term if j % 2 else acc + term
    return acc


@functools.lru_cache(maxsize=None)
def _pickers(n: int, k: int) -> tuple:
    """An itemgetter for each k-subset of range(n), in lexicographic order."""
    return tuple(operator.itemgetter(*s) for s in itertools.combinations(range(n), k))


def minors(grid, k: int) -> list:
    """Every k x k minor of a grid, k >= 2 (entries as for ``det``): entry
    [a][b] is the minor on the a-th row k-subset and the b-th column k-subset,
    both in lexicographic order."""
    cols = _pickers(len(grid[0]), k)
    return [[det([pick(row) for row in rows]) for pick in cols]
            for rows in (pick(grid) for pick in _pickers(len(grid), k))]


# -- matrix file format -----------------------------------------------------

def parse_matrix(text: str, field: Field) -> Mat:
    """One row per line, whitespace-separated entries, ints or 'a/b'."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([field.parse(tok) for tok in line.split()])
    return Mat(field, rows)


def format_matrix(M: Mat) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in M.data) + "\n"


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------
#
# Monomials are packed into a single int.  Layout (most significant first):
#
#   [ totdeg | comp(e_{n-1}) | ... | comp(e_0) ]   with comp(e) = 127 - e, 8 bits each
#
# Integer comparison of packed monomials is exactly the degrevlex order.
# Products are packed additions modulo a constant offset.  Bit 7 of every
# variable field is a guard bit, always clear in a monomial, so whole words act
# fieldwise:
#
# * b divides a iff ``not (b - a) & guards``: a field of b - a borrows exactly
#   where e_i(b) > e_i(a);
# * lcm is the fieldwise min of the complements: ``((a|guards) - b) & guards``
#   flags the fields where comp_a >= comp_b, without borrows between fields;
#   its total degree is 127*n minus the byte sum.
#
# Total degree is capped at 127.

_VB = 8            # bits per variable field
_CMAX = 127        # max exponent per variable


class PolyRing:
    """Polynomial ring with named variables, degrevlex order (the last
    variable is the smallest)."""

    def __init__(self, field: Field, names: Sequence[str]):
        self.field = field
        self.names = tuple(names)
        self.nvars = n = len(self.names)
        self._deg_shift = _VB * n
        self._offset = sum(_CMAX << (_VB * i) for i in range(n))
        self._guards = sum(0x80 << (_VB * i) for i in range(n))
        self._fields = (1 << self._deg_shift) - 1   # all variable fields
        self.one_mono = self._offset        # all exponents zero
        self._mono_cache: dict[int, tuple] = {}

    # -- monomial codec -----------------------------------------------------
    def encode(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise ValueError("wrong exponent length")
        tot = sum(exps)
        if tot > _CMAX or any(e < 0 or e > _CMAX for e in exps):
            raise ValueError("exponent overflow")
        # variable i sits at shift _VB*i, complemented
        m = sum((_CMAX - e) << (_VB * i) for i, e in enumerate(exps))
        return m | tot << self._deg_shift

    def decode(self, m: int) -> tuple:
        got = self._mono_cache.get(m)
        if got is None:
            got = self._mono_cache[m] = tuple(
                _CMAX - ((m >> (_VB * i)) & 0xFF) for i in range(self.nvars))
        return got

    def mono_mul(self, a: int, b: int) -> int:
        return a + b - self._offset

    def mono_divides(self, b: int, a: int) -> bool:
        """Does monomial b divide monomial a?  (Inlined in the Buchberger loop.)"""
        return not (b - a) & self._guards

    def mono_deg(self, m: int) -> int:
        return m >> self._deg_shift

    def mono_lcm(self, a: int, b: int) -> int:
        ge = ((a | self._guards) - b) & self._guards
        mask = ge - (ge >> 7)               # 0x7F where comp_a >= comp_b
        m = (a ^ ((a ^ b) & mask)) & self._fields
        tot = _CMAX * self.nvars - sum(m.to_bytes(self.nvars, "little"))
        if tot > _CMAX:
            raise ValueError("exponent overflow")
        return m | tot << self._deg_shift

    # -- element constructors ------------------------------------------------
    def zero(self):
        return Poly._of(self, {})

    def one(self):
        return Poly._of(self, {self.one_mono: self.field.one})

    def const(self, c):
        return Poly(self, {self.one_mono: c})

    def var(self, i) -> "Poly":
        if isinstance(i, str):
            i = self.names.index(i)
        e = [0] * self.nvars
        e[i] = 1
        return Poly._of(self, {self.encode(e): self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def __repr__(self):
        return f"PolyRing({self.field!r}, {self.names})"


class Poly:
    """Sparse multivariate polynomial: dict packed-monomial -> coefficient.

    Its coefficients are canonical and nonzero.  ``Poly(ring, terms)``
    coerces every coefficient and drops the zeros, so ``Poly(ring, {m: 0})``
    is the zero polynomial; the operations below build their results with
    ``_of``, which takes such terms as they are."""

    __slots__ = ("ring", "terms", "_eval_terms")

    def __init__(self, ring: PolyRing, terms: dict):
        f = ring.field
        canonical = ((m, f.coerce(c)) for m, c in terms.items())
        self._set(ring, {m: c for m, c in canonical if not f.is_zero(c)})

    def _set(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._eval_terms = None

    @classmethod
    def _of(cls, ring: PolyRing, terms: dict) -> "Poly":
        """The polynomial of canonical nonzero coefficients, not coerced."""
        poly = cls.__new__(cls)
        poly._set(ring, terms)
        return poly

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring is other.ring and self.terms == other.terms
        return self == self.ring.const(other)

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))

    def degree(self):
        if not self.terms:
            return -1
        return max(self.ring.mono_deg(m) for m in self.terms)

    def leading_monomial(self) -> int:
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[max(self.terms)]

    # -- arithmetic ----------------------------------------------------------
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        f = self.ring.field
        if len(self.terms) < len(other.terms):
            small, big = self.terms, dict(other.terms)
        else:
            small, big = other.terms, dict(self.terms)
        for m, c in small.items():
            v = f.add(big.get(m, f.zero), c)
            if f.is_zero(v):
                big.pop(m, None)
            else:
                big[m] = v
        return Poly._of(self.ring, big)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return Poly._of(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            f = self.ring.field
            c = f.coerce(other)
            if f.is_zero(c):
                return self.ring.zero()
            return Poly._of(self.ring, {m: f.mul(cc, c) for m, cc in self.terms.items()})
        other = self._coerce(other)
        if self.degree() + other.degree() > _CMAX:
            raise ValueError("total degree overflow (cap %d)" % _CMAX)
        ring = self.ring
        f = ring.field
        off = ring._offset
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for m1, c1 in a.terms.items():
            base = m1 - off
            for m2, c2 in b.terms.items():
                key = base + m2
                v = out.get(key)
                if v is None:
                    out[key] = f.mul(c1, c2)
                else:
                    v = f.add(v, f.mul(c1, c2))
                    if f.is_zero(v):
                        del out[key]
                    else:
                        out[key] = v
        return Poly._of(ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def derivative(self, i) -> "Poly":
        ring = self.ring
        if isinstance(i, str):
            i = ring.names.index(i)
        f = ring.field
        shift = _VB * i
        out = {}
        for m, c in self.terms.items():
            e = _CMAX - ((m >> shift) & 0xFF)
            if e == 0:
                continue
            nc = f.mul(c, f.coerce(e))
            if f.is_zero(nc):
                continue
            out[m + (1 << shift) - (1 << ring._deg_shift)] = nc
        return Poly._of(ring, out)

    def evaluate(self, point: Sequence):
        """Evaluate at a point given as raw field values."""
        ring = self.ring
        f = ring.field
        if self._eval_terms is None:
            self._eval_terms = [
                (c, [(i, e) for i, e in enumerate(ring.decode(m)) if e])
                for m, c in self.terms.items()]
        point = [f.coerce(x) for x in point]
        is_gf = isinstance(f, GF)
        acc = f.zero
        for c, exps in self._eval_terms:
            v = c
            for i, e in exps:
                x = point[i]
                v = f.mul(v, pow(x, e, f.p) if is_gf else x ** e)
            acc = f.add(acc, v)
        return acc

    # -- display -------------------------------------------------------------
    def __repr__(self):
        return self.format()

    def format(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        bits = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            exps = ring.decode(m)
            factors = [f"{ring.names[i]}^{e}" if e > 1 else ring.names[i]
                       for i, e in enumerate(exps) if e]
            mono = "*".join(factors)
            if mono:
                bits.append(f"{c}*{mono}" if c != ring.field.one else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# ideals & Buchberger
# ---------------------------------------------------------------------------

MAX_REDUCTIONS = 2_000_000     # default cap on the S-pair reductions of one basis


@dataclass
class GroebnerStats:
    basis_size: int = 0
    reductions: int = 0
    max_degree_seen: int = 0


class BudgetExceeded(RuntimeError):
    """A basis computation ran past its cap on S-pair reductions."""


def _common_ring(polys: Sequence[Poly]) -> PolyRing:
    """The one ring that every polynomial of ``polys`` lies in."""
    if not polys:
        raise ValueError("no polynomials to read a ring from")
    ring = polys[0].ring
    if any(g.ring is not ring for g in polys):
        raise ValueError("polynomials from different rings")
    return ring


def _prime_field(ring: PolyRing, what: str) -> int:
    if not isinstance(ring.field, GF):
        raise ValueError(f"{what} requires a prime field")
    return ring.field.p


def _normal_form(fpoly: Poly, lts: list, lcinvs: list, polys: list,
                 first_divisor: dict) -> Poly:
    """Full normal form of fpoly against basis (parallel lists) over GF(p).

    Heap-driven: repeatedly cancel the largest reducible monomial by its first
    divisor in lts.  A coefficient is an int that is reduced mod p only when
    its monomial is popped; one that is 0 mod p then is skipped, and its key
    stays in the work dict until that pop, so a later update adds to it
    rather than pushing the monomial again.  Each monomial is popped once:
    a reduction of m adds only monomials below m.  first_divisor memoises
    the divisor search: m -> index of the first divisor, or -k when lts[:k]
    holds none (0 reads as "search from 0").  Calls that share it may only
    append to lts, so the first divisor of m among lts[:k] never changes.
    """
    ring = fpoly.ring
    p = ring.field.p
    guards = ring._guards
    nlts = len(lts)
    work = dict(fpoly.terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m) % p
        if not c:
            continue
        red = first_divisor.get(m, 0)
        if red <= 0:
            for red in range(-red, nlts):
                if not (lts[red] - m) & guards:
                    break
            else:
                first_divisor[m] = -nlts
                rem[m] = c
                continue
            first_divisor[m] = red
        shift = m - lts[red]                    # quotient offset (packed)
        factor = -c * lcinvs[red] % p
        for mg, cg in polys[red].items():
            key = mg + shift
            old = work.get(key)
            if old is None:
                if key != m:
                    work[key] = factor * cg
                    heapq.heappush(heap, -key)
            else:
                work[key] = old + factor * cg
    return Poly._of(ring, rem)


def normal_form(fpoly: Poly, basis: Sequence[Poly]) -> Poly:
    p = _prime_field(fpoly.ring, "normal_form")
    lts = [g.leading_monomial() for g in basis]
    lcinvs = [pow(g.leading_coeff(), -1, p) for g in basis]
    polys = [g.terms for g in basis]
    return _normal_form(fpoly, lts, lcinvs, polys, {})


def _monic(p: Poly) -> Poly:
    f = p.ring.field
    inv = f.inv(p.leading_coeff())
    return Poly._of(p.ring, {m: f.mul(c, inv) for m, c in p.terms.items()})


def _reducible(g: Poly, lts: list) -> bool:
    """Whether a leading term in ``lts`` (sorted and distinct, g's own among
    them) other than g's own divides a term of g.  Divisibility between
    monomials of one degree is equality, so a term of degree d is looked up
    among the leading terms and tested only against those of lower degree,
    which sort first: a packed monomial starts with its degree."""
    ring = g.ring
    guards, shift = ring._guards, ring._deg_shift
    own = g.leading_monomial()
    members = set(lts)
    for m in g.terms:
        if m != own and m in members:
            return True
        for lt in itertools.islice(lts, bisect.bisect_left(lts, m >> shift << shift)):
            if not (lt - m) & guards:
                return True
    return False


def interreduce(polys: Sequence[Poly]) -> list:
    """Reduce each polynomial by the others until stable; monic output,
    sorted by leading term.

    The linear part is one ``Mat.rref`` of the coefficient matrix, whose
    columns are the monomials that occur, in decreasing degrevlex order: its
    nonzero rows are monic, their leading terms are the pivots, and no row
    has a term at another row's pivot.  A homogeneous input of one degree is
    then reduced.  A term can still be reducible only when a leading term of
    lower degree properly divides it, or when it equals a leading term that
    a later reduction moved; so the reduce-by-the-others loop runs
    ``normal_form`` only on an element that ``_reducible`` flags, until none
    is."""
    G = [p for p in polys if p]
    if not G:
        return G
    ring = G[0].ring
    _prime_field(ring, "interreduce")
    monos = sorted({m for g in G for m in g.terms}, reverse=True)
    rows = [[g.terms.get(m, 0) for m in monos] for g in G]
    R, pivots = Mat._of(ring.field, rows).rref()
    G = [Poly._of(ring, {m: c for m, c in zip(monos, row) if c})
         for row in R.data[:len(pivots)]]
    lts = [monos[k] for k in reversed(pivots)]
    changed = True
    while changed:
        changed = False
        for i in range(len(G)):
            if not G[i] or not _reducible(G[i], lts):
                continue
            r = normal_form(G[i], [g for j, g in enumerate(G) if j != i and g])
            if r.terms != G[i].terms:
                G[i] = r
                changed = True
                lts = sorted(g.leading_monomial() for g in G if g)
        G = [g for g in G if g]
    return sorted((_monic(g) for g in G), key=lambda g: g.leading_monomial())


def _spolynomial(ring: PolyRing, l: int, i: int, j: int,
                 lts: list, lcinvs: list, gterms: list) -> Poly:
    """S-polynomial of basis elements i and j (parallel lists as in
    _normal_form), with l the lcm of their leading monomials."""
    f = ring.field
    sh_i = l - lts[i]
    sh_j = l - lts[j]
    s: dict = {}
    for m, c in gterms[i].items():
        s[m + sh_i] = f.mul(c, lcinvs[i])
    for m, c in gterms[j].items():
        key = m + sh_j
        v = f.sub(s.get(key, f.zero), f.mul(c, lcinvs[j]))
        if f.is_zero(v):
            s.pop(key, None)
        else:
            s[key] = v
    return Poly._of(ring, s)


def groebner_basis(gens: Sequence[Poly], max_reductions: int = MAX_REDUCTIONS) -> list:
    """Reduced Groebner basis of the ideal that ``gens`` generate, by
    Buchberger with Gebauer-Moeller pruning.

    Monomial order is the ring's degrevlex.
    Pair selection: lowest lcm degree first (normal strategy), ties by lcm,
    with one exception: a pair whose lcm is the leading term of its older
    element is a top-reduction of that element by the new one, and is queued
    at the new element's degree.  On a non-homogeneous input such as z*f - 1
    this runs the reduction as soon as it is possible, not at deg(z*f).  The
    pair criteria hold for any selection order, so the order changes the
    work, never the reduced basis (which is unique) or the unit verdict.
    ``last_stats.max_degree_seen`` is the largest lcm degree of a reduced
    pair, not its queue key.
    Raises BudgetExceeded after more than ``max_reductions`` S-pair
    reductions; the cap counts work, never time, so the result is a function
    of the input alone.
    """
    ring = _common_ring(gens)
    _prime_field(ring, "groebner_basis")
    f = ring.field
    stats = groebner_basis.last_stats = GroebnerStats()

    G: list[Poly] = []
    lts: list[int] = []
    lcinvs: list = []
    gterms: list = []
    pairs: list = []            # heap of (selection degree, lcm, i, j)
    first_divisor: dict = {}    # _normal_form's memo; lts only grows
    guards = ring._guards

    def add_pairs(k: int):
        """Gebauer-Moeller update for new element index k, in one pass."""
        ltk = lts[k]
        lcm_k = [ring.mono_lcm(lt, ltk) for lt in lts[:k]]
        # prune old pairs (i,j) whose lcm the new leading term divides, unless
        # it equals lcm(i,k) or lcm(j,k)
        pairs[:] = [(d, l, i, j) for d, l, i, j in pairs
                    if (ltk - l) & guards or lcm_k[i] == l or lcm_k[j] == l]
        heapq.heapify(pairs)
        # criteria M and F: drop (i,k) when an lcm met earlier in (deg, lcm, i)
        # order divides lcm(i,k); criterion B: drop it when the lts are coprime
        met = []
        for d, l, i in sorted((ring.mono_deg(l), l, i) for i, l in enumerate(lcm_k)):
            if any(not (m - l) & guards for m in met):
                continue
            met.append(l)
            if l != ring.mono_mul(lts[i], ltk):
                # lcm = LT(g_i): the S-polynomial top-reduces the older g_i
                # by g_k, so it runs at g_k's degree, not at g_i's
                heapq.heappush(pairs, (ring.mono_deg(ltk) if l == lts[i] else d,
                                       l, i, k))

    for g in interreduce(gens):
        G.append(g)
        lts.append(g.leading_monomial())
        lcinvs.append(f.inv(g.leading_coeff()))
        gterms.append(g.terms)
        add_pairs(len(G) - 1)
        if ring.mono_deg(lts[-1]) == 0:
            stats.basis_size = 1
            return [ring.one()]

    while pairs:
        _, l, i, j = heapq.heappop(pairs)
        stats.max_degree_seen = max(stats.max_degree_seen, ring.mono_deg(l))
        r = _normal_form(_spolynomial(ring, l, i, j, lts, lcinvs, gterms),
                         lts, lcinvs, gterms, first_divisor)
        stats.reductions += 1
        if stats.reductions > max_reductions:
            raise BudgetExceeded("reduction budget exceeded")
        if not r:
            continue
        if ring.mono_deg(r.leading_monomial()) == 0:
            stats.basis_size = 1
            return [ring.one()]
        G.append(_monic(r))
        lts.append(r.leading_monomial())
        lcinvs.append(f.one)
        gterms.append(G[-1].terms)
        add_pairs(len(G) - 1)

    # minimalize: drop elements whose LT is divisible by another LT
    keep = []
    for i, g in enumerate(G):
        if not any(j != i and ring.mono_divides(lts[j], lts[i]) and
                   (lts[j] != lts[i] or j < i) for j in range(len(G))):
            keep.append(g)
    reduced = interreduce(keep)
    stats.basis_size = len(reduced)
    return reduced


groebner_basis.last_stats = GroebnerStats()


def spolynomials_reduce_to_zero(basis: Sequence[Poly]) -> bool:
    """Check the Buchberger criterion on a claimed Groebner basis."""
    ring = basis[0].ring
    p = _prime_field(ring, "spolynomials_reduce_to_zero")
    lts = [g.leading_monomial() for g in basis]
    lcinvs = [pow(g.leading_coeff(), -1, p) for g in basis]
    gterms = [g.terms for g in basis]
    first_divisor: dict = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            l = ring.mono_lcm(lts[i], lts[j])
            if l == ring.mono_mul(lts[i], lts[j]):
                continue
            if _normal_form(_spolynomial(ring, l, i, j, lts, lcinvs, gterms),
                            lts, lcinvs, gterms, first_divisor):
                return False
    return True


def saturate(gens: Sequence[Poly], fpoly: Poly,
             max_reductions: int = MAX_REDUCTIONS) -> list:
    """The reduced Groebner basis of I + (z*f - 1) in R[z], for I generated
    by ``gens`` in R (the Rabinowitsch trick).

    z is adjoined as the last degrevlex variable.  A generator is lifted on
    its packed monomials: the variable fields stay, z's field above them
    gets the complement 127 of exponent 0, and the degree moves up one
    field, ``(m & fields) | 127 << 8n | deg << 8(n + 1)``.

    ``is_unit_ideal`` of the result is the verdict I : f^infinity = <1>,
    that is V(I) contained in V(f): if f^k lies in I, then
    1 = (z f)^k + (1 - (z f)^k) lies in I + (z*f - 1), as 1 - (z f)^k is a
    multiple of 1 - z f; conversely, z = 1/f in a relation for 1,
    cleared of denominators, puts a power of f in I.  Whether an ideal is
    the unit ideal does not depend on the monomial order, and its reduced
    basis is then [1].  The z-free part of a degrevlex basis is not
    I : f^infinity (that needs an elimination order), so none is returned.
    ``max_reductions`` caps the one basis computation (``groebner_basis``).
    """
    ring = _common_ring([*gens, fpoly])
    ext = PolyRing(ring.field, ring.names + ("_z",))
    fields, shift, z_field = ring._fields, ring._deg_shift, _CMAX << ring._deg_shift

    def lift(g: Poly) -> Poly:
        return Poly._of(ext, {(m & fields) | z_field | (m >> shift) << ext._deg_shift: c
                              for m, c in g.terms.items()})

    lifted = [lift(g) for g in gens]
    lifted.append(ext.var(ring.nvars) * lift(fpoly) - ext.one())
    return groebner_basis(lifted, max_reductions)


def is_unit_ideal(gens: Sequence[Poly]) -> bool:
    return any(g.degree() == 0 for g in gens)
