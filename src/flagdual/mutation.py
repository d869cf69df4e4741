"""Formal exceptional-collection calculus on the hyperplane section M:
certified swaps, mutation rewrite rules backed by the cohomology engine,
Serre-twist rotations, and the replay of the full decomposition transport
from the G(3,5)-side collection to the G(2,5)-side one.

Blocks (the images of the two threefolds' derived categories) are opaque:
no Ext involving them is computed; moves across them are bookkeeping that
accumulates the mutation word.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .bwb import (BundleExpr, ext_on_F, ext_on_M_table,
                  ext_on_M_vanishing_certificate, on_F)


class CertificateError(RuntimeError):
    pass


_SYM_RE = re.compile(r"^([A-Za-z0-9]+)\((-?\d+),(-?\d+)\)$")


@dataclass(frozen=True)
class Symbol:
    """A collection entry: a bundle symbol with twist, or an opaque block."""
    kind: str
    twist: tuple = (0, 0)

    @property
    def is_block(self):
        return self.kind in ("BlockX", "BlockY")

    def bundle(self) -> BundleExpr:
        if self.is_block:
            raise ValueError("blocks carry no Ext data")
        return on_F(self.kind, *self.twist)

    def twisted(self, a, b) -> "Symbol":
        if self.is_block:
            return self
        return Symbol(self.kind, (self.twist[0] + a, self.twist[1] + b))

    def label(self) -> str:
        if self.is_block:
            return self.kind
        return f"{self.kind}({self.twist[0]},{self.twist[1]})"

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        if text in ("BlockX", "BlockY"):
            return cls(text)
        m = _SYM_RE.match(text)
        if not m:
            raise ValueError(f"bad symbol {text!r}")
        return cls(m.group(1), (int(m.group(2)), int(m.group(3))))

    def __repr__(self):
        return self.label()


# ---------------------------------------------------------------------------
# rewrite rules
# ---------------------------------------------------------------------------
#
# Each rule rewrites an adjacent pair.  With t the twist of the P or Q entry,
# "left" rewrites <O(t + shift), P(t)> as <Q(t), O(t + shift)>; "right" is
# the inverse rewrite.  The certificate computes one Ext on M (through the
# Koszul restriction) between two of O, P, Q and demands an exact expected
# table; the replacement itself is justified by the universal/extension
# sequences on the flag.
#
# name: (shift of O against t, ((P, Q), ...), certified pair, expected Ext_M)
RULES = {
    # mutation of U through O; Hom(U, O) = C^5 in degree 0 drives the cone
    "mutationUQ": ((0, 0), (("U2", "Q2"), ("U3", "Q3")), ("P", "O"), {0: 5}),
    # cone of the universal surjection O -> Q2
    "cone_Q2": ((0, 0), (("Q2", "U2"),), ("O", "P"), {0: 5}),
    # dual universal sequence
    "dual_mutationUQ": ((0, 0), (("U3d", "Q3d"),), ("Q", "O"), {0: 5}),
    # extension 0 -> O(a+1,b-1) -> Q2(a,b) -> Q3(a,b) -> 0
    "extension_Q": ((1, -1), (("Q2", "Q3"),), ("Q", "O"), {1: 1}),
    # sequence 0 -> U2 -> U3 -> O(1,-1) -> 0
    "extension_U": ((1, -1), (("U2", "U3"),), ("Q", "O"), {0: 1}),
    # dualized sequence 0 -> O(a-1,b+1) -> U3d(a,b) -> U2d(a,b) -> 0
    "dual_extension_U": ((-1, 1), (("U3d", "U2d"),), ("O", "P"), {0: 1}),
}


def _certify(pair, expected: dict, what: str):
    a, b = pair
    table, exact = ext_on_M_table(a.bundle(), b.bundle())
    if not exact or table != expected:
        raise CertificateError(
            f"{what}: Ext_M({a.label()}, {b.label()}) = {table} "
            f"(exact={exact}), expected {expected}")
    return {"ext_of": [a.label(), b.label()], "table": {str(k): v for k, v in table.items()},
            "expected": {str(k): v for k, v in expected.items()}}


def _apply_rule(name: str, direction: str, pair):
    """(replacement pair, certificate record) for rule ``name`` rewriting
    ``pair`` in ``direction`` ("left" or "right"); None when it does not match."""
    if name not in RULES:
        raise ValueError(f"unknown rule {name!r}")
    shift, kinds, certified, expected = RULES[name]
    o, other = pair if direction == "left" else pair[::-1]
    t = other.twist
    if o.kind != "O" or o.twist != (t[0] + shift[0], t[1] + shift[1]):
        return None
    for p, q in kinds:
        if other.kind == (p if direction == "left" else q):
            syms = {"O": o, "P": Symbol(p, t), "Q": Symbol(q, t)}
            repl = (syms["Q"], o) if direction == "left" else (o, syms["P"])
            return repl, _certify([syms[k] for k in certified], expected, name)
    return None


# determinant-twist identifications, applied by `normalize` moves
_NORMALIZE = {
    "Q3": lambda s: Symbol("Q3d", (s.twist[0], s.twist[1] + 1)),
    "Q3d": lambda s: Symbol("Q3", (s.twist[0], s.twist[1] - 1)),
    "U2d": lambda s: Symbol("U2", (s.twist[0] + 1, s.twist[1])),
    "U2": lambda s: Symbol("U2d", (s.twist[0] - 1, s.twist[1])),
}


def _weights_mod_det(expr: BundleExpr):
    out = []
    for w, m in expr.terms.items():
        out.append((tuple(x - w[4] for x in w), m))
    return sorted(out)


def _certify_normalize(a: Symbol, b: Symbol):
    """Isomorphism certificate: equal weight multisets modulo det(V)."""
    if _weights_mod_det(a.bundle()) != _weights_mod_det(b.bundle()):
        raise CertificateError(f"{a.label()} and {b.label()} are not det-twist isomorphic")
    return {"iso": [a.label(), b.label()]}


# ---------------------------------------------------------------------------
# collections and moves
# ---------------------------------------------------------------------------

ANTICANONICAL = (2, 2)      # -K_M


class ExceptionalCollection:
    """Ordered list of symbols on M; at most one opaque block, kept last.

    ``block_word`` records the moves of the block as ("R" | "L", labels) and
    ("T", (a, b)) tuples."""

    def __init__(self, symbols, block_word=()):
        self.symbols = list(symbols)
        blocks = [s for s in self.symbols if s.is_block]
        if len(blocks) > 1 or (blocks and not self.symbols[-1].is_block):
            raise ValueError("at most one block, and it must sit last")
        self.block_word = list(block_word)
        self.log: list = []

    @property
    def bundle_symbols(self):
        return [s for s in self.symbols if not s.is_block]

    def labels(self):
        return [s.label() for s in self.symbols]

    def copy(self):
        c = ExceptionalCollection(self.symbols, self.block_word)
        c.log = list(self.log)
        return c

    def __len__(self):
        return len(self.symbols)

    def __repr__(self):
        return "<" + ", ".join(self.labels()) + ">"


# the fields each kind of move needs, with their types
_MOVE_FIELDS = {
    "swap": {"pos": int},
    "left": {"pos": int, "rule": str},
    "right": {"pos": int, "rule": str},
    "normalize": {"pos": int, "to": str},
    "rotate": {"count": int},
    "rotate_back": {"count": int},
    "twist_all": {"a": int, "b": int},
}


def _check_move(col: ExceptionalCollection, move):
    """ValueError unless ``move`` is a dict naming a known move, with every
    field that move needs, a count between 1 and the number of bundles, and
    an ``expect``, if any, that is a list of str on a move with a ``pos``."""
    kind = move.get("move") if isinstance(move, dict) else None
    if not isinstance(kind, str) or kind not in _MOVE_FIELDS:
        raise ValueError(f"unknown move {move!r}")
    for name, typ in _MOVE_FIELDS[kind].items():
        if type(move.get(name)) is not typ:
            raise ValueError(f"{kind} needs {typ.__name__} {name!r}, got {move!r}")
    n = len(col.bundle_symbols)
    if "count" in _MOVE_FIELDS[kind] and not 1 <= move["count"] <= n:
        raise ValueError(f"count {move['count']} out of range 1..{n}")
    expect = move.get("expect", [])
    if type(expect) is not list or any(type(e) is not str for e in expect):
        raise ValueError(f"expect must be a list of str, got {move!r}")
    if "expect" in move and "pos" not in _MOVE_FIELDS[kind]:
        raise ValueError(f"{kind} has no pos to check an expect at, got {move!r}")


def apply_move(col: ExceptionalCollection, move: dict) -> ExceptionalCollection:
    """Apply one elementary move, appending a certificate record to the log.

    Moves: swap / left / right (rule) / normalize / rotate / rotate_back /
    twist_all.  Raises CertificateError when a certificate fails and
    ValueError on a malformed move, a mismatch, an unknown rule or an
    out-of-range position or count.
    """
    _check_move(col, move)
    col = col.copy()
    kind = move["move"]
    record = {"move": dict(move)}

    def position(count):
        pos = move["pos"]
        if not 0 <= pos <= len(col.symbols) - count:
            raise ValueError(f"position {pos} out of range for a collection "
                             f"of {len(col.symbols)}")
        if "expect" in move:
            got = [s.label() for s in col.symbols[pos:pos + count]]
            if got != move["expect"]:
                raise ValueError(f"expect mismatch at {pos}: {got} != {move['expect']}")
        return pos

    if kind == "swap":
        i = position(2)
        a, b = col.symbols[i], col.symbols[i + 1]
        if a.is_block or b.is_block:
            raise ValueError("cannot swap through a block")
        # Transposing <A, B> -> <B, A> is the zero mutation L_A B = B, valid
        # iff Ext(A, B) = 0; this direction must be certified outright.
        # Ext(B, A) = 0 is the exceptionality of the current collection
        # (established for the start collection and preserved by every valid
        # move); when the graded certificate cannot see it through an
        # extension cancellation it is recorded as inherited.
        fwd = ext_on_M_vanishing_certificate(a.bundle(), b.bundle())
        if fwd != "certified-zero":
            raise CertificateError(
                f"swap at {i}: Ext({a.label()},{b.label()}) = {fwd}")
        rev = ext_on_M_vanishing_certificate(b.bundle(), a.bundle())
        rev_status = ("certified-zero" if rev == "certified-zero"
                      else "inherited-from-exceptionality")
        col.symbols[i], col.symbols[i + 1] = b, a
        record["certificates"] = {"pair": [a.label(), b.label()],
                                  "forward": "certified-zero",
                                  "reverse": rev_status}

    elif kind in ("left", "right"):
        i = position(2)
        pair = (col.symbols[i], col.symbols[i + 1])
        if pair[0].is_block or pair[1].is_block:
            raise ValueError("rules do not apply to blocks")
        applied = _apply_rule(move["rule"], kind, pair)
        if applied is None:
            raise ValueError(f"rule {move['rule']} ({kind}) does not match "
                             f"({pair[0].label()}, {pair[1].label()}) at {i}")
        (col.symbols[i], col.symbols[i + 1]), record["certificates"] = applied

    elif kind == "normalize":
        i = position(1)
        s = col.symbols[i]
        target = Symbol.parse(move["to"])
        candidate = _NORMALIZE.get(s.kind)
        if candidate is None or candidate(s) != target:
            raise ValueError(f"no determinant-twist rewrite {s.label()} -> {move['to']}")
        record["certificates"] = _certify_normalize(s, target)
        col.symbols[i] = target

    elif kind == "rotate":
        k = move["count"]
        bundles, blocks = col.bundle_symbols, col.symbols[len(col.bundle_symbols):]
        twisted = [s.twisted(*ANTICANONICAL) for s in bundles[:k]]
        col.symbols = bundles[k:] + twisted + blocks
        # keep the block last: right-mutate it through the newcomers
        if blocks:
            col.block_word.append(("R", tuple(s.label() for s in twisted)))
            record["block"] = ["R", [s.label() for s in twisted]]
        record["certificates"] = {"serre_twist": list(ANTICANONICAL)}

    elif kind == "rotate_back":
        k = move["count"]
        bundles, blocks = col.bundle_symbols, col.symbols[len(col.bundle_symbols):]
        tail = bundles[-k:]
        twisted = [s.twisted(-ANTICANONICAL[0], -ANTICANONICAL[1]) for s in tail]
        col.symbols = twisted + bundles[:-k] + blocks
        if blocks:
            col.block_word.append(("L", tuple(s.label() for s in tail)))
            record["block"] = ["L", [s.label() for s in tail]]
        record["certificates"] = {"serre_twist": [-ANTICANONICAL[0], -ANTICANONICAL[1]]}

    else:       # twist_all
        a, b = move["a"], move["b"]
        col.symbols = [s.twisted(a, b) for s in col.symbols]
        col.block_word.append(("T", (a, b)))
        record["certificates"] = {"twist": [a, b]}

    col.log.append(record)
    return col


# ---------------------------------------------------------------------------
# named collections
# ---------------------------------------------------------------------------

# Kuznetsov's collections <O, E, O(1), E(1), ..., O(4), E(4)>: (space, E)
KUZNETSOV = {
    "kuznetsov25": ("G25", (1, 0, 0, 0, 0)),      # (5.1), E = U2*
    "kuznetsov35": ("G35", (0, 0, 0, 0, -1)),     # (5.2), E = Q3
}


def _exceptionality(items, self_ext_ok, ext_vanishes) -> dict:
    """Self-Ext = C[0] for each (tag, bundle) of ``items`` and Ext(E_i, E_j) = 0
    for i > j; a failure is recorded by the tags it involves."""
    report = {"length": len(items), "self_ext_ok": True,
              "orthogonality_ok": True, "failures": []}
    for tag, e in items:
        if not self_ext_ok(e):
            report["self_ext_ok"] = False
            report["failures"].append(("self", tag))
    for i, (tag_i, e_i) in enumerate(items):
        for tag_j, e_j in items[:i]:
            if not ext_vanishes(e_i, e_j):
                report["orthogonality_ok"] = False
                report["failures"].append(("pair", tag_i, tag_j))
    return report


def certify_grassmannian_collection(name: str) -> dict:
    """Full exceptionality certification of (5.1)/(5.2) on the Grassmannian."""
    space, e_weight = KUZNETSOV[name]
    bundles = [BundleExpr.from_weight(space, w).twist(t)
               for t in range(5) for w in ((0, 0, 0, 0, 0), e_weight)]
    return {"name": name, "space": space, **_exceptionality(
        list(enumerate(bundles)), lambda e: ext_on_F(e, e) == {0: 1},
        lambda a, b: not ext_on_F(a, b))}


def start_collection() -> ExceptionalCollection:
    """The G(3,5)-side decomposition of D^b(M): the (5.2) collection, its
    O(1,1)-twist, then the opaque block of the second threefold."""
    return ExceptionalCollection(
        [Symbol(kind, (a, a + t)) for a in (0, 1) for t in range(5)
         for kind in ("O", "Q3")] + [Symbol("BlockY")])


def expected_final_labels():
    out = []
    for b2 in (0, 1):
        for a in range(-4 + b2, b2 + 1):
            out.append(f"U2({a},{b2})")
            out.append(f"O({a},{b2})")
    out.append("BlockY")
    return out


def certify_collection_on_M(col: ExceptionalCollection) -> dict:
    """One-directional orthogonality (i > j) plus exact self-Ext = C[0] for
    the bundle part, via the Koszul certificates."""
    return _exceptionality(
        [(s.label(), s.bundle()) for s in col.bundle_symbols],
        lambda e: ext_on_M_table(e, e) == ({0: 1}, True),
        lambda a, b: ext_on_M_vanishing_certificate(a, b) == "certified-zero")


def load_move_script() -> list:
    with resources.files("flagdual.data").joinpath("mutation_moves.json").open() as fh:
        return json.load(fh)


def replay_proof(moves: list | None = None) -> dict:
    """Execute the shipped move script from the start collection; certify
    every step; check the final display."""
    if moves is None:
        moves = load_move_script()
    col = start_collection()
    start_cert = certify_collection_on_M(col)
    counts = dict.fromkeys(_MOVE_FIELDS, 0)
    for n, mv in enumerate(moves):
        try:
            col = apply_move(col, mv)
        except (CertificateError, ValueError) as exc:
            return {"ok": False, "failed_at": n, "move": mv, "error": str(exc),
                    "labels": col.labels()}
        counts[mv["move"]] += 1
    final_ok = col.labels() == expected_final_labels()
    final_cert = certify_collection_on_M(col)
    return {
        "ok": final_ok and start_cert["orthogonality_ok"]
              and start_cert["self_ext_ok"] and final_cert["orthogonality_ok"]
              and final_cert["self_ext_ok"],
        "final_matches_display": final_ok,
        "start_collection_certified": start_cert,
        "final_collection_certified": final_cert,
        "move_counts": counts,
        "moves_applied": len(moves),
        "word": col.block_word,
        "final_labels": col.labels(),
        "log_size": len(col.log),
        "log": col.log,
    }


def replay_summary(rep: dict) -> dict:
    """A ``replay_proof`` report without its step log."""
    return {k: v for k, v in rep.items() if k != "log"}


def verify_replay() -> dict:
    """The shipped move script replays with every step certified."""
    rep = replay_proof()
    return {"ok": rep["ok"], "details": replay_summary(rep)}
