import pathlib
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from flagdual.mutation import (RULES, CertificateError, ExceptionalCollection,
                               Symbol, apply_move,
                               certify_grassmannian_collection,
                               expected_final_labels, load_move_script,
                               replay_proof, start_collection)


def col_of(*labels):
    return ExceptionalCollection([Symbol.parse(l) for l in labels])


def test_symbol_parse_roundtrip():
    for text in ("O(1,1)", "U2(-2,0)", "Q3d(2,3)", "BlockY"):
        assert Symbol.parse(text).label() == text


def test_rule_mutation_uq():
    c = col_of("O(0,0)", "U2(0,0)")
    c2 = apply_move(c, {"move": "left", "rule": "mutationUQ", "pos": 0})
    assert c2.labels() == ["Q2(0,0)", "O(0,0)"]
    # and back
    c3 = apply_move(c2, {"move": "right", "rule": "mutationUQ", "pos": 0})
    assert c3.labels() == c.labels()


def test_rule_extension_q():
    c = col_of("Q3(0,2)", "O(1,1)")
    c2 = apply_move(c, {"move": "right", "rule": "extension_Q", "pos": 0})
    assert c2.labels() == ["O(1,1)", "Q2(0,2)"]
    c3 = apply_move(c2, {"move": "left", "rule": "extension_Q", "pos": 0})
    assert c3.labels() == c.labels()


def test_left_then_right_is_identity_everywhere():
    a, b = 1, 2
    for rule, (shift, kinds, _certified, expected) in RULES.items():
        o = f"O({a + shift[0]},{b + shift[1]})"
        for p, q in kinds:
            c = col_of(o, f"{p}({a},{b})")
            c2 = apply_move(c, {"move": "left", "rule": rule, "pos": 0})
            assert c2.labels() == [f"{q}({a},{b})", o]
            c3 = apply_move(c2, {"move": "right", "rule": rule, "pos": 0})
            assert c3.labels() == c.labels()
            for record in c3.log:
                cert = record["certificates"]
                assert cert["table"] == cert["expected"]
                assert cert["expected"] == {str(k): v for k, v in expected.items()}


def test_rule_pattern_mismatch():
    c = col_of("O(0,0)", "Q3(1,4)")
    with pytest.raises(ValueError):
        apply_move(c, {"move": "left", "rule": "mutationUQ", "pos": 0})


def test_swap_requires_vanishing():
    c = col_of("O(0,0)", "O(0,0)")
    with pytest.raises(CertificateError):
        apply_move(c, {"move": "swap", "pos": 0})


def test_swap_certified():
    c = col_of("O(0,3)", "O(1,2)")
    c2 = apply_move(c, {"move": "swap", "pos": 0})
    assert c2.labels() == ["O(1,2)", "O(0,3)"]
    cert = c2.log[-1]["certificates"]
    assert cert["forward"] == "certified-zero"
    assert cert["reverse"] == "certified-zero"


def test_normalize_certificate():
    c = col_of("Q3(1,1)")
    c2 = apply_move(c, {"move": "normalize", "pos": 0, "to": "Q3d(1,2)"})
    assert c2.labels() == ["Q3d(1,2)"]
    with pytest.raises(ValueError):
        apply_move(c, {"move": "normalize", "pos": 0, "to": "Q3d(2,2)"})


def test_rotate_full_length_is_twist():
    c = col_of("O(0,0)", "Q3(0,1)", "O(1,1)")
    c2 = apply_move(c, {"move": "rotate", "count": 3})
    assert c2.labels() == ["O(2,2)", "Q3(2,3)", "O(3,3)"]


def test_rotate_roundtrip():
    c = col_of("O(0,0)", "Q3(0,1)", "O(1,1)", "Q3(1,2)")
    c2 = apply_move(apply_move(c, {"move": "rotate", "count": 2}),
                    {"move": "rotate_back", "count": 2})
    assert c2.labels() == c.labels()


def test_rotate_conjugates_positions():
    # rotate k then normalize at i == normalize at i+k then rotate k
    c = col_of("O(0,0)", "O(0,1)", "Q3(1,1)", "O(1,2)")
    k, i = 2, 0
    rot = {"move": "rotate", "count": k}
    via1 = apply_move(apply_move(c, rot),
                      {"move": "normalize", "pos": i, "to": "Q3d(1,2)"})
    via2 = apply_move(apply_move(c, {"move": "normalize", "pos": i + k,
                                     "to": "Q3d(1,2)"}), rot)
    assert via1.labels() == via2.labels()


def test_rotate_back_moves_the_last_entries():
    # a repeated entry must not be taken for the tail
    c = col_of("O(0,0)", "O(1,1)", "O(0,0)")
    c2 = apply_move(c, {"move": "rotate_back", "count": 1})
    assert c2.labels() == ["O(-2,-2)", "O(0,0)", "O(1,1)"]


def test_block_bookkeeping_on_rotate():
    c = ExceptionalCollection([Symbol.parse(x) for x in
                               ("O(0,0)", "Q3(0,0)", "BlockY")])
    c2 = apply_move(c, {"move": "rotate", "count": 1})
    assert c2.labels() == ["Q3(0,0)", "O(2,2)", "BlockY"]
    assert c2.block_word == [("R", ("O(2,2)",))]


def test_kuznetsov_collections_certified():
    for name in ("kuznetsov25", "kuznetsov35"):
        rep = certify_grassmannian_collection(name)
        assert rep["self_ext_ok"] and rep["orthogonality_ok"], rep["failures"]


def test_start_collection_shape():
    c = start_collection()
    assert len(c) == 21
    assert c.labels()[0] == "O(0,0)" and c.labels()[-1] == "BlockY"


def test_replay_full_proof():
    rep = replay_proof()
    assert rep["ok"]
    assert rep["final_matches_display"]
    assert rep["final_labels"] == expected_final_labels()
    assert rep["start_collection_certified"]["orthogonality_ok"]
    assert rep["final_collection_certified"]["orthogonality_ok"]
    # every move in the log carries a certificate record
    assert all("certificates" in r for r in rep["log"])
    # how strong the certificates are: which reverse Ext groups the graded
    # certificate sees vanish, and the exact Ext tables the rules rest on
    certs = [(r["move"]["move"], r["certificates"]) for r in rep["log"]]
    assert Counter(c["reverse"] for m, c in certs if m == "swap") == {
        "certified-zero": 50, "inherited-from-exceptionality": 4}
    assert Counter(tuple(c["table"].items()) for m, c in certs
                   if m in ("left", "right")) == {
        (("0", 5),): 10, (("1", 1),): 6, (("0", 1),): 4}


def test_replay_aborts_on_corrupted_script():
    moves = load_move_script()
    bad = [dict(moves[0])] + [dict(m) for m in moves]
    bad[1] = {"move": "swap", "pos": 0}      # start: <Q3(0,2), O(0,3)>
    rep = replay_proof(bad)
    assert not rep["ok"]
    assert rep["failed_at"] == 1


def test_replay_reports_unknown_rule():
    moves = load_move_script()
    n = next(k for k, mv in enumerate(moves) if "rule" in mv)
    moves[n] = dict(moves[n], rule="extension_QQ")
    rep = replay_proof(moves)
    assert not rep["ok"]
    assert rep["failed_at"] == n and "unknown rule" in rep["error"]


@pytest.mark.parametrize("pos", [40, 20, -1])
def test_replay_reports_position_out_of_range(pos):
    # the start collection has 21 entries; a swap needs pos and pos + 1
    rep = replay_proof([{"move": "swap", "pos": pos}])
    assert not rep["ok"]
    assert rep["failed_at"] == 0 and "out of range" in rep["error"]


MALFORMED_MOVES = {
    "not-a-dict": "swap",
    "list": ["swap", 0],
    "no-kind": {"pos": 0},
    "unknown-kind": {"move": "shuffle", "pos": 0},
    "swap-no-pos": {"move": "swap"},
    "swap-str-pos": {"move": "swap", "pos": "0"},
    "left-no-rule": {"move": "left", "pos": 0},
    "right-no-pos": {"move": "right", "rule": "mutationUQ"},
    "normalize-no-to": {"move": "normalize", "pos": 0},
    "rotate-no-count": {"move": "rotate"},
    "rotate_back-no-count": {"move": "rotate_back"},
    "twist_all-no-b": {"move": "twist_all", "a": 1},
    "twist_all-no-a": {"move": "twist_all", "b": 1},
    "rotate-float": {"move": "rotate", "count": 2.0},
    "rotate-str": {"move": "rotate", "count": "2"},
    "rotate-minus3": {"move": "rotate", "count": -3},
    "rotate-0": {"move": "rotate", "count": 0},
    "rotate-21": {"move": "rotate", "count": 21},
    "rotate_back-0": {"move": "rotate_back", "count": 0},
    "rotate_back-minus1": {"move": "rotate_back", "count": -1},
    "rotate_back-21": {"move": "rotate_back", "count": 21},
    "expect-int": {"move": "swap", "pos": 0, "expect": 5},
    "expect-int-item": {"move": "swap", "pos": 0, "expect": ["O(0,0)", 5]},
    "rotate-expect": {"move": "rotate", "count": 1, "expect": ["nonsense"]},
}


@pytest.mark.parametrize("move", MALFORMED_MOVES.values(), ids=MALFORMED_MOVES)
def test_replay_reports_malformed_move(move):
    # the start collection has 20 bundles and a block; every one of these
    # one-move scripts is rejected before anything is applied
    rep = replay_proof([move])
    assert not rep["ok"]
    assert rep["failed_at"] == 0
    assert rep["labels"] == start_collection().labels()


def test_full_rotations_are_in_range():
    c = start_collection()
    for move in ({"move": "rotate", "count": 20},
                 {"move": "rotate_back", "count": 20}):
        assert len(apply_move(c, move).bundle_symbols) == 20


def test_move_list_regenerates_byte_for_byte(tmp_path):
    # scripts/gen_mutation_moves.py, run on a copy of scripts/ and src/,
    # writes the shipped move list again
    root = pathlib.Path(__file__).resolve().parent.parent
    for top in ("scripts", "src"):
        shutil.copytree(root / top, tmp_path / top,
                        ignore=shutil.ignore_patterns("__pycache__"))
    written = tmp_path / "src" / "flagdual" / "data" / "mutation_moves.json"
    written.unlink()
    res = subprocess.run([sys.executable, str(tmp_path / "scripts" / "gen_mutation_moves.py")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    shipped = root / "src" / "flagdual" / "data" / "mutation_moves.json"
    assert written.read_bytes() == shipped.read_bytes()
