"""Tests of the benchmark's output checks and span summary.

    python3 -m pytest perfbench/test_checks.py
"""
import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import tracer

GOLDEN = (Path(__file__).resolve().parents[1] / checks.GOLDEN_PATH).read_text()


def dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def failed(results):
    return [name for name, ok in results if not ok]


def test_golden_report_passes_every_check():
    results = checks.check_verify_report(GOLDEN, GOLDEN, 0, (2, 3), 0)
    assert failed(results) == []
    assert checks.failed_frac(results) == 0
    assert ("golden_bytes", True) in results


def test_tampered_count_fails():
    rep = json.loads(GOLDEN)
    rep["stages"]["l_equivalence_counts"]["details"]["q=3"]["X"] += 1
    results = checks.check_verify_report(dump(rep), GOLDEN, 0, (2, 3), 0)
    assert {"golden_bytes", "counts:q=3:identity_X", "counts:q=3:X_equals_Y",
            "counts:q=3:golden"} <= set(failed(results))
    assert checks.failed_frac(results) > 0


def test_tampered_count_fails_on_other_seeds():
    rep = json.loads(GOLDEN)
    rep["config"]["seed"] = 7
    rep["stages"]["l_equivalence_counts"]["details"]["q=2"]["M_via_g35"] += 1
    results = checks.check_verify_report(dump(rep), GOLDEN, 7, (2, 3), 0)
    assert failed(results) == ["counts:q=2:M_routes", "counts:q=2:identity_Y"]


@pytest.mark.parametrize("stage", ["glsm", "spaces"])
def test_stage_flipped_fails(stage):
    rep = json.loads(GOLDEN)
    rep["stages"][stage]["ok"] = False
    for seed in (0, 3):
        rep["config"]["seed"] = seed
        results = checks.check_verify_report(dump(rep), GOLDEN, seed, (2, 3), 0)
        assert f"stage_ok:{stage}" in failed(results)
        assert checks.failed_frac(results) > 0


def test_seed_free_stage_must_match_golden():
    rep = json.loads(GOLDEN)
    rep["config"]["seed"] = 5
    rep["stages"]["nonbirational"]["details"]["dim_commutant"] = 27
    results = checks.check_verify_report(dump(rep), GOLDEN, 5, (2, 3), 0)
    assert failed(results) == ["stage_golden:nonbirational"]


def test_q7_counts_checked_by_identities():
    rep = json.loads(GOLDEN)
    rep["config"]["qs"] = [2, 3, 5]
    g = checks.grassmannian_25(5)
    x = 120
    m = x * 31 + (g - x) * 6
    entry = {"q": 5, "G": g, "X": x, "Y": x, "M_via_g25": m, "M_via_g35": m,
             "M_counts_agree": True, "identity_X": True, "identity_Y": True,
             "X_equals_Y": True}
    rep["stages"]["l_equivalence_counts"]["details"]["q=5"] = entry
    results = checks.check_verify_report(dump(rep), GOLDEN, 0, (2, 3, 5), 0)
    assert failed(results) == []
    bad = copy.deepcopy(rep)
    bad["stages"]["l_equivalence_counts"]["details"]["q=5"]["G"] += 1
    results = checks.check_verify_report(dump(bad), GOLDEN, 0, (2, 3, 5), 0)
    assert set(failed(results)) == {"counts:q=5:G", "counts:q=5:identity_X",
                                    "counts:q=5:identity_Y"}


def test_missing_report_and_exit_code():
    results = checks.check_verify_report(None, GOLDEN, 0, (2, 3), 1)
    assert failed(results) == ["exit_code", "report_parses"]


def diagonal_case():
    """S = diag(1..10): its commutant is the diagonal matrices."""
    n = 10
    section = [[Fraction(i + 1) if i == j else Fraction(0) for j in range(n)]
               for i in range(n)]
    basis = [[["1" if i == j == k else "0" for j in range(n)] for i in range(n)]
             for k in range(n)]
    result = {"commutant": basis, "charpoly_squarefree": True,
              "certificate": {"status": "certified_empty", "route": "reduced"}}
    return section, result


def test_generic_checks_pass_on_a_true_commutant():
    section, result = diagonal_case()
    assert failed(checks.check_generic(section, result, 0)) == []
    assert checks.generic_at(section, 17)


def test_generic_checks_catch_tampering():
    section, result = diagonal_case()
    result["commutant"][2][0][1] = "1/2"
    assert set(failed(checks.check_generic(section, result, 0))) == {
        "commutant:symmetric", "commutant:intertwines"}
    section, result = diagonal_case()
    result["commutant"][3] = result["commutant"][4]
    assert failed(checks.check_generic(section, result, 0)) == [
        "commutant:independent"]
    section, result = diagonal_case()
    del result["commutant"][0]
    assert failed(checks.check_generic(section, result, 0)) == [
        "commutant:dim", "commutant:dim_mod_p"]
    section, result = diagonal_case()
    result["certificate"]["route"] = "rabinowitsch"
    assert failed(checks.check_generic(section, result, 0)) == ["certificate"]


def test_modular_genericity():
    section, _ = diagonal_case()
    section[1][1] = Fraction(1)              # repeated eigenvalue 1
    assert not checks.charpoly_squarefree_mod(section, 17)
    assert checks.commutant_dims_mod(section, 17) == (12, 11)   # a 2x2 block
    assert not checks.generic_at(section, 17)
    section, _ = diagonal_case()
    section[0][0] = Fraction(19)             # 19 = 2 mod 17, distinct over QQ
    assert checks.charpoly_squarefree_mod(section, 23)
    assert not checks.charpoly_squarefree_mod(section, 17)


def test_summary_self_time_and_counts():
    trace = {
        "names": ["cli.stage.spaces", "grassflag.spaces", "exactalg.rref_qq"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [2, 2.0, 4.0, 1],
                  [2, 6.0, 7.0, 0]],
        "counts": {"semistable.calls": 3, "groebner.reductions": 0,
                   "okonek.draws": 4096, "okonek.found": 2,
                   "motivic.points": 0, "motivic.max_nbytes": 0},
    }
    out = tracer.summarise(trace)
    assert out["cli.stage.spaces.s"] == 10.0
    assert out["grassflag.spaces.s"] == 2.0
    assert out["exactalg.rref_qq.s"] == 3.0
    assert out["exactalg.rref.calls"] == 2
    assert out["glsm.okonek.hit_rate"] == 2 / 4096
    assert out["cli.stages.s"] == 10.0
