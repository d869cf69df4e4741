import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from flagdual import bwb, cli
from flagdual.cli import STAGES, RunConfig, main, verify_paper
from flagdual.exactalg import GF, QQ, Mat, format_matrix
from flagdual.glsm import okonek_scan
from flagdual.grassflag import flag_ideal_space, random_hf_section, script_matrix

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_script_matrix.json"


@pytest.fixture()
def runner():
    return CliRunner()


def test_duality_build(runner, tmp_path):
    res = runner.invoke(main, ["duality", "build", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    quad = (tmp_path / "quadrics.txt").read_text().strip().splitlines()
    quint = (tmp_path / "quintics.txt").read_text().strip().splitlines()
    assert len([l for l in quad if not l.startswith("#")]) == 5
    assert len([l for l in quint if not l.startswith("#")]) == 3


@pytest.mark.parametrize("field, quadrics, quintics", [
    ("17", "479e48aff248a2d4a012eb7fa9575ba7f51b03c4d5d012d8e2f22ae25e7a3bd8",
     "2325019edda1c18c7cc65b84040b8033b1a2ae5898976c1b537cb39de439d92a"),
    ("qq", "781c235ea93c9865ecb2563606157617759abdea760407e4e0b951c53ce91901",
     "369db3997a713fc9f87f349828f24e3db63ea312e66336e09c8071f7a4787542"),
])
def test_duality_build_output_is_pinned(runner, tmp_path, field, quadrics, quintics):
    # sha256 of both files for the script matrix: the header and every term
    res = runner.invoke(main, ["duality", "build", "--field", field, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("quadrics.txt", "quintics.txt")}
    assert digest == {"quadrics.txt": quadrics, "quintics.txt": quintics}


def test_duality_nonbirational(runner, tmp_path):
    out = tmp_path / "cert.json"
    res = runner.invoke(main, ["duality", "nonbirational", "--prime", "17",
                               "--report", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["status"] == "certified_empty"
    assert rep["saturation_result"] == "unit"
    assert {"status", "dim_commutant", "symmetric", "saturation_result"} <= set(rep)


def test_duality_selfdual(runner):
    res = runner.invoke(main, ["duality", "selfdual", "--samples", "20"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["all_non_selfdual"]


def test_bwb_cohomology(runner):
    res = runner.invoke(main, ["bwb", "cohomology", "--space", "F",
                               "--weight", "2,2|1|0,0"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"0": 75}


def test_bwb_lemma_grid(runner):
    res = runner.invoke(main, ["bwb", "lemma", "--name", "vanishingQO",
                               "--range", "0..7"])
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output


@pytest.mark.parametrize("args", [
    ["lemma", "--name", "vanishingQO", "--range", "0..x"],
    ["lemma", "--name", "vanishingQO", "--range", "3"],
    ["lemma", "--name", "vanishingQO", "--range", "5..2"],
    ["lemma", "--name", "vanishingQO", "--range", "1..2..3"],
    ["cohomology", "--space", "F", "--weight", "2,2|x|0,0"],
    ["cohomology", "--space", "F", "--weight", "2,2|1|0"],
    ["cohomology", "--space", "G25", "--weight", "1,0,0,0,0,0"],
], ids=["range-non-integer", "range-no-dots", "range-empty", "range-three-parts",
        "weight-non-integer", "weight-short", "weight-long"])
def test_bad_bwb_arguments_are_usage_errors(runner, args):
    res = runner.invoke(main, ["bwb"] + args)
    assert res.exit_code == 2, res.output
    assert "Invalid value" in res.output


def test_bwb_lemma_range_is_inclusive(runner):
    res = runner.invoke(main, ["bwb", "lemma", "--name", "vanishingOO",
                               "--range", "-2..-2"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[0].startswith("a=-2 ")
    assert len(res.output.splitlines()) == 2


@pytest.mark.parametrize("name", ["vanishingOO", "vanishingQO"])
def test_bwb_lemma_at_large_twists(runner, name):
    # the Ext groups at a = 490 have blocks (a + 4, a + 4) of 2a + 8 boxes;
    # the weights of a block are enumerated without recursing per box
    res = runner.invoke(main, ["bwb", "lemma", "--name", name,
                               "--range", "490..495"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[-1] == "PASS"


def test_mutations_replay(runner, tmp_path):
    out = tmp_path / "log.json"
    res = runner.invoke(main, ["mutations", "replay", "--log", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["final_matches_display"]
    assert len(rep["log"]) == rep["moves_applied"]


def test_mutations_check_collection(runner):
    res = runner.invoke(main, ["mutations", "check-collection",
                               "--name", "kuznetsov25"])
    assert res.exit_code == 0, res.output


def test_motivic_commands(runner, tmp_path):
    out = tmp_path / "count.json"
    res = runner.invoke(main, ["motivic", "count", "--q", "2",
                               "--report", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["identity_X"] and rep["identity_Y"] and rep["X_equals_Y"]
    assert runner.invoke(main, ["motivic", "degree"]).exit_code == 0
    assert runner.invoke(main, ["motivic", "l-relation"]).exit_code == 0


@pytest.mark.parametrize("args", [
    ["motivic", "count", "--q", "4"],
    ["motivic", "count", "--q", "x"],
    ["verify-paper", "--qs", "2,x"],
    ["verify-paper", "--qs", "4"],
    ["verify-paper", "--qs", "2,1"],
    ["duality", "nonbirational", "--prime", "4"],
    ["duality", "nonbirational", "--prime", "10000000000000000000000013"],  # too large to test
    ["duality", "nonbirational", "--prime", "3"],       # no invariant complement
    ["duality", "build", "--field", "4"],
    ["duality", "build", "--field", "x"],
    ["duality", "selfdual", "--field", "x"],
    ["duality", "selfdual", "--field", "3"],            # no invariant complement
    ["glsm", "stability", "--field", "4"],
    ["glsm", "stability", "--field", "x"],
    ["duality", "selfdual", "--samples", "0"],
    ["glsm", "stability", "--samples", "-3"],
    ["duality", "nonbirational", "--budget", "0"],     # no Groebner step allowed
    ["duality", "nonbirational", "--budget", "-1"],
    ["verify-paper", "--budget", "0"],
    ["verify-paper", "--qs", "2,2"],                   # one field counted twice
    ["duality", "selfdual", "--field", "2"],           # no unique invariant complement
    ["duality", "nonbirational", "--prime", "2"],       # no symmetric/antisymmetric split
])
def test_field_sizes_must_be_prime(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "Invalid value" in res.output


@pytest.mark.parametrize("text", [
    "1 2 3\n4 5 6\n",
    "\n".join(" ".join(["1"] * (9 if r == 4 else 10)) for r in range(10)),
    "\n".join(" ".join(["x"] + ["1"] * 9) for _ in range(10)),
    "\n".join(" ".join(["1/0"] + ["1"] * 9) for _ in range(10)),
], ids=["2x3", "ragged", "non-numeric", "zero-denominator"])
@pytest.mark.parametrize("command", [
    ["duality", "nonbirational"], ["motivic", "count", "--q", "2"],
    ["verify-paper"],
])
def test_bad_section_file_is_a_usage_error(runner, tmp_path, text, command):
    path = tmp_path / "S.mat"
    path.write_text(text)
    res = runner.invoke(main, command + ["--section", str(path)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--section'" in res.output


def test_glsm_stability_sampling(runner, tmp_path):
    out = tmp_path / "glsm.json"
    res = runner.invoke(main, ["glsm", "stability", "--chamber", "minus",
                               "--samples", "50", "--seed", "7",
                               "--report", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["stats"]["semistable"] > 0


def test_glsm_stability_point_input(runner, tmp_path):
    pt = tmp_path / "point.mat"
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    pt.write_text("\n".join(" ".join(str(x) for x in r) for r in rows) + "\n")
    res = runner.invoke(main, ["glsm", "stability", "--chamber", "minus",
                               "--point", str(pt)])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["point"]["semistable"] is False      # omega = 0
    assert rep["point"]["instability"]["valid"]


@pytest.mark.parametrize("chamber", ["plus", "minus"])
def test_glsm_stability_point_at_a_singular_point_of_Y(runner, tmp_path, chamber):
    # B is the first point of Y(F_7) of the script matrix whose Jacobian
    # has rank < 3, and omega lies in its left kernel: dW = 0 in both chambers
    pt = tmp_path / "point.mat"
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [1, 0, 0]]
    pt.write_text("\n".join(" ".join(str(x) for x in r) for r in rows) + "\n")
    res = runner.invoke(main, ["glsm", "stability", "--field", "7", "--chamber", chamber,
                               "--point", str(pt)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["point"] == {"semistable": True, "critical": True}


def test_glsm_stability_echoes_only_the_options_it_ran(runner, tmp_path):
    # --samples and --seed drive the sampling run only, not a --point run
    pt = tmp_path / "point.mat"
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [1, 0, 0]]
    pt.write_text("\n".join(" ".join(str(x) for x in r) for r in rows) + "\n")
    args = ["glsm", "stability", "--field", "7", "--samples", "20", "--seed", "3"]
    point = json.loads(runner.invoke(main, args + ["--point", str(pt)]).output)
    sampled = json.loads(runner.invoke(main, args).output)
    assert "point" in point and not {"samples", "seed"} & set(point)
    assert "stats" in sampled and (sampled["samples"], sampled["seed"]) == (20, 3)


def test_glsm_stability_help_describes_the_command(runner):
    res = runner.invoke(main, ["glsm", "stability", "--help"])
    assert res.exit_code == 0
    assert "dW = 0" in res.output and "stats.critical" in res.output
    # the sampling path's certificates run only on a small field
    text = " ".join(res.output.split())
    assert "probability about q^-3" in text and "--field 3 draws unstable points" in text


@pytest.mark.parametrize("chamber", ["plus", "minus"])
@pytest.mark.parametrize("field", ["13", "3"])
def test_glsm_stability_certifies_every_unstable_sample(runner, chamber, field):
    # the identity the help states; over GF(13) a random point is unstable
    # with probability about 13^-3, so GF(3) is what draws unstable ones
    res = runner.invoke(main, ["glsm", "stability", "--field", field,
                               "--chamber", chamber, "--samples", "300"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    stats = rep["stats"]
    assert stats["unstable_certified"] == rep["samples"] - stats["semistable"]
    assert stats["unstable_certified"] > 0 or field == "13"
    help_text = runner.invoke(main, ["glsm", "stability", "--help"]).output
    assert "stats.unstable_certified" in help_text


@pytest.mark.parametrize("text", [
    "1 0 0\n0 1 0\n",
    "\n".join(["1 0 0 0"] * 6),
    "\n".join(["x 0 0"] + ["1 0 0"] * 5),
], ids=["2-rows", "6x4", "non-numeric"])
def test_bad_point_file_is_a_usage_error(runner, tmp_path, text):
    pt = tmp_path / "point.mat"
    pt.write_text(text)
    res = runner.invoke(main, ["glsm", "stability", "--point", str(pt)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--point'" in res.output


def test_custom_section_file(runner, tmp_path):
    rng = random.Random(5)
    s = random_hf_section(GF(17), rng)
    path = tmp_path / "S.mat"
    path.write_text(format_matrix(s.mat))
    res = runner.invoke(main, ["duality", "nonbirational", "--prime", "17",
                               "--section", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["route"] == "reduced"


def test_verify_paper_matches_golden(runner, tmp_path):
    out = tmp_path / "verify.json"
    res = runner.invoke(main, ["verify-paper", "--report", str(out)])
    assert res.exit_code == 0, res.output
    got = json.loads(out.read_text())
    expected = json.loads(GOLDEN.read_text())
    assert got == expected


def test_verify_paper_q7_report_is_pinned(runner, tmp_path):
    # sha256 of the --qs 2,3,5,7 report: the q = 5, 7 counts and every
    # seeded stage, which the golden report (q = 2, 3) does not cover
    out = tmp_path / "verify.json"
    res = runner.invoke(main, ["verify-paper", "--qs", "2,3,5,7", "--report", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c72a5596f2ecfee9470f19bcee4dc12a2605c438c10933e89ab29437ebe86706")


def test_failed_stage_records_type_and_place(monkeypatch):
    # the middle stage raises a KeyError inside the package; the stages
    # around it still run
    ran = []

    def passing(name):
        def stage(cfg, rng):
            ran.append(name)
            return {"ok": True, "details": {}}
        return stage

    monkeypatch.setattr(cli, "STAGES", [
        ("spaces", passing("spaces")),
        ("bwb_lemmas", lambda cfg, rng: bwb.on_F("no-such-bundle", 0, 0)),
        ("glsm", passing("glsm"))])
    report = verify_paper(RunConfig())
    assert ran == ["spaces", "glsm"]
    assert not report["ok"]
    failed = report["stages"]["bwb_lemmas"]
    assert failed["ok"] is False
    details = failed["details"]
    assert details["error"] == "'no-such-bundle'"
    assert details["error_type"] == "KeyError"
    module, line = details["where"].split(":")
    assert module == "bwb.py"
    source = pathlib.Path(bwb.__file__).read_text().splitlines()
    assert "F_BUNDLES[kind]" in source[int(line) - 1]


def test_verify_paper_redraws_a_singular_section(runner):
    # seed 4007 is the first from 4001 on whose first generic section has a
    # singular F_7-point, so the glsm stage draws a second one
    res = runner.invoke(main, ["verify-paper", "--seed", "4007"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["stages"]["glsm"]["details"]["okonek_generic"]["draws"] == 2


def test_golden_script_scan_is_the_scan_of_the_script_matrix():
    glsm = json.loads(GOLDEN.read_text())["stages"]["glsm"]["details"]
    assert glsm["okonek_script_matrix"] == okonek_scan(script_matrix(GF(7)), 7)


def test_section_not_reducing_mod_7_keeps_the_glsm_stage(runner, tmp_path):
    rows = [list(r) for r in script_matrix(QQ).mat.data]
    rows[0][0] = Fraction(1, 7)
    path = tmp_path / "S.mat"
    path.write_text(format_matrix(Mat(QQ, rows)))
    res = runner.invoke(main, ["verify-paper", "--section", str(path)])
    glsm = json.loads(res.output)["stages"]["glsm"]
    assert glsm["ok"], glsm
    assert glsm["details"]["okonek_script_matrix"] == {
        "prime": 7, "error": "inverse of 0 in GF(7)"}
    assert glsm["details"]["x_two_routes"]["agree"]


@pytest.mark.parametrize("args", [
    ["motivic", "count", "--q", "1000000000000000003"],
    ["motivic", "count", "--q", "450001"],
    ["verify-paper", "--qs", "2,450001"],
    ["motivic", "count", "--q", "44809"],        # the first prime >= Q_LIMIT
])
def test_count_q_above_int64_bound_is_a_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "the bound of exact float64 counting" in res.output


@pytest.mark.parametrize("args", [["--field", "17"], ["--samples", "5"]])
def test_verify_paper_has_no_field_option(runner, args):
    res = runner.invoke(main, ["verify-paper", *args])
    assert res.exit_code == 2, res.output
    assert "No such option" in res.output


@pytest.mark.parametrize("cfg, moved", [
    (RunConfig(qs=(2, 3, 5)), ("config.qs", "stages.l_equivalence_counts.details.q=5.")),
    (RunConfig(budget=5), ("config.budget", "stages.nonbirational.", "ok")),
])
def test_an_option_moves_only_the_stages_that_read_it(cfg, moved):
    # each stage draws from its own stream: against the golden report, --qs
    # adds the q = 5 counts and moves no glsm draw, and --budget moves only
    # the certificate and the verdict
    spec = importlib.util.spec_from_file_location(
        "golden_diff", GOLDEN.parents[2] / "scripts" / "golden_diff.py")
    golden_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden_diff)
    old = golden_diff.leaves(json.loads(GOLDEN.read_text()))
    new = golden_diff.leaves(json.loads(json.dumps(verify_paper(cfg))))
    missing = object()
    changed = {k for k in old.keys() | new.keys() if old.get(k, missing) != new.get(k, missing)}

    def under(key, prefix):
        return key == prefix or key.startswith(prefix)

    assert all(any(under(k, m) for m in moved) for k in changed), changed
    assert all(any(under(k, m) for k in changed) for m in moved), changed


def test_golden_diff_fails_only_on_changed_or_removed_keys(tmp_path):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "golden_diff.py"

    def diff(edit):
        doc = json.loads(GOLDEN.read_text())
        edit(doc["stages"]["spaces"])
        new = tmp_path / "new.json"
        new.write_text(json.dumps(doc))
        return subprocess.run([sys.executable, str(script), str(GOLDEN), str(new)],
                              capture_output=True, text=True)

    added = diff(lambda stage: stage["details"].update(extra=1))
    assert added.returncode == 0, added.stdout
    assert "added    stages.spaces.details.extra = 1" in added.stdout
    assert diff(lambda stage: stage.pop("details")).returncode == 1
    changed = diff(lambda stage: stage.update(ok=False))
    assert changed.returncode == 1
    assert "changed  stages.spaces.ok: true -> false" in changed.stdout


def test_golden_config_is_the_run_config():
    config = json.loads(GOLDEN.read_text())["config"]
    assert sorted(config) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert config == json.loads(json.dumps(dataclasses.asdict(RunConfig())))


def test_budget_ignores_environment(runner, monkeypatch):
    # --budget alone caps the certificate's one saturation; running out keeps
    # the route that ran out and the commutant facts
    monkeypatch.setenv("FLAGDUAL_BUDGET", "1000000000")
    res = runner.invoke(main, ["duality", "nonbirational", "--budget", "5"])
    assert res.exit_code == 1, res.output
    rep = json.loads(res.output)
    assert rep["status"] == "budget_exceeded"
    assert rep["route"] == "rabinowitsch"
    assert rep["saturation_result"] == "not-computed"
    assert rep["dim_commutant"] == 28


@pytest.mark.parametrize("command", [
    ["motivic", "count", "--q", "2", "--report"],
    ["mutations", "replay", "--log"],
    ["verify-paper", "--report"],
])
def test_output_in_missing_directory_is_a_usage_error(runner, tmp_path, monkeypatch,
                                                      command):
    # rejected while the options are read: no stage runs, nothing is written
    def no_run(*_):
        raise AssertionError("the command ran")

    monkeypatch.setattr("flagdual.cli.verify_paper", no_run)
    monkeypatch.setattr("flagdual.motivic.fibration_report", no_run)
    monkeypatch.setattr("flagdual.mutation.replay_proof", no_run)
    res = runner.invoke(main, command + [str(tmp_path / "missing" / "out.json")])
    assert res.exit_code == 2, res.output
    assert "no such directory" in res.output
    assert not (tmp_path / "missing").exists()
    res = runner.invoke(main, command + [str(tmp_path)])     # a directory, not a file
    assert res.exit_code == 2, res.output


def test_build_into_a_file_is_a_usage_error(runner, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    res = runner.invoke(main, ["duality", "build", "--out", str(afile)])
    assert res.exit_code == 2, res.output
    assert "is a file" in res.output
    assert afile.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_selfdual_stage_scans_given_section(tmp_path):
    # a section in the flag ideal projects to zero, which every duality map
    # identifies with itself; the published one no random map hits, and both
    # of its controls S +- iota_0(S) hit through their own map
    ideal = flag_ideal_space(GF(17))
    path = tmp_path / "ideal.txt"
    path.write_text(format_matrix(ideal.basis[3] + ideal.basis[11]))
    stage = dict(STAGES)["selfdual_scan"]
    rep = stage(RunConfig(section=str(path)), random.Random(0))
    assert rep == {"ok": False, "details": {"selfdual_hits": 100, "controls_hit": True}}
    rep = stage(RunConfig(), random.Random(0))
    assert rep == {"ok": True, "details": {"selfdual_hits": 0, "controls_hit": True}}


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py wraps flagdual functions by name; installing it
    # fails on any hooked name that no longer exists
    root = pathlib.Path(__file__).resolve().parent.parent
    # and the glsm.okonek hook reads the "found" of the installed scan
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "t = tracer.Tracer(); tracer.install(t); "
            "from flagdual import glsm, grassflag, exactalg; "
            "glsm.okonek_scan(grassflag.script_matrix(exactalg.GF(5)), 5); "
            "assert t.counts['okonek.found'] > 0, t.counts")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_benchmark_generic_pass_passes_its_checks(tmp_path):
    # one generic_sections pass of perfbench/run.py, graded by its checks:
    # a break in what perfbench/child.py calls fails here, not only as a
    # failed benchmark workload
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("checks", root / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    child = str(root / "perfbench" / "child.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    setup = subprocess.run([sys.executable, child, "setup", "-"], env=env,
                           capture_output=True, text=True)
    assert (setup.returncode, setup.stdout) == (0, "ready\n"), setup.stderr
    s = random_hf_section(QQ, random.Random(3))
    assert checks.generic_at(s.mat.data, 17)
    section, out = tmp_path / "section.txt", tmp_path / "generic.json"
    section.write_text(format_matrix(s.mat))
    res = subprocess.run([sys.executable, child, "generic", str(section), str(out)],
                         env=env, capture_output=True, text=True)
    result = json.loads(out.read_text()) if out.exists() else None
    found = checks.check_generic(s.mat.data, result, res.returncode)
    assert len(found) == 8
    assert [name for name, ok in found if not ok] == [], res.stderr
    # the same commutant basis, in the same order, and the same certificate
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2620326568202f7ab6e343f98f24ee2fc6a2219a4e0a404f09c130a5c42ac069")


def test_stage_names_match_benchmark_tracer():
    # perfbench/tracer.py reports per-stage times under these names; a
    # renamed or reordered stage would read 0 s there
    root = pathlib.Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "perfbench" / "tracer.py").read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "STAGE_NAMES")
    assert [n for n, _ in STAGES] == list(names)


POINT_SCANS = ("numpy", "flagdual.glsm", "flagdual.motivic")
# loaded by their own commands and stages only, like the point scans
LAZY = ("flagdual.bwb", "flagdual.mutation")


def _loaded_after(code: str, modules: tuple) -> list:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = f"\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
    res = subprocess.run([sys.executable, "-c", code + probe], cwd=root, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return ast.literal_eval(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("args", [
    None,
    ["--help"],
    ["duality", "nonbirational", "--section", "{section}", "--report", "{report}"],
    ["duality", "selfdual"],
    ["bwb", "lemma", "--name", "vanishingQO"],
    ["mutations", "check-collection", "--name", "kuznetsov25"],
    ["duality", "build", "--out", "{tmp}"],
], ids=["import", "help", "nonbirational", "selfdual", "bwb-lemma",
        "check-collection", "build"])
def test_exact_algebra_commands_run_without_numpy(tmp_path, args):
    # only the F_q point scans need numpy; None is the bare import of the CLI,
    # which, like the certificate, also loads neither bwb nor mutation
    section, report = tmp_path / "section.txt", tmp_path / "report.json"
    section.write_text(format_matrix(random_hf_section(QQ, random.Random(3)).mat))
    code = "from flagdual import cli\n"
    if args is not None:
        argv = [a.format(section=section, report=report, tmp=tmp_path) for a in args]
        code += (f"try:\n    cli.main({argv!r}, standalone_mode=False)\n"
                 "except SystemExit as exc:\n    assert not exc.code, exc.code\n")
    lazy = LAZY if args is None or "nonbirational" in args else ()
    assert _loaded_after(code, POINT_SCANS + lazy) == []
    if "nonbirational" in (args or []):
        assert json.loads(report.read_text())["status"] == "certified_empty"


def test_verify_paper_loads_the_point_scans():
    code = "from flagdual.cli import RunConfig, verify_paper\nverify_paper(RunConfig())"
    assert _loaded_after(code, POINT_SCANS + LAZY) == list(POINT_SCANS + LAZY)
