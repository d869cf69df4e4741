"""Command-line interface: one binary exposing every verification pipeline
with reproducible seeds and deterministic JSON reports.

Reports carry a schema tag, the exact input matrix, and the convention
constants (pair order, the sign table of the wedge-identification, the
pushforward normalization); identical configurations produce byte-identical
reports.
"""
from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import asdict, dataclass, field as dc_field

import click

from . import bwb as bwb_mod
from . import glsm as glsm_mod
from . import motivic as motivic_mod
from . import mutation as mutation_mod
from .exactalg import (GF, QQ, Budget, Mat, field_from_spec, format_matrix,
                       parse_matrix)
from .duality import (nonbirational_certificate, pushforward_to_g25,
                      pushforward_to_g35, section_of_fiber_point,
                      selfdual_test)
from .grassflag import (D_SIGN, PAIRS, DualityMap, SectionMatrix,
                        flag_ideal_space, hf_project, hf_space, iota_action,
                        random_grass_point, random_hf_section, script_matrix)

SCHEMA = "flagdual-report/1"


@dataclass
class RunConfig:
    """Everything that determines a verification run; equal configs give
    byte-identical reports."""
    field: str = "17"
    seed: int = 0
    samples: int = 200
    budget: int = 2_000_000          # Groebner reduction cap
    qs: tuple = (2, 3)
    report: str | None = None
    section: str | None = None       # path; None = published script matrix

    def budget_obj(self) -> Budget:
        return Budget(max_reductions=self.budget, max_seconds=1800)


def conventions_block() -> dict:
    return {
        "pair_order": [list(p) for p in PAIRS],
        "triple_to_pair_sign": {"".join(map(str, t)): s for t, s in D_SIGN.items()},
        "pushforward_normalization": 1,
        "anticanonical_twist": [2, 2],
        "published_matrix_basis": "colexicographic (converted on ingestion)",
    }


def load_section(cfg: RunConfig, field) -> SectionMatrix:
    if cfg.section:
        with open(cfg.section) as fh:
            return SectionMatrix(parse_matrix(fh.read(), field))
    return script_matrix(field)


def emit_report(report: dict, path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


@click.group()
def main():
    """Verification workbench for dual threefold pairs in G(2,5) and G(3,5)."""


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

@main.group()
def duality():
    """Pushforwards, self-duality, non-birationality certificate."""


@duality.command("build")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--field", "field_spec", default="17")
@click.option("--out", type=click.Path(), default=".")
def duality_build(section, field_spec, out):
    """Emit the five quadrics and three quintics as polynomial text files."""
    f = field_from_spec(field_spec)
    cfg = RunConfig(field=field_spec, section=section)
    s = load_section(cfg, f)
    qs = pushforward_to_g25(s)
    st = pushforward_to_g35(s)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "quadrics.txt"), "w") as fh:
        fh.write(f"# quadrics on G(2,5), variables {qs.ring.names}\n")
        for q in qs.quadrics:
            fh.write(q.format() + "\n")
    with open(os.path.join(out, "quintics.txt"), "w") as fh:
        fh.write(f"# quintics on Hom(C^3,V5), variables {st.ring.names}\n")
        for q in st.components:
            fh.write(q.format() + "\n")
    click.echo(f"wrote quadrics.txt and quintics.txt to {out}")


@duality.command("selfdual")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--field", "field_spec", default="17")
@click.option("--samples", default=100)
@click.option("--seed", default=0)
@click.option("--report", type=click.Path(), default=None)
def duality_selfdual(section, field_spec, samples, seed, report):
    """Scan random duality maps for the self-duality identity."""
    f = field_from_spec(field_spec)
    cfg = RunConfig(field=field_spec, section=section)
    s = hf_project(load_section(cfg, f))
    rng = random.Random(seed)
    hits = []
    for n in range(samples):
        dm = DualityMap.random(f, rng)
        if selfdual_test(s, dm):
            hits.append(n)
    rep = {"schema": SCHEMA, "selfdual_hits": hits, "samples": samples,
           "all_non_selfdual": not hits,
           "matrix": [[str(x) for x in row] for row in s.mat.data],
           "conventions": conventions_block()}
    emit_report(rep, report)
    sys.exit(0 if not hits else 1)


@duality.command("nonbirational")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--prime", default=17)
@click.option("--budget", default=2_000_000)
@click.option("--route", default="auto",
              type=click.Choice(["auto", "reduced", "full", "rabinowitsch"]))
@click.option("--report", type=click.Path(), default=None)
def duality_nonbirational(section, prime, budget, route, report):
    """Emptiness certificate for the linear-isomorphism equation."""
    cfg = RunConfig(field=str(prime), section=section, budget=budget)
    f = GF(prime)
    s = load_section(cfg, f)
    rep = nonbirational_certificate(s, prime, cfg.budget_obj(), route=route)
    out = {"schema": SCHEMA, **rep.as_dict(),
           "matrix": [[str(x) for x in row] for row in s.mat.data],
           "conventions": conventions_block()}
    emit_report(out, report)
    sys.exit(0 if rep.status == "certified_empty" else 1)


# ---------------------------------------------------------------------------
# bwb
# ---------------------------------------------------------------------------

@main.group()
def bwb():
    """Cohomology engine queries and lemma grids."""


@bwb.command("cohomology")
@click.option("--space", type=click.Choice(["G25", "G35", "F"]), required=True)
@click.option("--weight", required=True, help='e.g. "2,2|1|0,0"')
def bwb_cohomology(space, weight):
    entries = []
    for seg in weight.split("|"):
        entries.extend(int(x) for x in seg.split(","))
    table = bwb_mod.cohomology_table(
        bwb_mod.BundleExpr.from_weight(space, tuple(entries)))
    click.echo(json.dumps({str(k): v for k, v in sorted(table.items())}) or "{}")


@bwb.command("lemma")
@click.option("--name", type=click.Choice(["vanishingQO", "vanishingOO"]),
              required=True)
@click.option("--range", "arange", default="0..7")
def bwb_lemma(name, arange):
    """Print the pass/fail grid of a vanishing lemma over the stated band."""
    lo, hi = (int(x) for x in arange.split(".."))
    ok = True
    for a in range(lo, hi + 1):
        row = []
        for b in range(0, 16):
            if name == "vanishingQO":
                expected = (2 + a <= b <= 7 + a) and b != 3 + a
                got = bwb_mod.vanishing_QO(a, b)
            else:
                expected = 3 + a <= b <= 7 + a
                got = bwb_mod.vanishing_OO(a, b)
            row.append("." if got == expected else "X")
            ok &= got == expected
        click.echo(f"a={a:2d}  " + "".join(row))
    click.echo("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

@main.group()
def mutations():
    """Certified mutation replay."""


@mutations.command("replay")
@click.option("--log", "log_path", type=click.Path(), default=None)
def mutations_replay(log_path):
    """Replay the decomposition transport; emit the certified step log."""
    rep = mutation_mod.replay_proof()
    out = {"schema": SCHEMA, **rep}
    if log_path:
        with open(log_path, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
    summary = {k: v for k, v in rep.items() if k != "log"}
    click.echo(json.dumps(summary, indent=2, sort_keys=True, default=str))
    sys.exit(0 if rep["ok"] else 1)


@mutations.command("check-collection")
@click.option("--name", type=click.Choice(["kuznetsov25", "kuznetsov35"]),
              required=True)
def mutations_check(name):
    rep = mutation_mod.certify_grassmannian_collection(name)
    click.echo(json.dumps(rep, indent=2, sort_keys=True, default=str))
    sys.exit(0 if rep["self_ext_ok"] and rep["orthogonality_ok"] else 1)


# ---------------------------------------------------------------------------
# motivic
# ---------------------------------------------------------------------------

def _prime(q: int) -> int:
    """q itself if it is prime; point counts run over prime fields only."""
    try:
        GF(q)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    return q


def _prime_option(_ctx, _param, value: int) -> int:
    return _prime(value)


def _prime_list_option(_ctx, _param, value: str) -> tuple:
    try:
        qs = [int(q) for q in value.split(",")]
    except ValueError:
        raise click.BadParameter(
            f"{value!r} is not a comma-separated list of primes") from None
    return tuple(_prime(q) for q in qs)


@main.group()
def motivic():
    """Point counting, degree check, the L-relation."""


@motivic.command("count")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--q", default=3, callback=_prime_option)
@click.option("--report", type=click.Path(), default=None)
def motivic_count(section, q, report):
    cfg = RunConfig(field=str(q), section=section)
    s = load_section(cfg, GF(q))
    rep = motivic_mod.fibration_report(s, q)
    out = {"schema": SCHEMA, **rep,
           "matrix": [[str(x) for x in row] for row in s.mat.data]}
    emit_report(out, report)
    sys.exit(0 if rep["identity_X"] and rep["identity_Y"] and rep["X_equals_Y"] else 1)


@motivic.command("degree")
def motivic_degree():
    d = motivic_mod.degree_check()
    click.echo(json.dumps({"degree": d, "expected": 25, "ok": d == 25}))
    sys.exit(0 if d == 25 else 1)


@motivic.command("l-relation")
def motivic_l_relation():
    rel = motivic_mod.derive_l_relation()
    ok = rel == motivic_mod.l_relation_expected()
    click.echo(json.dumps({"relation": repr(rel),
                           "equals_([X]-[Y])L^2": ok}))
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# glsm
# ---------------------------------------------------------------------------

@main.group()
def glsm():
    """Two-phase model: stability, certificates, critical loci."""


@glsm.command("stability")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--field", "field_spec", default="13")
@click.option("--chamber", type=click.Choice(["plus", "minus"]), default="minus")
@click.option("--samples", default=1000)
@click.option("--seed", default=7)
@click.option("--point", "point_path", type=click.Path(exists=True), default=None,
              help="file with 5 rows of B then one row omega")
@click.option("--report", type=click.Path(), default=None)
def glsm_stability(section, field_spec, chamber, samples, seed, point_path, report):
    f = field_from_spec(field_spec)
    cfg = RunConfig(field=field_spec, section=section)
    s = load_section(cfg, f)
    rng = random.Random(seed)
    out = {"schema": SCHEMA, "chamber": chamber, "samples": samples,
           "seed": seed, "conventions": conventions_block()}
    if point_path:
        with open(point_path) as fh:
            m = parse_matrix(fh.read(), f)
        pt = glsm_mod.GLSMPoint(Mat(f, m.data[:5]), tuple(m.data[5]))
        ss = glsm_mod.semistable(pt, chamber)
        out["point"] = {"semistable": ss}
        if ss:
            out["point"]["critical"] = glsm_mod.critical_member(pt, s, chamber)
        else:
            cert = glsm_mod.instability_certificate(pt, chamber)
            out["point"]["instability"] = glsm_mod.verify_certificate(pt, cert, chamber)
        emit_report(out, report)
        return
    stats = {"semistable": 0, "critical": 0, "unstable_certified": 0}
    for _ in range(samples):
        pt = glsm_mod.random_point(f, rng)
        if glsm_mod.semistable(pt, chamber):
            stats["semistable"] += 1
            if chamber == "minus" and pt.B.rank() == 2:
                stats["critical"] += glsm_mod.critical_member(pt, s, chamber)
        else:
            cert = glsm_mod.instability_certificate(pt, chamber)
            if glsm_mod.verify_certificate(pt, cert, chamber)["valid"]:
                stats["unstable_certified"] += 1
    out["stats"] = stats
    emit_report(out, report)


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------

def _stage_spaces(cfg: RunConfig, rng) -> dict:
    results = {}
    for field in (QQ, GF(17)):
        ideal = flag_ideal_space(field)
        hf = hf_space(field)
        results[repr(field)] = {
            "ideal_dim": ideal.dim, "hf_dim": hf.dim,
            "direct_sum_rank": ideal.sum_rank(hf),
        }
    f17 = GF(17)
    ideal, hf = flag_ideal_space(f17), hf_space(f17)
    inv = True
    for _ in range(50):
        dm = DualityMap.random(f17, rng)
        inv &= ideal.contains(iota_action(SectionMatrix(ideal.basis[3]), dm).mat)
        inv &= hf.contains(iota_action(SectionMatrix(hf.basis[17]), dm).mat)
    results["iota_invariance_50_maps"] = inv
    ok = inv and all(r["ideal_dim"] == 25 and r["hf_dim"] == 75
                     and r["direct_sum_rank"] == 100
                     for k, r in results.items() if isinstance(r, dict))
    return {"ok": ok, "details": results}


def _stage_build(cfg: RunConfig, rng) -> dict:
    f = GF(11)
    s = random_hf_section(f, rng)
    qs = pushforward_to_g25(s)
    ok = True
    for _ in range(min(cfg.samples, 200)):
        a = random_grass_point(f, 2, rng)
        w = [f.rand(rng) for _ in range(5)]
        lhs = section_of_fiber_point(s, a.rep, w)
        qvals = qs.evaluate(a.pluecker)
        rhs = f.zero
        for r in range(5):
            rhs = f.add(rhs, f.mul(w[r], qvals[r]))
        ok &= lhs == rhs
    st = pushforward_to_g35(s)
    for _ in range(min(cfg.samples, 100)):
        B = Mat.random(f, 5, 3, rng)
        g = Mat.random_invertible(f, 3, rng)
        lhs = st.evaluate(B * g.inverse())
        d2 = f.inv(f.mul(g.det(), g.det()))
        rhs = tuple(f.mul(d2, x) for x in g.apply(st.evaluate(B)))
        ok &= lhs == rhs
    return {"ok": ok, "details": {"contraction_and_gauge_checks": ok}}


def _stage_selfdual(cfg: RunConfig, rng) -> dict:
    f = GF(17)
    s = hf_project(load_section(cfg, f))
    hits = sum(1 for _ in range(100)
               if selfdual_test(s, DualityMap.random(f, rng)))
    return {"ok": hits == 0, "details": {"selfdual_hits": hits}}


def _stage_nonbirational(cfg: RunConfig, rng) -> dict:
    f = GF(17)
    s = load_section(cfg, f)
    rep = nonbirational_certificate(s, 17, cfg.budget_obj())
    return {"ok": rep.status == "certified_empty", "details": rep.as_dict()}


def _stage_counts(cfg: RunConfig, rng) -> dict:
    details = {}
    ok = True
    for q in cfg.qs:
        s = SectionMatrix(Mat.random(GF(q), 10, 10, rng))
        rep = motivic_mod.fibration_report(s, q)
        details[f"q={q}"] = rep
        ok &= rep["identity_X"] and rep["identity_Y"] and rep["X_equals_Y"] \
            and rep["M_counts_agree"]
    rel = motivic_mod.derive_l_relation()
    details["degree"] = motivic_mod.degree_check()
    details["l_relation"] = repr(rel)
    ok &= details["degree"] == 25
    ok &= rel == motivic_mod.l_relation_expected()
    return {"ok": ok, "details": details}


def _stage_bwb(cfg: RunConfig, rng) -> dict:
    grid_ok = True
    for a in range(8):
        for b in range(16):
            expected = (2 + a <= b <= 7 + a) and b != 3 + a
            grid_ok &= bwb_mod.vanishing_QO(a, b) == expected
    for a in range(11):
        for b in range(11):
            grid_ok &= bwb_mod.vanishing_OO(a, b) == (3 + a <= b <= 7 + a)
    q2 = bwb_mod.BundleExpr.from_weight("G25", (0, 0, 0, 0, -1))
    anchors = {
        "ext_q2_q2": bwb_mod.ext_on_F(q2, q2) == {0: 1},
        "h0_O11_on_F": bwb_mod.cohomology_table(
            bwb_mod.BundleExpr.line("F", 1, 1)) == {0: 75},
    }
    return {"ok": grid_ok and all(anchors.values()),
            "details": {"grids": grid_ok, **anchors}}


def _stage_mutation(cfg: RunConfig, rng) -> dict:
    rep = mutation_mod.replay_proof()
    summary = {k: v for k, v in rep.items() if k not in ("log",)}
    return {"ok": rep["ok"], "details": summary}


def _stage_glsm(cfg: RunConfig, rng) -> dict:
    f = GF(13)
    s = load_section(cfg, f)
    inv_ok = True
    for _ in range(min(cfg.samples, 200)):
        pt = glsm_mod.random_point(f, rng)
        g = Mat.random_invertible(f, 3, rng)
        moved = glsm_mod.gauge_transform(pt, g)
        for chamber in ("plus", "minus"):
            inv_ok &= glsm_mod.semistable(pt, chamber) == glsm_mod.semistable(moved, chamber)
    cert_ok = True
    for chamber in ("plus", "minus"):
        for _ in range(min(cfg.samples, 100)):
            pt = glsm_mod.random_unstable(f, chamber, rng)
            cert = glsm_mod.instability_certificate(pt, chamber)
            cert_ok &= glsm_mod.verify_certificate(pt, cert, chamber)["valid"]
    bij = glsm_mod.critical_gauge_class_count(SectionMatrix(
        Mat.random(GF(3), 10, 10, rng)), 3)
    # Okonek's identification needs a regular section; regularity is
    # sampled-verified, which a generic draw passes.  The published sparse
    # matrix is not regular mod 13 (degenerate Jacobian at most of its
    # zero locus); its scan is reported as data, not gated on.
    okonek = glsm_mod.okonek_scan(random_hf_section(f, rng), 13, 50, rng)
    okonek_script = glsm_mod.okonek_scan(s, 13, 20, rng)
    ok = inv_ok and cert_ok and bij.get("bijective", False) and okonek["all_rank3"]
    return {"ok": ok, "details": {"gauge_invariance": inv_ok,
                                  "certificates": cert_ok,
                                  "bijection": bij, "okonek_generic": okonek,
                                  "okonek_script_matrix": okonek_script}}


STAGES = [
    ("spaces", _stage_spaces),
    ("duality_build", _stage_build),
    ("selfdual_scan", _stage_selfdual),
    ("nonbirational", _stage_nonbirational),
    ("l_equivalence_counts", _stage_counts),
    ("bwb_lemmas", _stage_bwb),
    ("mutation_replay", _stage_mutation),
    ("glsm", _stage_glsm),
]


def verify_paper(cfg: RunConfig) -> dict:
    """Run every verification stage in order; failures do not stop later
    independent stages."""
    rng = random.Random(cfg.seed)
    f = GF(17)
    s = load_section(cfg, f)
    cfg_dict = asdict(cfg)
    cfg_dict.pop("report", None)        # output path is not part of the run
    report = {
        "schema": SCHEMA,
        "config": cfg_dict,
        "conventions": conventions_block(),
        "input_matrix": [[str(x) for x in row] for row in s.mat.data],
        "stages": {},
    }
    for name, fn in STAGES:
        try:
            report["stages"][name] = fn(cfg, rng)
        except Exception as exc:        # noqa: BLE001 - report, keep going
            report["stages"][name] = {"ok": False, "details": {"error": str(exc)}}
    report["ok"] = all(st["ok"] for st in report["stages"].values())
    return report


@main.command("verify-paper")
@click.option("--field", "field_spec", default="17")
@click.option("--seed", default=0)
@click.option("--samples", default=200)
@click.option("--budget", default=2_000_000)
@click.option("--qs", default="2,3", callback=_prime_list_option)
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--report", type=click.Path(), default=None)
def verify_paper_cmd(field_spec, seed, samples, budget, qs, section, report):
    """Chain every pipeline on one section matrix; exit 0 iff all pass."""
    cfg = RunConfig(field=field_spec, seed=seed, samples=samples,
                    budget=budget, qs=qs,
                    section=section, report=report)
    rep = verify_paper(cfg)
    emit_report(rep, report)
    sys.exit(0 if rep["ok"] else 1)


if __name__ == "__main__":
    main()
