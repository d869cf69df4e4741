"""Command-line interface: one binary exposing every verification pipeline
with reproducible seeds and deterministic JSON reports.

Reports carry a schema tag, the exact input matrix, and the convention
constants (pair order, the sign table of the wedge-identification, the
pushforward normalization); identical configurations produce byte-identical
reports.

numpy loads only with the F_q point scans, ``glsm`` and ``motivic``: their
commands, ``--q``/``--qs`` and two ``verify-paper`` stages import them when
they run, so the exact-algebra commands start without numpy.  ``bwb``,
``mutation`` and ``traceback`` load the same way, where they are used.
"""
from __future__ import annotations

import importlib
import json
import os
import random
import sys
from dataclasses import asdict, dataclass

import click

from . import duality as duality_mod
from . import grassflag
from .exactalg import GF, MAX_REDUCTIONS, QQ, Mat, parse_matrix
from .duality import pushforward_to_g25, pushforward_to_g35
from .grassflag import D_SIGN, PAIRS, SectionMatrix, script_matrix

SCHEMA = "flagdual-report/1"


@dataclass
class RunConfig:
    """Everything that determines a verification run; equal configs give
    byte-identical reports."""
    seed: int = 0
    budget: int = MAX_REDUCTIONS     # the certificate's S-pair reduction cap
    qs: tuple = (2, 3)
    section: str | None = None       # path; None = published script matrix


def conventions_block() -> dict:
    return {
        "pair_order": [list(p) for p in PAIRS],
        "triple_to_pair_sign": {"".join(map(str, t)): s for t, s in D_SIGN.items()},
        "pushforward_normalization": 1,
        "anticanonical_twist": [2, 2],
        "published_matrix_basis": "colexicographic (converted on ingestion)",
    }


def _read_matrix(path: str, field, option: str, build):
    """``build`` of the matrix in file ``path`` over ``field``; a usage error
    of ``option`` when an entry is not a number or ``build`` rejects it."""
    try:
        with open(path) as fh:
            return build(parse_matrix(fh.read(), field))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"{path}: {exc}", param_hint=option) from None


def load_section(cfg: RunConfig, field) -> SectionMatrix:
    """The ``--section`` file (10x10, numeric) over ``field``, or the published matrix."""
    if not cfg.section:
        return script_matrix(field)
    return _read_matrix(cfg.section, field, "'--section'", SectionMatrix)


def _glsm_point(m: Mat):
    """The ``--point`` matrix: 5 rows of B, then the row omega."""
    from . import glsm as glsm_mod
    if m.rows != 6:
        raise ValueError(f"need 6 rows, got {m.rows}")
    return glsm_mod.GLSMPoint(Mat(m.field, m.data[:5]), tuple(m.data[5]))


def section_rows(s: SectionMatrix) -> list:
    """The entries of a section matrix as report strings."""
    return [[str(x) for x in row] for row in s.mat.data]


def _gf(value) -> GF:
    """GF(value) for a prime ``value``; counts and certificates run over prime fields."""
    try:
        return GF(int(value))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a prime below 3.3 * 10^24") from None


def _prime_option(_ctx, _param, value: int) -> int:
    return _gf(value).p


def _q_option(_ctx, _param, value) -> int:
    """A prime below the bound under which every count is exact."""
    from . import motivic as motivic_mod
    q = _gf(value).p
    if q >= motivic_mod.Q_LIMIT:
        raise click.BadParameter(f"{q} is above the bound of exact float64 counting")
    return q


def _prime_list_option(ctx, param, value: str) -> tuple:
    qs = tuple(_q_option(ctx, param, q) for q in value.split(","))
    if len(set(qs)) < len(qs):
        raise click.BadParameter(f"{value!r} names a field twice")
    return qs


def _field_option(_ctx, _param, value: str):
    """``q``/``QQ`` for the rationals, otherwise GF(p) for a prime p."""
    return QQ if value.lower() in ("q", "qq", "rational", "rationals") else _gf(value)


def _range_option(_ctx, _param, value: str) -> range:
    """``LO..HI`` with integers LO <= HI, as the range LO, ..., HI."""
    lo, _, hi = value.partition("..")
    try:
        band = range(int(lo), int(hi) + 1)
    except ValueError:
        band = range(0)
    if not band:
        raise click.BadParameter(f"{value!r} is not LO..HI with integers LO <= HI")
    return band


def _output_path(_ctx, _param, value: str | None) -> str | None:
    """A file to write, checked before the run: its directory must exist."""
    if value and not os.path.isdir(os.path.dirname(value) or "."):
        raise click.BadParameter(f"{value}: no such directory")
    return value


report_option = click.option("--report", type=click.Path(dir_okay=False),
                             default=None, callback=_output_path)


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
@click.option("--field", default="17", callback=_field_option)
@click.option("--out", type=click.Path(file_okay=False), default=".")
def duality_build(section, field, out):
    """Emit the five quadrics and three quintics as polynomial text files."""
    s = load_section(RunConfig(section=section), field)
    quadrics = pushforward_to_g25(s)
    quintics = pushforward_to_g35(s)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "quadrics.txt"), "w") as fh:
        fh.write(f"# quadrics on G(2,5), variables {quadrics[0].ring.names}\n")
        for q in quadrics:
            fh.write(q.format() + "\n")
    with open(os.path.join(out, "quintics.txt"), "w") as fh:
        fh.write(f"# quintics on Hom(C^3,V5), variables {quintics[0].ring.names}\n")
        for q in quintics:
            fh.write(q.format() + "\n")
    click.echo(f"wrote quadrics.txt and quintics.txt to {out}")


@duality.command("selfdual")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--field", default="17", callback=_field_option)
@click.option("--samples", default=100, type=click.IntRange(min=1))
@click.option("--seed", default=0)
@report_option
def duality_selfdual(section, field, samples, seed, report):
    """Scan random duality maps for S^T M_f = lambda M_f S: evidence, not proof,
    as a map hits only when M_f lies in some W_lambda = {M : S^T M = lambda M S}.
    The exact statement, for lambda = 1 only, is ``duality nonbirational``."""
    s = load_section(RunConfig(section=section), field)
    try:
        scan = duality_mod.selfdual_scan(s, random.Random(seed), samples)
    except ValueError as exc:         # characteristic 2 or 3: no invariant complement
        raise click.BadParameter(str(exc), param_hint="'--field'") from None
    rep = {"schema": SCHEMA, **scan["details"], "samples": samples,
           "all_non_selfdual": scan["details"]["selfdual_hits"] == 0,
           "matrix": section_rows(s),
           "conventions": conventions_block()}
    emit_report(rep, report)
    sys.exit(0 if scan["ok"] else 1)


@duality.command("nonbirational")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--prime", default=17, callback=_prime_option)
@click.option("--budget", default=MAX_REDUCTIONS, type=click.IntRange(min=1),
              help="cap on the S-pair reductions of the certificate's one saturation")
@report_option
def duality_nonbirational(section, prime, budget, report):
    """Emptiness certificate for the linear-isomorphism equation."""
    s = load_section(RunConfig(section=section), GF(prime))
    try:
        cert = duality_mod.verify_nonbirational(s, prime, budget)
    except ValueError as exc:         # characteristic 2 (no transpose split) or 3
        raise click.BadParameter(str(exc)) from None
    out = {"schema": SCHEMA, **cert["details"], "matrix": section_rows(s),
           "conventions": conventions_block()}
    emit_report(out, report)
    sys.exit(0 if cert["ok"] else 1)


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
    from . import bwb as bwb_mod
    try:
        entries = tuple(int(x) for x in weight.replace("|", ",").split(","))
        bundle = bwb_mod.BundleExpr.from_weight(space, entries)
    except ValueError as exc:         # not an integer, wrong length, not dominant
        raise click.BadParameter(str(exc), param_hint="'--weight'") from None
    table = bwb_mod.cohomology_table(bundle)
    click.echo(json.dumps({str(k): v for k, v in sorted(table.items())}) or "{}")


@bwb.command("lemma")
@click.option("--name", type=click.Choice(["vanishingQO", "vanishingOO"]),
              required=True)
@click.option("--range", "arange", default="0..7", callback=_range_option)
def bwb_lemma(name, arange):
    """Print the pass/fail grid of a vanishing lemma over the stated band."""
    from . import bwb as bwb_mod
    grid = bwb_mod.lemma_grid(name, arange, range(16))
    for a, row in zip(arange, grid):
        click.echo(f"a={a:2d}  " + "".join("." if good else "X" for good in row))
    ok = all(all(row) for row in grid)
    click.echo("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

@main.group()
def mutations():
    """Certified mutation replay."""


@mutations.command("replay")
@click.option("--log", "log_path", type=click.Path(dir_okay=False), default=None,
              callback=_output_path)
def mutations_replay(log_path):
    """Replay the decomposition transport; emit the certified step log."""
    from . import mutation as mutation_mod
    rep = mutation_mod.replay_proof()
    if log_path:
        with open(log_path, "w") as fh:
            json.dump({"schema": SCHEMA, **rep}, fh, indent=2, sort_keys=True)
    click.echo(json.dumps(mutation_mod.replay_summary(rep), indent=2,
                          sort_keys=True, default=str))
    sys.exit(0 if rep["ok"] else 1)


@mutations.command("check-collection")
@click.option("--name", type=click.Choice(["kuznetsov25", "kuznetsov35"]),
              required=True)
def mutations_check(name):
    from . import mutation as mutation_mod
    rep = mutation_mod.certify_grassmannian_collection(name)
    click.echo(json.dumps(rep, indent=2, sort_keys=True, default=str))
    sys.exit(0 if rep["self_ext_ok"] and rep["orthogonality_ok"] else 1)


# ---------------------------------------------------------------------------
# motivic
# ---------------------------------------------------------------------------

@main.group()
def motivic():
    """Point counting, degree check, the L-relation."""


@motivic.command("count")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--q", default=3, callback=_q_option)
@report_option
def motivic_count(section, q, report):
    from . import motivic as motivic_mod
    s = load_section(RunConfig(section=section), GF(q))
    rep = motivic_mod.fibration_report(s, q)
    emit_report({"schema": SCHEMA, **rep, "matrix": section_rows(s)}, report)
    sys.exit(0 if motivic_mod.fibration_ok(rep) else 1)


@motivic.command("degree")
def motivic_degree():
    from . import motivic as motivic_mod
    verdict = motivic_mod.degree_verdict()
    click.echo(json.dumps(verdict))
    sys.exit(0 if verdict["ok"] else 1)


@motivic.command("l-relation")
def motivic_l_relation():
    from . import motivic as motivic_mod
    verdict = motivic_mod.l_relation_verdict()
    click.echo(json.dumps(verdict))
    sys.exit(0 if verdict["equals_([X]-[Y])L^2"] else 1)


# ---------------------------------------------------------------------------
# glsm
# ---------------------------------------------------------------------------

@main.group()
def glsm():
    """Two-phase model: stability, certificates, critical loci."""


@glsm.command("stability")
@click.option("--section", type=click.Path(exists=True), default=None)
@click.option("--field", default="13", callback=_field_option)
@click.option("--chamber", type=click.Choice(["plus", "minus"]), default="minus")
@click.option("--samples", default=1000, type=click.IntRange(min=1))
@click.option("--seed", default=7)
@click.option("--point", "point_path", type=click.Path(exists=True), default=None,
              help="file with 5 rows of B then one row omega")
@report_option
def glsm_stability(section, field, chamber, samples, seed, point_path, report):
    """Semistability, instability certificates and criticality in one chamber.

    With --point, report whether that point (B, omega) is semistable; if so,
    whether it is critical, i.e. dW = 0 for W = omega . shat(B); if not, a
    checked instability certificate.  Otherwise draw --samples random points:
    stats.critical counts the critical points among the semistable ones with
    rank B = 2 in the minus chamber (the points over X), and is 0 in the
    plus chamber.  stats.unstable_certified counts the unstable samples whose
    certificate checks; every certificate built for an unstable point checks,
    so it always equals samples - stats.semistable.  A uniform point over
    GF(q) is unstable with probability about q^-3, so a run at the default
    --field 13 and --samples 1000 usually draws no unstable point and
    stats.unstable_certified reads 0; --field 3 draws unstable points and
    exercises the certificates."""
    from . import glsm as glsm_mod
    s = load_section(RunConfig(section=section), field)
    rng = random.Random(seed)
    out = {"schema": SCHEMA, "chamber": chamber, "conventions": conventions_block()}
    if point_path:
        pt = _read_matrix(point_path, field, "'--point'", _glsm_point)
        ss = glsm_mod.semistable(pt, chamber)
        out["point"] = {"semistable": ss}
        if ss:
            out["point"]["critical"] = glsm_mod.critical_member(pt, s, chamber)
        else:
            cert = glsm_mod.instability_certificate(pt, chamber)
            out["point"]["instability"] = glsm_mod.verify_certificate(pt, cert, chamber)
        emit_report(out, report)
        return
    out.update(samples=samples, seed=seed)
    stats = {"semistable": 0, "critical": 0, "unstable_certified": 0}
    for _ in range(samples):
        pt = glsm_mod.random_point(field, rng)
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

# Each stage calls the claim's check in the module that owns its maths.  A
# stage draws from its own rng, seeded by the run's seed and its name, so an
# option moves only the stages that read it.  The two stages that scan F_q
# points import ``motivic`` and ``glsm``, and with them numpy, when they run;
# the ``bwb`` and ``mutation`` stages import their modules the same way.
STAGES = [
    ("spaces", lambda cfg, rng: grassflag.verify_spaces()),
    ("duality_build", lambda cfg, rng: duality_mod.verify_pushforwards()),
    ("selfdual_scan",
     lambda cfg, rng: duality_mod.selfdual_scan(load_section(cfg, GF(17)), rng)),
    ("nonbirational", lambda cfg, rng: duality_mod.verify_nonbirational(
        load_section(cfg, GF(17)), 17, cfg.budget)),
    ("l_equivalence_counts",
     lambda cfg, rng: importlib.import_module(".motivic", __package__)
     .verify_l_equivalence(cfg.qs, rng)),
    ("bwb_lemmas",
     lambda cfg, rng: importlib.import_module(".bwb", __package__).verify_lemmas()),
    ("mutation_replay",
     lambda cfg, rng: importlib.import_module(".mutation", __package__).verify_replay()),
    ("glsm", lambda cfg, rng: importlib.import_module(".glsm", __package__)
     .verify_phases(load_section(cfg, QQ), rng)),
]


def _raised_at(exc: Exception) -> str:
    """``module.py:line`` of the innermost frame of this package in the
    traceback of exc; the report carries no path, so it stays the same
    wherever the package is installed."""
    import traceback
    package = os.path.dirname(os.path.abspath(__file__))
    where = None
    for frame, line in traceback.walk_tb(exc.__traceback__):
        path = os.path.abspath(frame.f_code.co_filename)
        if os.path.dirname(path) == package:
            where = f"{os.path.basename(path)}:{line}"
    return where


def verify_paper(cfg: RunConfig) -> dict:
    """Run every verification stage in order; failures do not stop later
    independent stages.  A failed stage records the exception's message, its
    type and where in this package it was raised.  Each stage draws from
    ``random.Random(f"{seed}:{name}")``: a str seed is hashed with SHA-512, so
    the streams do not depend on PYTHONHASHSEED, and no stage's draws move
    another's data."""
    s = load_section(cfg, GF(17))
    report = {
        "schema": SCHEMA,
        "config": asdict(cfg),
        "conventions": conventions_block(),
        "input_matrix": section_rows(s),
        "stages": {},
    }
    for name, fn in STAGES:
        try:
            report["stages"][name] = fn(cfg, random.Random(f"{cfg.seed}:{name}"))
        except Exception as exc:        # noqa: BLE001 - report, keep going
            report["stages"][name] = {"ok": False, "details": {
                "error": str(exc), "error_type": type(exc).__name__,
                "where": _raised_at(exc)}}
    report["ok"] = all(st["ok"] for st in report["stages"].values())
    return report


@main.command("verify-paper")
@click.option("--seed", default=0,
              help="seeds each stage's own rng, with the stage's name")
@click.option("--budget", default=MAX_REDUCTIONS, type=click.IntRange(min=1),
              help="cap on the S-pair reductions of the certificate's one saturation")
@click.option("--qs", default="2,3", callback=_prime_list_option)
@click.option("--section", type=click.Path(exists=True), default=None)
@report_option
def verify_paper_cmd(seed, budget, qs, section, report):
    """Chain every pipeline on one section matrix; exit 0 iff all pass."""
    cfg = RunConfig(seed=seed, budget=budget, qs=qs, section=section)
    rep = verify_paper(cfg)
    emit_report(rep, report)
    sys.exit(0 if rep["ok"] else 1)


if __name__ == "__main__":
    main()
