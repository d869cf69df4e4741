"""Out-of-process tracing of the flagdual layers.

The tracer wraps public functions of the ``flagdual`` modules at every name
they are looked up under: ``cli`` and ``duality`` bind names with
``from ... import``, so each module namespace that holds the original function
gets the wrapper.  Nothing in ``src/`` is changed.  Spans (name, start, end,
parent) are kept in memory and written out once, when the traced process ends.

``summarise`` turns a span file into per-layer metrics.  A layer time is
*self* time: the span's duration minus the part covered by its child spans,
so nested layers are not counted twice.  Stage times (``cli.stage.*``) are
inclusive.
"""
from __future__ import annotations

import functools
import json
import sys
import time

from checks import grassmannian_25

STAGE_NAMES = ("spaces", "duality_build", "selfdual_scan", "nonbirational",
               "l_equivalence_counts", "bwb_lemmas", "mutation_replay", "glsm")

# (module, attribute, span name).  Span names double as self-time metrics.
SPANNED = (
    ("flagdual.exactalg", "groebner_basis", "exactalg.groebner"),
    ("flagdual.exactalg", "saturate", "exactalg.saturate"),
    ("flagdual.exactalg", "normal_form", "exactalg.normal_form"),
    ("flagdual.grassflag", "flag_ideal_space", "grassflag.spaces"),
    ("flagdual.grassflag", "hf_space", "grassflag.spaces"),
    ("flagdual.duality", "pushforward_to_g25", "duality.pushforward"),
    ("flagdual.duality", "pushforward_to_g35", "duality.pushforward"),
    ("flagdual.duality", "commutant_space", "duality.commutant"),
    ("flagdual.duality", "nonbirational_certificate", "duality.certificate"),
    ("flagdual.motivic", "count_X", "motivic.count_X"),
    ("flagdual.motivic", "count_Y", "motivic.count_Y"),
    ("flagdual.motivic", "count_M_via_g25", "motivic.count_M_g25"),
    ("flagdual.motivic", "count_M_via_g35", "motivic.count_M_g35"),
    ("flagdual.motivic", "enumerate_grassmannian", "motivic.enumerate"),
    ("flagdual.bwb", "vanishing_QO", "bwb"),
    ("flagdual.bwb", "vanishing_OO", "bwb"),
    ("flagdual.bwb", "cohomology_table", "bwb"),
    ("flagdual.bwb", "ext_on_F", "bwb"),
    ("flagdual.bwb", "ext_on_M_table", "bwb"),
    ("flagdual.bwb", "ext_on_M_vanishing_certificate", "bwb"),
    ("flagdual.mutation", "replay_proof", "mutation.replay"),
    ("flagdual.glsm", "okonek_scan", "glsm.okonek"),
    ("flagdual.glsm", "instability_certificate", "glsm.certificate"),
    ("flagdual.glsm", "verify_certificate", "glsm.certificate"),
    ("flagdual.glsm", "critical_gauge_class_count", "glsm.critical_count"),
)

SELF_TIME_METRICS = tuple(dict.fromkeys(
    [name for _, _, name in SPANNED] + ["exactalg.rref_qq", "exactalg.rref_gf"]))


class Tracer:
    """Spans and work counters of one traced process."""

    def __init__(self):
        self.names: list = []          # span name per span index
        self.spans: list = []          # [name index, start, end, parent]
        self.stack: list = []          # open span indices
        self.counts = {"semistable.calls": 0, "groebner.reductions": 0,
                       "okonek.draws": 0, "okonek.found": 0,
                       "motivic.points": 0, "motivic.max_nbytes": 0}
        self._name_ids: dict = {}

    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = [nid, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def parent_name(self):
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else None

    def span(self, name, fn, on_return=None):
        """Wrap ``fn`` so each call records a span; ``name`` may be a
        function of the call's arguments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(*args) if callable(name) else name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def counter(self, fn, on_call):
        """Wrap ``fn`` to count calls only (for functions too hot to span)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args)
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)


class _NumpyProxy:
    """Stands in for ``numpy`` inside ``flagdual.motivic`` and records the
    size of the largest array a numpy call there returns (shape x itemsize)."""

    def __init__(self, np, counts):
        self._np, self._counts, self._wrapped = np, counts, {}

    def __getattr__(self, name):
        attr = getattr(self._np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr
        if name not in self._wrapped:
            ndarray, counts = self._np.ndarray, self._counts

            @functools.wraps(attr)
            def call(*args, **kwargs):
                out = attr(*args, **kwargs)
                if isinstance(out, ndarray) and out.nbytes > counts["motivic.max_nbytes"]:
                    counts["motivic.max_nbytes"] = out.nbytes
                return out
            self._wrapped[name] = call
        return self._wrapped[name]


def _rebind(orig, wrapped):
    """Replace ``orig`` by ``wrapped`` under every name a flagdual module
    binds it to."""
    for modname, mod in list(sys.modules.items()):
        if modname == "flagdual" or modname.startswith("flagdual."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


def install(tracer: Tracer):
    """Import flagdual and route its layer boundaries through ``tracer``."""
    import importlib

    from flagdual import cli, exactalg, glsm, motivic
    counts = tracer.counts

    def count_points(args, _result):
        # the flag points one M-counting route enumerates: |G(2,5)| |P^2|
        q = args[1]
        counts["motivic.points"] += grassmannian_25(q) * (q * q + q + 1)

    def count_found(_args, result):
        counts["okonek.found"] += result["found"]

    hooks = {"motivic.count_M_g25": count_points,
             "motivic.count_M_g35": count_points,
             "glsm.okonek": count_found}
    for modname, attr, name in SPANNED:
        orig = getattr(importlib.import_module(modname), attr)
        _rebind(orig, tracer.span(name, orig, hooks.get(name)))

    qq = exactalg.QQ
    exactalg.Mat.rref = tracer.span(
        lambda m: "exactalg.rref_qq" if m.field is qq else "exactalg.rref_gf",
        exactalg.Mat.rref)

    def on_semistable(_args):
        counts["semistable.calls"] += 1

    def on_normal_form(_args):
        # an S-pair reduction is a direct _normal_form call from groebner_basis
        if tracer.parent_name() == "exactalg.groebner":
            counts["groebner.reductions"] += 1

    def on_pushforward_vectors(args):
        if tracer.parent_name() == "glsm.okonek":
            counts["okonek.draws"] += len(args[1])

    for mod, attr, hook in ((glsm, "semistable", on_semistable),
                            (exactalg, "_normal_form", on_normal_form),
                            (motivic, "_pushforward_vectors", on_pushforward_vectors)):
        orig = getattr(mod, attr)
        _rebind(orig, tracer.counter(orig, hook))
    motivic.np = _NumpyProxy(motivic.np, counts)
    cli.STAGES[:] = [(n, tracer.span(f"cli.stage.{n}", fn)) for n, fn in cli.STAGES]


def summarise(trace: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    names, spans, counts = trace["names"], trace["spans"], trace["counts"]
    covered = [0.0] * len(spans)
    for nid, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_s: dict = {}
    total_s: dict = {}
    calls: dict = {}
    for k, (nid, t0, t1, _parent) in enumerate(spans):
        name = names[nid]
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - covered[k]
        total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
    out = {f"cli.stage.{n}.s": total_s.get(f"cli.stage.{n}", 0.0)
           for n in STAGE_NAMES}
    for name in SELF_TIME_METRICS:
        out[f"{name}.s"] = self_s.get(name, 0.0)
    out["exactalg.groebner.calls"] = calls.get("exactalg.groebner", 0)
    out["exactalg.groebner.reductions"] = counts["groebner.reductions"]
    out["exactalg.rref.calls"] = (calls.get("exactalg.rref_qq", 0)
                                  + calls.get("exactalg.rref_gf", 0))
    out["glsm.semistable.calls"] = counts["semistable.calls"]
    draws = counts["okonek.draws"]
    out["glsm.okonek.draws"] = draws
    out["glsm.okonek.hit_rate"] = counts["okonek.found"] / draws if draws else 0.0
    points = counts["motivic.points"]
    m_s = out["motivic.count_M_g25.s"] + out["motivic.count_M_g35.s"]
    out["motivic.points"] = points
    out["motivic.points_per_s"] = points / m_s if m_s else 0.0
    out["motivic.bytes_computed"] = counts["motivic.max_nbytes"]
    out["cli.stages.s"] = sum(out[f"cli.stage.{n}.s"] for n in STAGE_NAMES)
    return out
