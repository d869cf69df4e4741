"""The flagdual benchmark: cold, fresh-process passes over one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  Workloads (see BENCHMARK.json):

  verify_paper       ``flagdual verify-paper`` with default options
  verify_paper_q7    ``flagdual verify-paper --qs 2,3,5,7``
  generic_sections   commutant over QQ, squarefree charpoly and the GF(17)
                     non-birationality certificate of a random HF section

The verify workloads run the CLI with its default seed on every pass; the
generic sections are drawn from ``random.Random(seed)``.  Passes run one at a
time, each in a fresh interpreter, until ``--seconds`` have passed.  Every
pass's output is checked (checks.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics, from traced passes interleaved with untraced ones on
the same inputs.  The last line of standard output is one JSON object; the
exit code is 0 only if every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0           # a run must end well within 180 s
PROBES_PER_PASS = 2           # set-up probes before each pass
MIN_PROBES = 6
CERTIFICATE_PRIME = 17        # the prime of nonbirational_certificate(., 17)
WORKLOADS = {
    "verify_paper": (),
    "verify_paper_q7": ("--qs", "2,3,5,7"),
    "generic_sections": None,
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The environment of every pass: flagdual from this checkout, no budget
    override, numpy/BLAS threads capped at the usable CPU count."""
    env = {k: v for k, v in os.environ.items() if k != "FLAGDUAL_BUDGET"}
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Starts passes one at a time and keeps the run inside its time limit."""

    def __init__(self, workdir: Path, started: float):
        self.env = child_env()
        self.workdir = workdir
        self.started = started

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _start(self, cmd, stdout):
        err = open(self.workdir / "stderr.txt", "w")
        try:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=stdout,
                                    stderr=err, stdin=subprocess.DEVNULL)
        finally:
            err.close()
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        return proc, timer

    def _reap(self, proc, timer):
        """Wait for ``proc``; return (exit code, peak RSS in MB)."""
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.remaining() <= 0:
            raise BenchError(f"run limit of {RUN_LIMIT_S} s exceeded")
        if proc.returncode < 0:
            raise BenchError(f"pass killed by signal {-proc.returncode}")
        return proc.returncode, usage.ru_maxrss / 1024

    def timed(self, cmd):
        """Run one pass; return (wall seconds, peak RSS MB, exit code)."""
        t0 = time.perf_counter()
        proc, timer = self._start(cmd, subprocess.DEVNULL)
        code, rss = self._reap(proc, timer)
        wall = time.perf_counter() - t0
        if code != 0:
            print(f"pass exited with {code}:\n{self.stderr()}", file=sys.stderr)
        return wall, rss, code

    def setup_probe(self, section: str) -> float:
        """Seconds from spawning a process until flagdual.cli is imported
        and the input section is loaded."""
        t0 = time.perf_counter()
        proc, timer = self._start(
            [sys.executable, str(HERE / "child.py"), "setup", section],
            subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code, _ = self._reap(proc, timer)
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"set-up probe failed: {self.stderr()}")
        return elapsed

    def stderr(self) -> str:
        return (self.workdir / "stderr.txt").read_text()[-2000:]


class VerifyPasses:
    """``flagdual verify-paper`` passes with default options (the published
    script matrix, seed 0), checked against the golden report."""

    section = "-"

    def __init__(self, runner: Runner, extra_args: tuple):
        self.runner, self.extra = runner, extra_args
        self.qs = tuple(int(q) for q in extra_args[1].split(",")) \
            if extra_args else checks.DEFAULT_QS
        self.golden = (ROOT / checks.GOLDEN_PATH).read_text()

    def next_input(self):
        return None

    def run(self, _input, spans: Path | None):
        report = self.runner.workdir / "report.json"
        report.unlink(missing_ok=True)
        args = ["verify-paper", "--report", str(report), *self.extra]
        if spans is None:
            cmd = [sys.executable, "-m", "flagdual.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "cli",
                   "--spans", str(spans), "--", *args]
        wall, rss, code = self.runner.timed(cmd)
        text = report.read_text() if report.exists() else None
        found = checks.check_verify_report(text, self.golden, 0, self.qs, code)
        return wall, rss, found


class GenericPasses:
    """Generic-section passes.  The inputs are the draws of
    ``random_hf_section(QQ, Random(seed))`` whose reduction mod 17 is generic
    (``checks.generic_at``); about 3 draws in 100 are not, and are skipped."""

    def __init__(self, runner: Runner, seed: int):
        from flagdual.exactalg import QQ, format_matrix
        from flagdual.grassflag import random_hf_section
        rng = random.Random(seed)
        self._draw = lambda: random_hf_section(QQ, rng)
        self._format = format_matrix
        self.runner = runner
        self.section = str(runner.workdir / "section.txt")

    def next_input(self):
        """Draw the next input and write it where the passes read it."""
        while True:
            s = self._draw()
            if checks.generic_at(s.mat.data, CERTIFICATE_PRIME):
                Path(self.section).write_text(self._format(s.mat))
                return s.mat.data

    def run(self, section, spans: Path | None):
        out = self.runner.workdir / "generic.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "generic",
               self.section, str(out)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        wall, rss, code = self.runner.timed(cmd)
        result = json.loads(out.read_text()) if out.exists() else None
        return wall, rss, checks.check_generic(section, result, code)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    started = time.perf_counter()
    runner = Runner(workdir, started)
    extra = WORKLOADS[workload]
    passes = GenericPasses(runner, seed) if extra is None else VerifyPasses(runner, extra)
    data = passes.next_input()                  # the set-up probes load it
    setup, walls, rsss, traced_walls, layers, results = [], [], [], [], [], []
    while True:
        t0 = time.perf_counter()
        # probes interleaved with the passes see the same machine as they do
        setup += [runner.setup_probe(passes.section) for _ in range(PROBES_PER_PASS)]
        wall, rss, found = passes.run(data, None)
        walls.append(wall)
        rsss.append(rss)
        results.extend(found)
        if trace:
            spans = workdir / "spans.json"
            wall, _, found = passes.run(data, spans)
            traced_walls.append(wall)
            results.extend(found)
            layers.append(tracer.summarise(json.loads(spans.read_text())))
            spans.unlink()
        # stop when one more round would end nearer to overrunning --seconds
        # than to the time measured so far, or would risk the run limit
        now = time.perf_counter()
        if now - started + (now - t0) / 2 >= seconds or runner.remaining() < 1.5 * (now - t0):
            break
        data = passes.next_input()
    while len(setup) < MIN_PROBES:
        setup.append(runner.setup_probe(passes.section))
    return setup, walls, rsss, traced_walls, layers, results


def end_to_end(setup, walls, rsss, results) -> dict:
    return {"setup_s": median(setup), "wall_s": median(walls),
            "peak_rss_mb": median(rsss),
            "ok_frac": 1.0 - checks.failed_frac(results)}


def per_layer(setup, walls, traced_walls, layers) -> dict:
    out = {name: median([layer[name] for layer in layers]) for name in layers[0]}
    stages = out.pop("cli.stages.s")
    out["trace.overhead_frac"] = median(traced_walls) / median(walls) - 1.0
    out["cli.stages_frac"] = stages / (median(traced_walls) - median(setup))
    out["passes"] = len(layers)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (SRC / "flagdual" / "cli.py", ROOT / checks.GOLDEN_PATH,
                           spec_path) if not p.is_file()]
    if missing:
        print(f"error: not a flagdual checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FLAGDUAL_BUDGET", None)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            setup, walls, rsss, traced_walls, layers, results = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    computed = (per_layer(setup, walls, traced_walls, layers) if args.trace
                else end_to_end(setup, walls, rsss, results))
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}

    failed = [name for name, ok in results if not ok]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} cold passes, "
          f"wall_s median {median(walls):.4f} s (quartiles {q1:.4f}, {q3:.4f}), "
          f"{len(setup)} set-up probes")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac: {len(failed) / len(results):.6g} "
          f"({len(failed)} of {len(results)} output checks failed)")
    for name in sorted(set(failed)):
        print(f"  FAILED {name}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
