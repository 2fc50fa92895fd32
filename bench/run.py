"""Benchmark harness of painleve_d32: one closed loop per workload.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run

1. times the set-up a command-line user pays on every invocation (import,
   registry build, convention calibration) in fresh interpreter processes,
   started one at a time, and reports the median;
2. builds the workload's fixed op list from ``--seed`` and runs it, one op at
   a time in this process, pass after pass for about ``--seconds`` seconds;
3. checks every verdict against the hand-written table in ``expected.py``;
4. prints the end-to-end metrics (``--trace 0``) or, after a second traced
   phase, the per-layer metrics (``--trace 1``), as the last line of stdout.

The shared machine's speed drifts by up to 2x, in phases from under a second
to tens of seconds, and a slow phase moves all work alike.  So a fixed piece
of pure-Python work, the gauge, is timed every ``GAUGE_EVERY_S`` of CPU time
all through the run, ops included.  Every time the benchmark reports (ops and
set-up) leaves out the gauge samples that fell in it and is scaled by the
mean of ``GAUGE_NOMINAL_MS`` over the gauge times during it (or, for a short
timing, next to it): it reads as at the machine speed at which the gauge
takes ``GAUGE_NOMINAL_MS``.  The gauge is the benchmark's own code, so a
change to the package moves the adjusted times as much as the raw ones.
Each verdict is then summarized by the median of its adjusted times.  The
traced phase runs the gauge too, so layer self times include the samples
that fell in them, about 3 % of the CPU time.

Metric names and units come from ``BENCHMARK.json``.  A provenance record,
the per-op medians and (when traced) the spans are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 15
SETUP_MIN_SAMPLES = 5
RUN_DEADLINE_S = 165.0

GAUGE_NOMINAL_MS = 3.0  # the gauge's time on a quiet 2-core x86-64 VM, Python 3.11
GAUGE_EVERY_S = 0.1  # CPU time between gauge samples
GAUGE_NEAREST = 7  # fewest gauge samples that scale one timing

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import painleve_d32
from painleve_d32 import models, weyl
t1 = time.perf_counter()
models._registry()
t2 = time.perf_counter()
weyl.calibrate_convention()
t3 = time.perf_counter()
assert painleve_d32.__file__.startswith(sys.argv[1])
print(json.dumps([t3 - t0, t2 - t1]))
"""


class OpTimeout(BaseException):
    """Raised by the interval timer when an op exceeds its limit.

    A BaseException, so that no ``except Exception`` in the package can
    swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def _gauge_work():
    """Fixed work in the package's style: a product of polynomials with
    Fraction coefficients in tuple-keyed dicts, float and big-integer loops."""
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    prod: dict = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            key = (a + d, b + e)
            prod[key] = prod.get(key, 0) + c * f
    x, big = 0.5, 3**200
    for i in range(1500):
        x = 3.7 * x * (1.0 - x)
        big = (big * 7 + i) % 5**300
    return len(prod), x, big


class SpeedGauge:
    """The gauge work, timed every ``GAUGE_EVERY_S`` of this process's CPU time.

    A SIGPROF interval timer interrupts whatever runs, ops included, so a
    long op is gauged while it runs.  The samples' own time is taken out of
    the timings they fall in.  Used as a context manager that runs the timer.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end), ascending
        self.start: list[float] = []  # filled in when the timer stops
        self.mid: list[float] = []
        self.ms: list[float] = []
        _gauge_work()  # warm up

    def sample(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the package's heap, not the machine
        try:
            t0 = time.perf_counter()
            _gauge_work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t0, t1))

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_EVERY_S, GAUGE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.start = [a for a, _ in self.samples]
        self.mid = [(a + b) / 2 for a, b in self.samples]
        self.ms = [(b - a) * 1e3 for a, b in self.samples]

    def adjust(self, ms: float, t0: float, t1: float) -> float:
        """A time ``ms`` spent in the interval [t0, t1], without the gauge
        samples inside the interval and brought to nominal speed.

        The factor is the mean of nominal over gauge time over the samples
        inside the interval, or the ``GAUGE_NEAREST`` nearest ones.
        """
        if t1 <= t0:
            return ms
        lo = bisect.bisect_left(self.mid, t0)
        hi = bisect.bisect_right(self.mid, t1)
        stolen = 0.0
        for a, b in self.samples[max(0, lo - 1):bisect.bisect_left(self.start, t1)]:
            stolen += max(0.0, min(b, t1) - max(a, t0))
        if hi - lo < GAUGE_NEAREST:
            near = range(max(0, lo - GAUGE_NEAREST), min(len(self.mid), hi + GAUGE_NEAREST))
            near = sorted(near, key=lambda i: max(t0 - self.mid[i], self.mid[i] - t1, 0.0))
            near = near[:GAUGE_NEAREST]
        else:
            near = range(lo, hi)
        factor = statistics.fmean(GAUGE_NOMINAL_MS / self.ms[i] for i in near)
        return ms * (1.0 - stolen / (t1 - t0)) * factor


def _import_package():
    if not (SRC / "painleve_d32" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC}/painleve_d32")
    sys.path.insert(0, str(SRC))
    import painleve_d32
    from painleve_d32 import models, numeric, ring, syntax, verify, weyl

    if not Path(painleve_d32.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported painleve_d32 from {painleve_d32.__file__}, not {SRC}")
    return types.SimpleNamespace(
        models=models, numeric=numeric, ring=ring, syntax=syntax, verify=verify, weyl=weyl,
        modules=[painleve_d32, models, numeric, ring, syntax, verify, weyl],
    )


class SetupSampler:
    """Fresh-process set-up times, sampled between ops over the whole run.

    The machine's speed drifts over seconds, so the samples are spread over
    the run instead of being taken in one burst before it.
    """

    def __init__(self, seconds: float, gauge: SpeedGauge):
        self.interval = seconds / SETUP_SAMPLES
        self.gauge = gauge
        self.totals: list[float] = []
        self.registry: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.due = 0.0

    def sample(self) -> None:
        # the gauge timer does not run while this process waits, so gauge
        # the speed right before and after
        self.gauge.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        t1 = time.perf_counter()
        self.gauge.sample()
        total, registry = json.loads(proc.stdout.strip().splitlines()[-1])
        self.totals.append(total)
        self.registry.append(registry)
        self.windows.append((t0, t1))
        self.due = t1 + self.interval

    def between_ops(self) -> None:
        if time.perf_counter() >= self.due:
            self.sample()

    def finish(self) -> None:
        while len(self.totals) < SETUP_MIN_SAMPLES:
            self.sample()

    def adjusted(self, values: list[float]) -> list[float]:
        return [self.gauge.adjust(v, *w) for v, w in zip(values, self.windows)]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(pkg, workload: str, seed: int, tolerances) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "painleve_d32").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "registry_sha256": hashlib.sha256(pkg.models.dump_models().encode()).hexdigest(),
        "source_sha256": source.hexdigest(),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "integrator_tolerances": tolerances,
    }


class Runner:
    """Runs passes over one op list and keeps every verdict and timing."""

    def __init__(self, ops, expected, deadline, gauge, tracer=None, between_ops=None):
        self.ops = ops
        self.gauge = gauge
        self.between_ops = between_ops
        self.expected = expected
        self.deadline = deadline
        self.tracer = tracer
        self.pass_s: list[float] = []
        self.by_id: dict[str, list[float]] = {}
        self.windows: dict[str, list[tuple[float, float]]] = {}
        self.attempted = self.passed = self.failed = 0
        self.timed_out_ids: list[str] = []
        self.failures: list[str] = []

    def _record(self, verdict_id, verdict, ms, window):
        self.attempted += 1
        self.by_id.setdefault(verdict_id, []).append(ms)
        self.windows.setdefault(verdict_id, []).append(window)
        if verdict == "timeout":
            self.timed_out_ids.append(verdict_id)
            return
        want = self.expected.get(verdict_id, ("<missing from expected.py>",))[0]
        if verdict == want:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(f"{verdict_id}: got {verdict!r}, expected {want!r}")

    def run_op(self, op) -> float:
        limit = min(op.limit_s, self.deadline - time.perf_counter())
        if limit <= 0:
            self._record(op.id, "timeout", 0.0, None)
            return 0.0
        token = self.tracer.begin_op() if self.tracer is not None else None
        outcome = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                raw = op.call()
                t1 = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            outcome = "timeout"
        except Exception as exc:  # a raising op is a failed op, reported by id
            outcome = f"raised {type(exc).__name__}: {exc}"
        if outcome is not None:
            t1 = time.perf_counter()
        ms = (t1 - t0) * 1e3
        if token is not None:
            self.tracer.end_op(token, completed=outcome is None)
        # a time limit is wall-clock time, so a timed-out op is not adjusted
        window = None if outcome == "timeout" else (t0, t1)
        if outcome is None:
            try:
                verdicts = op.judge(raw, ms)
            except Exception as exc:  # output the judge cannot read is a wrong verdict
                verdicts = [(op.id, f"unreadable output: {type(exc).__name__}: {exc}", ms)]
        else:
            verdicts = [(op.id, outcome, ms)]
        for verdict_id, verdict, verdict_ms in verdicts:
            self._record(verdict_id, verdict, verdict_ms, window)
        return ms

    def adjusted(self) -> dict[str, list[float]]:
        """Every verdict time without gauge samples, at the gauge's nominal speed."""
        return {
            verdict_id: [m if w is None else self.gauge.adjust(m, *w)
                         for m, w in zip(self.by_id[verdict_id], windows)]
            for verdict_id, windows in self.windows.items()
        }

    def op_ms(self) -> dict[str, float]:
        """Each verdict's median adjusted time over the run."""
        return {verdict_id: statistics.median(ms) for verdict_id, ms in self.adjusted().items()}

    def run(self, seconds: float, min_passes: int) -> None:
        """Whole passes, at least ``min_passes``, until the next would end after ``seconds``."""
        start = time.perf_counter()
        while True:
            pass_ms = 0.0
            for op in self.ops:
                if self.between_ops is not None:
                    self.between_ops()
                pass_ms += self.run_op(op)
            self.pass_s.append(pass_ms / 1e3)
            elapsed = time.perf_counter() - start
            done = len(self.pass_s)
            if time.perf_counter() > self.deadline or (
                    done >= min_passes and elapsed * (done + 1) / done > seconds):
                return


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict, str]:
    """End-to-end metrics from the verdicts' median adjusted times.

    ``wall_s`` is their sum, one pass; the median and the 90th percentile
    are taken over them.
    """
    best = runner.op_ms()
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best.values()) / 1e3,
        "verdict_ms_p50": statistics.median(best.values()),
        "verdict_ms_tail": statistics.quantiles(best.values(), n=10, method="inclusive")[-1],
        "ops_passed_share": runner.passed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = (f"{len(best)} verdicts per pass, {len(runner.pass_s)} passes; "
            f"tail = p90 of the {len(best)} verdict times; {len(setup)} set-up samples; "
            f"{len(runner.gauge.ms)} gauge samples, median {statistics.median(runner.gauge.ms):.3f} ms")
    return metrics, note


def per_layer(tracer, traced: Runner, plain: Runner, ops, registry_s) -> dict:
    passes = len(traced.pass_s)
    out = tracer.layer_metrics(passes)
    steps = tracer.calls["numeric.step"]
    rhs = tracer.calls["numeric.rhs"]
    out["numeric.rhs_evals"] = rhs / passes
    out["numeric.rhs_us"] = tracer.total_s["numeric.rhs"] * 1e6 / rhs if rhs else 0.0
    out["numeric.rhs_per_step"] = tracer.counts["numeric.rhs_in_step"] / steps if steps else 0.0
    out["numeric.step_us"] = tracer.total_s["numeric.step"] * 1e6 / steps if steps else 0.0
    calls = out.get("verify.witness.calls", 0.0)
    out["verify.witness.found_share"] = out.pop("verify.witness.found", 0.0) / calls if calls else 0.0
    out["models.registry_build_ms"] = statistics.median(registry_s) * 1e3
    # op-level timings come from the untraced phase
    best = plain.op_ms()
    for op in ops:
        if op.columns:
            out[f"verify.search_ms.c{op.columns}"] = best[op.id]
            out["verify.search.timed_out"] = (
                out.get("verify.search.timed_out", 0.0)
                + plain.timed_out_ids.count(op.id) / len(plain.pass_s)
            )
        if op.scope:
            key = f"verify.scope_ms.{op.scope}"
            out[key] = out.get(key, 0.0) + best[op.id]
    out["trace.overhead_share"] = (
        sum(traced.op_ms().values()) / sum(best.values()) - 1.0
    )
    out["trace.spans"] = len(tracer.spans) / passes
    return out


def select(defs: list[dict], values: dict, default=None) -> dict:
    """Every metric named in BENCHMARK.json, by name and with its unit."""
    out = {}
    for d in defs:
        value = values[d["name"]] if default is None else values.get(d["name"], default)
        out[d["name"]] = {"value": float(value), "unit": d["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pkg = _import_package()
    from expected import EXPECTED
    from layertrace import Tracer
    from workloads import TOLERANCES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    builder, min_passes = WORKLOADS[args.workload]

    suite_ids = {check_id for _, check_id, _ in pkg.verify._suite()}
    missing = sorted(suite_ids - set(EXPECTED))
    if missing:
        sys.exit(f"bench: suite checks without an expected verdict: {missing}")

    pkg.models._registry()
    pkg.weyl.calibrate_convention()
    prov = provenance(pkg, args.workload, args.seed, TOLERANCES)
    print("provenance " + json.dumps(prov, sort_keys=True))

    ops = builder(pkg, random.Random(args.seed))
    signal.signal(signal.SIGALRM, _alarm)
    plain_s = args.seconds / 2 if args.trace else args.seconds
    gauge = SpeedGauge()
    setup = SetupSampler(plain_s, gauge)
    plain = Runner(ops, EXPECTED, deadline, gauge, between_ops=setup.between_ops)
    tracer = Tracer() if args.trace else None
    with gauge:
        plain.run(plain_s, min_passes)
        setup.finish()
        if tracer is not None:
            tracer.install(pkg)
            traced = Runner(ops, EXPECTED, deadline, gauge, tracer)
            try:
                traced.run(args.seconds / 2, min_passes)
            finally:
                tracer.uninstall()
    if tracer is not None:
        values = per_layer(tracer, traced, plain, ops, setup.adjusted(setup.registry))
        runners = (plain, traced)
        note = f"{len(plain.pass_s)} untraced and {len(traced.pass_s)} traced passes"
        # a layer the workload never enters reads 0
        metrics = select(spec["per_layer"], values, default=0.0)
    else:
        values, note = end_to_end(plain, setup.adjusted(setup.totals))
        runners = (plain,)
        metrics = select(spec["end_to_end"], values)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    failures = [f for r in runners for f in r.failures]
    for line in sorted(set(failures)):
        print("FAILED " + line)
    best = dict(sorted(plain.op_ms().items()))
    for verdict_id, ms in best.items():
        print(f"op {verdict_id:<42} {ms:10.3f} ms")
    print(note)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "note": note, "op_ms": best,
              "pass_s": plain.pass_s, "setup_s": setup.totals,
              "setup_adjusted_s": setup.adjusted(setup.totals),
              "op_samples_ms": plain.by_id, "op_adjusted_ms": plain.adjusted(),
              "gauge_samples": gauge.samples, "op_windows": plain.windows,
              "failures": sorted(set(failures)), "metrics": metrics,
              "timed_out": sorted(i for r in runners for i in r.timed_out_ids)}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
