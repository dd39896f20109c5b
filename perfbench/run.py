#!/usr/bin/env python3
"""specmeas benchmark: end-to-end and per-layer metrics for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bounded --seed 0 --seconds 30 --trace 0

``--trace 0`` measures set-up time in fresh interpreters, then runs rounds of
the workload untraced for ``--seconds`` and reports the end-to-end metrics.
Timings are scaled to a reference speed (see calibration.py); raw wall times
are printed beside them.  ``--trace 1`` runs a fixed number of rounds
(``--rounds``), each once traced and once untraced, and reports the
per-layer metrics and the tracing overhead.  Every output is checked.  The
last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``; the full record, with the
environment block, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("bounded", "unbounded", "checks", "conditions")
SETUP_PROBES = 9
# traced rounds per workload: a few seconds untraced on a 2-core Xeon
TRACE_ROUNDS = {"bounded": 120, "unbounded": 200, "checks": 60,
                "conditions": 15}
# percentiles tried for a part's ``ms_tail``, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# The gated ``round.ms_tail`` uses one fixed percentile per workload, so a
# run that completes more rounds is not compared at a higher percentile.
# Each is the highest percentile that stayed steady across two sets of ten
# 30-second runs on a 2-core Xeon, with at least 10 rounds beyond it; runs
# there completed 395-617, 670-852 and 165-223 rounds.  Higher percentiles of
# ``bounded`` and ``checks`` spread 0.09-0.19 (IQR/median) between runs.
ROUND_TAIL = {"bounded": 75.0, "unbounded": 95.0, "checks": 75.0,
              "conditions": 75.0}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=None,
                   help="traced rounds (default: a constant per workload)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.rounds or 1) < 1:
        p.error("--seed must be >= 0; --seconds and --rounds positive")
    return args


def _use_checkout_sources() -> None:
    """Import specmeas from this checkout's src/, never from elsewhere.

    The benchmark's own modules import specmeas, so functions below import
    them only after this has run.
    """
    src = ROOT / "src"
    if not (src / "specmeas" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'specmeas'} not found; run from the root "
                 "of a specmeas checkout")
    sys.path[:0] = [str(src), str(HERE)]


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values) -> float:
    """The highest ladder percentile with >= 10 samples beyond it; the
    median when there are too few samples for any."""
    n = len(values)
    return next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0),
                50.0)


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# runs


class Run:
    """Per-item records of one run, in run order."""

    def __init__(self, parts):
        self.parts_per_round = len(parts)
        self.names: list = []      # part name of each item
        self.seconds: list = []    # wall seconds of each item
        self.references: list = []  # reference seconds around the items
        self.failures: list = []   # (part, seed, problems)

    def record(self, seed: int, results) -> None:
        for part, seconds, problems in results:
            self.names.append(part)
            self.seconds.append(seconds)
            if problems:
                self.failures.append((part, seed, problems))

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def rounds(self, per_item: list) -> list:
        k = self.parts_per_round
        return [sum(per_item[i:i + k]) for i in range(0, len(per_item), k)]

    def by_part(self, per_item: list) -> dict:
        out: dict = {}
        for name, value in zip(self.names, per_item):
            out.setdefault(name, []).append(value)
        return out


def _warm_up(parts) -> None:
    from workloads import WARMUP_SEED, run_round

    OUT.mkdir(parents=True, exist_ok=True)
    run_round(parts, WARMUP_SEED, str(OUT), time.perf_counter)


def setup_probe(workload: str) -> int:
    """Child side of the set-up measurement: import, warm up, report."""
    from workloads import WORKLOADS

    _warm_up(WORKLOADS[workload])
    print(repr(time.monotonic()))
    return 0


def measure_setup(workload: str) -> tuple:
    """(set-up seconds, reference seconds around them): the time from
    spawning a fresh interpreter to the end of its warm-up round, measured
    SETUP_PROBES times one after another."""
    from calibration import time_reference

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--setup-probe"]
    times, references = [], [time_reference()]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
        references.append(time_reference())
    return times, references


def timed_run(workload: str, seed: int, seconds: float):
    """Untraced rounds from round seed SEED_STRIDE * seed until ``seconds``
    have passed, with the reference work timed before every item."""
    from calibration import time_reference
    from workloads import SEED_STRIDE, WORKLOADS, run_round

    parts = WORKLOADS[workload]
    _warm_up(parts)
    run = Run(parts)

    def before_item(part):
        run.references.append(time_reference())

    clock = time.perf_counter
    t0 = clock()
    seed = SEED_STRIDE * seed
    while clock() - t0 < seconds:
        run.record(seed, run_round(parts, seed, str(OUT), clock, before_item))
        seed += 1
    run.references.append(time_reference())
    return run


def traced_run(workload: str, seed: int, rounds: int):
    """Each round runs traced first, then untraced on the same inputs."""
    from tracing import Tracer
    from workloads import SEED_STRIDE, WORKLOADS, run_round

    parts = WORKLOADS[workload]
    _warm_up(parts)
    tracer = Tracer()
    traced, plain = Run(parts), Run(parts)
    clock = time.perf_counter
    for s in range(SEED_STRIDE * seed, SEED_STRIDE * seed + rounds):
        tracer.install()
        try:
            missed = tracer.leftover_originals()
            if missed:
                raise RuntimeError("tracing missed " + ", ".join(missed))
            traced.record(s, run_round(
                parts, s, str(OUT), clock,
                lambda part, s=s: tracer.start_item(f"{part}-{s}")))
        finally:
            tracer.uninstall()
        plain.record(s, run_round(parts, s, str(OUT), clock))
    return tracer, traced, plain


# ---------------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(workload: str, run: Run, setup: tuple) -> tuple:
    """(gated metrics, lines to print).  Times are at reference speed."""
    from calibration import REFERENCE_S, scale

    setup_scaled = scale(*setup)
    scaled = scale(run.seconds, run.references)
    rounds, raw_rounds = run.rounds(scaled), run.rounds(run.seconds)
    q = ROUND_TAIL[workload]
    beyond = sum(1 for r in rounds if r > percentile(rounds, q))
    gated = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "items_per_s": (run.attempted / sum(scaled), "1/s"),
        "round.ms_p50": (1000.0 * statistics.median(rounds), "ms"),
        "round.ms_tail": (1000.0 * percentile(rounds, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_scaled)}; raw median "
                   f"{statistics.median(setup[0]):.4f} s",
        "items_per_s": f"{run.attempted} items; raw "
                       f"{run.attempted / sum(run.seconds):.4g}/s",
        "round.ms_p50": f"n={len(rounds)} rounds; raw "
                        f"{1000.0 * statistics.median(raw_rounds):.4g} ms",
        "round.ms_tail": f"p{q:g}, n={len(rounds)} rounds, {beyond} beyond; "
                         f"raw {1000.0 * percentile(raw_rounds, q):.4g} ms",
    }
    lines = [f"{name:<24} {_fmt(v)} {unit}"
             + (f"  ({notes[name]})" if name in notes else "")
             for name, (v, unit) in gated.items()]
    lines.append(f"{'failed_frac':<24} {_fmt(run.failed / run.attempted)} "
                 f"ratio  ({run.failed}/{run.attempted} items)")
    raw = run.by_part(run.seconds)
    for part, values in run.by_part(scaled).items():
        n, pq = len(values), tail_percentile(values)
        lines.append(f"{part + '.ms_p50':<24} "
                     f"{_fmt(1000.0 * statistics.median(values))} ms  "
                     f"(n={n}; raw {1000.0 * statistics.median(raw[part]):.4g}"
                     " ms)")
        lines.append(f"{part + '.ms_tail':<24} "
                     f"{_fmt(1000.0 * percentile(values, pq))} ms  "
                     f"(p{pq:g}, n={n}; raw "
                     f"{1000.0 * percentile(raw[part], pq):.4g} ms)")
    refs = run.references + setup[1]
    lines.append(f"{'reference_ms':<24} {1000.0 * statistics.median(refs):.4g}"
                 f" ms  (median of {len(refs)}; scale point "
                 f"{1000.0 * REFERENCE_S:g} ms)")
    return gated, lines


def per_layer(tracer, traced: Run, plain: Run) -> tuple:
    from tracing import metric_units

    overhead = sum(traced.seconds) / sum(plain.seconds) - 1.0
    values = tracer.metrics(overhead)
    ratios = tracer.ratios()
    gated, lines = {}, []
    for name, unit in metric_units().items():
        gated[name] = (values[name], unit)
        base = ratios.get(name)
        lines.append(f"{name:<48} {_fmt(values[name])} {unit}"
                     + (f"  ({base[0]}/{base[1]})" if base else ""))
    lines.append(f"tracing overhead {100.0 * overhead:.1f}%: "
                 f"{sum(traced.seconds):.3f} s traced vs "
                 f"{sum(plain.seconds):.3f} s untraced, same rounds; "
                 f"{len(tracer.spans)} spans")
    return gated, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    _use_checkout_sources()
    if args.setup_probe:
        return setup_probe(args.workload)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env}
    if args.trace == 0:
        setup = measure_setup(args.workload)
        run = timed_run(args.workload, args.seed, args.seconds)
        metrics, lines = end_to_end(args.workload, run, setup)
        attempted, failures = run.attempted, run.failures
        record.update(setup_seconds=setup[0], setup_reference_seconds=setup[1],
                      item_seconds=run.seconds,
                      reference_seconds=run.references)
    else:
        rounds = args.rounds or TRACE_ROUNDS[args.workload]
        tracer, run, plain = traced_run(args.workload, args.seed, rounds)
        metrics, lines = per_layer(tracer, run, plain)
        tracer.write_spans(OUT / f"{args.workload}-spans.jsonl.gz")
        attempted = run.attempted + plain.attempted
        failures = run.failures + [(part, seed, ["untraced: " + p for p in ps])
                                   for part, seed, ps in plain.failures]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {attempted}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for part, seed, problems in failures:
        for problem in problems:
            print(f"FAIL workload={args.workload} kind={part} seed={seed}: "
                  f"{problem}")
    for line in lines:
        print(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record.update(lines=lines, **result)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
