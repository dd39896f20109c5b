#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about two minutes).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that

* every end-to-end and per-layer metric named in BENCHMARK.json is printed,
  by name and with its unit, and appears in the JSON result with that unit;
* every per-layer ``.calls`` count repeats exactly across two traced runs at
  the same seed;
* a second, held-out seed also runs with failed_frac 0;

and that the benchmark exits non-zero, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, HELD_OUT_SEED = 1, 7


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess, what: str):
    if done.returncode != 0:
        raise SystemExit(f"{what}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    def check_metrics(what, result, lines, metrics) -> None:
        for m in metrics:
            got = result["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  f"{what}: {m['name']} missing or not in {m['unit']}: {got}")
            check(any(line.split()[:1] == [m["name"]]
                      and f" {m['unit']}" in line for line in lines),
                  f"{what}: {m['name']} not printed with its unit")

    for w in (w["name"] for w in spec["workloads"]):
        what = f"{w} seed {SEED} trace 0"
        result, lines = result_of(
            bench("--workload", w, "--seed", str(SEED), "--seconds", "1",
                  "--trace", "0"), what)
        check(result["correct"] and result["failed"] == 0,
              f"{what}: failures\n" + "\n".join(lines))
        check_metrics(what, result, lines, spec["end_to_end"])

        calls = []
        for attempt in (1, 2):
            what = f"{w} seed {SEED} trace 1 (run {attempt})"
            result, lines = result_of(
                bench("--workload", w, "--seed", str(SEED), "--trace", "1",
                      "--rounds", "2"), what)
            check(result["correct"], f"{what}: failures\n" + "\n".join(lines))
            check_metrics(what, result, lines, spec["per_layer"])
            calls.append({k: v["value"] for k, v in result["metrics"].items()
                          if k.endswith(".calls")})
        check(calls[0] == calls[1], f"{w}: .calls differ between traced runs: "
              + str({k: (v, calls[1].get(k)) for k, v in calls[0].items()
                     if calls[1].get(k) != v}))

        what = f"{w} held-out seed {HELD_OUT_SEED}"
        result, lines = result_of(
            bench("--workload", w, "--seed", str(HELD_OUT_SEED), "--seconds",
                  "1", "--trace", "0"), what)
        check(result["failed"] == 0, f"{what}: failed_frac is not 0\n"
              + "\n".join(lines))

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("--workload", spec["workloads"][0]["name"], "--seed", "0",
                 "--trace", "0", cwd=bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          f"bare directory: exit {done.returncode}, output {done.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
