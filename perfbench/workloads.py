"""The benchmark's workloads: rounds of specmeas calls and their output checks.

A workload is a fixed, interleaved sequence of parts.  One round runs every
part once on the same round seed, so a slow phase of a shared machine lands
on every part alike.  Each part calls the public API the way ``specrep``
does, turns every report into its JSON document, and returns the list of
problems it found in the outputs (empty when every output is correct).

Why these workloads (NOTES.md has the full rationale):

* ``bounded`` -- kinds A and B: bicommutant, projection-family assembly
  (linear_extend) and bounded integration do their work; blocks does none.
* ``unbounded`` -- kinds C' and D: psi_apply, d_alpha_check and DomainVector
  construction dominate; linear_extend and nnsm.integrate never run.
* ``checks`` -- a fault round and a document round trip: faulted pipelines,
  condition (1) and the serialize layer, with document writes beside reads.
* ``conditions`` -- characterization_reports on kind-B scenarios.  Not in
  BENCHMARK.json: its condition3 decay-rate check fails on about 1.5% of
  kind-B seeds at this commit, so no run of it can be correct.
"""

from __future__ import annotations

import json
import os
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from specmeas import harness, serialize

# Set-up and the in-process warm-up always use this round seed, so set-up
# time measures imports and first calls rather than the size of a random
# input.
WARMUP_SEED = 0

# Round seeds of one run start at SEED_STRIDE * --seed, so runs with
# different --seed values never share an input.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Part:
    """One timed item of a round: ``run(seed, workdir)`` -> problems."""

    name: str
    run: Callable[[int, str], list]


def _emit(report) -> None:
    # what `specrep verify-*` does with every report
    json.dumps(report.to_doc(), sort_keys=True)


def _failed_checks(report) -> list:
    return [f"{report.scenario}: check {c.name} failed "
            f"(residual {c.residual:.3e} > tol {c.tol:.3e})"
            for c in report.checks if not c.passed]


def _scenario_part(kind: str) -> Part:
    def run(seed, workdir):
        report = harness.run_scenario(kind, seed)
        _emit(report)
        return _failed_checks(report)

    return Part(kind, run)


def _conditions(seed, workdir):
    scenario = harness.gen_scenario("B", seed)
    problems = []
    for report in harness.characterization_reports(scenario):
        _emit(report)
        problems += _failed_checks(report)
    return problems


def _fault_round(seed, workdir):
    problems = []
    for fault in harness.FAULT_CLASSES:
        report = harness.fault_report(fault, seed)
        _emit(report)
        if not report.passed:
            problems.append(f"injected fault {fault} was not detected")
    return problems


def _doc(seed, workdir):
    # the scripts/round_trip_demo.py flow on a kind-B oracle
    scenario = harness.gen_scenario("B", seed)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "measure.json")
        serialize.dump(serialize.nnsm_to_doc(scenario.payload["oracle"]), path)
        report = harness.check_measure_file(path)
    _emit(report)
    return _failed_checks(report)


WORKLOADS = {
    "bounded": (_scenario_part("A"), _scenario_part("B")),
    "unbounded": (_scenario_part("Cprime"), _scenario_part("D")),
    "checks": (Part("fault_round", _fault_round), Part("doc", _doc)),
    "conditions": (Part("conditions", _conditions),),
}


def run_round(parts, seed: int, workdir: str, clock, on_item=None) -> list:
    """Run every part once on ``seed``.

    Returns ``(part name, seconds, problems)`` per part.  An exception that
    leaves a part is recorded as a problem of that part, so one bad input
    cannot stop the run.  ``on_item(part name)`` is called before each part.
    """
    out = []
    for part in parts:
        if on_item is not None:
            on_item(part.name)
        t0 = clock()
        try:
            problems = part.run(seed, workdir)
        except Exception as exc:  # noqa: BLE001 - reported as a failed item
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"raised {type(exc).__name__}: {exc} "
                        f"(at {Path(where.filename).name}:{where.lineno})"]
        out.append((part.name, clock() - t0, problems))
    return out
