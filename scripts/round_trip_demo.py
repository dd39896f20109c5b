#!/usr/bin/env python3
"""End-to-end round trip: oracle measure -> file -> reload -> verification.

Generates a seeded tensor-model measure, writes it to JSON, reloads it,
rebuilds it from its own compressions, and prints the verification report.
Exits 1 when the document check or the pipeline fails, 0 otherwise.
"""

import argparse
import os
import sys
import tempfile

from specmeas import serialize
from specmeas.harness import check_measure_file, gen_scenario, verify_theorem_b


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None,
                        help="where to write the measure document")
    args = parser.parse_args()

    scenario = gen_scenario("B", args.seed)
    oracle = scenario.payload["oracle"]
    path = args.out
    if path is None:
        fd, path = tempfile.mkstemp(suffix=".json", prefix="nnsm-")
        os.close(fd)
    serialize.dump(serialize.nnsm_to_doc(oracle), path)
    print(f"oracle written to {path}")

    file_report = check_measure_file(path)
    print(f"document check: {'pass' if file_report.passed else 'FAIL'}")

    report = verify_theorem_b(scenario)
    print(f"pipeline: {'pass' if report.passed else 'FAIL'} "
          f"({len(report.checks)} checks, worst residual "
          f"{report.worst_residual:.3e})")
    for c in report.checks:
        if not c.passed:
            print(f"  FAIL {c.name}: {c.residual:.3e} > {c.tol:.3e}")
    return 0 if file_report.passed and report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
