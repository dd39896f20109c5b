#!/usr/bin/env python3
"""One SHA-256 digest per output family, to compare two checkouts' outputs.

The families and their 520 documents:

- report[A], report[B], report[Cprime], report[D]: the kind's report at
  seeds 0-59 and 300000-300029;
- fault[<class>]: the fault report of each fault class at seeds 0-29;
- conditions[B]: the characterization report of kind B at seeds 0-19;
- nnsm-doc[B]: the NNSM document of kind B's oracle at seeds 0-19.

Each document is written as canonical JSON (sorted keys, no whitespace),
with a report's wall_ms set to 0, one per line, and the family's digest is
taken over its lines.  Run it once per checkout, with that checkout's
src/ on the path, and compare the printed lines:

    PYTHONPATH=src python scripts/output_digest.py
"""

import hashlib
import json
from dataclasses import replace

from specmeas import harness, serialize

SEEDS = [*range(60), *range(300000, 300030)]


def families():
    """(family name, list of documents) in print order."""
    def report(rep):
        return replace(rep, wall_ms=0).to_doc()

    for kind in ("A", "B", "Cprime", "D"):
        yield f"report[{kind}]", [report(harness.run_scenario(kind, s)) for s in SEEDS]
    for fault in harness.FAULT_CLASSES:
        yield f"fault[{fault}]", [report(harness.fault_report(fault, s))
                                  for s in range(30)]
    scenarios = [harness.gen_scenario("B", s) for s in range(20)]
    yield "conditions[B]", [report(rep) for sc in scenarios
                            for rep in harness.characterization_reports(sc)]
    yield "nnsm-doc[B]", [serialize.nnsm_to_doc(sc.payload["oracle"])
                          for sc in scenarios]


def main() -> int:
    for name, docs in families():
        digest = hashlib.sha256()
        for doc in docs:
            digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
            digest.update(b"\n")
        print(f"{digest.hexdigest()}  {name} ({len(docs)} documents)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
