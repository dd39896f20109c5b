"""Command-line entry points for the verification pipelines.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error.
Output is deterministic for a fixed seed: timings are zeroed unless --timing
is given, and reports are emitted sorted by scenario id.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

from .errors import CapExceeded, SpecmeasError
from .harness import (
    Caps,
    FAULT_CLASSES,
    MIN_FAULT_H_DIM,
    REPORT_SCHEMA,
    VerificationReport,
    check_measure_file,
    fault_report,
    run_suite,
)

KIND_BY_COMMAND = {
    "verify-a": "A",
    "verify-b": "B",
    "verify-c": "Cprime",
    "verify-d": "D",
}
KIND_BY_LETTER = {"a": "A", "b": "B", "c": "Cprime", "d": "D"}


def parse_caps(text: str) -> Caps:
    """Caps from "h=4,k=16,x=6,n=32" (any subset of keys, each at most
    once, each value plain decimal digits)."""
    kwargs = {}
    keys = {"h": "h_dim", "k": "k_dim", "x": "space", "n": "horizon"}
    if text:
        for part in text.split(","):
            key, _, value = part.partition("=")
            if key not in keys or not value:
                raise argparse.ArgumentTypeError(
                    f"bad caps entry {part!r}; use h=..,k=..,x=..,n=.."
                )
            if keys[key] in kwargs:
                raise argparse.ArgumentTypeError(f"repeated caps key {key!r}")
            if not (value.isascii() and value.isdigit()):
                raise argparse.ArgumentTypeError(
                    f"caps value {value!r} is not a decimal integer")
            kwargs[keys[key]] = int(value)
    try:
        return Caps(**kwargs)
    except CapExceeded as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_kinds(text: str):
    kinds = []
    for letter in text.split(","):
        letter = letter.strip().lower()
        if letter not in KIND_BY_LETTER:
            raise argparse.ArgumentTypeError(f"unknown kind {letter!r}")
        if KIND_BY_LETTER[letter] in kinds:
            raise argparse.ArgumentTypeError(f"repeated kind {letter!r}")
        kinds.append(KIND_BY_LETTER[letter])
    return kinds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrep",
        description="Verify integral representations of *-representations "
        "against seeded scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse converts a string default with ``type``, so a SPECREP_SEED
    # that is no integer is a usage error (exit 2)
    seed = os.environ.get("SPECREP_SEED", "0")

    def add_common(p):
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--count", type=int, default=1)
        p.add_argument("--caps", type=parse_caps, default=Caps())
        p.add_argument("--timing", action="store_true",
                       help="keep wall-clock times in reports")

    for cmd in KIND_BY_COMMAND:
        p = sub.add_parser(cmd, help=f"run {cmd.split('-')[1].upper()} scenarios")
        add_common(p)

    p = sub.add_parser("fuzz", help="run random scenarios until a deadline")
    p.add_argument("--kinds", type=_parse_kinds, default="a,b,c,d")
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--caps", type=parse_caps, default=Caps())
    p.add_argument("--faults", action="store_true",
                   help="interleave fault-injection scenarios")

    p = sub.add_parser("check-measure", help="validate a measure document")
    p.add_argument("file")

    p = sub.add_parser("report", help="run suites and write an aggregate report")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--kinds", type=_parse_kinds, default="a,b,c,d")
    add_common(p)
    return parser


def _strip_timing(rep: VerificationReport, keep: bool) -> VerificationReport:
    return rep if keep else replace(rep, wall_ms=0)


def _json(doc, **kwargs) -> str:
    """The one JSON writer of the CLI: RFC 8259 JSON, so a non-finite
    number raises rather than printing a bare NaN or Infinity token."""
    return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs)


def _emit(reports, stream) -> bool:
    ok = True
    for rep in reports:
        stream.write(_json(rep.to_doc()) + "\n")
        ok = ok and rep.passed
    return ok


def _text_report(reports) -> str:
    lines = []
    for rep in reports:
        lines.append(f"scenario {rep.scenario}: "
                     f"{'pass' if rep.passed else 'FAIL'}")
        for c in rep.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(
                f"  {c.name}: residual={c.residual:.6e} tol={c.tol:.6e} {mark}"
                + (f" flags={','.join(c.flags)}" if c.flags else "")
            )
    total = sum(len(r.checks) for r in reports)
    failed = sum(1 for r in reports for c in r.checks if not c.passed)
    lines.append(f"total {total} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _cmd_verify(args, kind: str) -> int:
    reports = run_suite(kind, args.seed, args.count, args.caps)
    reports = [_strip_timing(r, args.timing) for r in reports]
    return 0 if _emit(reports, sys.stdout) else 1


def _cmd_fuzz(args) -> int:
    deadline = time.monotonic() + args.seconds
    seed = args.seed
    ran, failures = 0, []
    while time.monotonic() < deadline:
        for kind in args.kinds:
            rep = run_suite(kind, seed, 1, args.caps)[0]
            ran += 1
            if not rep.passed:
                failures.append(_strip_timing(rep, False))
        if args.faults:
            for fault in FAULT_CLASSES:
                rep = fault_report(fault, seed, args.caps)
                ran += 1
                if not rep.passed:
                    failures.append(_strip_timing(rep, False))
        seed += 1
    _emit(failures, sys.stdout)
    print(f"fuzz: {ran} scenarios over seeds [{args.seed}, {seed}), "
          f"{len(failures)} failed")
    return 0 if not failures else 1


def _cmd_check_measure(args) -> int:
    rep = check_measure_file(args.file)
    if not _emit([rep], sys.stdout):
        names = [c.name for c in rep.checks if not c.passed]
        print(f"failed invariants: {', '.join(names)}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    reports = []
    for kind in args.kinds:
        reports.extend(
            run_suite(kind, args.seed, args.count, args.caps)
        )
    reports = sorted(
        (_strip_timing(r, args.timing) for r in reports),
        key=lambda r: r.scenario,
    )
    if args.format == "json":
        payload = _json(
            {"schema": REPORT_SCHEMA, "reports": [r.to_doc() for r in reports],
             "pass": all(r.passed for r in reports)},
            indent=1,
        ) + "\n"
    else:
        payload = _text_report(reports)
    with open(args.out, "w") as fh:
        fh.write(payload)
    print(f"wrote {args.out}")
    return 0 if all(r.passed for r in reports) else 1


def _usage_problem(args) -> str | None:
    """Why the parsed arguments ask for no work, or None: a negative seed, a
    count below one, a deadline that is not positive and finite, or fault
    injection under a dim H cap below MIN_FAULT_H_DIM."""
    seed = getattr(args, "seed", 0)
    if seed < 0:
        return f"argument --seed: must be non-negative, got {seed}"
    count = getattr(args, "count", 1)
    if count < 1:
        return f"argument --count: must be at least 1, got {count}"
    seconds = getattr(args, "seconds", 1.0)
    if not (math.isfinite(seconds) and seconds > 0):
        return f"argument --seconds: must be positive and finite, got {seconds}"
    if getattr(args, "faults", False) and args.caps.h_dim < MIN_FAULT_H_DIM:
        return (f"argument --faults: needs a dim H cap of at least "
                f"{MIN_FAULT_H_DIM}, got h={args.caps.h_dim}")
    return None


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    problem = _usage_problem(args)
    if problem is not None:
        print(f"specrep {args.command}: error: {problem}", file=sys.stderr)
        return 2
    try:
        if args.command in KIND_BY_COMMAND:
            return _cmd_verify(args, KIND_BY_COMMAND[args.command])
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "check-measure":
            return _cmd_check_measure(args)
        if args.command == "report":
            return _cmd_report(args)
    except SpecmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
