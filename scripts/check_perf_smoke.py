#!/usr/bin/env python3
"""Perf-smoke regression gate for the host-time microbenchmarks.

Usage: scripts/check_perf_smoke.py BENCH_JSON REFERENCE_JSON

BENCH_JSON is bench_simperf's --json report (the repo record schema:
one record per case with metrics.cpu_time_ns_per_iter).  REFERENCE_JSON
is the checked-in bench/perf_reference.json: per-case reference ns/op
plus a multiplicative threshold.  A case fails when

    measured_ns > reference_ns * threshold

i.e. the gate only catches gross regressions (default threshold 2.0) so
that CI-runner noise and slower machines do not flap the build; the
intent is to catch an accidental return to O(n)/hashed hot paths, not
5% drift.  Exits non-zero listing every failing case.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    bench_path, ref_path = argv[1], argv[2]

    with open(bench_path) as f:
        records = json.load(f)
    with open(ref_path) as f:
        ref = json.load(f)

    threshold = float(ref["threshold"])
    measured = {}
    for rec in records:
        case = rec.get("config", {}).get("case")
        ns = rec.get("metrics", {}).get("cpu_time_ns_per_iter")
        if case is not None and ns is not None:
            measured[case] = float(ns)

    failures = []
    for case, ref_ns in ref["cases"].items():
        if case not in measured:
            failures.append(f"{case}: missing from {bench_path}")
            continue
        limit = float(ref_ns) * threshold
        got = measured[case]
        verdict = "ok" if got <= limit else "FAIL"
        print(f"{case}: {got:.2f} ns/op (reference {ref_ns}, "
              f"limit {limit:.2f}) {verdict}")
        if got > limit:
            failures.append(
                f"{case}: {got:.2f} ns/op exceeds {limit:.2f} "
                f"({ref_ns} * {threshold})")

    if failures:
        sys.exit("perf-smoke regression:\n  " + "\n  ".join(failures))
    print(f"perf-smoke: {len(ref['cases'])} case(s) within "
          f"{threshold}x of reference")


if __name__ == "__main__":
    main(sys.argv)
