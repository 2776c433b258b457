#!/usr/bin/env python3
"""Per-row diff of two bench JSON trees.

Usage: scripts/bench_diff.py OLD NEW [--bound REL]

OLD and NEW are directories of bench --json files, such as two
results/json/ trees written by scripts/run_all.sh.  Records are joined on
(bench, config); the host-timed bench_simperf is skipped.  For every row
the script prints the relative delta, (new - old) / |old|, of each
headline metric or counter, breakdown cost kind and percentile that
differs.  A value absent from one side counts as 0, because snapshots
leave out zero-valued counters.

Each file's meta record (git revision, build type, compiler, host CPUs)
is compared per bench too.  A meta mismatch is reported but never fails
the diff: two revisions are expected to differ there.

Exits non-zero when OLD or NEW is not a directory or holds no *.json
file (a diff of nothing proves nothing), when a row is missing from NEW
or extra in NEW, or when a delta's magnitude exceeds REL.  The default
bound is 0: the trees must match exactly.
"""

import argparse
import glob
import json
import math
import os
import sys

SKIPPED_BENCHES = {"bench_simperf"}
SECTIONS = ("metrics", "breakdown", "percentiles")


def load_rows(tree):
    """({(bench, config): record}, {bench: meta}) over every *.json file
    in TREE."""
    if not os.path.isdir(tree):
        sys.exit(f"{tree}: not a directory of bench --json files")
    paths = sorted(glob.glob(os.path.join(tree, "*.json")))
    if not paths:
        sys.exit(f"{tree}: no *.json files to compare")
    rows = {}
    metas = {}
    for path in paths:
        with open(path) as f:
            records = json.load(f)
        for rec in records:
            if "meta" in rec:
                if rec["meta"]["bench"] not in SKIPPED_BENCHES:
                    metas[rec["meta"]["bench"]] = rec["meta"]
                continue
            if rec["bench"] in SKIPPED_BENCHES:
                continue
            key = (rec["bench"], json.dumps(rec["config"], sort_keys=True))
            if key in rows:
                sys.exit(f"{path}: duplicate row {key[0]} {key[1]}")
            rows[key] = rec
    return rows, metas


def rel_delta(old, new):
    if old == new:
        return 0.0
    if old == 0:
        return math.copysign(math.inf, new)
    return (new - old) / abs(old)


def diff_row(old, new):
    """[(name, old, new, delta)] for every value that differs."""
    out = []
    for section in SECTIONS:
        a = old.get(section, {})
        b = new.get(section, {})
        for name in sorted(set(a) | set(b)):
            va, vb = a.get(name, 0), b.get(name, 0)
            if va != vb:
                out.append((f"{section}.{name}", va, vb, rel_delta(va, vb)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--bound", type=float, default=0.0,
                    help="largest allowed |relative delta| (default 0)")
    args = ap.parse_args()

    old_rows, old_metas = load_rows(args.old)
    new_rows, new_metas = load_rows(args.new)
    for bench in sorted(old_metas.keys() | new_metas.keys()):
        if bench not in old_metas or bench not in new_metas:
            side = "OLD" if bench not in old_metas else "NEW"
            print(f"meta mismatch (not a failure): {bench} has no meta "
                  f"record in {side}")
            continue
        a, b = old_metas[bench], new_metas[bench]
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                print(f"meta mismatch (not a failure): {bench} {name}: "
                      f"{a.get(name)} -> {b.get(name)}")
    failed = False
    for key in sorted(old_rows.keys() - new_rows.keys()):
        print(f"missing in NEW: {key[0]} {key[1]}")
        failed = True
    for key in sorted(new_rows.keys() - old_rows.keys()):
        print(f"extra in NEW: {key[0]} {key[1]}")
        failed = True

    common = sorted(old_rows.keys() & new_rows.keys())
    differing = 0
    for key in common:
        deltas = diff_row(old_rows[key], new_rows[key])
        if not deltas:
            continue
        differing += 1
        print(f"{key[0]} {key[1]}")
        for name, va, vb, delta in deltas:
            over = abs(delta) > args.bound
            failed |= over
            print(f"  {name}: {va} -> {vb} ({delta:+.4%})"
                  f"{'  EXCEEDS BOUND' if over else ''}")
    print(f"{len(common)} rows compared, {differing} differ, "
          f"bound {args.bound:g}: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
