#!/usr/bin/env python3
"""Schema check for the --json records the benches emit.

Usage: scripts/check_bench_json.py FILE [FILE...]
       scripts/check_bench_json.py --bundle BUNDLE [BUNDLE...]
       scripts/check_bench_json.py --trace TRACE [TRACE...]

Each bench file must hold a JSON array of one or more records shaped as
    {bench, config{...}, metrics{...}, breakdown{...},
     percentiles{p50, p90, p99}}
where breakdown keys are the simulator's cost-kind names and the
percentiles are ordered (p50 <= p90 <= p99).  The array may open with
one meta record (bench/bench_util.h), naming the same bench:
    {meta{bench, git_rev, build_type, compiler, host_cpus}}

With --bundle, each file must hold one post-mortem bundle object
(telemetry/postmortem.h):
    {bundle: "vdom_postmortem", version, reason, context{...},
     flight{...}?, introspect{...}?, metrics{...}?, fault_plan{...}?}

With --trace, each file must hold one flight-trace export
(telemetry/trace_export.h, e.g. fig5_httpd --trace): a non-empty
traceEvents array, no droppedEvents key (the recorder lost nothing), and
span begin/end ("B"/"E") events that balance on every (pid, tid) track,
with no end before its begin.

Exits non-zero, naming the offending file/record, on the first violation.
"""

import json
import sys

# Must match CostKind / cost_kind_name() in src/hw/cost_kind.h.
COST_KINDS = {
    "compute", "api", "perm_reg", "syscall", "tlb_miss", "tlb_flush",
    "tlb_shootdown", "busy_wait", "eviction", "pgd_switch", "migration",
    "mem_sync", "fault", "context_switch", "vm_exit", "vm_overhead",
    "io", "idle", "wal",
}

REQUIRED_KEYS = ("bench", "config", "metrics", "breakdown", "percentiles")

META_STR_KEYS = ("bench", "git_rev", "build_type", "compiler")


def fail(path, i, msg):
    sys.exit(f"{path}: record {i}: {msg}")


def check_meta(path, meta):
    """Validates the meta record's object; returns the bench it names."""
    if not isinstance(meta, dict):
        fail(path, 0, "meta must be an object")
    expected = set(META_STR_KEYS) | {"host_cpus"}
    if set(meta) != expected:
        fail(path, 0, f"meta keys {sorted(meta)} != {sorted(expected)}")
    for key in META_STR_KEYS:
        if not isinstance(meta[key], str):
            fail(path, 0, f"meta.{key} must be a string")
    if not meta["bench"]:
        fail(path, 0, "meta.bench must be non-empty")
    cpus = meta["host_cpus"]
    if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 0:
        fail(path, 0, "meta.host_cpus must be an int >= 0")
    return meta["bench"]


def check_file(path):
    with open(path) as f:
        try:
            records = json.load(f)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}: invalid JSON: {e}")
    if not isinstance(records, list):
        sys.exit(f"{path}: top-level value must be an array")
    meta_bench = None
    if records and isinstance(records[0], dict) and "meta" in records[0]:
        if set(records[0]) != {"meta"}:
            fail(path, 0, "a meta record holds only the meta key")
        meta_bench = check_meta(path, records[0]["meta"])
    first = 0 if meta_bench is None else 1
    if len(records) == first:
        sys.exit(f"{path}: no records")
    for i, rec in enumerate(records[first:], start=first):
        if not isinstance(rec, dict):
            fail(path, i, "record is not an object")
        if "meta" in rec:
            fail(path, i, "meta record must come first, at most once")
        for key in REQUIRED_KEYS:
            if key not in rec:
                fail(path, i, f"missing key {key!r}")
        if not isinstance(rec["bench"], str) or not rec["bench"]:
            fail(path, i, "bench must be a non-empty string")
        if meta_bench is not None and rec["bench"] != meta_bench:
            fail(path, i, f"bench {rec['bench']!r} differs from "
                          f"meta.bench {meta_bench!r}")
        for key in ("config", "metrics", "breakdown", "percentiles"):
            if not isinstance(rec[key], dict):
                fail(path, i, f"{key} must be an object")
        for name, value in rec["metrics"].items():
            if not isinstance(value, (int, float)):
                fail(path, i, f"metric {name!r} is not a number")
        bad = set(rec["breakdown"]) - COST_KINDS
        if bad:
            fail(path, i, f"unknown breakdown keys: {sorted(bad)}")
        missing = COST_KINDS - set(rec["breakdown"])
        if missing:
            fail(path, i, f"missing breakdown keys: {sorted(missing)}")
        for name, value in rec["breakdown"].items():
            if not isinstance(value, (int, float)) or value < 0:
                fail(path, i, f"breakdown {name!r} is not a number >= 0")
        pct = rec["percentiles"]
        for q in ("p50", "p90", "p99"):
            if not isinstance(pct.get(q), (int, float)):
                fail(path, i, f"percentiles.{q} is not a number")
        if not pct["p50"] <= pct["p90"] <= pct["p99"]:
            fail(path, i, f"percentiles not ordered: {pct}")
    return len(records) - first


# Must match fault_site_name() in src/sim/fault.h.
FAULT_SITES = {
    "tlb_entry_drop", "pte_write_delay", "perm_reg_write_fail", "ipi_drop",
    "asid_exhaustion", "vds_alloc_fail", "vdt_alloc_fail", "vdr_exhausted",
    "gate_entry_denied",
}

FLIGHT_RECORD_INT_KEYS = ("seq", "ts", "core", "tid", "flow", "a", "b")

INTROSPECT_SUMMARY_KEYS = (
    "vdses", "live_vdoms", "mapped_slots", "free_slots", "resident_threads",
    "protected_pages", "vdt_leaves",
)


def bfail(path, msg):
    sys.exit(f"{path}: bundle: {msg}")


def check_bundle(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}: invalid JSON: {e}")
    if not isinstance(doc, dict):
        bfail(path, "top-level value must be an object")
    if doc.get("bundle") != "vdom_postmortem":
        bfail(path, f"bundle key is {doc.get('bundle')!r}, "
                    "expected 'vdom_postmortem'")
    if not isinstance(doc.get("version"), int) or doc["version"] < 1:
        bfail(path, "version must be an int >= 1")
    if not isinstance(doc.get("reason"), str) or not doc["reason"]:
        bfail(path, "reason must be a non-empty string")
    if not isinstance(doc.get("context"), dict):
        bfail(path, "context must be an object")
    for key, value in doc["context"].items():
        if not isinstance(value, str):
            bfail(path, f"context.{key} must be a string")

    flight = doc.get("flight")
    if flight is not None:
        if not isinstance(flight, dict):
            bfail(path, "flight must be an object")
        for key in ("cores", "per_core_capacity", "total", "dropped",
                    "last_flow", "omitted"):
            if not isinstance(flight.get(key), int) or flight[key] < 0:
                bfail(path, f"flight.{key} must be an int >= 0")
        records = flight.get("records")
        if not isinstance(records, list):
            bfail(path, "flight.records must be an array")
        prev_seq = 0
        for i, rec in enumerate(records):
            if not isinstance(rec, dict):
                bfail(path, f"flight.records[{i}] is not an object")
            for key in FLIGHT_RECORD_INT_KEYS:
                if not isinstance(rec.get(key), int):
                    bfail(path, f"flight.records[{i}].{key} "
                                "must be an int")
            if not isinstance(rec.get("kind"), str) or not rec["kind"]:
                bfail(path, f"flight.records[{i}].kind must be a "
                            "non-empty string")
            if rec["seq"] <= prev_seq:
                bfail(path, f"flight.records[{i}].seq not increasing")
            prev_seq = rec["seq"]

    introspect = doc.get("introspect")
    if introspect is not None:
        if not isinstance(introspect, dict):
            bfail(path, "introspect must be an object")
        summary = introspect.get("summary")
        if not isinstance(summary, dict):
            bfail(path, "introspect.summary must be an object")
        for key in INTROSPECT_SUMMARY_KEYS:
            if not isinstance(summary.get(key), int):
                bfail(path, f"introspect.summary.{key} must be an int")
        if not isinstance(introspect.get("report"), str):
            bfail(path, "introspect.report must be a string")

    metrics = doc.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            bfail(path, "metrics must be an object")
        for name, value in metrics.items():
            if not isinstance(value, (int, float)):
                bfail(path, f"metric {name!r} is not a number")

    plan = doc.get("fault_plan")
    if plan is not None:
        if not isinstance(plan, dict):
            bfail(path, "fault_plan must be an object")
        if not isinstance(plan.get("total_fires"), int):
            bfail(path, "fault_plan.total_fires must be an int")
        sites = plan.get("sites")
        if not isinstance(sites, list) or not sites:
            bfail(path, "fault_plan.sites must be a non-empty array")
        seen = set()
        for i, site in enumerate(sites):
            if not isinstance(site, dict):
                bfail(path, f"fault_plan.sites[{i}] is not an object")
            name = site.get("site")
            if name not in FAULT_SITES:
                bfail(path, f"fault_plan.sites[{i}].site {name!r} unknown")
            seen.add(name)
            if not isinstance(site.get("armed"), bool):
                bfail(path, f"fault_plan.sites[{i}].armed must be a bool")
            for key in ("occurrences", "fires"):
                if not isinstance(site.get(key), int):
                    bfail(path, f"fault_plan.sites[{i}].{key} "
                                "must be an int")
        missing = FAULT_SITES - seen
        if missing:
            bfail(path, f"fault_plan missing sites: {sorted(missing)}")


def check_trace(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}: invalid JSON: {e}")
    if not isinstance(doc, dict):
        sys.exit(f"{path}: trace: top-level value must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        sys.exit(f"{path}: trace: traceEvents must be a non-empty array")
    if "droppedEvents" in doc:
        sys.exit(f"{path}: trace: recorder dropped "
                 f"{doc['droppedEvents']} record(s)")
    depth = {}
    for i, e in enumerate(events):
        if e.get("ph") not in ("B", "E"):
            continue
        track = (e.get("pid"), e.get("tid"))
        depth[track] = depth.get(track, 0) + (1 if e["ph"] == "B" else -1)
        if depth[track] < 0:
            sys.exit(f"{path}: trace: traceEvents[{i}] ends a span never "
                     f"begun on pid/tid {track}")
    open_tracks = {t: d for t, d in depth.items() if d}
    if open_tracks:
        sys.exit(f"{path}: trace: unbalanced spans on pid/tid tracks "
                 f"{sorted(open_tracks.items())}")
    return len(events)


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__.strip())
    if argv[1] in ("--bundle", "--trace"):
        if len(argv) < 3:
            sys.exit(__doc__.strip())
        for path in argv[2:]:
            if argv[1] == "--bundle":
                check_bundle(path)
                print(f"{path}: bundle ok")
            else:
                print(f"{path}: trace ok, {check_trace(path)} event(s)")
        print(f"checked {len(argv) - 2} {argv[1][2:]}(s)")
        return
    total = 0
    for path in argv[1:]:
        n = check_file(path)
        print(f"{path}: {n} record(s) ok")
        total += n
    print(f"checked {len(argv) - 1} file(s), {total} record(s)")


if __name__ == "__main__":
    main(sys.argv)
