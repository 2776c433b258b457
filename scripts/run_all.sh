#!/usr/bin/env bash
# Builds the project, runs the full test suite, and regenerates every
# paper table/figure, mirroring the artifact-evaluation flow (§A.5).
#
# Usage: scripts/run_all.sh
#
# Every bench runs at the one, paper size, so the deterministic .txt
# files it writes reproduce the checked-in ones, and EXPERIMENTS.md is
# checked against them at the end.
#
# Results land in results/: test_output.txt, one .txt + .json file per
# bench (schema-checked machine-readable records), the aggregated
# results/BENCH_summary.json, and the flight-trace export
# results/fig5_httpd.trace.json (spans, typed events and shootdown flow
# arrows of one VDom httpd run; open in chrome://tracing or
# ui.perfetto.dev).

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 0 ]; then
    echo "unknown argument: $1 (run_all.sh takes none)" >&2
    exit 2
fi

cmake -B build
cmake --build build
mkdir -p results results/json

ctest --test-dir build --output-on-failure 2>&1 | tee results/test_output.txt

for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    echo "== running $name =="
    json="results/json/$name.json"
    extra=""
    if [ "$name" = fig5_httpd ]; then
        extra="--trace results/fig5_httpd.trace.json"
    fi
    if [ "$name" = bench_simperf ]; then
        "$b" --benchmark_min_time=0.1 --json "$json" 2>/dev/null \
            | tee "results/$name.txt"
    else
        "$b" --json "$json" $extra 2>/dev/null \
            | tee "results/$name.txt"
    fi
    python3 scripts/check_bench_json.py "$json"
done

# Fault-injection determinism gate: the chaos bench is fully seeded, so a
# second run with the same seed must produce byte-identical JSON -- and a
# byte-identical post-mortem bundle (violation dump if an invariant ever
# trips, forced terminal snapshot otherwise).  The rerun lands outside
# results/json so it never pollutes the aggregation.
echo "== chaos_stress determinism check =="
./build/bench/chaos_stress --json results/chaos_stress_rerun.json \
    --postmortem results/chaos_postmortem.json > /dev/null 2>&1
./build/bench/chaos_stress --json results/chaos_stress_rerun2.json \
    --postmortem results/chaos_postmortem_rerun.json > /dev/null 2>&1
cmp results/json/chaos_stress.json results/chaos_stress_rerun.json
cmp results/chaos_postmortem.json results/chaos_postmortem_rerun.json
rm -f results/chaos_stress_rerun.json results/chaos_stress_rerun2.json \
    results/chaos_postmortem_rerun.json
echo "chaos_stress: two seeded runs byte-identical (JSON + bundle)"

# Bundle pipeline: schema-check the post-mortem bundle, then render the
# human-readable report and a Perfetto-loadable flow trace from it.
python3 scripts/check_bench_json.py --bundle results/chaos_postmortem.json
python3 scripts/vdom_inspect.py results/chaos_postmortem.json \
    --trace results/chaos_postmortem.trace.json \
    | tee results/chaos_postmortem.txt > /dev/null
echo "chaos_stress: bundle schema ok, report + flow trace rendered"

# Fault-point sweep gate: every crossing of every scripted API op fired
# exactly once (plus sticky replays), with the snapshot-diff atomicity
# oracle proving failed ops mutated nothing.  Two seeded runs must agree
# byte-for-byte (the JSON embeds the sweep digest); the bundle path is
# only written on a violation, so its absence is the passing state.
echo "== chaos_stress fault-point sweep =="
./build/bench/chaos_stress --sweep --json results/sweep_run1.json \
    --postmortem results/sweep_postmortem.json | tee results/sweep.txt
./build/bench/chaos_stress --sweep --json results/sweep_run2.json \
    --postmortem results/sweep_postmortem.json > /dev/null 2>&1
cmp results/sweep_run1.json results/sweep_run2.json
rm -f results/sweep_run1.json results/sweep_run2.json
echo "chaos_stress --sweep: zero violations, two seeded runs byte-identical"

# Crash-point recovery sweep gate: power-fail at every durable ordering
# point of every scripted op on both architectures, recover from the WAL,
# and require the recovered world to land exactly on a committed-op
# boundary (snapshot + invariants + PMO content + access verdicts).  The
# JSON embeds the order-dependent sweep digest, so cmp proves the whole
# crash/recover/verify sequence is deterministic.  The bundle is only
# written on the first violation; its absence is the passing state.
echo "== chaos_stress crash-point recovery sweep =="
./build/bench/chaos_stress --crash-sweep \
    --json results/crash_sweep_run1.json \
    --postmortem results/crash_postmortem.json | tee results/crash_sweep.txt
./build/bench/chaos_stress --crash-sweep \
    --json results/crash_sweep_run2.json \
    --postmortem results/crash_postmortem.json > /dev/null 2>&1
cmp results/crash_sweep_run1.json results/crash_sweep_run2.json
mv results/crash_sweep_run1.json results/json/crash_sweep.json
rm -f results/crash_sweep_run2.json
python3 scripts/check_bench_json.py results/json/crash_sweep.json
echo "chaos_stress --crash-sweep: every crash point recovered, digest stable"

# Inspector hardening: corrupt/truncated bundles must die with a one-line
# diagnosis, never a traceback.
python3 scripts/test_vdom_inspect.py > /dev/null
echo "vdom_inspect: corrupt-bundle handling ok"

# The JSON tree diff must refuse a file, a missing path or a tree without
# *.json instead of passing on zero rows compared.
python3 scripts/test_bench_diff.py > /dev/null
echo "bench_diff: empty-input refusal ok"

# The EXPERIMENTS.md checker must fail on drift (a cell off by one, an
# unsourced number, a missing results/ file, a broken shape claim).
python3 scripts/test_check_experiments.py > /dev/null
echo "check_experiments: drift detection ok"

# Aggregate every bench's records into one summary document.
python3 - <<'EOF'
import json, pathlib

summary = {}
for path in sorted(pathlib.Path("results/json").glob("*.json")):
    records = [r for r in json.loads(path.read_text()) if "meta" not in r]
    total = {}
    for rec in records:
        for kind, cycles in rec["breakdown"].items():
            total[kind] = total.get(kind, 0) + cycles
    summary[path.stem] = {
        "records": len(records),
        "breakdown_total": total,
    }
out = pathlib.Path("results/BENCH_summary.json")
out.write_text(json.dumps({"benches": summary}, indent=2) + "\n")
print(f"wrote {out} ({len(summary)} benches)")
EOF

# Every measured number and shape claim in EXPERIMENTS.md must match the
# stdout just written to results/.
python3 scripts/check_experiments.py

echo "done: see results/"
