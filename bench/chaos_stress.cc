/// \file
/// Fault-armed churn workload (robustness bench).
///
/// Runs the chaos harness's randomized grant/revoke/access/free mix on
/// both architectures, once unarmed (clean baseline) and once with every
/// injection site armed, reporting fault counts and the cycle breakdown.
/// The run is fully seeded: the same `--seed` produces bit-identical JSON
/// (scripts/run_all.sh diffs two runs to prove it).
///
/// With `--postmortem PATH`, an invariant violation dumps a post-mortem
/// bundle (telemetry/postmortem.h) to PATH; when no violation occurs, a
/// forced terminal snapshot of the armed X86 run is written instead, so
/// the file always exists and is byte-identical across same-seed runs
/// (run_all.sh diffs the bundles too, and scripts/vdom_inspect.py renders
/// them).
///
/// With `--sweep`, the randomized churn is replaced by the systematic
/// fault-point sweep (sim::SweepHarness): every fault-point crossing of
/// every scripted public-API op is fired exactly once (and again in
/// sticky mode), with the snapshot-diff atomicity oracle checking that
/// failed ops mutated nothing.  The sweep digest lands in the JSON so
/// run_all.sh can diff two seeded runs.
///
/// With `--crash-sweep`, the exhaustive crash-point recovery sweep
/// (sim::CrashSweepHarness) crashes every WAL ordering point and fault
/// crossing of every scripted op, reboots, recovers from the write-ahead
/// log, and checks the durable-state, PMO-integrity and access-verdict
/// oracles.  Its digest also lands in the JSON for double-run diffing.
///
/// Every mode has one size.  Unknown flags are rejected (exit 2) so a
/// typo cannot silently run the default churn.
///
/// Usage: chaos_stress [--sweep] [--crash-sweep] [--json out.json]
///                     [--seed N] [--postmortem bundle.json]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/chaos.h"
#include "sim/fault.h"

namespace {

using namespace vdom;
using bench::BenchRecord;
using bench::BenchReport;

/// Every site armed with the probabilities used for the stress run.
std::vector<std::pair<sim::FaultSite, sim::FaultSpec>>
all_sites_armed()
{
    using sim::FaultSite;
    return {
        {FaultSite::kTlbEntryDrop, {.probability = 0.02}},
        {FaultSite::kPteWriteDelay, {.probability = 0.05}},
        {FaultSite::kPermRegWriteFail, {.probability = 0.05}},
        {FaultSite::kIpiDrop, {.probability = 0.10}},
        {FaultSite::kAsidExhaustion, {.probability = 0.02}},
        {FaultSite::kVdsAllocFail, {.probability = 0.25}},
        {FaultSite::kVdtAllocFail, {.probability = 0.10}},
        {FaultSite::kVdrExhausted, {.probability = 0.25}},
        {FaultSite::kGateEntryDenied, {.probability = 0.05}},
    };
}

int
run_config(BenchReport &report, hw::ArchKind arch, bool armed, int ops,
           std::uint64_t seed, const std::string &postmortem,
           bool force_snapshot)
{
    sim::ChaosConfig config;
    config.arch = arch;
    config.ops = ops;
    config.seed = seed;
    if (armed)
        config.faults = all_sites_armed();
    config.postmortem_path = postmortem;

    telemetry::MetricsRegistry registry;
    sim::ChaosHarness harness(config);
    sim::ChaosResult result;
    {
        telemetry::ScopedMetrics attach(registry);
        result = harness.run();
        // No violation, but a bundle was requested: snapshot the armed X86
        // run's terminal state so the file exists deterministically.
        if (force_snapshot && !postmortem.empty() &&
            !result.postmortem_written) {
            if (harness.export_postmortem(postmortem, "terminal_snapshot"))
                std::printf("postmortem snapshot -> %s\n",
                            postmortem.c_str());
        }
    }
    if (result.postmortem_written)
        std::fprintf(stderr, "postmortem bundle -> %s\n", postmortem.c_str());

    std::printf("%-4s %-7s ops=%-6llu faults=%-6llu retries=%-5llu "
                "transient=%-5llu ok=%-6llu denied=%-6llu checks=%llu\n",
                hw::arch_name(arch), armed ? "armed" : "clean",
                static_cast<unsigned long long>(result.ops),
                static_cast<unsigned long long>(result.faults_injected),
                static_cast<unsigned long long>(registry.value(
                    telemetry::Metric::kShootdownRetries)),
                static_cast<unsigned long long>(result.transient_failures),
                static_cast<unsigned long long>(result.ok_accesses),
                static_cast<unsigned long long>(result.denied_accesses),
                static_cast<unsigned long long>(result.invariant_checks));
    if (!result.ok()) {
        std::fprintf(stderr, "chaos_stress: INVARIANT VIOLATION: %s\n",
                     result.first_violation.c_str());
        return 1;
    }

    BenchRecord &rec = report.add();
    rec.config("arch", hw::arch_name(arch))
        .config("faults", armed ? "all_sites" : "none")
        .config("cores", static_cast<std::uint64_t>(config.cores))
        .config("threads", static_cast<std::uint64_t>(config.threads))
        .config("domains", static_cast<std::uint64_t>(config.domains))
        .config("ops", static_cast<std::uint64_t>(config.ops))
        .config("seed", seed);
    rec.metrics_from(registry)
        .metric("chaos.ok_accesses",
                static_cast<double>(result.ok_accesses))
        .metric("chaos.denied_accesses",
                static_cast<double>(result.denied_accesses))
        .metric("chaos.transient_failures",
                static_cast<double>(result.transient_failures))
        .metric("chaos.invariant_checks",
                static_cast<double>(result.invariant_checks))
        .metric("chaos.violations",
                static_cast<double>(result.violations))
        .metric("chaos.max_clock", static_cast<double>(result.max_clock));
    for (std::size_t s = 0; s < sim::kNumFaultSites; ++s) {
        if (result.fires_by_site[s] == 0)
            continue;
        rec.metric(std::string("fault.") +
                       sim::fault_site_name(static_cast<sim::FaultSite>(s)),
                   static_cast<double>(result.fires_by_site[s]));
    }
    rec.breakdown(result.breakdown);
    rec.percentiles_from(
        registry.histogram(telemetry::Metric::kWrvdrLatency));
    return 0;
}

int
run_sweep(BenchReport &report, hw::ArchKind arch, std::uint64_t seed,
          const std::string &postmortem)
{
    sim::SweepConfig config;
    config.arch = arch;
    config.seed = seed;
    config.churn_ops = 24;
    config.domains = 6;
    config.postmortem_path = postmortem;

    telemetry::MetricsRegistry registry;
    sim::SweepHarness harness(config);
    sim::SweepResult result;
    {
        telemetry::ScopedMetrics attach(registry);
        result = harness.run();
    }
    if (result.postmortem_written)
        std::fprintf(stderr, "postmortem bundle -> %s\n",
                     postmortem.c_str());

    std::printf("%-4s sweep ops=%-4llu points=%-5llu runs=%-5llu "
                "failed=%-5llu degraded=%-5llu rollbacks=%-5llu "
                "digest=%016llx\n",
                hw::arch_name(arch),
                static_cast<unsigned long long>(result.script_ops),
                static_cast<unsigned long long>(result.fault_points),
                static_cast<unsigned long long>(result.injected_runs),
                static_cast<unsigned long long>(result.failed_ops),
                static_cast<unsigned long long>(result.degraded_ops),
                static_cast<unsigned long long>(result.rollbacks),
                static_cast<unsigned long long>(result.digest));
    if (!result.ok()) {
        std::fprintf(stderr, "chaos_stress: SWEEP VIOLATION: %s\n",
                     result.first_violation.c_str());
        return 1;
    }

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(result.digest));
    BenchRecord &rec = report.add();
    rec.config("arch", hw::arch_name(arch))
        .config("mode", "sweep")
        .config("cores", static_cast<std::uint64_t>(config.cores))
        .config("threads", static_cast<std::uint64_t>(config.threads))
        .config("domains", static_cast<std::uint64_t>(config.domains))
        .config("churn_ops", static_cast<std::uint64_t>(config.churn_ops))
        .config("seed", seed)
        .config("digest", digest);
    rec.metrics_from(registry)
        .metric("sweep.script_ops", static_cast<double>(result.script_ops))
        .metric("sweep.fault_points",
                static_cast<double>(result.fault_points))
        .metric("sweep.injected_runs",
                static_cast<double>(result.injected_runs))
        .metric("sweep.failed_ops", static_cast<double>(result.failed_ops))
        .metric("sweep.degraded_ops",
                static_cast<double>(result.degraded_ops))
        .metric("sweep.rollbacks", static_cast<double>(result.rollbacks))
        .metric("sweep.snapshot_checks",
                static_cast<double>(result.snapshot_checks))
        .metric("sweep.invariant_checks",
                static_cast<double>(result.invariant_checks))
        .metric("sweep.violations", static_cast<double>(result.violations));
    return 0;
}

int
run_crash_sweep(BenchReport &report, hw::ArchKind arch, std::uint64_t seed,
                const std::string &postmortem)
{
    sim::CrashSweepConfig config;
    config.arch = arch;
    config.seed = seed;
    config.churn_ops = 12;
    config.domains = 4;
    config.postmortem_path = postmortem;

    telemetry::MetricsRegistry registry;
    sim::CrashSweepHarness harness(config);
    sim::CrashSweepResult result;
    {
        telemetry::ScopedMetrics attach(registry);
        result = harness.run();
    }
    if (result.postmortem_written)
        std::fprintf(stderr, "postmortem bundle -> %s\n",
                     postmortem.c_str());

    std::printf("%-4s crash ops=%-4llu points=%-5llu recoveries=%-5llu "
                "replayed=%-6llu torn=%-5llu undone=%-4llu "
                "digest=%016llx\n",
                hw::arch_name(arch),
                static_cast<unsigned long long>(result.script_ops),
                static_cast<unsigned long long>(result.crash_points),
                static_cast<unsigned long long>(result.recoveries),
                static_cast<unsigned long long>(result.replayed_ops),
                static_cast<unsigned long long>(result.torn_records),
                static_cast<unsigned long long>(result.undone_ops),
                static_cast<unsigned long long>(result.digest));
    if (!result.ok()) {
        std::fprintf(stderr, "chaos_stress: CRASH SWEEP VIOLATION: %s\n",
                     result.first_violation.c_str());
        return 1;
    }

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(result.digest));
    BenchRecord &rec = report.add();
    rec.config("arch", hw::arch_name(arch))
        .config("mode", "crash_sweep")
        .config("cores", static_cast<std::uint64_t>(config.cores))
        .config("threads", static_cast<std::uint64_t>(config.threads))
        .config("domains", static_cast<std::uint64_t>(config.domains))
        .config("churn_ops", static_cast<std::uint64_t>(config.churn_ops))
        .config("seed", seed)
        .config("digest", digest);
    rec.metrics_from(registry)
        .metric("crash_sweep.script_ops",
                static_cast<double>(result.script_ops))
        .metric("crash_sweep.crash_points",
                static_cast<double>(result.crash_points))
        .metric("crash_sweep.injected_runs",
                static_cast<double>(result.injected_runs))
        .metric("crash_sweep.recoveries",
                static_cast<double>(result.recoveries))
        .metric("crash_sweep.replayed_ops",
                static_cast<double>(result.replayed_ops))
        .metric("crash_sweep.torn_records",
                static_cast<double>(result.torn_records))
        .metric("crash_sweep.undone_ops",
                static_cast<double>(result.undone_ops))
        .metric("crash_sweep.pmo_checks",
                static_cast<double>(result.pmo_checks))
        .metric("crash_sweep.snapshot_checks",
                static_cast<double>(result.snapshot_checks))
        .metric("crash_sweep.invariant_checks",
                static_cast<double>(result.invariant_checks))
        .metric("crash_sweep.violations",
                static_cast<double>(result.violations));
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (!bench::args_ok("chaos_stress", argc, argv,
                        {"--sweep", "--crash-sweep"},
                        {"--seed N", "--postmortem bundle.json"}))
        return 2;
    bool sweep = bench::flag_set(argc, argv, "--sweep");
    bool crash_sweep = bench::flag_set(argc, argv, "--crash-sweep");
    const int ops = 4000;
    std::string seed_arg = bench::arg_value(argc, argv, "--seed");
    std::uint64_t seed =
        seed_arg.empty() ? 42 : std::strtoull(seed_arg.c_str(), nullptr, 10);

    std::string postmortem = bench::arg_value(argc, argv, "--postmortem");

    BenchReport report("chaos_stress", argc, argv);
    int rc = 0;
    if (crash_sweep) {
        std::printf("chaos_stress: exhaustive crash-point recovery sweep "
                    "(seed %llu)\n",
                    static_cast<unsigned long long>(seed));
        for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm})
            rc |= run_crash_sweep(report, arch, seed, postmortem);
    } else if (sweep) {
        std::printf("chaos_stress: systematic fault-point sweep "
                    "(seed %llu)\n",
                    static_cast<unsigned long long>(seed));
        for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm})
            rc |= run_sweep(report, arch, seed, postmortem);
    } else {
        std::printf("chaos_stress: fault-armed churn (seed %llu)\n",
                    static_cast<unsigned long long>(seed));
        for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
            rc |= run_config(report, arch, /*armed=*/false, ops, seed,
                             postmortem, false);
            rc |= run_config(report, arch, /*armed=*/true, ops, seed,
                             postmortem, arch == hw::ArchKind::kX86);
        }
    }
    report.write();
    return rc;
}
