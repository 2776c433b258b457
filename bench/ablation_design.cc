/// \file
/// Ablation study of VDom's design choices (not in the paper; DESIGN.md's
/// per-choice justification).
///
/// Each row disables one optimization and reports the slowdown on the
/// workload that exercises it:
///   - ASID tagging (§5)          -> PMO random access, VDS-switch flavour
///     (without ASIDs every pgd switch flushes the TLB and every protected
///     access re-walks the page table);
///   - PMD fast path (§5.5)       -> PMO random access, eviction flavour
///     (2MB evictions degrade from 1 PMD write to 512 PTE writes);
///   - HLRU remap-to-same (§5.5)  -> same workload (remaps lose the
///     one-PMD-write return path);
///   - CPU-bitmap shootdown narrowing (§5.5) -> multi-threaded PMO
///     eviction (every eviction IPIs every core of the process).

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "apps/pmo.h"
#include "apps/strategy.h"
#include "bench_util.h"

namespace vdom::bench {
namespace {

double
run_pmo_with(hw::DesignKnobs knobs, std::size_t nas, std::size_t threads,
             std::size_t ops, telemetry::MetricsRegistry *registry = nullptr,
             hw::CycleBreakdown *breakdown_out = nullptr)
{
    std::optional<telemetry::ScopedMetrics> attach;
    if (registry)
        attach.emplace(*registry);
    hw::ArchParams params = hw::ArchParams::x86(10);
    params.knobs = knobs;
    BenchWorld world(params);
    world.sys.vdom_init(world.core(0));
    apps::VdomStrategy strat(world.sys, nas);
    apps::PmoConfig cfg = apps::PmoConfig::for_arch(hw::ArchKind::kX86,
                                                    threads);
    cfg.ops_per_thread = ops;
    apps::PmoResult r =
        apps::run_pmo(world.machine, world.proc, strat, cfg);
    if (breakdown_out)
        *breakdown_out = r.breakdown;
    return r.elapsed;
}

/// Records one ablation row under --json.
void
record_ablation(BenchReport &report, const std::string &ablation,
                const std::string &workload, double base, double ablated,
                const telemetry::MetricsRegistry &registry,
                const hw::CycleBreakdown &ablated_bd)
{
    if (!report.enabled())
        return;
    report.add()
        .config("ablation", ablation)
        .config("workload", workload)
        .metric("base_cycles", base)
        .metric("ablated_cycles", ablated)
        .metric("slowdown", ablated / base)
        .metrics_from(registry)
        .breakdown(ablated_bd)
        .percentiles_from(
            registry.histogram(telemetry::Metric::kWrvdrLatency));
}

void
run(std::size_t ops, BenchReport &report)
{
    sim::Table table(
        "Ablation: disable one design choice at a time "
        "(slowdown vs full design on the stressing workload)");
    table.columns({"design choice removed", "workload", "slowdown"});

    {
        // ASID tagging matters when the working set is TLB-resident:
        // without it, every VDS switch flushes the warm entries and every
        // access after a switch re-walks the page tables.
        auto hot_switching = [&](bool asid) {
            hw::ArchParams params = hw::ArchParams::x86(2);
            params.knobs.asid = asid;
            BenchWorld world(params);
            hw::Core &core = world.core(0);
            world.sys.vdom_init(core);
            kernel::Task *task = world.spawn(0);
            world.sys.vdr_alloc(core, *task, 4);
            std::vector<std::pair<VdomId, hw::Vpn>> doms;
            std::size_t n = 2 * world.machine.params().usable_pdoms();
            for (std::size_t d = 0; d < n; ++d) {
                VdomId v = world.sys.vdom_alloc(core);
                hw::Vpn vpn = world.proc.mm().mmap(8);
                world.sys.vdom_mprotect(core, vpn, 8, v);
                doms.emplace_back(v, vpn);
            }
            hw::Cycles t0 = core.now();
            for (std::size_t i = 0; i < ops; ++i) {
                auto &[v, vpn] = doms[i % doms.size()];
                world.sys.wrvdr(core, *task, v, VPerm::kFullAccess);
                for (int p = 0; p < 8; ++p)
                    world.sys.access(core, *task, vpn + p, false);
                world.sys.wrvdr(core, *task, v, VPerm::kAccessDisable);
            }
            return core.now() - t0;
        };
        double base = hot_switching(true);
        telemetry::MetricsRegistry registry;
        double ablated;
        {
            std::optional<telemetry::ScopedMetrics> attach;
            if (report.enabled())
                attach.emplace(registry);
            ablated = hot_switching(false);
        }
        record_ablation(report, "asid", "hot 28-domain sweep", base,
                        ablated, registry, hw::CycleBreakdown{});
        table.row({"ASID-tagged TLB (flush every pgd switch)",
                   "hot 28-domain sweep across 2 VDSes",
                   ratio(ablated / base)});
    }
    {
        hw::DesignKnobs off;
        off.pmd_fast_path = false;
        telemetry::MetricsRegistry registry;
        hw::CycleBreakdown bd;
        double base = run_pmo_with(hw::DesignKnobs{}, 1, 1, ops);
        double ablated =
            run_pmo_with(off, 1, 1, ops,
                         report.enabled() ? &registry : nullptr, &bd);
        record_ablation(report, "pmd_fast_path", "PMO 1 thread eviction",
                        base, ablated, registry, bd);
        table.row({"PMD fast path (per-PTE 2MB evictions)",
                   "PMO 1 thread, eviction mode", ratio(ablated / base)});
    }
    {
        hw::DesignKnobs off;
        off.hlru = false;
        telemetry::MetricsRegistry registry;
        hw::CycleBreakdown bd;
        double base = run_pmo_with(hw::DesignKnobs{}, 1, 1, ops);
        double ablated =
            run_pmo_with(off, 1, 1, ops,
                         report.enabled() ? &registry : nullptr, &bd);
        record_ablation(report, "hlru", "PMO 1 thread eviction", base,
                        ablated, registry, bd);
        table.row({"HLRU remap-to-same-pdom (strict LRU)",
                   "PMO 1 thread, eviction mode", ratio(ablated / base)});
    }
    {
        hw::DesignKnobs off;
        off.narrow_shootdown = false;
        telemetry::MetricsRegistry registry;
        hw::CycleBreakdown bd;
        double base = run_pmo_with(hw::DesignKnobs{}, 1, 8, ops);
        double ablated =
            run_pmo_with(off, 1, 8, ops,
                         report.enabled() ? &registry : nullptr, &bd);
        record_ablation(report, "narrow_shootdown", "PMO 8 threads eviction",
                        base, ablated, registry, bd);
        table.row({"CPU-bitmap shootdown narrowing (broadcast IPIs)",
                   "PMO 8 threads, eviction mode", ratio(ablated / base)});
    }
    table.print();
    std::printf(
        "Reading: every factor >1.00x is cycles the corresponding §5/§5.5\n"
        "mechanism saves; together they are why VDom's eviction path stays\n"
        "in Table 3's ~1.6k-cycle band instead of libmpk's ~30k.\n");
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("ablation_design", argc, argv))
        return 2;
    vdom::bench::BenchReport report("ablation_design", argc, argv);
    vdom::bench::run(30'000, report);
    report.write();
    return 0;
}
