/// \file
/// Figure 7 reproduction: String Replace overheads over 64 2MB PMOs on
/// X86 and ARM, for 1..8 threads (1..4 on ARM), log2 percent axis.
///
/// Lines: lowerbound (one pdom for every PMO), EPK, libmpk with 4KB pages,
/// libmpk with 2MB huge pages, VDom VDS-switch flavour, VDom eviction
/// flavour.  Paper anchors: lowerbound 2.06%/4.97%, VDS switch
/// 7.03%/6.15%, eviction 16.21%/13.31% (X86/ARM averages); libmpk 2MB
/// 17.73% at 1 thread exploding to 977.77% at 8; libmpk 4KB 3941.95% at 8
/// threads; EPK 8.71% total.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/pmo.h"
#include "baselines/epk.h"
#include "baselines/libmpk.h"
#include "bench_util.h"

namespace vdom::bench {
namespace {

double
run_one(hw::ArchKind arch, const std::string &kind, std::size_t cores,
        std::size_t threads, std::size_t ops, BenchReport *report)
{
    BenchWorld world(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(cores)
                                                : hw::ArchParams::arm(cores));
    world.sys.vdom_init(world.core(0));
    std::unique_ptr<baselines::LibMpk> mpk;
    std::unique_ptr<baselines::Epk> epk;
    std::unique_ptr<apps::Strategy> strat;
    bool huge = kind == "libmpk 2MB";
    if (kind == "original") {
        strat = std::make_unique<apps::NoneStrategy>(world.proc);
    } else if (kind == "lowerbound") {
        strat = std::make_unique<apps::LowerboundStrategy>(world.sys);
    } else if (kind == "VDS switch") {
        strat = std::make_unique<apps::VdomStrategy>(world.sys, 6);
    } else if (kind == "VDom evict") {
        strat = std::make_unique<apps::VdomStrategy>(world.sys, 1);
    } else if (kind == "EPK") {
        epk = std::make_unique<baselines::Epk>(world.machine.params());
        strat = std::make_unique<apps::EpkStrategy>(world.proc, *epk);
    } else {
        mpk = std::make_unique<baselines::LibMpk>(world.proc, huge);
        strat = std::make_unique<apps::LibmpkStrategy>(world.proc, *mpk);
    }
    apps::PmoConfig cfg = apps::PmoConfig::for_arch(arch, threads);
    cfg.ops_per_thread = ops;
    cfg.huge_pages = huge;
    telemetry::MetricsRegistry registry(cores);
    std::optional<telemetry::ScopedMetrics> attach;
    if (report && report->enabled())
        attach.emplace(registry);
    apps::PmoResult r = apps::run_pmo(world.machine, world.proc, *strat, cfg);
    if (report && report->enabled()) {
        report->add()
            .config("arch", hw::arch_name(arch))
            .config("kind", kind)
            .config("cores", cores)
            .config("threads", threads)
            .config("ops", ops)
            .metric("elapsed_cycles", static_cast<double>(r.elapsed))
            .metric("ops_per_sec", r.ops_per_sec)
            .metric("cycles_per_op", r.cycles_per_op)
            .metrics_from(registry)
            .breakdown(r.breakdown)
            .percentiles_from(
                registry.histogram(telemetry::Metric::kWrvdrLatency));
    }
    return r.elapsed;
}

std::string
log2_cell(double overhead_pct)
{
    if (overhead_pct <= 0)
        return "~0% (2^-)";
    return sim::Table::num(overhead_pct, 1) + "% (2^" +
           sim::Table::num(std::log2(overhead_pct), 1) + ")";
}

void
run(std::size_t ops, bool quick, BenchReport &report)
{
    (void)quick;
    const std::vector<std::string> kinds = {
        "lowerbound", "EPK",        "libmpk 4KB",
        "libmpk 2MB", "VDS switch", "VDom evict"};
    struct Panel {
        hw::ArchKind arch;
        std::size_t cores;
        std::vector<std::size_t> threads;
    };
    std::vector<Panel> panels = {
        {hw::ArchKind::kX86, 10, {1, 2, 4, 8}},
        {hw::ArchKind::kArm, 4, {1, 2, 4}},
    };
    for (const Panel &panel : panels) {
        bool x86 = panel.arch == hw::ArchKind::kX86;
        std::size_t n = x86 ? ops : ops / 2;
        sim::Table table(
            std::string("Figure 7: String Replace overhead vs original, ") +
            hw::arch_name(panel.arch) +
            " (percent; log2 in parentheses, paper plots a log2 axis)");
        std::vector<std::string> header = {"threads"};
        for (const std::string &k : kinds)
            header.push_back(k);
        table.columns(header);
        for (std::size_t t : panel.threads) {
            double base = run_one(panel.arch, "original", panel.cores, t, n,
                                  &report);
            std::vector<std::string> row = {std::to_string(t)};
            for (const std::string &k : kinds) {
                // EPK on ARM does not exist (no VMFUNC).
                if (!x86 && k == "EPK") {
                    row.push_back("n/a");
                    continue;
                }
                double elapsed = run_one(panel.arch, k, panel.cores, t, n,
                                         &report);
                row.push_back(log2_cell((elapsed / base - 1.0) * 100.0));
                std::fprintf(stderr, ".");
            }
            table.row(row);
        }
        std::fprintf(stderr, "\n");
        table.print();
    }
    std::printf(
        "Paper (Fig. 7 + §7.6): lowerbound 2.06%%/4.97%% (X86/ARM); VDom\n"
        "VDS switch 7.03%%/6.15%%; VDom eviction 16.21%%/13.31%%; EPK 8.71%%\n"
        "total; libmpk grows with threads: 2MB pages 17.73%% (1 thread) ->\n"
        "977.77%% (8 threads), 4KB pages 3941.95%% at 8 threads.\n");
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    bool quick = vdom::bench::quick_mode(argc, argv);
    vdom::bench::BenchReport report("fig7_string_replace", argc, argv);
    vdom::bench::run(quick ? 6'000 : 40'000, quick, report);
    report.write();
    return 0;
}
