/// \file
/// Figure 6 reproduction: sysbench OLTP read-write throughput of original,
/// VDom-protected, EPK and libmpk MySQL on X86 and ARM.
///
/// Setup per §7.6: every connection-handler thread's stack in a private
/// vdom, MEMORY-engine HP_PTRS structures in a shared vdom, 10 in-memory
/// tables of 100k rows.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/mysql.h"
#include "baselines/epk.h"
#include "baselines/libmpk.h"
#include "bench_util.h"

namespace vdom::bench {
namespace {

apps::MysqlResult
run_one(hw::ArchKind arch, const std::string &kind, std::size_t cores,
        std::size_t connections, std::size_t queries, BenchReport *report)
{
    BenchWorld world(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(cores)
                                                : hw::ArchParams::arm(cores));
    world.sys.vdom_init(world.core(0));
    std::unique_ptr<baselines::LibMpk> mpk;
    std::unique_ptr<baselines::Epk> epk;
    std::unique_ptr<apps::Strategy> strat;
    if (kind == "original") {
        strat = std::make_unique<apps::NoneStrategy>(world.proc);
    } else if (kind == "VDom") {
        strat = std::make_unique<apps::VdomStrategy>(world.sys, 2);
    } else if (kind == "EPK") {
        epk = std::make_unique<baselines::Epk>(world.machine.params());
        strat = std::make_unique<apps::EpkStrategy>(world.proc, *epk);
    } else {
        mpk = std::make_unique<baselines::LibMpk>(world.proc);
        strat = std::make_unique<apps::LibmpkStrategy>(world.proc, *mpk);
    }
    apps::MysqlConfig cfg = apps::MysqlConfig::for_arch(arch, connections);
    // Fixed-duration steady-state measurement (sysbench-style): queries
    // here sets the target duration in query-equivalents.
    cfg.duration = static_cast<hw::Cycles>(queries) * 1'000'000.0;
    telemetry::MetricsRegistry registry;
    std::optional<telemetry::ScopedMetrics> attach;
    if (report && report->enabled())
        attach.emplace(registry);
    apps::MysqlResult r =
        apps::run_mysql(world.machine, world.proc, *strat, cfg);
    if (report && report->enabled()) {
        report->add()
            .config("arch", hw::arch_name(arch))
            .config("kind", kind)
            .config("cores", cores)
            .config("connections", connections)
            .metric("queries_per_sec", r.queries_per_sec)
            .metric("completed", static_cast<double>(r.completed))
            .metric("elapsed_cycles", static_cast<double>(r.elapsed))
            .metrics_from(registry)
            .breakdown(r.breakdown)
            .percentiles_from(
                registry.histogram(telemetry::Metric::kWrvdrLatency));
    }
    return r;
}

void
run(std::size_t queries, BenchReport &report)
{
    const std::vector<std::string> kinds = {"original", "VDom", "EPK",
                                            "libmpk"};
    struct Panel {
        hw::ArchKind arch;
        std::size_t cores;
        std::vector<std::size_t> clients;
    };
    std::vector<Panel> panels = {
        {hw::ArchKind::kX86, 26,
         {4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48}},
        {hw::ArchKind::kArm, 4, {4, 8, 12, 16, 20, 24}},
    };
    for (const Panel &panel : panels) {
        bool x86 = panel.arch == hw::ArchKind::kX86;
        std::size_t q = x86 ? queries : queries / 4;
        sim::Table table(std::string("Figure 6: MySQL throughput, ") +
                         hw::arch_name(panel.arch) + " (queries/s)");
        std::vector<std::string> header = {"clients"};
        for (const std::string &k : kinds)
            header.push_back(k);
        header.push_back("VDom ovh");
        table.columns(header);
        std::uint64_t steps = 0, yields = 0;
        for (std::size_t c : panel.clients) {
            std::vector<std::string> row = {std::to_string(c)};
            double base = 0, vdom = 0;
            for (const std::string &k : kinds) {
                apps::MysqlResult r =
                    run_one(panel.arch, k, panel.cores, c, q, &report);
                double qps = r.queries_per_sec;
                steps += r.engine_steps;
                yields += r.engine_yields;
                if (k == "original")
                    base = qps;
                if (k == "VDom")
                    vdom = qps;
                row.push_back(sim::Table::num(qps, 0));
                std::fprintf(stderr, ".");
            }
            row.push_back(sim::Table::pct(base / vdom - 1.0));
            table.row(row);
        }
        // Host-time diagnostic: the share of engine steps that only poll
        // an idle wait (stderr, so the table output stays unchanged).
        std::fprintf(stderr, "\n%s: %llu of %llu engine steps yield (%.1f%%)\n",
                     hw::arch_name(panel.arch),
                     static_cast<unsigned long long>(yields),
                     static_cast<unsigned long long>(steps),
                     steps ? 100.0 * static_cast<double>(yields) /
                                 static_cast<double>(steps)
                           : 0.0);
        table.print();
    }
    std::printf(
        "Paper (Fig. 6 + §7.6): VDom averages 0.47%% overhead on X86 and\n"
        "2.59%% on ARM; vanilla-in-VM loses 6.89%% and simulated EPK 7.33%%;\n"
        "libmpk cannot provide per-thread protection beyond 14 concurrent\n"
        "clients (one hardware domain is reserved for in-memory data) and\n"
        "collapses into eviction/busy-wait thrash there.\n");
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("fig6_mysql", argc, argv))
        return 2;
    vdom::bench::BenchReport report("fig6_mysql", argc, argv);
    vdom::bench::run(3000, report);
    report.write();
    return 0;
}
