/// \file
/// Figure 1 reproduction: overhead breakdown of libmpk on httpd that
/// isolates each OpenSSL key in a unique memory domain.
///
/// Setup per §3.2: 25 server threads, 16KB transfers, one 4KB domain per
/// private key.  The total overhead versus the unprotected server is
/// decomposed into busy waiting, TLB shootdowns, and memory/metadata
/// management — the two root causes VDom's design removes.

#include <cstdio>
#include <optional>
#include <vector>

#include "apps/httpd.h"
#include "baselines/libmpk.h"
#include "bench_util.h"

namespace vdom::bench {
namespace {

struct Breakdown {
    double busy_wait = 0;
    double shootdown = 0;
    double management = 0;

    double total() const { return busy_wait + shootdown + management; }
};

Breakdown
measure(std::size_t clients, std::size_t requests, std::size_t cores,
        BenchReport *report)
{
    // Unprotected baseline.
    apps::HttpdConfig cfg =
        apps::HttpdConfig::for_arch(hw::ArchKind::kX86, clients, 16);
    cfg.workers = 25;
    cfg.total_requests = requests;

    BenchWorld base_world(hw::ArchParams::x86(cores));
    apps::NoneStrategy none(base_world.proc);
    apps::HttpdResult base =
        run_httpd(base_world.machine, base_world.proc, none, cfg);

    BenchWorld mpk_world(hw::ArchParams::x86(cores));
    mpk_world.sys.vdom_init(mpk_world.core(0));
    baselines::LibMpk mpk(mpk_world.proc);
    apps::LibmpkStrategy strat(mpk_world.proc, mpk);
    telemetry::MetricsRegistry registry;
    std::optional<telemetry::ScopedMetrics> attach;
    if (report && report->enabled())
        attach.emplace(registry);
    apps::HttpdResult prot =
        run_httpd(mpk_world.machine, mpk_world.proc, strat, cfg);
    attach.reset();

    // Overhead fractions relative to the baseline's useful time, scaled
    // by the throughput loss so the wedges add up to the slowdown.
    double slowdown = base.requests_per_sec / prot.requests_per_sec - 1.0;
    if (report && report->enabled()) {
        report->add()
            .config("clients", clients)
            .config("requests", requests)
            .config("cores", cores)
            .metric("base_requests_per_sec", base.requests_per_sec)
            .metric("libmpk_requests_per_sec", prot.requests_per_sec)
            .metric("slowdown", slowdown)
            .metrics_from(registry)
            .breakdown(prot.breakdown)
            .percentiles_from(
                registry.histogram(telemetry::Metric::kWrvdrLatency));
    }
    const hw::CycleBreakdown &b = prot.breakdown;
    double busy = b.get(hw::CostKind::kBusyWait);
    double shoot = b.get(hw::CostKind::kShootdown) +
                   b.get(hw::CostKind::kTlbFlush) +
                   b.get(hw::CostKind::kTlbMiss) -
                   base.breakdown.get(hw::CostKind::kTlbMiss);
    double mgmt = b.get(hw::CostKind::kEviction) +
                  b.get(hw::CostKind::kSyscall) +
                  b.get(hw::CostKind::kPermReg) +
                  b.get(hw::CostKind::kFault);
    double denom = busy + shoot + mgmt;
    Breakdown out;
    if (denom <= 0 || slowdown <= 0)
        return out;
    out.busy_wait = slowdown * busy / denom;
    out.shootdown = slowdown * shoot / denom;
    out.management = slowdown * mgmt / denom;
    return out;
}

void
run(std::size_t requests, std::size_t cores, BenchReport &report)
{
    const std::vector<std::size_t> clients = {4, 8, 12, 16, 20, 24, 28, 32};
    sim::Table table(
        "Figure 1: libmpk overhead breakdown on httpd "
        "(25 threads, 16KB, per-key 4KB domains)");
    table.columns({"clients", "busy waiting", "TLB shootdown",
                   "memory+metadata mgmt", "total overhead"});
    for (std::size_t c : clients) {
        Breakdown b = measure(c, requests, cores, &report);
        table.row({std::to_string(c), sim::Table::pct(b.busy_wait),
                   sim::Table::pct(b.shootdown),
                   sim::Table::pct(b.management),
                   sim::Table::pct(b.total())});
        std::fprintf(stderr, ".");
    }
    std::fprintf(stderr, "\n");
    table.print();
    std::printf(
        "Paper's reading of Fig. 1: overhead grows from ~10%% at 4\n"
        "clients toward ~65%% at 32, with busy waiting and TLB shootdowns\n"
        "making up most of the slowdown as concurrency scales up.\n");
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("fig1_libmpk_breakdown", argc, argv))
        return 2;
    vdom::bench::BenchReport report("fig1_libmpk_breakdown", argc, argv);
    vdom::bench::run(1500, 26, report);
    report.write();
    return 0;
}
