/// \file
/// Figure 5 reproduction: HTTPS throughput of original, VDom-protected,
/// EPK (in-VM, simulated) and libmpk httpd on X86 and ARM, for 1KB, 64KB
/// and 128KB responses across concurrent client counts.
///
/// Setup per §7.6: one httpd worker spawning 40 threads,
/// ECDHE-RSA-style handshakes, every private-key structure in its own 4KB
/// vdom, >80k vdoms allocated per full run.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "baselines/epk.h"
#include "baselines/libmpk.h"
#include "bench_util.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"

namespace vdom::bench {
namespace {

double
run_one(hw::ArchKind arch, const std::string &kind, std::size_t cores,
        std::size_t clients, std::size_t file_kb, std::size_t requests,
        BenchReport *report)
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
    } else if (kind == "lowerbound") {
        strat = std::make_unique<apps::LowerboundStrategy>(world.sys);
    } else if (kind == "EPK") {
        epk = std::make_unique<baselines::Epk>(world.machine.params());
        strat = std::make_unique<apps::EpkStrategy>(world.proc, *epk);
    } else {
        mpk = std::make_unique<baselines::LibMpk>(world.proc);
        strat = std::make_unique<apps::LibmpkStrategy>(world.proc, *mpk);
    }
    apps::HttpdConfig cfg =
        apps::HttpdConfig::for_arch(arch, clients, file_kb);
    cfg.workers = 40;
    cfg.total_requests = requests;
    telemetry::MetricsRegistry registry(cores);
    std::optional<telemetry::ScopedMetrics> attach;
    if (report && report->enabled())
        attach.emplace(registry);
    apps::HttpdResult r =
        apps::run_httpd(world.machine, world.proc, *strat, cfg);
    if (report && report->enabled()) {
        report->add()
            .config("arch", hw::arch_name(arch))
            .config("kind", kind)
            .config("cores", cores)
            .config("clients", clients)
            .config("file_kb", file_kb)
            .config("requests", requests)
            .metric("requests_per_sec", r.requests_per_sec)
            .metric("completed", static_cast<double>(r.completed))
            .metric("vdoms_allocated",
                    static_cast<double>(r.vdoms_allocated))
            .metric("elapsed_cycles", static_cast<double>(r.elapsed))
            .metrics_from(registry)
            .breakdown(r.breakdown)
            .percentiles_from(
                registry.histogram(telemetry::Metric::kWrvdrLatency));
    }
    return r.requests_per_sec;
}

/// Records one instrumented VDom run and exports it as Chrome-trace JSON
/// (open in chrome://tracing or ui.perfetto.dev).
void
export_trace(const std::string &path, std::size_t requests)
{
    telemetry::SpanTracer spans;
    telemetry::MetricsRegistry registry(8);
    {
        telemetry::ScopedSpanTrace attach_spans(spans);
        telemetry::ScopedMetrics attach_metrics(registry);
        run_one(hw::ArchKind::kX86, "VDom", 8, 16, 1, requests, nullptr);
    }
    if (telemetry::export_chrome_trace(path, spans, &registry)) {
        std::fprintf(stderr, "bench: wrote %zu span events to %s\n",
                     spans.events().size(), path.c_str());
    }
}

void
run(std::size_t requests, bool quick, BenchReport &report)
{
    struct Panel {
        hw::ArchKind arch;
        std::size_t cores;
        std::size_t file_kb;
        std::vector<std::size_t> clients;
    };
    std::vector<Panel> panels;
    std::vector<std::size_t> x86_clients =
        quick ? std::vector<std::size_t>{4, 16, 32, 48}
              : std::vector<std::size_t>{4, 8, 12, 16, 20, 24, 28, 32, 36,
                                         40, 44, 48};
    std::vector<std::size_t> arm_clients =
        quick ? std::vector<std::size_t>{4, 12, 24}
              : std::vector<std::size_t>{4, 8, 12, 16, 20, 24};
    for (std::size_t kb : {1u, 64u, 128u}) {
        panels.push_back({hw::ArchKind::kX86, 26, kb, x86_clients});
        panels.push_back({hw::ArchKind::kArm, 4, kb, arm_clients});
    }

    const std::vector<std::string> kinds = {"original", "VDom",
                                            "lowerbound", "EPK", "libmpk"};
    for (const Panel &panel : panels) {
        bool x86 = panel.arch == hw::ArchKind::kX86;
        std::size_t reqs = x86 ? requests : requests / 8;
        sim::Table table(
            std::string("Figure 5: httpd throughput, ") +
            hw::arch_name(panel.arch) + " " +
            std::to_string(panel.file_kb) + "KB (requests/s)");
        std::vector<std::string> header = {"clients"};
        for (const std::string &k : kinds)
            header.push_back(k);
        header.push_back("VDom ovh");
        table.columns(header);
        for (std::size_t c : panel.clients) {
            std::vector<std::string> row = {std::to_string(c)};
            double base = 0, vdom = 0;
            for (const std::string &k : kinds) {
                double rps = run_one(panel.arch, k, panel.cores, c,
                                     panel.file_kb, reqs, &report);
                if (k == "original")
                    base = rps;
                if (k == "VDom")
                    vdom = rps;
                row.push_back(sim::Table::num(rps, 0));
                std::fprintf(stderr, ".");
            }
            row.push_back(sim::Table::pct(base / vdom - 1.0));
            table.row(row);
        }
        std::fprintf(stderr, "\n");
        table.print();
    }
    std::printf(
        "Paper (Fig. 5 + §7.6): VDom averages 0.12%%/1.92%%/2.18%% overhead\n"
        "on X86 (1/64/128KB) and 2.50%%/1.43%%/2.65%% on ARM; the lowerbound\n"
        "(all keys in ONE domain) costs 0.86-1.03%% on Intel; EPK adds VM\n"
        "overhead (6-8%%); libmpk is inefficient regardless of file size.\n");
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    bool quick = vdom::bench::quick_mode(argc, argv);
    vdom::bench::BenchReport report("fig5_httpd", argc, argv);
    vdom::bench::run(quick ? 800 : 4000, quick, report);
    report.write();
    std::string trace = vdom::bench::arg_value(argc, argv, "--trace");
    if (!trace.empty())
        vdom::bench::export_trace(trace, quick ? 200 : 1000);
    return 0;
}
