/// \file
/// §7.3 reproduction: performance impact of the VDom kernel on programs
/// that do not use VDom (the paper runs UnixBench on both kernels and
/// measures 98.5%-101.8% relative scores).
///
/// The analogue: a suite of kernel-path microbenchmarks (syscalls, page
/// faults, mmap/munmap churn, context switches) run on (a) a stock kernel
/// — the simulator with VDom paths disabled (a plain process that never
/// initializes VDom on an unmodified Process) — and (b) the VDom kernel
/// with another process actively using VDom on other cores.  The only
/// VDom cost a passive process can observe is the extended switch_mm.

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace vdom::bench {
namespace {

struct Suite {
    const char *name;
    std::function<double(BenchWorld &, bool vdom_kernel)> run;
};

/// Builds the benchmark suites; each returns total cycles on core 0.
std::vector<Suite>
suites(int scale)
{
    return {
        {"syscall loop",
         [scale](BenchWorld &w, bool) {
             hw::Core &core = w.core(0);
             hw::Cycles t0 = core.now();
             for (int i = 0; i < 2000 * scale; ++i)
                 core.charge(hw::CostKind::kSyscall, core.costs().syscall);
             return core.now() - t0;
         }},
        {"page-fault churn",
         [scale](BenchWorld &w, bool) {
             hw::Core &core = w.core(0);
             kernel::Task *task = w.spawn(0);
             hw::Cycles t0 = core.now();
             for (int i = 0; i < 300 * scale; ++i) {
                 hw::Vpn vpn = w.proc.mm().mmap(4);
                 for (int p = 0; p < 4; ++p)
                     w.proc.mm().fault_in(core, *task->vds(), vpn + p);
             }
             return core.now() - t0;
         }},
        {"mmap/munmap churn",
         [scale](BenchWorld &w, bool) {
             hw::Core &core = w.core(0);
             kernel::Task *task = w.spawn(0);
             hw::Cycles t0 = core.now();
             for (int i = 0; i < 200 * scale; ++i) {
                 hw::Vpn vpn = w.proc.mm().mmap(8);
                 w.proc.mm().fault_in(core, *task->vds(), vpn);
                 w.proc.mm().munmap(core, vpn, 8);
             }
             return core.now() - t0;
         }},
        {"context-switch pair",
         [scale](BenchWorld &w, bool vdom_kernel) {
             hw::Core &core = w.core(0);
             kernel::Task *a = w.proc.create_task();
             kernel::Task *b = w.proc.create_task();
             if (vdom_kernel) {
                 // Another process thread on this kernel uses VDom; a and
                 // b themselves do not.
                 kernel::Task *user = w.proc.create_task();
                 w.sys.vdom_init(w.core(1));
                 w.proc.switch_to(w.core(1), *user, false);
                 w.sys.vdr_alloc(w.core(1), *user, 2);
             }
             hw::Cycles t0 = core.now();
             for (int i = 0; i < 1000 * scale; ++i) {
                 w.proc.switch_to(core, *a);
                 w.proc.switch_to(core, *b);
             }
             return core.now() - t0;
         }},
        {"pipe-style ping-pong",
         [scale](BenchWorld &w, bool) {
             hw::Core &core = w.core(0);
             kernel::Task *task = w.spawn(0);
             hw::Vpn buf = w.proc.mm().mmap(1);
             w.proc.mm().fault_in(core, *task->vds(), buf);
             hw::Cycles t0 = core.now();
             for (int i = 0; i < 1000 * scale; ++i) {
                 core.charge(hw::CostKind::kSyscall,
                             2 * core.costs().syscall);
                 hw::Mmu::access(core, buf, true);
                 hw::Mmu::access(core, buf, false);
             }
             return core.now() - t0;
         }},
    };
}

void
run(int scale, BenchReport &report)
{
    sim::Table table(
        "Section 7.3 (UnixBench analogue): VDom kernel vs stock kernel, "
        "non-VDom workloads [relative score, stock = 100%]");
    table.columns({"suite", "X86 score", "ARM score"});
    for (hw::ArchKind arch :
         {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        (void)arch;
    }
    std::vector<std::string> x86_scores, arm_scores, names;
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        for (Suite &suite : suites(scale)) {
            BenchWorld stock(arch == hw::ArchKind::kX86
                                 ? hw::ArchParams::x86(2)
                                 : hw::ArchParams::arm(2));
            double base = suite.run(stock, false);
            BenchWorld vdomful(arch == hw::ArchKind::kX86
                                   ? hw::ArchParams::x86(2)
                                   : hw::ArchParams::arm(2));
            telemetry::MetricsRegistry registry;
            double on_vdom;
            {
                std::optional<telemetry::ScopedMetrics> attach;
                if (report.enabled())
                    attach.emplace(registry);
                on_vdom = suite.run(vdomful, true);
            }
            if (report.enabled()) {
                report.add()
                    .config("arch", hw::arch_name(arch))
                    .config("suite", suite.name)
                    .metric("stock_cycles", base)
                    .metric("vdom_kernel_cycles", on_vdom)
                    .metric("relative_score_pct", base / on_vdom * 100.0)
                    .metrics_from(registry)
                    .breakdown(vdomful.machine.total_breakdown())
                    .percentiles_from(registry.histogram(
                        telemetry::Metric::kWrvdrLatency));
            }
            std::string score =
                sim::Table::num(base / on_vdom * 100.0, 1) + "%";
            if (arch == hw::ArchKind::kX86) {
                names.push_back(suite.name);
                x86_scores.push_back(score);
            } else {
                arm_scores.push_back(score);
            }
        }
    }
    for (std::size_t i = 0; i < names.size(); ++i)
        table.row({names[i], x86_scores[i], arm_scores[i]});
    table.print();
    std::printf(
        "Paper (§7.3): UnixBench single-thread and parallel suites score\n"
        "98.5%% to 101.8%% of the baseline kernel on both architectures —\n"
        "only the context-switch path can observe VDom at all.\n");
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("tab_unixbench", argc, argv))
        return 2;
    vdom::bench::BenchReport report("tab_unixbench", argc, argv);
    vdom::bench::run(4, report);
    report.write();
    return 0;
}
