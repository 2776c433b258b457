/// \file
/// Table 5 reproduction: overhead of allocating and synchronizing 4KB
/// pages across different numbers of VDSes.
///
/// The paper's microbenchmark: "a multiple-address-space application that
/// progressively allocates 4KB pages.  One address space holds the data,
/// and the code in other address spaces (VDSes) immediately accesses the
/// data after initialization."  Overhead is relative to the same program
/// running in one address space; it grows with the VDS count because every
/// additional VDS demand-pages (and synchronizes) each page (§6.2).

#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.h"

namespace vdom::bench {
namespace {

/// Runs the progressive-allocation workload: one address space holds the
/// data; code modules in the other address spaces immediately access it.
/// The same program with \p num_vdses = 1 (all modules in one address
/// space) is the baseline: the per-module application work is identical,
/// only the VDS switches + cross-VDS demand-paging synchronization differ.
///
/// \param modules   number of code modules touching each page.
/// \param num_vdses address spaces the modules are spread over (1 = all
///        share the allocator's).
/// \returns total cycles.
double
run_alloc_sync(hw::ArchKind arch, std::size_t modules,
               std::size_t num_vdses, int pages, double alloc_work,
               double module_work,
               telemetry::MetricsRegistry *registry = nullptr,
               hw::CycleBreakdown *breakdown_out = nullptr)
{
    std::optional<telemetry::ScopedMetrics> attach;
    if (registry)
        attach.emplace(*registry);
    BenchWorld world(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(2)
                                                : hw::ArchParams::arm(2));
    hw::Core &core = world.core(0);
    world.sys.vdom_init(core);
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(core, *task, std::max<std::size_t>(num_vdses, 1));

    std::vector<kernel::Vds *> vdses;
    vdses.push_back(world.proc.mm().vds0());
    for (std::size_t i = 1; i < num_vdses; ++i)
        vdses.push_back(world.proc.mm().create_vds());

    hw::Cycles t0 = core.now();
    for (int p = 0; p < pages; ++p) {
        // The allocator address space faults the page in and initializes
        // the data...
        hw::Vpn vpn = world.proc.mm().mmap(1);
        if (task->vds() != vdses[0])
            world.proc.switch_vds(core, *task, *vdses[0],
                                  hw::CostKind::kPgdSwitch);
        world.sys.access(core, *task, vpn, true);
        core.charge(hw::CostKind::kCompute, alloc_work);
        // ...and each module immediately consumes it.
        for (std::size_t m = 1; m < modules; ++m) {
            kernel::Vds *home = vdses[m % num_vdses];
            if (task->vds() != home)
                world.proc.switch_vds(core, *task, *home,
                                      hw::CostKind::kPgdSwitch);
            world.sys.access(core, *task, vpn, false);
            core.charge(hw::CostKind::kCompute, module_work);
        }
    }
    if (breakdown_out)
        *breakdown_out = world.machine.total_breakdown();
    return core.now() - t0;
}

/// Runs the baseline/split pair for one (arch, VDS-count) cell and
/// records it under --json.
double
overhead_pct(hw::ArchKind arch, std::size_t n, int pages, double alloc_work,
             double module_work, BenchReport &report)
{
    double base = run_alloc_sync(arch, n, 1, pages, alloc_work, module_work);
    telemetry::MetricsRegistry registry;
    hw::CycleBreakdown bd;
    bool record = report.enabled();
    double split = run_alloc_sync(arch, n, n, pages, alloc_work, module_work,
                                  record ? &registry : nullptr, &bd);
    double pct = (split / base - 1.0) * 100.0;
    if (record) {
        report.add()
            .config("arch", hw::arch_name(arch))
            .config("vdses", n)
            .config("pages", static_cast<std::uint64_t>(pages))
            .metric("base_cycles", base)
            .metric("split_cycles", split)
            .metric("overhead_pct", pct)
            .metrics_from(registry)
            .breakdown(bd)
            .percentiles_from(
                registry.histogram(telemetry::Metric::kWrvdrLatency));
    }
    return pct;
}

void
run(int pages, BenchReport &report)
{
    const std::vector<std::size_t> counts = {2, 4, 8, 16, 32};
    const std::vector<double> paper_x86 = {3.8, 8.9, 20.9, 38.8, 56.1};
    const std::vector<double> paper_arm = {19.7, 33.8, 0, 0, 0};
    // Application-work constants calibrated on the 2-VDS point (the sync
    // cost per page is a model property; the overhead ratio depends on the
    // app's own per-page compute).  The paper's ARM overheads are much
    // higher because the Pi's fault/switch path is slower relative to its
    // compute.
    const double alloc_x86 = 31'000, module_x86 = 690;
    const double alloc_arm = 5'300, module_arm = 2'400;

    sim::Table table(
        "Table 5: 4KB allocation+sync overhead across VDSes "
        "[measured % (paper %); ARM >4 VDSes undefined in the paper]");
    std::vector<std::string> header = {"# of VDSes"};
    for (std::size_t n : counts)
        header.push_back(std::to_string(n));
    table.columns(header);

    std::vector<std::string> row_x86 = {"X86 overhead (%)"};
    std::vector<std::string> row_arm = {"ARM overhead (%)"};
    for (std::size_t i = 0; i < counts.size(); ++i) {
        std::size_t n = counts[i];
        // Baseline: the same modules all share one address space.
        double x86_pct = overhead_pct(hw::ArchKind::kX86, n, pages,
                                      alloc_x86, module_x86, report);
        row_x86.push_back(vs_paper(x86_pct, paper_x86[i], 1));
        if (paper_arm[i] > 0) {
            double arm_pct = overhead_pct(hw::ArchKind::kArm, n, pages,
                                          alloc_arm, module_arm, report);
            row_arm.push_back(vs_paper(arm_pct, paper_arm[i], 1));
        } else {
            row_arm.push_back("undefined");
        }
    }
    table.row(row_x86);
    table.row(row_arm);
    table.print();

    std::printf("Note: with no data access from other address spaces the\n"
                "cost is close-to-zero thanks to demand paging (measured\n"
                "below).\n\n");
    // Demonstrate the close-to-zero claim: the modules exist but never
    // touch the data, so the extra VDSes cost (almost) nothing.
    double solo = run_alloc_sync(hw::ArchKind::kX86, 1, 1, pages,
                                 alloc_x86, module_x86);
    double idle = run_alloc_sync(hw::ArchKind::kX86, 1, 8, pages,
                                 alloc_x86, module_x86);
    std::printf("8 idle VDSes, allocator-only: %.2f%% overhead vs 1 VDS\n\n",
                (idle / solo - 1.0) * 100.0);
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("tab5_memsync", argc, argv))
        return 2;
    vdom::bench::BenchReport report("tab5_memsync", argc, argv);
    vdom::bench::run(2000, report);
    report.write();
    return 0;
}
