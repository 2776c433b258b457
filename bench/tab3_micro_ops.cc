/// \file
/// Table 3 reproduction: average cycles of common operations, plus the
/// §7.5 context-switch measurements.
///
/// Every row is *measured* by driving the real code paths on the simulated
/// platform (not read from the cost table): wrvdr variants run against
/// mapped domains, eviction rows sample the wrvdr calls that actually
/// evicted, the VDS-switch row samples calls that switched pgd, and the
/// context-switch rows drive Process::switch_to.

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"

namespace vdom::bench {
namespace {

struct Sample {
    double sum = 0;
    std::uint64_t count = 0;

    void
    add(double v)
    {
        sum += v;
        ++count;
    }

    double mean() const { return count ? sum / count : 0; }
};

/// Measures the steady-state cost of wrvdr(FA)+wrvdr(AD)... filtered.
/// \param pages domain size in pages.
/// \param domains how many protected vdoms to cycle through.
/// \param nas vdr_alloc limit (1 = eviction mode).
/// \param mode secure or fast API.
/// \param filter "all" | "evict" | "switch" | "mapped".
/// \param registry the attached metrics registry; each call is classified
///        by the `virt.hlru_evict` and `virt.vds_switch` counts it adds.
double
measure_wrvdr(hw::ArchKind arch, std::uint64_t pages, std::size_t domains,
              std::size_t nas, ApiMode mode, const char *filter,
              int rounds, const telemetry::MetricsRegistry &registry)
{
    BenchWorld world(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(2)
                                                : hw::ArchParams::arm(2));
    hw::Core &core = world.core(0);
    world.sys.vdom_init(core);
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(core, *task, nas);

    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t d = 0; d < domains; ++d) {
        VdomId v = world.sys.vdom_alloc(core);
        hw::Vpn vpn = world.proc.mm().mmap(pages);
        world.sys.vdom_mprotect(core, vpn, pages, v);
        doms.emplace_back(v, vpn);
    }
    // Warm up: fault every page in and let the working set settle.
    for (auto &[v, vpn] : doms) {
        world.sys.wrvdr(core, *task, v, VPerm::kFullAccess, mode);
        for (std::uint64_t p = 0; p < pages; ++p)
            world.sys.access(core, *task, vpn + p, true);
        world.sys.wrvdr(core, *task, v, VPerm::kAccessDisable, mode);
    }

    using telemetry::Metric;
    Sample sample;
    for (int r = 0; r < rounds; ++r) {
        for (auto &[v, vpn] : doms) {
            (void)vpn;
            std::uint64_t evict0 = registry.value(Metric::kHlruEvict);
            std::uint64_t switch0 = registry.value(Metric::kVdsSwitch);
            hw::Cycles t0 = core.now();
            world.sys.wrvdr(core, *task, v, VPerm::kFullAccess, mode);
            hw::Cycles cost = core.now() - t0;
            bool evicted = registry.value(Metric::kHlruEvict) > evict0;
            bool switched = registry.value(Metric::kVdsSwitch) > switch0;
            bool keep = false;
            if (std::string(filter) == "all")
                keep = true;
            else if (std::string(filter) == "evict")
                keep = evicted;
            else if (std::string(filter) == "switch")
                keep = switched;
            else if (std::string(filter) == "mapped")
                keep = !evicted && !switched;
            if (keep)
                sample.add(cost);
            world.sys.wrvdr(core, *task, v, VPerm::kAccessDisable, mode);
        }
    }
    return sample.mean();
}

/// Context-switch costs (§7.5).
struct CtxCosts {
    double plain;
    double vdom_passive;
    double to_vds;
};

CtxCosts
measure_context_switch(hw::ArchKind arch)
{
    BenchWorld world(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(2)
                                                : hw::ArchParams::arm(2));
    hw::Core &core = world.core(1);
    world.sys.vdom_init(world.core(0));

    kernel::Task *plain_a = world.proc.create_task();
    kernel::Task *plain_b = world.proc.create_task();
    kernel::Task *vdomer = world.proc.create_task();
    world.sys.vdr_alloc(world.core(0), *vdomer, 4);
    // Put the VDom task into a non-default VDS.
    kernel::Vds *vds = world.proc.mm().create_vds();
    world.proc.switch_to(world.core(0), *vdomer, false);
    world.proc.switch_vds(world.core(0), *vdomer, *vds,
                          hw::CostKind::kPgdSwitch);

    auto avg = [&](kernel::Task *a, kernel::Task *b, int iters) {
        hw::Cycles t0 = core.now();
        for (int i = 0; i < iters; ++i) {
            world.proc.switch_to(core, *a);
            world.proc.switch_to(core, *b);
        }
        return (core.now() - t0) / (2.0 * iters);
    };
    CtxCosts costs{};
    costs.plain = avg(plain_a, plain_b, 500);
    // "switch to a process not using VDom" from a VDom task.
    hw::Cycles t0 = core.now();
    for (int i = 0; i < 500; ++i) {
        world.proc.switch_to(core, *vdomer);
        t0 = core.now();
        world.proc.switch_to(core, *plain_a);
    }
    costs.vdom_passive = core.now() - t0;
    // "an average switch to a VDS".
    Sample to_vds;
    for (int i = 0; i < 500; ++i) {
        world.proc.switch_to(core, *plain_a);
        hw::Cycles t1 = core.now();
        world.proc.switch_to(core, *vdomer);
        to_vds.add(core.now() - t1);
    }
    costs.to_vds = to_vds.mean();
    return costs;
}

void
run(int rounds, BenchReport &report)
{
    using hw::ArchKind;
    sim::Table table("Table 3: average cycles of common operations "
                     "[measured (paper)]");
    table.columns({"Operation", "X86 cycles", "ARM cycles"});

    // One record per (operation, arch) cell.  wrvdr-family rows attach a
    // metrics registry: its virt.* counts classify each sampled call, and
    // its kWrvdrLatency histogram backs the record's percentiles.
    auto rec_simple = [&](const char *op, const char *arch, double v,
                          double paper) {
        if (report.enabled())
            report.add()
                .config("op", op)
                .config("arch", arch)
                .metric("cycles", v)
                .metric("paper_cycles", paper);
    };
    auto measure_rec = [&](const char *op, ArchKind arch,
                           std::uint64_t pages, std::size_t domains,
                           std::size_t nas, ApiMode mode,
                           const char *filter, double paper) {
        telemetry::MetricsRegistry registry;
        double v;
        {
            telemetry::ScopedMetrics attach(registry);
            v = measure_wrvdr(arch, pages, domains, nas, mode, filter,
                              rounds, registry);
        }
        if (report.enabled()) {
            report.add()
                .config("op", op)
                .config("arch", hw::arch_name(arch))
                .metric("cycles", v)
                .metric("paper_cycles", paper)
                .metrics_from(registry)
                .percentiles_from(registry.histogram(
                    telemetry::Metric::kWrvdrLatency));
        }
        return v;
    };

    const hw::CostTable x86 = hw::default_costs(ArchKind::kX86);
    const hw::CostTable arm = hw::default_costs(ArchKind::kArm);
    rec_simple("empty api call", "X86", x86.api_call, 6.7);
    rec_simple("empty api call", "ARM", arm.api_call, 16.5);
    rec_simple("empty syscall", "X86", x86.syscall, 173.4);
    rec_simple("empty syscall", "ARM", arm.syscall, 268.3);
    rec_simple("perm reg write", "X86", x86.perm_reg_write, 25.6);
    rec_simple("perm reg write", "ARM", arm.perm_reg_write, 18.1);
    rec_simple("vmfunc", "X86", x86.vmfunc_base, 169);
    table.row({"empty API call return", vs_paper(x86.api_call, 6.7, 1),
               vs_paper(arm.api_call, 16.5, 1)});
    table.row({"empty syscall return", vs_paper(x86.syscall, 173.4, 1),
               vs_paper(arm.syscall, 268.3, 1)});
    table.row({"update PKRU or DACR",
               vs_paper(x86.perm_reg_write, 25.6, 1),
               vs_paper(arm.perm_reg_write, 18.1, 1)});
    table.row({"VMFUNC", vs_paper(x86.vmfunc_base, 169, 0), "undefined"});

    // Fast + secure wrvdr on mapped vdoms (2MB working set, 8 domains).
    double fast_x86 = measure_rec("fast wrvdr mapped", ArchKind::kX86, 512,
                                  8, 1, ApiMode::kFast, "mapped", 68.8);
    double sec_x86 = measure_rec("secure wrvdr mapped", ArchKind::kX86, 512,
                                 8, 1, ApiMode::kSecure, "mapped", 104);
    double sec_arm = measure_rec("secure wrvdr mapped", ArchKind::kArm, 512,
                                 8, 1, ApiMode::kSecure, "mapped", 406);
    table.row({"fast wrvdr API call return", vs_paper(fast_x86, 68.8, 1),
               vs_paper(sec_arm, 406, 0)});
    table.row({"secure wrvdr API call return", vs_paper(sec_x86, 104, 0),
               vs_paper(sec_arm, 406, 0)});

    // Evictions: nas=1 with one more domain than fits.
    auto evict = [&](const char *op, ArchKind arch, std::uint64_t pages,
                     double paper) {
        std::size_t usable = (arch == ArchKind::kX86)
            ? hw::ArchParams::x86(2).usable_pdoms()
            : hw::ArchParams::arm(2).usable_pdoms();
        double v = measure_rec(op, arch, pages, usable + 1, 1,
                               ApiMode::kSecure, "evict", paper);
        return vs_paper(v, paper, 0);
    };
    table.row({"secure wrvdr with 4KB eviction",
               evict("secure wrvdr evict 4KB", ArchKind::kX86, 1, 1639),
               evict("secure wrvdr evict 4KB", ArchKind::kArm, 1, 2274)});
    table.row({"secure wrvdr with 2MB eviction",
               evict("secure wrvdr evict 2MB", ArchKind::kX86, 512, 1605),
               evict("secure wrvdr evict 2MB", ArchKind::kArm, 512, 3159)});
    table.row({"secure wrvdr with 64MB eviction",
               evict("secure wrvdr evict 64MB", ArchKind::kX86, 512 * 32,
                     8097),
               evict("secure wrvdr evict 64MB", ArchKind::kArm, 512 * 32,
                     11778)});

    // VDS switch: nas=4 with two address spaces' worth of domains.
    std::size_t ux = hw::ArchParams::x86(2).usable_pdoms();
    std::size_t ua = hw::ArchParams::arm(2).usable_pdoms();
    double sw_x86 = measure_rec("secure wrvdr vds switch", ArchKind::kX86,
                                512, 2 * ux, 4, ApiMode::kSecure, "switch",
                                583);
    double sw_arm = measure_rec("secure wrvdr vds switch", ArchKind::kArm,
                                512, 2 * ua, 4, ApiMode::kSecure, "switch",
                                723);
    table.row({"secure wrvdr with VDS switch", vs_paper(sw_x86, 583, 0),
               vs_paper(sw_arm, 723, 0)});
    table.print();

    sim::Table ctx("Section 7.5: context switch [measured (paper)]");
    ctx.columns({"Operation", "X86 cycles", "ARM cycles"});
    CtxCosts cx = measure_context_switch(ArchKind::kX86);
    CtxCosts ca = measure_context_switch(ArchKind::kArm);
    rec_simple("switch_mm plain", "X86", cx.plain, 426.3);
    rec_simple("switch_mm plain", "ARM", ca.plain, 1339.8);
    rec_simple("switch_mm from vdom", "X86", cx.vdom_passive, 451.9);
    rec_simple("switch_mm from vdom", "ARM", ca.vdom_passive, 1442.1);
    rec_simple("switch to vds", "X86", cx.to_vds, 771.7);
    rec_simple("switch to vds", "ARM", ca.to_vds, 1545.1);
    ctx.row({"switch_mm, plain process", vs_paper(cx.plain, 426.3, 1),
             vs_paper(ca.plain, 1339.8, 1)});
    ctx.row({"switch_mm from VDom process",
             vs_paper(cx.vdom_passive, 451.9, 1),
             vs_paper(ca.vdom_passive, 1442.1, 1)});
    ctx.row({"switch to a VDS", vs_paper(cx.to_vds, 771.7, 1),
             vs_paper(ca.to_vds, 1545.1, 1)});
    ctx.print();
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("tab3_micro_ops", argc, argv))
        return 2;
    vdom::bench::BenchReport report("tab3_micro_ops", argc, argv);
    vdom::bench::run(200, report);
    report.write();
    return 0;
}
