/// \file
/// Table 4 reproduction: average wrvdr (and counterpart) cycles on
/// sequential and switch-triggering accesses over 2MB vdoms.
///
/// Rows: VDom X86 fast/secure (VDS-switch flavour), VDom X86 eviction
/// flavour, libmpk, EPK (per the paper's cycle-insertion methodology),
/// VDom ARM and ARM eviction flavour.
///
/// Counting convention (matches the paper's jump points): VDom columns
/// count vdoms *including* the common vdom0, so "16 vdoms" = 15 protected
/// domains > 14 usable pdoms on X86; libmpk/EPK columns count allocated
/// protection keys.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/epk.h"
#include "baselines/libmpk.h"
#include "bench_util.h"

namespace vdom::bench {
namespace {

constexpr std::uint64_t kPages = 512;  // 2MB vdoms (512 pages).

/// Builds the access order: sequential or switch-triggering (strided
/// across address-space-sized groups so consecutive accesses live in
/// different VDSes/EPTs).
std::vector<std::size_t>
access_order(std::size_t domains, std::size_t group, bool trigger)
{
    std::vector<std::size_t> order;
    if (!trigger || domains <= group) {
        for (std::size_t d = 0; d < domains; ++d)
            order.push_back(d);
        return order;
    }
    std::size_t groups = (domains + group - 1) / group;
    for (std::size_t i = 0; order.size() < domains; ++i) {
        std::size_t g = i % groups;
        std::size_t idx = g * group + (i / groups);
        if (idx < domains)
            order.push_back(idx);
    }
    return order;
}

/// VDom flavours.
double
measure_vdom(hw::ArchKind arch, std::size_t vdom_count, ApiMode mode,
             bool eviction_mode, bool trigger, int rounds)
{
    BenchWorld world(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(2)
                                                : hw::ArchParams::arm(2));
    hw::Core &core = world.core(0);
    world.sys.vdom_init(core);
    kernel::Task *task = world.spawn(0);
    std::size_t usable = world.machine.params().usable_pdoms();
    world.sys.vdr_alloc(core, *task, eviction_mode ? 1 : 8);

    // "# of vdoms" includes vdom0: allocate count-1 protected domains.
    std::size_t protected_count = vdom_count > 0 ? vdom_count - 1 : 0;
    std::vector<VdomId> doms;
    for (std::size_t d = 0; d < protected_count; ++d) {
        VdomId v = world.sys.vdom_alloc(core);
        hw::Vpn vpn = world.proc.mm().mmap(kPages);
        world.sys.vdom_mprotect(core, vpn, kPages, v);
        doms.push_back(v);
        // Fault the pages in once so evictions hit full 2MB spans.
        world.sys.wrvdr(core, *task, v, VPerm::kFullAccess, mode);
        for (std::uint64_t p = 0; p < kPages; p += 1)
            world.sys.access(core, *task, vpn + p, true);
        world.sys.wrvdr(core, *task, v, VPerm::kAccessDisable, mode);
    }
    if (doms.empty())
        return 0;
    auto order = access_order(doms.size(), usable, trigger);
    // Warm-up pass to reach steady state.
    for (std::size_t idx : order) {
        world.sys.wrvdr(core, *task, doms[idx], VPerm::kFullAccess, mode);
        world.sys.wrvdr(core, *task, doms[idx], VPerm::kAccessDisable,
                        mode);
    }
    hw::Cycles t0 = core.now();
    std::uint64_t calls = 0;
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t idx : order) {
            world.sys.wrvdr(core, *task, doms[idx], VPerm::kFullAccess,
                            mode);
            world.sys.wrvdr(core, *task, doms[idx], VPerm::kAccessDisable,
                            mode);
            ++calls;
        }
    }
    // Table 4 reports the cost of the activating wrvdr; the AD write is
    // constant and subtracted out.
    double per_pair = (core.now() - t0) / static_cast<double>(calls);
    double ad_cost = arch == hw::ArchKind::kX86
        ? (mode == ApiMode::kSecure ? 104.0 : 68.8)
        : 406.0;
    return per_pair - ad_cost;
}

double
measure_libmpk(std::size_t keys, bool trigger, int rounds)
{
    BenchWorld world(hw::ArchParams::x86(2));
    hw::Core &core = world.core(0);
    baselines::LibMpk mpk(world.proc);
    kernel::Task *task = world.spawn(0);
    std::vector<int> ids;
    for (std::size_t k = 0; k < keys; ++k) {
        hw::Vpn vpn = world.proc.mm().mmap(kPages);
        int key = mpk.pkey_alloc(core);
        mpk.pkey_mprotect(core, vpn, kPages, key);
        ids.push_back(key);
    }
    auto order = access_order(ids.size(), 15, trigger);
    for (std::size_t idx : order) {
        mpk.pkey_set(core, *task, ids[idx], VPerm::kFullAccess);
        mpk.pkey_set(core, *task, ids[idx], VPerm::kAccessDisable);
    }
    hw::Cycles t0 = core.now();
    std::uint64_t calls = 0;
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t idx : order) {
            mpk.pkey_set(core, *task, ids[idx], VPerm::kFullAccess);
            mpk.pkey_set(core, *task, ids[idx], VPerm::kAccessDisable);
            ++calls;
        }
    }
    double per_pair = (core.now() - t0) / static_cast<double>(calls);
    return per_pair - world.machine.params().costs.pkey_set;
}

double
measure_epk(std::size_t keys, bool trigger, int rounds)
{
    BenchWorld world(hw::ArchParams::x86(2));
    hw::Core &core = world.core(0);
    baselines::Epk epk(world.machine.params());
    kernel::Task *task = world.spawn(0);
    std::vector<int> ids;
    for (std::size_t k = 0; k < keys; ++k)
        ids.push_back(epk.key_alloc(core));
    auto order = access_order(ids.size(), 15, trigger);
    core.reset();
    std::uint64_t calls = 0;
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t idx : order) {
            epk.key_set(core, *task, ids[idx], VPerm::kFullAccess);
            ++calls;
        }
    }
    return core.now() / static_cast<double>(calls);
}

void
run(int rounds, BenchReport &report)
{
    const std::vector<std::size_t> counts = {3, 4, 15, 16, 29, 32, 64, 70};
    struct RowSpec {
        const char *name;
        std::function<double(std::size_t)> fn;
        std::vector<double> paper;  // Reference values, 0 = NA.
    };
    using hw::ArchKind;
    std::vector<RowSpec> rows = {
        {"VDom X86f seq",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kX86, n, ApiMode::kFast, false,
                                 false, rounds);
         },
         {70, 73, 82, 151, 121, 141, 138, 134}},
        {"VDom X86f trig",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kX86, n, ApiMode::kFast, false,
                                 true, rounds);
         },
         {70, 75, 82, 530, 552, 566, 704, 701}},
        {"VDom X86s seq",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kX86, n, ApiMode::kSecure, false,
                                 false, rounds);
         },
         {107, 104, 113, 183, 152, 171, 161, 166}},
        {"VDom X86s trig",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kX86, n, ApiMode::kSecure, false,
                                 true, rounds);
         },
         {105, 106, 113, 573, 611, 623, 771, 765}},
        {"VDom X86e seq",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kX86, n, ApiMode::kFast, true,
                                 false, rounds);
         },
         {69, 70, 82, 301, 1565, 1594, 1598, 1605}},
        {"libmpk seq",
         [&](std::size_t n) { return measure_libmpk(n, false, rounds); },
         {102, 103, 150, 30609, 30909, 30877, 30721, 30704}},
        {"EPK seq",
         [&](std::size_t n) { return measure_epk(n, false, rounds); },
         {97, 97, 101, 111, 0, 115, 162, 0}},
        {"EPK trig",
         [&](std::size_t n) { return measure_epk(n, true, rounds); },
         {97, 97, 101, 0, 0, 350, 830, 830}},
        {"VDom ARM seq",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kArm, n, ApiMode::kSecure, false,
                                 false, rounds);
         },
         {406, 423, 491, 486, 536, 480, 490, 533}},
        {"VDom ARM trig",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kArm, n, ApiMode::kSecure, false,
                                 true, rounds);
         },
         {408, 433, 668, 662, 695, 714, 779, 811}},
        {"VDom ARMe seq",
         [&](std::size_t n) {
             return measure_vdom(ArchKind::kArm, n, ApiMode::kSecure, true,
                                 false, rounds);
         },
         {408, 421, 1613, 1895, 3137, 3161, 3187, 3185}},
    };

    sim::Table table(
        "Table 4: average wrvdr cycles, 2MB (512-page) vdoms "
        "[measured (paper; 0 = not reported)]");
    std::vector<std::string> header = {"# of vdoms"};
    for (std::size_t n : counts)
        header.push_back(std::to_string(n));
    table.columns(header);
    for (RowSpec &row : rows) {
        std::vector<std::string> cells = {row.name};
        for (std::size_t i = 0; i < counts.size(); ++i) {
            telemetry::MetricsRegistry registry;
            double v;
            {
                std::optional<telemetry::ScopedMetrics> attach;
                if (report.enabled())
                    attach.emplace(registry);
                v = row.fn(counts[i]);
            }
            if (report.enabled()) {
                report.add()
                    .config("row", row.name)
                    .config("vdoms", counts[i])
                    .metric("cycles", v)
                    .metric("paper_cycles", row.paper[i])
                    .metrics_from(registry)
                    .percentiles_from(registry.histogram(
                        telemetry::Metric::kWrvdrLatency));
            }
            cells.push_back(vs_paper(v, row.paper[i], 0));
        }
        table.row(cells);
        std::fprintf(stderr, ".");
    }
    std::fprintf(stderr, "\n");
    table.print();
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("tab4_domain_access", argc, argv))
        return 2;
    vdom::bench::BenchReport report("tab4_domain_access", argc, argv);
    vdom::bench::run(12, report);
    report.write();
    return 0;
}
