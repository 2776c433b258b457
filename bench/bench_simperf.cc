/// \file
/// Simulator hot-path performance (google-benchmark, wall-clock).
///
/// The paper-reproduction benches measure *simulated cycles*, for which
/// wall-clock timing is meaningless; this binary instead measures the
/// simulator's own throughput on its hot paths (TLB, page tables, the
/// virtualization algorithm, full app steps) so regressions in the
/// library's real performance are caught.

#include <benchmark/benchmark.h>

#include <memory>

#include "apps/pmo.h"
#include "apps/strategy.h"
#include "bench_util.h"
#include "hw/mmu.h"
#include "hw/page_table.h"
#include "hw/tlb.h"
#include "kernel/vma.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "vdom/vdr.h"

namespace vdom::bench {
namespace {

void
BM_TlbLookupHit(benchmark::State &state)
{
    hw::Tlb tlb(1536);
    for (hw::Vpn v = 0; v < 1024; ++v)
        tlb.insert(1, v, {});
    sim::Rng rng(1);
    for (auto _ : state) {
        auto hit = tlb.lookup(1, rng.below(1024));
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_TlbLookupHit);

void
BM_TlbInsertEvict(benchmark::State &state)
{
    hw::Tlb tlb(512);
    hw::Vpn v = 0;
    for (auto _ : state)
        tlb.insert(1, ++v, {});
}
BENCHMARK(BM_TlbInsertEvict);

void
BM_TlbSetAssocConflict(benchmark::State &state)
{
    // Opt-in set-associative geometry: 64 sets x 8 ways.  Round-robin over
    // 2x-ways vpns that all land in one set, so every insert past the
    // first 8 is a conflict eviction while the TLB is otherwise empty.
    hw::Tlb tlb(512, 0, 8);
    std::vector<hw::Vpn> conflicting;
    std::size_t target = tlb.set_index(1, 0x1000);
    for (hw::Vpn v = 0x1000; conflicting.size() < 2 * tlb.ways(); ++v) {
        if (tlb.set_index(1, v) == target)
            conflicting.push_back(v);
    }
    std::size_t i = 0;
    for (auto _ : state)
        tlb.insert(1, conflicting[i++ % conflicting.size()], {});
}
BENCHMARK(BM_TlbSetAssocConflict);

// Domain switches flush a nearly empty TLB (about 1-15 live entries on the
// Fig. 7 workload).  These two cases hold 4 live entries in a 1536-entry
// TLB, so they trip the perf-smoke gate if a flush goes back to costing
// O(capacity) instead of O(live entries).
void
BM_TlbFlushAllSparse(benchmark::State &state)
{
    hw::Tlb tlb(1536);
    for (auto _ : state) {
        for (hw::Vpn v = 0; v < 4; ++v)
            tlb.insert(1, v, {});
        tlb.flush_all();
    }
}
BENCHMARK(BM_TlbFlushAllSparse);

void
BM_TlbFlushAsidSparse(benchmark::State &state)
{
    hw::Tlb tlb(1536);
    tlb.insert(2, 0, {});
    tlb.insert(2, 1, {});
    for (auto _ : state) {
        tlb.insert(1, 0, {});
        tlb.insert(1, 1, {});
        tlb.flush_asid(1);
    }
}
BENCHMARK(BM_TlbFlushAsidSparse);

void
BM_PageTableTranslate(benchmark::State &state)
{
    hw::PageTable pt(512);
    for (hw::Vpn v = 0; v < 4096; ++v)
        pt.map_page(v, 3);
    sim::Rng rng(2);
    for (auto _ : state) {
        hw::Translation t = pt.translate(rng.below(4096));
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_PageTableTranslate);

void
BM_PmdDisableRemap2MB(benchmark::State &state)
{
    hw::PageTable pt(512);
    for (hw::Vpn v = 0; v < 512; ++v)
        pt.map_page(v, 6);
    for (auto _ : state) {
        pt.disable_range(0, 512, 1, true);
        pt.set_pdom_range(0, 512, 6, true);
    }
}
BENCHMARK(BM_PmdDisableRemap2MB);

void
BM_RadixTranslateSparse(benchmark::State &state)
{
    // Pages scattered one-per-PMD across the dense directory plus a band
    // beyond the dense limit, exercising both radix paths.
    hw::PageTable pt(512);
    std::vector<hw::Vpn> mapped;
    for (hw::Vpn pmd = 0; pmd < 1024; pmd += 8) {
        hw::Vpn v = pmd * 512 + (pmd % 512);
        pt.map_page(v, 3);
        mapped.push_back(v);
    }
    for (hw::Vpn pmd = 1u << 17; pmd < (1u << 17) + 256; pmd += 8) {
        hw::Vpn v = static_cast<hw::Vpn>(pmd) * 512;
        pt.map_page(v, 3);
        mapped.push_back(v);
    }
    sim::Rng rng(5);
    for (auto _ : state) {
        hw::Translation t = pt.translate(mapped[rng.below(mapped.size())]);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_RadixTranslateSparse);

void
BM_VmaCacheHit(benchmark::State &state)
{
    // Fault-stream pattern: repeated lookups inside one large region.  The
    // single-entry cache answers everything after the first probe.
    kernel::VmaTree vmas;
    for (hw::Vpn base = 0; base < 64 * 1024; base += 1024)
        vmas.insert(kernel::Vma{base, 1024, kCommonVdom, false});
    sim::Rng rng(6);
    for (auto _ : state) {
        const kernel::Vma *vma = vmas.find(32 * 1024 + rng.below(1024));
        benchmark::DoNotOptimize(vma);
    }
}
BENCHMARK(BM_VmaCacheHit);

void
BM_VmaCacheMiss(benchmark::State &state)
{
    // Adversarial pattern: alternate between distant regions so every
    // find misses the cache and pays the tree descent.
    kernel::VmaTree vmas;
    for (hw::Vpn base = 0; base < 64 * 1024; base += 1024)
        vmas.insert(kernel::Vma{base, 1024, kCommonVdom, false});
    hw::Vpn toggle = 0;
    for (auto _ : state) {
        toggle ^= 48 * 1024;
        const kernel::Vma *vma = vmas.find(toggle + 17);
        benchmark::DoNotOptimize(vma);
    }
}
BENCHMARK(BM_VmaCacheMiss);

void
BM_VdrFlatScan(benchmark::State &state)
{
    // rdvdr over a 32-entry active set with rotating ids: each get() past
    // the memo is one binary search over the contiguous array.
    Vdr vdr;
    for (VdomId v = 2; v < 34; ++v)
        vdr.set(v, VPerm::kFullAccess);
    VdomId next = 2;
    for (auto _ : state) {
        VPerm p = vdr.get(next);
        benchmark::DoNotOptimize(p);
        next = 2 + (next - 1) % 32;
    }
}
BENCHMARK(BM_VdrFlatScan);

void
BM_MmuAccessHit(benchmark::State &state)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    hw::PageTable pt(512);
    pt.map_page(7, 0);
    machine.core(0).set_pgd(&pt, 1);
    for (auto _ : state) {
        hw::AccessResult r = hw::Mmu::access(machine.core(0), 7, false);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MmuAccessHit);

void
BM_WrvdrMapped(benchmark::State &state)
{
    BenchWorld world(hw::ArchParams::x86(1));
    world.sys.vdom_init(world.core(0));
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(world.core(0), *task, 1);
    VdomId v = world.sys.vdom_alloc(world.core(0));
    hw::Vpn vpn = world.proc.mm().mmap(1);
    world.sys.vdom_mprotect(world.core(0), vpn, 1, v);
    world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
    for (auto _ : state) {
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kWriteDisable);
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
    }
}
BENCHMARK(BM_WrvdrMapped);

void
BM_WrvdrEvictionChurn(benchmark::State &state)
{
    BenchWorld world(hw::ArchParams::x86(1));
    world.sys.vdom_init(world.core(0));
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(world.core(0), *task, 1);
    std::vector<VdomId> doms;
    for (int i = 0; i < 20; ++i) {
        VdomId v = world.sys.vdom_alloc(world.core(0));
        hw::Vpn vpn = world.proc.mm().mmap(1);
        world.sys.vdom_mprotect(world.core(0), vpn, 1, v);
        doms.push_back(v);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        VdomId v = doms[i++ % doms.size()];
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kAccessDisable);
    }
}
BENCHMARK(BM_WrvdrEvictionChurn);

/// Context switch (switch_mm + permission-register rebuild) of a task
/// whose VDS maps 13 vdoms, with \p vdr_entries entries in its VDR: two
/// FA grants on mapped vdoms, the rest pinned unmapped ones.  The rebuild
/// walks the VDR, so the two sizes bracket its linear cost.
void
switch_to_loop(benchmark::State &state, std::size_t vdr_entries)
{
    BenchWorld world(hw::ArchParams::x86(1));
    world.sys.vdom_init(world.core(0));
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(world.core(0), *task, 1);
    for (std::size_t i = 0; i < 13; ++i) {
        VdomId v = world.sys.vdom_alloc(world.core(0));
        hw::Vpn vpn = world.proc.mm().mmap(1);
        world.sys.vdom_mprotect(world.core(0), vpn, 1, v);
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
        if (i >= 2)
            world.sys.wrvdr(world.core(0), *task, v, VPerm::kAccessDisable);
    }
    for (std::size_t n = 2; n < vdr_entries; ++n) {
        VdomId v = world.sys.vdom_alloc(world.core(0));
        world.sys.wrvdr(world.core(0), *task, v, VPerm::kPinned);
    }
    for (auto _ : state) {
        world.proc.switch_to(world.core(0), *task);
        benchmark::DoNotOptimize(world.core(0).perm_reg().raw());
    }
}

void
BM_SwitchToSmallVdr(benchmark::State &state)
{
    // The MySQL (Fig. 6) shape: |VDR| = 2 < 13 mapped.
    switch_to_loop(state, 2);
}
BENCHMARK(BM_SwitchToSmallVdr);

void
BM_SwitchToLargeVdr(benchmark::State &state)
{
    // The Kard shape: |VDR| = 256 > 13 mapped.
    switch_to_loop(state, 256);
}
BENCHMARK(BM_SwitchToLargeVdr);

void
BM_PmoWorkloadStep(benchmark::State &state)
{
    // Full-stack: one simulated PMO op per iteration under VDom.
    BenchWorld world(hw::ArchParams::x86(4));
    world.sys.vdom_init(world.core(0));
    apps::VdomStrategy strat(world.sys, 6);
    std::size_t ops = 0;
    for (auto _ : state) {
        state.PauseTiming();
        BenchWorld fresh(hw::ArchParams::x86(4));
        fresh.sys.vdom_init(fresh.core(0));
        apps::VdomStrategy s(fresh.sys, 6);
        apps::PmoConfig cfg = apps::PmoConfig::for_arch(hw::ArchKind::kX86, 2);
        cfg.ops_per_thread = 500;
        state.ResumeTiming();
        apps::PmoResult r =
            apps::run_pmo(fresh.machine, fresh.proc, s, cfg);
        ops += r.completed;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_PmoWorkloadStep)->Unit(benchmark::kMillisecond);

/// One simulated thread of the share-nothing engine workload: MMU-heavy
/// steps against its own process's address space.
class ShareNothingWorker final : public sim::SimThread {
  public:
    ShareNothingWorker(hw::Vpn base, std::size_t pages, std::size_t steps)
        : base_(base), pages_(pages), remaining_(steps)
    {
    }

    bool
    step(hw::Core &core) override
    {
        if (remaining_ == 0)
            return false;
        --remaining_;
        for (std::size_t i = 0; i < 128; ++i) {
            hw::Vpn vpn = base_ + (i * 13 + remaining_) % pages_;
            hw::AccessResult r = hw::Mmu::access(core, vpn, (i & 7) == 0);
            benchmark::DoNotOptimize(r);
        }
        return true;
    }

  private:
    hw::Vpn base_;
    std::size_t pages_;
    std::size_t remaining_;
};

void
BM_EngineShareNothing(benchmark::State &state)
{
    // Eight single-threaded processes pinned to eight simulated cores.
    const std::size_t sim_cores = 8;
    const std::size_t pages = 64;
    const std::size_t steps = 2000;
    std::uint64_t total_steps = 0;
    for (auto _ : state) {
        state.PauseTiming();
        hw::Machine machine(hw::ArchParams::x86(sim_cores));
        std::vector<std::unique_ptr<kernel::Process>> procs;
        std::vector<std::unique_ptr<ShareNothingWorker>> workers;
        sim::Engine engine(machine, nullptr, 4'000'000);
        for (std::size_t c = 0; c < sim_cores; ++c) {
            procs.push_back(std::make_unique<kernel::Process>(machine));
            kernel::Process &proc = *procs.back();
            kernel::Task *task = proc.create_task();
            hw::Vpn base = proc.mm().mmap(pages, false);
            proc.switch_to(machine.core(c), *task, false);
            for (std::size_t i = 0; i < pages; ++i)
                proc.mm().fault_in(machine.core(c), *proc.mm().vds0(),
                                   base + i);
            machine.core(c).reset();
            workers.push_back(
                std::make_unique<ShareNothingWorker>(base, pages, steps));
            workers.back()->set_task(proc, task);
            engine.add_thread(workers.back().get(), static_cast<int>(c));
        }
        state.ResumeTiming();
        engine.run();
        total_steps += engine.steps();
        benchmark::DoNotOptimize(engine.steps());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_steps));
}
BENCHMARK(BM_EngineShareNothing)->Unit(benchmark::kMillisecond);

/// ConsoleReporter that also mirrors every run into the --json report
/// (real/cpu nanoseconds per iteration, matching the schema of the
/// simulated-cycle benches).
class RecordingReporter : public benchmark::ConsoleReporter {
  public:
    explicit RecordingReporter(BenchReport &report) : report_(&report) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred || run.iterations == 0)
                continue;
            double iters = static_cast<double>(run.iterations);
            report_->add()
                .config("case", run.benchmark_name())
                .metric("real_time_ns_per_iter",
                        run.real_accumulated_time / iters * 1e9)
                .metric("cpu_time_ns_per_iter",
                        run.cpu_accumulated_time / iters * 1e9)
                .metric("iterations", iters);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    BenchReport *report_;
};

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    vdom::bench::BenchReport report("bench_simperf", argc, argv);
    // Strip the flags google-benchmark does not recognize before
    // Initialize sees them.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            ++i;  // Skip the path operand too.
            continue;
        }
        if (arg == "--quick")
            continue;
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    vdom::bench::RecordingReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    report.write();
    return 0;
}
