/// \file
/// Multi-process machine tests: several processes (VDom-using and plain)
/// share the simulated cores without leaking protection state.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "kernel/process.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/thread.h"
#include "telemetry/flightrec.h"
#include "vdom/api.h"

namespace vdom {
namespace {

/// A worker that repeatedly writes its process's protected page and
/// verifies it can never touch the other process's page.
class ProcWorker final : public sim::SimThread {
  public:
    ProcWorker(VdomSystem &sys, VdomId domain, hw::Vpn own,
               hw::Vpn foreign, int rounds)
        : sys_(&sys),
          domain_(domain),
          own_(own),
          foreign_(foreign),
          rounds_(rounds)
    {
    }

    bool ok() const { return ok_; }
    bool isolated() const { return isolated_; }

    bool
    step(hw::Core &core) override
    {
        if (!init_) {
            sys_->vdr_alloc(core, *task(), 2);
            sys_->wrvdr(core, *task(), domain_, VPerm::kFullAccess);
            init_ = true;
            return true;
        }
        if (rounds_ == 0)
            return false;
        ok_ = ok_ && sys_->access(core, *task(), own_, true).ok;
        // The foreign page belongs to ANOTHER PROCESS: its vpn is not
        // even mapped in this process's address space.
        isolated_ =
            isolated_ && sys_->access(core, *task(), foreign_, false).sigsegv;
        core.charge(hw::CostKind::kCompute, 10'000);
        --rounds_;
        return true;
    }

  private:
    VdomSystem *sys_;
    VdomId domain_;
    hw::Vpn own_, foreign_;
    int rounds_;
    bool init_ = false;
    bool ok_ = true;
    bool isolated_ = true;
};

TEST(MultiProcess, TwoVdomProcessesShareTheMachine)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    kernel::Process proc_a(machine), proc_b(machine);
    VdomSystem sys_a(proc_a), sys_b(proc_b);
    sys_a.vdom_init(machine.core(0));
    sys_b.vdom_init(machine.core(1));

    VdomId dom_a = sys_a.vdom_alloc(machine.core(0));
    hw::Vpn page_a = proc_a.mm().mmap(1);
    sys_a.vdom_mprotect(machine.core(0), page_a, 1, dom_a);
    VdomId dom_b = sys_b.vdom_alloc(machine.core(1));
    hw::Vpn page_b = proc_b.mm().mmap(1);
    sys_b.vdom_mprotect(machine.core(1), page_b, 1, dom_b);

    // Make the "foreign" probe interesting: an address that IS mapped in
    // the other process (same numeric vpn range) but not in ours is
    // indistinguishable from unmapped memory.
    ProcWorker worker_a(sys_a, dom_a, page_a, page_b + 1000, 50);
    ProcWorker worker_b(sys_b, dom_b, page_b, page_a + 1000, 50);
    worker_a.set_task(proc_a, proc_a.create_task());
    worker_b.set_task(proc_b, proc_b.create_task());

    // Both pinned to core 0: every rotation is a cross-process context
    // switch.
    sim::Engine engine(machine, nullptr, /*time_slice=*/30'000);
    engine.add_thread(&worker_a, 0);
    engine.add_thread(&worker_b, 0);
    engine.run();

    EXPECT_TRUE(worker_a.ok());
    EXPECT_TRUE(worker_b.ok());
    EXPECT_TRUE(worker_a.isolated());
    EXPECT_TRUE(worker_b.isolated());
    EXPECT_GT(engine.context_switches(), 10u);
}

TEST(MultiProcess, TlbNeverLeaksTranslationsAcrossProcesses)
{
    // Both processes map the SAME numeric vpn with different domains; the
    // machine-unique ASIDs must keep the cached translations apart.
    hw::Machine machine(hw::ArchParams::x86(1));
    kernel::Process proc_a(machine), proc_b(machine);
    VdomSystem sys_a(proc_a), sys_b(proc_b);
    hw::Core &core = machine.core(0);
    sys_a.vdom_init(core);
    sys_b.vdom_init(core);

    hw::Vpn page_a = proc_a.mm().mmap(1);
    hw::Vpn page_b = proc_b.mm().mmap(1);
    ASSERT_EQ(page_a, page_b);  // Same numeric address space offsets.

    // Protect the page in process B only.
    VdomId dom_b = sys_b.vdom_alloc(core);
    sys_b.vdom_mprotect(core, page_b, 1, dom_b);

    kernel::Task *task_a = proc_a.create_task();
    kernel::Task *task_b = proc_b.create_task();

    // A touches its (unprotected) page: cached under A's ASID.
    proc_a.switch_to(core, *task_a, false);
    EXPECT_TRUE(sys_a.access(core, *task_a, page_a, true).ok);

    // Switch to B: the same vpn must NOT hit A's cached translation — B's
    // view is protected and must fault.
    proc_b.switch_to(core, *task_b);
    sys_b.vdr_alloc(core, *task_b, 1);
    EXPECT_TRUE(sys_b.access(core, *task_b, page_b, true).sigsegv);

    // And back: A's view is still fine.
    proc_a.switch_to(core, *task_a);
    EXPECT_TRUE(sys_a.access(core, *task_a, page_a, false).ok);
}

TEST(MultiProcess, PlainProcessNextToVdomProcess)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    kernel::Process vdomful(machine), plain(machine);
    VdomSystem sys(vdomful);
    hw::Core &core = machine.core(0);
    sys.vdom_init(core);
    kernel::Task *vt = vdomful.create_task();
    vdomful.switch_to(core, *vt, false);
    sys.vdr_alloc(core, *vt, 2);
    VdomId dom = sys.vdom_alloc(core);
    hw::Vpn page = vdomful.mm().mmap(1);
    sys.vdom_mprotect(core, page, 1, dom);
    sys.wrvdr(core, *vt, dom, VPerm::kFullAccess);
    ASSERT_TRUE(sys.access(core, *vt, page, true).ok);

    // Ping-pong with a plain process; the VDom thread's permissions
    // survive every round trip.
    kernel::Task *pt = plain.create_task();
    for (int i = 0; i < 20; ++i) {
        plain.switch_to(core, *pt);
        vdomful.switch_to(core, *vt);
        ASSERT_TRUE(sys.access(core, *vt, page, true).ok) << i;
    }
    // Revocation still immediate.
    sys.wrvdr(core, *vt, dom, VPerm::kAccessDisable);
    EXPECT_TRUE(sys.access(core, *vt, page, false).sigsegv);
}

/// A worker that context-switches between two tasks of its own process:
/// it drives ASID assignment and, on ARM, the rollover broadcast that
/// flushes every core of the machine, whichever process owns it.
class SwitchWorker final : public sim::SimThread {
  public:
    SwitchWorker(kernel::Process &proc, kernel::Task *a, kernel::Task *b,
                 std::size_t steps)
        : proc_(&proc), tasks_{a, b}, remaining_(steps)
    {
    }

    bool
    step(hw::Core &core) override
    {
        if (remaining_ == 0)
            return false;
        --remaining_;
        proc_->switch_to(core, *tasks_[remaining_ & 1]);
        core.charge(hw::CostKind::kCompute, 500);
        return true;
    }

  private:
    kernel::Process *proc_;
    kernel::Task *tasks_[2];
    std::size_t remaining_;
};

/// FNV-1a over every retained flight record, program order.
std::uint64_t
digest_flight(const telemetry::FlightRecorder &rec)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (const telemetry::FlightRecord &r : rec.merged()) {
        mix(static_cast<std::uint64_t>(r.kind));
        mix(r.core);
        mix(r.tid);
        mix(r.ts);
        mix(r.flow);
        mix(r.a);
        mix(r.b);
        mix(r.seq);
        if (r.name)
            for (const char *p = r.name; *p; ++p)
                mix(static_cast<unsigned char>(*p));
    }
    return h;
}

struct SwitchRun {
    std::vector<hw::Cycles> clocks;
    hw::CycleBreakdown breakdown;
    std::uint64_t steps = 0;
    std::uint64_t switches = 0;
    std::uint64_t faults = 0;
    std::uint64_t flight = 0;
};

/// Four processes on eight cores (two switching workers each).  With
/// \p with_faults, ASID exhaustion is forced every 97th assignment: on ARM
/// each one is a generation rollover whose flush-all reaches the other
/// processes' cores.  The world owns its flight recorder and fault plan
/// and attaches them to its machine once built, so several worlds can be
/// alive and advanced in turn, each seeing only its own events.
class SwitchWorld {
  public:
    SwitchWorld(hw::ArchKind arch, bool with_faults)
        : machine_(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(8)
                                              : hw::ArchParams::arm(8))
    {
        if (with_faults)
            plan_.arm(sim::FaultSite::kAsidExhaustion,
                      sim::FaultSpec{.every = 97});
        for (std::size_t p = 0; p < 4; ++p) {
            procs_.push_back(std::make_unique<kernel::Process>(machine_));
            kernel::Process &proc = *procs_.back();
            for (std::size_t t = 0; t < 2; ++t) {
                kernel::Task *main_task = proc.create_task();
                kernel::Task *alt = proc.create_task();
                workers_.push_back(std::make_unique<SwitchWorker>(
                    proc, main_task, alt, 300));
                workers_.back()->set_task(proc, main_task);
                engine_.add_thread(workers_.back().get(),
                                   static_cast<int>(p * 2 + t));
            }
        }
        machine_.set_flight(&flight_);
        if (with_faults)
            machine_.set_faults(&plan_);
    }

    bool done() const { return engine_.live_threads() == 0; }

    /// Runs until every core has reached \p deadline (or the workers are
    /// done).
    void advance(hw::Cycles deadline) { engine_.run_until(deadline); }

    SwitchRun
    result() const
    {
        SwitchRun out;
        for (std::size_t c = 0; c < machine_.num_cores(); ++c)
            out.clocks.push_back(machine_.core(c).now());
        out.breakdown = machine_.total_breakdown();
        out.steps = engine_.steps();
        out.switches = engine_.context_switches();
        out.faults = plan_.total_fires();
        out.flight = digest_flight(flight_);
        return out;
    }

  private:
    hw::Machine machine_;
    telemetry::FlightRecorder flight_{8, 4096};
    sim::FaultPlan plan_{11};
    std::vector<std::unique_ptr<kernel::Process>> procs_;
    std::vector<std::unique_ptr<SwitchWorker>> workers_;
    sim::Engine engine_{machine_, nullptr, 1'000'000};
};

/// One SwitchWorld, built and run to completion on its own.
SwitchRun
run_switch_world(hw::ArchKind arch, bool with_faults)
{
    SwitchWorld world(arch, with_faults);
    world.advance(std::numeric_limits<hw::Cycles>::max());
    return world.result();
}

void
expect_same_run(const SwitchRun &first, const SwitchRun &second,
                const std::string &label)
{
    EXPECT_GT(first.steps, 0u) << label;
    EXPECT_EQ(first.clocks, second.clocks) << label;
    for (std::size_t i = 0; i < hw::kNumCostKinds; ++i)
        EXPECT_EQ(first.breakdown.by_kind[i], second.breakdown.by_kind[i])
            << label << " cost kind " << i;
    EXPECT_EQ(first.steps, second.steps) << label;
    EXPECT_EQ(first.switches, second.switches) << label;
    EXPECT_EQ(first.faults, second.faults) << label;
    EXPECT_EQ(first.flight, second.flight) << label;
}

/// Cross-process TLB interactions (ARM rollover broadcast_flush_all over
/// every process's cores) replay exactly in a second world.
TEST(MultiProcess, RolloverBroadcastAcrossProcessesIsRepeatable)
{
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        for (bool faults : {false, true}) {
            std::string label = std::string(hw::arch_name(arch)) +
                                (faults ? "+faults" : "");
            SwitchRun first = run_switch_world(arch, faults);
            SwitchRun second = run_switch_world(arch, faults);
            if (faults && arch == hw::ArchKind::kArm) {
                EXPECT_GT(first.faults, 0u) << label;
            }
            expect_same_run(first, second, label);
        }
    }
}

/// Two worlds alive at once, advanced in turn, each match the same world
/// run alone: a world numbers its own TLB tags and context ids, so
/// nothing one world does moves another's tags, clocks or flight records.
TEST(MultiProcess, InterleavedWorldsMatchTheirSoloRuns)
{
    SwitchRun solo_x86 = run_switch_world(hw::ArchKind::kX86, true);
    SwitchRun solo_arm = run_switch_world(hw::ArchKind::kArm, true);

    SwitchWorld x86(hw::ArchKind::kX86, true);
    SwitchWorld arm(hw::ArchKind::kArm, true);
    hw::Cycles deadline = 0;
    while (!x86.done() || !arm.done()) {
        deadline += 25'000;
        x86.advance(deadline);
        arm.advance(deadline);
    }
    expect_same_run(x86.result(), solo_x86, "X86");
    expect_same_run(arm.result(), solo_arm, "ARM");
}

}  // namespace
}  // namespace vdom
