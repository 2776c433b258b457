/// \file
/// Transactional-op tests: the undo journal (kernel/journal.h), per-op
/// rollback under injected faults, the snapshot-diff atomicity oracle,
/// and the exhaustive fault-point sweep in both fault modes (graceful
/// sim::SweepHarness and power-loss sim::CrashSweepHarness).
///
/// The contract under test is DESIGN.md's atomicity table: every public
/// API op that fails with a graceful fault status (kTransientFault,
/// kRetriesExhausted, kResourceExhausted) must leave the architectural
/// snapshot byte-identical and be cleanly retryable once the fault
/// clears — and the journal machinery itself must charge zero simulated
/// cycles when nothing rolls back.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "kernel/journal.h"
#include "kernel/mm.h"
#include "kernel/wal.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"
#include "vdom/introspect.h"
#include "vdom/sandbox.h"
#include "vdom/secure_alloc.h"

namespace vdom {
namespace {

using ::vdom::testing::World;
using kernel::Journal;
using kernel::OpTxn;
using kernel::Wal;
using kernel::WalOp;
using kernel::WalRecType;
using sim::FaultPlan;
using sim::FaultSite;

// -- Journal semantics ----------------------------------------------------

TEST(Journal, RecordsOnlyInsideTxnAndUnwindsInReverse)
{
    auto w = std::unique_ptr<World>(World::x86(1));
    kernel::MmStruct &mm = w->proc.mm();
    Journal &journal = mm.journal();
    std::string order;

    // Outside any transaction, record() is a no-op.
    journal.record([&] { order += "x"; });
    EXPECT_EQ(journal.entries(), 0u);
    EXPECT_FALSE(journal.active());

    {
        OpTxn txn(mm, w->core(), WalOp::kNone, 0);
        EXPECT_TRUE(journal.active());
        journal.record([&] { order += "a"; });
        journal.record([&] { order += "b"; });
        journal.record([&] { order += "c"; });
        // No commit: the destructor rolls back, newest first.
    }
    EXPECT_EQ(order, "cba");
    EXPECT_EQ(journal.entries(), 0u);
    EXPECT_EQ(journal.depth(), 0u);
    EXPECT_EQ(journal.rollbacks(), 1u);

    // A committed transaction runs nothing and clears the log.
    order.clear();
    {
        OpTxn txn(mm, w->core(), WalOp::kNone, 0);
        journal.record([&] { order += "d"; });
        txn.commit();
    }
    EXPECT_EQ(order, "");
    EXPECT_EQ(journal.entries(), 0u);
    EXPECT_EQ(journal.rollbacks(), 1u);
}

TEST(Journal, NestedCommitKeepsEntriesForOuterRollback)
{
    auto w = std::unique_ptr<World>(World::x86(1));
    kernel::MmStruct &mm = w->proc.mm();
    Journal &journal = mm.journal();
    std::string order;
    {
        OpTxn outer(mm, w->core(), WalOp::kNone, 0);
        journal.record([&] { order += "o"; });
        {
            OpTxn inner(mm, w->core(), WalOp::kNone, 0);
            journal.record([&] { order += "i"; });
            inner.commit();
        }
        // The inner commit must not have discarded its entry: the outer
        // rollback still unwinds it, after (i.e. before, in reverse
        // order) the outer's own entries recorded earlier.
        EXPECT_EQ(journal.entries(), 2u);
    }
    EXPECT_EQ(order, "io");
}

TEST(Journal, UndoClosuresDoNotSelfJournal)
{
    auto w = std::unique_ptr<World>(World::x86(1));
    kernel::MmStruct &mm = w->proc.mm();
    Journal &journal = mm.journal();
    int undone = 0;
    {
        OpTxn txn(mm, w->core(), WalOp::kNone, 0);
        journal.record([&] {
            ++undone;
            // An undo closure re-issuing forward work must not append
            // fresh entries mid-unwind.
            journal.record([&] { ++undone; });
        });
    }
    EXPECT_EQ(undone, 1);
    EXPECT_EQ(journal.entries(), 0u);
}

TEST(Journal, OpTxnSealsWalOutcomeOnlyWhenGracefulAndOutermost)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    auto w = std::unique_ptr<World>(World::x86(1));
    kernel::MmStruct &mm = w->proc.mm();
    Journal &journal = mm.journal();
    hw::Core &core = w->core();
    Wal wal;
    mm.set_wal(&wal);
    std::string order;

    // Graceful failure: the journal unwinds, then exactly one ABORT seals
    // the transaction the BEGIN opened.
    {
        OpTxn txn(mm, core, WalOp::kMprotect, 0, 1, 2, 3);
        EXPECT_TRUE(wal.in_txn());
        journal.record([&] { order += "g"; });
    }
    EXPECT_EQ(order, "g");
    EXPECT_EQ(journal.depth(), 0u);
    ASSERT_EQ(wal.size(), 2u);
    EXPECT_EQ(wal.records()[0].type, WalRecType::kBegin);
    EXPECT_EQ(wal.records()[0].op, WalOp::kMprotect);
    EXPECT_EQ(wal.records()[1].type, WalRecType::kAbort);
    EXPECT_EQ(registry.value(telemetry::Metric::kWalAbort), 1u);
    EXPECT_FALSE(wal.in_txn());

    // Nested guard: no WAL record of its own, and the entries it commits
    // are still unwound by the outer rollback, which seals the ABORT.
    order.clear();
    {
        OpTxn outer(mm, core, WalOp::kSandboxMprotect, 0, 1, 2, 3);
        journal.record([&] { order += "o"; });
        std::size_t before = wal.size();
        {
            OpTxn inner(mm, core, WalOp::kMprotect, 0, 1, 2, 3);
            journal.record([&] { order += "i"; });
            inner.commit();
        }
        EXPECT_EQ(wal.size(), before);
        EXPECT_EQ(wal.commits(), 0u);
    }
    EXPECT_EQ(order, "io");
    ASSERT_EQ(wal.size(), 4u);
    EXPECT_EQ(wal.records()[2].op, WalOp::kSandboxMprotect);
    EXPECT_EQ(wal.records()[3].type, WalRecType::kAbort);
    EXPECT_EQ(registry.value(telemetry::Metric::kWalAbort), 2u);
    mm.set_wal(nullptr);
}

/// Undo closure that reports its lifetime.  Every non-husk object of
/// closure `id` counts its destruction (so a stray copy shows as a second
/// one) and its runs; a moved-from husk (id -1) counts only towards
/// `live`, the number of Tracked objects in existence.
struct Tracked {
    struct Counts {
        std::vector<int> destroyed;
        std::vector<int> ran;
        std::string order;
        int live = 0;

        explicit Counts(std::size_t n) : destroyed(n), ran(n) {}
    };

    Tracked(Counts *counts, int id) : counts_(counts), id_(id)
    {
        ++counts_->live;
    }

    Tracked(Tracked &&other) noexcept : counts_(other.counts_), id_(other.id_)
    {
        other.id_ = -1;
        ++counts_->live;
    }

    Tracked(const Tracked &other) : counts_(other.counts_), id_(other.id_)
    {
        ++counts_->live;
    }

    Tracked &operator=(const Tracked &) = delete;
    Tracked &operator=(Tracked &&) = delete;

    ~Tracked()
    {
        --counts_->live;
        if (id_ >= 0)
            ++counts_->destroyed[static_cast<std::size_t>(id_)];
    }

    void
    operator()()
    {
        ++counts_->ran[static_cast<std::size_t>(id_)];
        counts_->order += std::to_string(id_) + " ";
    }

  private:
    Counts *counts_;
    int id_;
};

TEST(Journal, EntriesDestroyEachClosureExactlyOnce)
{
    auto w = std::unique_ptr<World>(World::x86(1));
    kernel::MmStruct &mm = w->proc.mm();
    Journal &journal = mm.journal();
    const int n = 40;  // Enough records to grow the log several times.

    // Commit: nothing runs, and clearing the log destroys every closure.
    {
        Tracked::Counts counts(n);
        {
            OpTxn txn(mm, w->core(), WalOp::kNone, 0);
            for (int i = 0; i < n; ++i)
                journal.record(Tracked(&counts, i));
            // Growing the log relocated entries without destroying a live
            // closure or leaking a husk.
            EXPECT_EQ(counts.live, n);
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(counts.destroyed[i], 0) << i;
            txn.commit();
        }
        EXPECT_EQ(counts.live, 0);
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(counts.destroyed[i], 1) << i;
            EXPECT_EQ(counts.ran[i], 0) << i;
        }
    }

    // Rollback: each closure runs once, newest first, then is destroyed.
    {
        Tracked::Counts counts(n);
        std::string expected;
        {
            OpTxn txn(mm, w->core(), WalOp::kNone, 0);
            for (int i = 0; i < n; ++i) {
                journal.record(Tracked(&counts, i));
                expected = std::to_string(i) + " " + expected;
            }
        }
        EXPECT_EQ(counts.order, expected);
        EXPECT_EQ(counts.live, 0);
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(counts.destroyed[i], 1) << i;
            EXPECT_EQ(counts.ran[i], 1) << i;
        }
    }

    // Nested guards: an inner rollback unwinds only its own entries; an
    // inner commit keeps them for the outer rollback, in reverse order.
    {
        Tracked::Counts counts(7);
        {
            OpTxn outer(mm, w->core(), WalOp::kNone, 0);
            journal.record(Tracked(&counts, 0));
            journal.record(Tracked(&counts, 1));
            {
                OpTxn inner(mm, w->core(), WalOp::kNone, 0);
                journal.record(Tracked(&counts, 2));
            }
            EXPECT_EQ(counts.order, "2 ");
            EXPECT_EQ(counts.destroyed[2], 1);
            {
                OpTxn inner(mm, w->core(), WalOp::kNone, 0);
                journal.record(Tracked(&counts, 3));
                journal.record(Tracked(&counts, 4));
                inner.commit();
            }
            journal.record(Tracked(&counts, 5));
            EXPECT_EQ(journal.entries(), 5u);
            EXPECT_EQ(counts.live, 5);
        }
        EXPECT_EQ(counts.order, "2 5 4 3 1 0 ");
        EXPECT_EQ(counts.live, 0);
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(counts.destroyed[i], 1) << i;
            EXPECT_EQ(counts.ran[i], 1) << i;
        }
        // Outside a transaction record() drops the closure at once.
        journal.record(Tracked(&counts, 6));
        EXPECT_EQ(counts.destroyed[6], 1);
        EXPECT_EQ(counts.ran[6], 0);
        EXPECT_EQ(counts.live, 0);
    }
    EXPECT_EQ(journal.entries(), 0u);
    EXPECT_EQ(journal.depth(), 0u);
}

// -- Per-op rollback under injected faults --------------------------------

TEST(Txn, VdomInitRollsBackOnVdtFault)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    const std::string before = snapshot_state(w->sys);

    FaultPlan plan(1);
    plan.arm_exact(FaultSite::kVdtAllocFail, 1);
    w->machine.set_faults(&plan);
    EXPECT_EQ(w->sys.vdom_init(w->core()),
              VdomStatus::kResourceExhausted);
    w->machine.set_faults(nullptr);
    // The API-region mmap and the partial assignment are unwound: the
    // failed init is architecturally invisible.
    EXPECT_FALSE(w->sys.initialized());
    EXPECT_EQ(snapshot_state(w->sys), before);

    // Retry with the fault cleared succeeds from scratch.
    EXPECT_EQ(w->sys.vdom_init(w->core()), VdomStatus::kOk);
    EXPECT_TRUE(w->sys.initialized());
}

TEST(Txn, MprotectMidRangeRollsBackAcrossVmas)
{
    for (World *(*make)(std::size_t) : {&World::x86, &World::arm}) {
        auto w = std::unique_ptr<World>(make(2));
        kernel::Task *task = w->ready_thread();
        hw::Core &core = w->core();

        // Two adjacent VMAs, both faulted in while still common, so the
        // spanning mprotect retags *present* PTEs in each.
        hw::Vpn r1 = w->proc.mm().mmap(2);
        hw::Vpn r2 = w->proc.mm().mmap(3);
        ASSERT_TRUE(w->sys.access(core, *task, r1, true).ok);
        ASSERT_TRUE(w->sys.access(core, *task, r2, true).ok);
        VdomId vdom = w->sys.vdom_alloc(core);

        const std::string before = snapshot_state(w->sys);
        FaultPlan plan(1);
        // Crossing 2 = the second VMA's VDT chain step: the first VMA has
        // already been split, retagged, and chained when the fault fires.
        plan.arm_exact(FaultSite::kVdtAllocFail, 2);
        std::uint64_t pages = r2 + 3 - r1;
        w->machine.set_faults(&plan);
        EXPECT_EQ(w->sys.vdom_mprotect(core, r1, pages, vdom),
                  VdomStatus::kResourceExhausted);
        w->machine.set_faults(nullptr);
        EXPECT_EQ(plan.fires(FaultSite::kVdtAllocFail), 1u);

        // Snapshot oracle: VMA layout, VDT chains and domain maps are
        // byte-identical to the pre-op state.
        EXPECT_EQ(snapshot_state(w->sys), before);
        // Behavioural oracle for state the snapshot cannot see: the
        // first VMA's PTE retag was undone, so the pages are still
        // common and accessible without any grant.
        EXPECT_TRUE(w->sys.access(core, *task, r1, true).ok);
        EXPECT_EQ(w->proc.mm().vdom_of(r1), kCommonVdom);

        // The rolled-back op retries cleanly, and the protection then
        // actually bites.
        EXPECT_EQ(w->sys.vdom_mprotect(core, r1, pages, vdom),
                  VdomStatus::kOk);
        EXPECT_EQ(w->proc.mm().vdom_of(r1), vdom);
        EXPECT_EQ(w->proc.mm().vdom_of(r2), vdom);
        EXPECT_FALSE(w->sys.access(core, *task, r1, true).ok);
        EXPECT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kFullAccess),
                  VdomStatus::kOk);
        EXPECT_TRUE(w->sys.access(core, *task, r1, true).ok);
    }
}

TEST(Txn, MprotectRollbackFlushesOnlyWhenItRetaggedLivePages)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = w->ready_thread();
    hw::Core &core = w->core();
    kernel::MmStruct &mm = w->proc.mm();
    // Fails at the second VMA's VDT chain step, after the first VMA has
    // been retagged.
    auto fail_second_area = [&](hw::Vpn start, std::uint64_t pages) {
        VdomId vdom = w->sys.vdom_alloc(core);
        FaultPlan plan(1);
        plan.arm_exact(FaultSite::kVdtAllocFail, 2);
        w->machine.set_faults(&plan);
        EXPECT_EQ(w->sys.vdom_mprotect(core, start, pages, vdom),
                  VdomStatus::kResourceExhausted);
        w->machine.set_faults(nullptr);
    };

    // Fresh pages: nothing was retagged, so the rollback flushes nothing.
    hw::Vpn f1 = mm.mmap(2);
    hw::Vpn f2 = mm.mmap(3);
    std::uint64_t gen = mm.vds0()->tlb_gen();
    fail_second_area(f1, f2 + 3 - f1);
    EXPECT_EQ(mm.vds0()->tlb_gen(), gen);

    // Live pages: undoing the retag rewrites translations cores may have
    // cached, so the rollback flushes everywhere exactly once.
    hw::Vpn r1 = mm.mmap(2);
    hw::Vpn r2 = mm.mmap(3);
    ASSERT_TRUE(w->sys.access(core, *task, r1, true).ok);
    ASSERT_TRUE(w->sys.access(core, *task, r2, true).ok);
    gen = mm.vds0()->tlb_gen();
    fail_second_area(r1, r2 + 3 - r1);
    EXPECT_EQ(mm.vds0()->tlb_gen(), gen + 1);
}

TEST(Txn, NestedAssignScopesEachFlushOnlyForTheirOwnRetags)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = w->ready_thread();
    hw::Core &core = w->core();
    kernel::MmStruct &mm = w->proc.mm();
    VdomId v1 = w->sys.vdom_alloc(core);
    VdomId v2 = w->sys.vdom_alloc(core);
    hw::Vpn fresh = mm.mmap(2);
    hw::Vpn live1 = mm.mmap(2);
    hw::Vpn live2 = mm.mmap(2);
    for (hw::Vpn vpn : {live1, live2})
        ASSERT_TRUE(w->sys.access(core, *task, vpn, true).ok);

    // Two assign_vdom scopes under one outer guard that rolls back; the
    // returned count is the flushes that rollback alone issued.  Each
    // rollback restores the common vdom, so the ranges can be reused.
    auto rollback_flushes = [&](hw::Vpn first, hw::Vpn second) {
        std::uint64_t gen = 0;
        {
            OpTxn outer(mm, core, WalOp::kNone, 0);
            EXPECT_EQ(mm.assign_vdom(core, first, 2, v1), VdomStatus::kOk);
            EXPECT_EQ(mm.assign_vdom(core, second, 2, v2), VdomStatus::kOk);
            gen = mm.vds0()->tlb_gen();
        }
        return mm.vds0()->tlb_gen() - gen;
    };

    // Only the scope that retagged live pages flushes, whichever ran
    // first: a reflush mark must neither leak into the fresh scope's
    // flush step nor be lost to it.
    EXPECT_EQ(rollback_flushes(live1, fresh), 1u);
    EXPECT_EQ(rollback_flushes(fresh, live1), 1u);
    // Two live scopes flush once each.
    EXPECT_EQ(rollback_flushes(live1, live2), 2u);
}

TEST(Txn, WrvdrStickyPermRegFailureRestoresVdr)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = w->ready_thread();
    hw::Core &core = w->core();
    auto [vdom, vpn] = w->make_domain(1);

    const std::string before = snapshot_state(w->sys);
    FaultPlan plan(1);
    // Sticky: the register write keeps bouncing until the retry budget
    // is spent — the only way wrvdr surfaces kRetriesExhausted.
    plan.arm_exact(FaultSite::kPermRegWriteFail, 1, /*sticky=*/true);
    w->machine.set_faults(&plan);
    EXPECT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kFullAccess),
              VdomStatus::kRetriesExhausted);
    w->machine.set_faults(nullptr);
    // The VDR array write that landed before the register failure is
    // rolled back along with any mapping bookkeeping.
    EXPECT_EQ(w->sys.rdvdr(core, *task, vdom), VPerm::kAccessDisable);
    EXPECT_EQ(snapshot_state(w->sys), before);
    EXPECT_FALSE(w->sys.access(core, *task, vpn, false).ok);

    // Retry once the fault clears.
    EXPECT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kFullAccess),
              VdomStatus::kOk);
    EXPECT_TRUE(w->sys.access(core, *task, vpn, false).ok);
}

TEST(Txn, SecureAllocGrowFaultLeavesPoolUnchanged)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = w->ready_thread();
    hw::Core &core = w->core();

    DomainAllocator arena(w->sys, core);
    const std::string before = snapshot_state(w->sys);

    FaultPlan plan(1);
    plan.arm_exact(FaultSite::kVdtAllocFail, 1);
    w->machine.set_faults(&plan);
    EXPECT_FALSE(arena.allocate(core, 64).ok());
    w->machine.set_faults(nullptr);
    // The rejected growth leaked nothing: no chunk, no unprotected
    // mapping, and the reason is reported.
    EXPECT_EQ(arena.last_status(), VdomStatus::kResourceExhausted);
    EXPECT_EQ(arena.pool_pages(), 0u);
    EXPECT_EQ(snapshot_state(w->sys), before);

    // Retry unarmed: the pool grows and the allocation is protected.
    SecureAllocation alloc = arena.allocate(core, 64);
    ASSERT_TRUE(alloc.ok());
    EXPECT_EQ(arena.last_status(), VdomStatus::kOk);
    EXPECT_GT(arena.pool_pages(), 0u);
    std::uint64_t ps = w->proc.params().page_size;
    EXPECT_EQ(w->proc.mm().vdom_of(alloc.page(ps)), arena.domain());
    ASSERT_EQ(arena.open(core, *task), VdomStatus::kOk);
    EXPECT_TRUE(w->sys.access(core, *task, alloc.page(ps), true).ok);
}

TEST(Txn, SandboxMprotectGuardsApiRegionAndRollsBack)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    w->ready_thread();
    hw::Core &core = w->core();
    Sandbox sandbox(w->sys);
    VdomId vdom = w->sys.vdom_alloc(core);

    // The locked trusted-library region is refused outright.
    EXPECT_EQ(sandbox.sandbox_mprotect(core, w->sys.api_region(), 1, vdom),
              VdomStatus::kPermissionDenied);
    EXPECT_EQ(sandbox.stats().filter_denials, 1u);

    // Legitimate ranges go through transactionally: a mid-op fault rolls
    // the filtered call back just like the direct API.
    hw::Vpn vpn = w->proc.mm().mmap(2);
    const std::string before = snapshot_state(w->sys);
    FaultPlan plan(1);
    plan.arm_exact(FaultSite::kVdtAllocFail, 1);
    w->machine.set_faults(&plan);
    EXPECT_EQ(sandbox.sandbox_mprotect(core, vpn, 2, vdom),
              VdomStatus::kResourceExhausted);
    w->machine.set_faults(nullptr);
    EXPECT_EQ(snapshot_state(w->sys), before);
    EXPECT_EQ(sandbox.sandbox_mprotect(core, vpn, 2, vdom),
              VdomStatus::kOk);
    EXPECT_EQ(w->proc.mm().vdom_of(vpn), vdom);
}

// -- Rollback telemetry ---------------------------------------------------

TEST(Txn, RollbackEmitsFlightRecordAndMetrics)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = w->ready_thread();
    hw::Core &core = w->core();
    auto [vdom, vpn] = w->make_domain(1);
    (void)vpn;

    telemetry::MetricsRegistry registry;
    telemetry::FlightRecorder flight(2, 64);
    FaultPlan plan(1);
    plan.arm_exact(FaultSite::kPermRegWriteFail, 1, /*sticky=*/true);
    w->machine.set_flight(&flight);
    w->machine.set_faults(&plan);
    {
        telemetry::ScopedMetrics metrics(registry);
        ASSERT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kFullAccess),
                  VdomStatus::kRetriesExhausted);
    }
    EXPECT_EQ(w->proc.mm().journal().rollbacks(), 1u);
    EXPECT_EQ(registry.value(telemetry::Metric::kTxnRollback), 1u);
    EXPECT_GT(registry.histogram(telemetry::Metric::kTxnJournalDepth).count,
              0u);

    bool saw_rollback = false;
    for (const telemetry::FlightRecord &rec : flight.merged()) {
        if (rec.kind != telemetry::FlightEvent::kTxnRollback)
            continue;
        saw_rollback = true;
        EXPECT_GT(rec.a, 0u);  // Entries unwound.
        EXPECT_STREQ(rec.name, "wrvdr");
        EXPECT_EQ(rec.tid, task->tid());
    }
    EXPECT_TRUE(saw_rollback);
}

// -- Cycle identity -------------------------------------------------------

namespace {

/// A fixed workload whose cycle charges the journal must not perturb.
hw::Cycles
drive_and_clock(World &w, bool journaled)
{
    kernel::Task *task = w.ready_thread();
    hw::Core &core = w.core();
    std::optional<OpTxn> txn;
    if (journaled)
        txn.emplace(w.proc.mm(), core, WalOp::kNone, 0);
    auto [vdom, vpn] = w.make_domain(2);
    w.sys.wrvdr(core, *task, vdom, VPerm::kFullAccess);
    w.sys.access(core, *task, vpn, true);
    w.sys.access(core, *task, vpn, false);
    w.sys.wrvdr(core, *task, vdom, VPerm::kAccessDisable);
    if (journaled)
        txn->commit();
    hw::Cycles total = 0;
    for (std::size_t c = 0; c < w.machine.num_cores(); ++c)
        total += w.machine.core(c).now();
    return total;
}

}  // namespace

TEST(Txn, CycleIdentityJournalOnOff)
{
    // Same workload, once with no transaction open (record() is a no-op)
    // and once inside a committed outer transaction (every op journals
    // inverse closures, then the commit discards them).  Committing
    // charges nothing, so the clocks must agree to the cycle.
    auto plain = std::unique_ptr<World>(World::x86(2));
    auto journaled = std::unique_ptr<World>(World::x86(2));
    hw::Cycles off = drive_and_clock(*plain, false);
    hw::Cycles on = drive_and_clock(*journaled, true);
    EXPECT_EQ(off, on);
    EXPECT_GT(off, 0.0);
    // The journaled run really did record undo entries...
    EXPECT_EQ(journaled->proc.mm().journal().rollbacks(), 0u);
    // ...and the committed log is discarded.
    EXPECT_EQ(journaled->proc.mm().journal().entries(), 0u);
}

// -- rdvdr overload agreement ---------------------------------------------

TEST(Api, RdvdrOverloadsAgree)
{
    auto w = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = w->ready_thread();
    hw::Core &core = w->core();
    auto [vdom, vpn] = w->make_domain(1);
    (void)vpn;
    ASSERT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kFullAccess),
              VdomStatus::kOk);

    // Valid id: both overloads report the held permission.
    VPerm out = VPerm::kAccessDisable;
    EXPECT_EQ(w->sys.rdvdr(core, *task, vdom, &out), VdomStatus::kOk);
    EXPECT_EQ(out, VPerm::kFullAccess);
    EXPECT_EQ(w->sys.rdvdr(core, *task, vdom), VPerm::kFullAccess);

    // Freed id: the status overload rejects, the convenience overload
    // collapses the same rejection to kAccessDisable.
    ASSERT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kAccessDisable),
              VdomStatus::kOk);
    ASSERT_EQ(w->sys.vdom_free(core, vdom), VdomStatus::kOk);
    EXPECT_EQ(w->sys.rdvdr(core, *task, vdom, &out),
              VdomStatus::kInvalidVdom);
    EXPECT_EQ(w->sys.rdvdr(core, *task, vdom), VPerm::kAccessDisable);

    // Out-of-range id: identical rejection through both overloads.
    VdomId bogus = vdom + 1000;
    EXPECT_EQ(w->sys.rdvdr(core, *task, bogus, &out),
              VdomStatus::kInvalidVdom);
    EXPECT_EQ(w->sys.rdvdr(core, *task, bogus), VPerm::kAccessDisable);
}

// -- The exhaustive sweep -------------------------------------------------

TEST(Sweep, ExhaustiveBothArchesZeroViolations)
{
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        sim::SweepConfig config;
        config.arch = arch;
        config.domains = 3;
        config.churn_ops = 10;
        sim::SweepHarness harness(config);
        sim::SweepResult result = harness.run();

        EXPECT_EQ(result.violations, 0u)
            << hw::arch_name(arch) << ": " << result.first_violation;
        EXPECT_GT(result.script_ops, 0u);
        EXPECT_GT(result.fault_points, 0u);
        EXPECT_GT(result.injected_runs, 0u);
        // The sweep exercised both outcomes: ops that failed gracefully
        // (each snapshot-checked and journal-rolled-back) and ops that
        // degraded but completed.
        EXPECT_GT(result.failed_ops, 0u);
        EXPECT_GT(result.degraded_ops, 0u);
        EXPECT_GT(result.rollbacks, 0u);
        EXPECT_EQ(result.snapshot_checks, result.failed_ops);
        EXPECT_GT(result.invariant_checks, result.injected_runs);
    }
}

TEST(Sweep, DeterministicAcrossRuns)
{
    auto sweep = [] {
        sim::SweepConfig config;
        config.arch = hw::ArchKind::kArm;
        config.domains = 3;
        config.churn_ops = 8;
        config.seed = 99;
        sim::SweepHarness harness(config);
        return harness.run();
    };
    sim::SweepResult a = sweep();
    sim::SweepResult b = sweep();
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.script_ops, b.script_ops);
    EXPECT_EQ(a.fault_points, b.fault_points);
    EXPECT_EQ(a.injected_runs, b.injected_runs);
    EXPECT_EQ(a.failed_ops, b.failed_ops);
    EXPECT_EQ(a.degraded_ops, b.degraded_ops);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.violations, 0u) << a.first_violation;
}

// -- The exhaustive crash sweep (power-loss mode) --------------------------

TEST(CrashSweep, ExhaustiveBothArchesZeroViolations)
{
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        sim::CrashSweepConfig config;
        config.arch = arch;
        config.domains = 3;
        config.churn_ops = 6;
        sim::CrashSweepHarness harness(config);
        sim::CrashSweepResult result = harness.run();

        EXPECT_EQ(result.violations, 0u)
            << hw::arch_name(arch) << ": " << result.first_violation;
        EXPECT_GT(result.script_ops, 0u);
        EXPECT_GT(result.crash_points, 0u);
        EXPECT_EQ(result.injected_runs, result.crash_points);
        // Every crash point rebooted into a world that recovered, and the
        // sweep reached both the PMO oracle and torn WAL tails.
        EXPECT_EQ(result.recoveries, result.crash_points);
        EXPECT_GT(result.pmo_checks, 0u);
        EXPECT_GT(result.torn_records, 0u);
    }
}

TEST(CrashSweep, DeterministicAcrossRuns)
{
    auto sweep = [] {
        sim::CrashSweepConfig config;
        config.arch = hw::ArchKind::kArm;
        config.domains = 3;
        config.churn_ops = 6;
        config.seed = 99;
        sim::CrashSweepHarness harness(config);
        return harness.run();
    };
    sim::CrashSweepResult a = sweep();
    sim::CrashSweepResult b = sweep();
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.script_ops, b.script_ops);
    EXPECT_EQ(a.crash_points, b.crash_points);
    EXPECT_EQ(a.injected_runs, b.injected_runs);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.replayed_ops, b.replayed_ops);
    EXPECT_EQ(a.torn_records, b.torn_records);
    EXPECT_EQ(a.undone_ops, b.undone_ops);
    EXPECT_EQ(a.violations, 0u) << a.first_violation;
}

}  // namespace
}  // namespace vdom
