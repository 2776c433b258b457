/// \file
/// Crash-consistency tests: the write-ahead log (kernel/wal.h), torn-write
/// detection, power-loss injection (sim::FaultSite::kCrash), the recovery
/// replay path (vdom/recovery.h), and PMO attach/detach durability.
///
/// The contract under test is DESIGN.md's durability column: after a
/// simulated power loss at *any* ordering point, recovery must land the
/// durable state exactly on the last committed operation boundary —
/// nothing in between is ever observable — and the WAL wiring must charge
/// nothing when no log is attached.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/pmo.h"
#include "common.h"
#include "kernel/shootdown.h"
#include "kernel/wal.h"
#include "sim/fault.h"
#include "telemetry/metrics.h"
#include "vdom/introspect.h"
#include "vdom/recovery.h"
#include "vdom/sandbox.h"
#include "vdom/secure_alloc.h"

namespace vdom {
namespace {

using ::vdom::testing::World;
using kernel::OpTxn;
using kernel::Wal;
using kernel::WalOp;
using kernel::WalRecord;
using kernel::WalRecType;
using kernel::WalScan;
using sim::FaultPlan;
using sim::FaultSite;

/// A fresh world.  Same-arch worlds are identical, so replay reconverges
/// on recorded ids.
std::unique_ptr<World>
fresh_world(hw::ArchKind arch, std::size_t cores = 2)
{
    return std::unique_ptr<World>(arch == hw::ArchKind::kX86
                                      ? World::x86(cores)
                                      : World::arm(cores));
}

/// Fires kCrash at crossing \p k alone (arm it with FaultPlan::arm_crash).
sim::FaultSpec
crossing(std::uint64_t k)
{
    return {.every = 1, .skip = k - 1, .max_fires = 1};
}

/// What a power loss leaves: copies of the WAL and the PMO store.
struct CrashImage {
    Wal wal;
    apps::PmoStore store;
};

// -- WAL record & transaction semantics -----------------------------------

TEST(Wal, LogsBeginAndCommitWithResultPayloads)
{
    Wal wal;
    auto w = fresh_world(hw::ArchKind::kX86);
    w->proc.mm().set_wal(&wal);
    hw::Core &core = w->core();

    ASSERT_EQ(w->sys.vdom_init(core), VdomStatus::kOk);
    VdomId vdom = w->sys.vdom_alloc(core, true);
    ASSERT_NE(vdom, kInvalidVdom);

    // Two transactions, each BEGIN + COMMIT, all records sealed.
    ASSERT_EQ(wal.size(), 4u);
    EXPECT_EQ(wal.commits(), 2u);
    for (const WalRecord &rec : wal.records())
        EXPECT_FALSE(rec.torn()) << "lsn " << rec.lsn;

    const WalRecord &init_begin = wal.records()[0];
    EXPECT_EQ(init_begin.type, WalRecType::kBegin);
    EXPECT_EQ(init_begin.op, WalOp::kVdomInit);
    const WalRecord &init_commit = wal.records()[1];
    EXPECT_EQ(init_commit.type, WalRecType::kCommit);
    EXPECT_EQ(init_commit.a, w->sys.api_region());

    const WalRecord &alloc_begin = wal.records()[2];
    EXPECT_EQ(alloc_begin.op, WalOp::kVdomAlloc);
    EXPECT_EQ(alloc_begin.a, 1u);  // frequent hint
    EXPECT_EQ(wal.records()[3].a, vdom);

    WalScan scan = wal.scan();
    EXPECT_EQ(scan.committed.size(), 2u);
    EXPECT_EQ(scan.uncommitted.size(), 0u);
    EXPECT_EQ(scan.torn, 0u);
}

TEST(Wal, NestedOpsDoNotDoubleLog)
{
    Wal wal;
    auto w = fresh_world(hw::ArchKind::kX86);
    w->proc.mm().set_wal(&wal);
    hw::Core &core = w->core();
    ASSERT_EQ(w->sys.vdom_init(core), VdomStatus::kOk);

    // Secure-pool growth calls vdom_mprotect internally; only the outer
    // kSecureGrow transaction may reach the log.
    DomainAllocator arena(w->sys, core, false, 2);
    std::uint64_t before = wal.commits();
    SecureAllocation a = arena.allocate(core, 64);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(wal.commits(), before + 1);
    const WalRecord &grow = wal.records()[wal.size() - 2];
    EXPECT_EQ(grow.type, WalRecType::kBegin);
    EXPECT_EQ(grow.op, WalOp::kSecureGrow);
    for (const WalRecord &rec : wal.records())
        EXPECT_NE(rec.op, WalOp::kMprotect);
}

TEST(Wal, GracefulFailureSealsAbort)
{
    Wal wal;
    auto w = fresh_world(hw::ArchKind::kX86);
    w->proc.mm().set_wal(&wal);
    hw::Core &core = w->core();

    FaultPlan plan(1);
    plan.arm_exact(FaultSite::kVdtAllocFail, 1);
    w->machine.set_faults(&plan);
    EXPECT_EQ(w->sys.vdom_init(core), VdomStatus::kResourceExhausted);
    w->machine.set_faults(nullptr);
    ASSERT_EQ(wal.size(), 2u);
    EXPECT_EQ(wal.records()[1].type, WalRecType::kAbort);
    WalScan scan = wal.scan();
    EXPECT_EQ(scan.committed.size(), 0u);
    EXPECT_EQ(scan.uncommitted.size(), 0u);
    EXPECT_EQ(scan.aborted, 1u);
}

// -- Torn-write detection -------------------------------------------------

TEST(Wal, ChecksumDetectsCorruptedPayload)
{
    WalRecord rec;
    rec.lsn = 3;
    rec.txn = 2;
    rec.type = WalRecType::kBegin;
    rec.op = WalOp::kWrvdr;
    rec.tid = 7;
    rec.a = 5;
    rec.b = 1;
    rec.checksum = rec.expected_checksum();
    EXPECT_FALSE(rec.torn());
    EXPECT_NE(rec.checksum, 0u);  // 0 is reserved as the torn marker.

    rec.a = 6;  // Any flipped payload word must invalidate the seal.
    EXPECT_TRUE(rec.torn());
    rec.a = 5;
    EXPECT_FALSE(rec.torn());
    rec.checksum = 0;  // The push-before-seal state is always torn.
    EXPECT_TRUE(rec.torn());
}

TEST(Wal, ChecksumCatchesEverySingleFieldFlip)
{
    WalRecord sealed;
    sealed.lsn = 9;
    sealed.txn = 4;
    sealed.type = WalRecType::kCommit;
    sealed.op = WalOp::kPmoAttach;
    sealed.tid = 3;
    sealed.a = 0x1234;
    sealed.b = 1ULL << 40;
    sealed.c = 77;
    sealed.d = ~0ULL;
    sealed.checksum = sealed.expected_checksum();
    ASSERT_FALSE(sealed.torn());
    EXPECT_NE(sealed.checksum, 0u);

    // Flip bits 0, 7, 31 and 63 of each field, each modulo its width.
    using Flip = void (*)(WalRecord &, int);
    const std::vector<std::pair<const char *, Flip>> fields = {
        {"lsn", [](WalRecord &r, int bit) { r.lsn ^= 1ULL << bit; }},
        {"txn", [](WalRecord &r, int bit) { r.txn ^= 1ULL << bit; }},
        {"type",
         [](WalRecord &r, int bit) {
             r.type = static_cast<WalRecType>(
                 static_cast<std::uint8_t>(r.type) ^ (1u << (bit % 8)));
         }},
        {"op",
         [](WalRecord &r, int bit) {
             r.op = static_cast<WalOp>(static_cast<std::uint8_t>(r.op) ^
                                       (1u << (bit % 8)));
         }},
        {"tid", [](WalRecord &r, int bit) { r.tid ^= 1u << (bit % 32); }},
        {"a", [](WalRecord &r, int bit) { r.a ^= 1ULL << bit; }},
        {"b", [](WalRecord &r, int bit) { r.b ^= 1ULL << bit; }},
        {"c", [](WalRecord &r, int bit) { r.c ^= 1ULL << bit; }},
        {"d", [](WalRecord &r, int bit) { r.d ^= 1ULL << bit; }},
    };
    for (const auto &[name, flip] : fields) {
        for (int bit : {0, 7, 31, 63}) {
            WalRecord rec = sealed;
            flip(rec, bit);
            EXPECT_TRUE(rec.torn()) << name << " bit " << bit;
        }
    }

    // Sealing never yields the torn marker: not for the all-zero record,
    // nor for any lsn near it.
    for (std::uint64_t lsn = 0; lsn < 4096; ++lsn) {
        WalRecord rec;
        rec.lsn = lsn;
        EXPECT_NE(rec.expected_checksum(), 0u) << "lsn " << lsn;
    }
}

TEST(Wal, ScanResolvesInterleavedOutcomes)
{
    Wal wal;
    auto w = fresh_world(hw::ArchKind::kX86);
    hw::Core &core = w->core();

    std::uint64_t t1 = wal.begin(core, WalOp::kVdomAlloc, 0, 1);
    std::uint64_t t2 = wal.begin(core, WalOp::kMmap, 0, 8, 0);
    std::uint64_t t3 = wal.begin(core, WalOp::kWrvdr, 5, 2, 1);
    wal.commit(core, t2, 40, 41);
    wal.abort(core, t1);
    std::uint64_t t4 = wal.begin(core, WalOp::kVdrAlloc, 6, 4);
    wal.commit(core, 99, 7, 7);  // A txn that never began.
    wal.commit(core, t4, 50);
    std::uint64_t t5 = wal.begin(core, WalOp::kVdomFree, 0, 3);
    // Sealed twice: the last outcome wins, and the last COMMIT's payload.
    wal.abort(core, t5);
    wal.commit(core, t5, 60, 61);
    wal.commit(core, t5, 62, 63);
    std::uint64_t t6 = wal.begin(core, WalOp::kMprotect, 0, 10, 2, 3);
    wal.abort(core, t6);
    wal.commit(core, t6, 70, 71);
    wal.abort(core, t6);
    // Torn tail: power fails after the next BEGIN is pushed, before it
    // is sealed.
    Wal image;
    {
        FaultPlan plan(1);
        plan.arm_crash(crossing(2), [&] { image = wal; });
        w->machine.set_faults(&plan);
        (void)wal.begin(core, WalOp::kVdomAlloc, 0);
        w->machine.set_faults(nullptr);
    }
    ASSERT_EQ(image.size(), 17u);

    WalScan scan = image.scan();
    EXPECT_EQ(scan.records, 16u);
    EXPECT_EQ(scan.torn, 1u);
    EXPECT_EQ(scan.aborted, 2u);  // t1 and t6.

    ASSERT_EQ(scan.committed.size(), 3u);  // BEGIN order: t2, t4, t5.
    EXPECT_EQ(scan.committed[0].begin.txn, t2);
    EXPECT_EQ(scan.committed[0].begin.lsn, 2u);
    EXPECT_EQ(scan.committed[0].begin.op, WalOp::kMmap);
    EXPECT_EQ(scan.committed[0].begin.a, 8u);
    EXPECT_EQ(scan.committed[0].result_a, 40u);
    EXPECT_EQ(scan.committed[0].result_b, 41u);
    EXPECT_EQ(scan.committed[1].begin.txn, t4);
    EXPECT_EQ(scan.committed[1].begin.tid, 6u);
    EXPECT_EQ(scan.committed[1].result_a, 50u);
    EXPECT_EQ(scan.committed[1].result_b, 0u);
    EXPECT_EQ(scan.committed[2].begin.txn, t5);
    EXPECT_EQ(scan.committed[2].begin.op, WalOp::kVdomFree);
    EXPECT_EQ(scan.committed[2].result_a, 62u);
    EXPECT_EQ(scan.committed[2].result_b, 63u);

    ASSERT_EQ(scan.uncommitted.size(), 1u);  // t3; the torn BEGIN is cut.
    EXPECT_EQ(scan.uncommitted[0].txn, t3);
    EXPECT_EQ(scan.uncommitted[0].lsn, 3u);
    EXPECT_EQ(scan.uncommitted[0].op, WalOp::kWrvdr);
    EXPECT_EQ(scan.uncommitted[0].tid, 5u);
    EXPECT_EQ(scan.uncommitted[0].b, 1u);
}

TEST(Wal, CrashBetweenPushAndSealLeavesDetectablyTornTail)
{
    Wal wal;
    auto w = fresh_world(hw::ArchKind::kX86);
    hw::Core &core = w->core();

    // First crossing: the record is lost before the push — empty log.
    Wal image;
    {
        FaultPlan plan(1);
        plan.arm_crash(crossing(1), [&] { image = wal; });
        w->machine.set_faults(&plan);
        (void)wal.begin(core, WalOp::kVdomAlloc, 0);
        w->machine.set_faults(nullptr);
    }
    EXPECT_EQ(image.size(), 0u);
    wal.reset();

    // Second crossing: pushed but unsealed — a torn tail record that the
    // scan truncates.
    {
        FaultPlan plan(1);
        plan.arm_crash(crossing(2), [&] { image = wal; });
        w->machine.set_faults(&plan);
        (void)wal.begin(core, WalOp::kVdomAlloc, 0);
        w->machine.set_faults(nullptr);
    }
    ASSERT_EQ(image.size(), 1u);
    EXPECT_TRUE(image.records()[0].torn());
    WalScan scan = image.scan();
    EXPECT_EQ(scan.torn, 1u);
    EXPECT_EQ(scan.records, 0u);  // Nothing sealed survives the tear.
    EXPECT_EQ(scan.committed.size(), 0u);
    EXPECT_EQ(scan.uncommitted.size(), 0u);
}

// -- Recovery replay ------------------------------------------------------

/// Drives a representative committed history and returns its durable
/// snapshot; the WAL outlives the world.
std::string
drive_history(hw::ArchKind arch, Wal &wal)
{
    auto w = fresh_world(arch);
    w->proc.mm().set_wal(&wal);
    hw::Core &core = w->core();
    kernel::Task *task = w->ready_thread();

    VdomId vdom = w->sys.vdom_alloc(core, false);
    // mmap is logged by the caller (it has no core to charge through),
    // mirroring the crash sweep's harness-level intent record.
    hw::Vpn vpn;
    {
        OpTxn txn(w->proc.mm(), core, WalOp::kMmap, 0, 2, 0);
        vpn = w->proc.mm().mmap(2);
        txn.commit(vpn);
    }
    EXPECT_EQ(w->sys.vdom_mprotect(core, vpn, 2, vdom), VdomStatus::kOk);
    EXPECT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kFullAccess),
              VdomStatus::kOk);
    EXPECT_EQ(w->sys.wrvdr(core, *task, vdom, VPerm::kAccessDisable),
              VdomStatus::kOk);
    return snapshot_durable_state(w->sys);
}

TEST(Recovery, ReplayReconvergesOnIdenticalDurableState)
{
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        Wal wal;
        std::string golden = drive_history(arch, wal);
        std::uint64_t committed = wal.commits();

        auto fresh = fresh_world(arch);
        fresh->spawn();  // Reboot re-creates threads; replay finds them by tid.
        RecoveryStats stats =
            recover(fresh->sys, fresh->core(), wal, {});
        EXPECT_TRUE(stats.ok) << hw::arch_name(arch) << ": "
                              << stats.error;
        EXPECT_EQ(stats.replayed, committed);
        EXPECT_EQ(stats.torn, 0u);
        EXPECT_EQ(stats.undone, 0u);
        EXPECT_EQ(snapshot_durable_state(fresh->sys), golden)
            << hw::arch_name(arch);
    }
}

TEST(Recovery, ScanIsIdempotentAcrossRepeatedRecoveries)
{
    Wal wal;
    std::string golden = drive_history(hw::ArchKind::kX86, wal);
    // Scanning must not disturb the durable medium: a second recovery
    // from the same log lands on the same state.
    for (int pass = 0; pass < 2; ++pass) {
        auto fresh = fresh_world(hw::ArchKind::kX86);
        fresh->spawn();
        RecoveryStats stats =
            recover(fresh->sys, fresh->core(), wal, {});
        ASSERT_TRUE(stats.ok) << stats.error;
        EXPECT_EQ(snapshot_durable_state(fresh->sys), golden);
    }
}

// -- Crash inside a nested transaction ------------------------------------

TEST(Recovery, CrashInsideNestedOpLeavesOuterUncommitted)
{
    // Probe the secure-pool growth: its inner vdom_mprotect nests under
    // the outer kSecureGrow transaction, so a crash at *any* interior
    // crossing must leave the whole growth unobservable after recovery.
    std::uint64_t crossings = 0;
    std::string before_grow;
    std::string after_grow;
    Wal probe_wal;
    {
        auto w = fresh_world(hw::ArchKind::kX86);
        w->proc.mm().set_wal(&probe_wal);
        hw::Core &core = w->core();
        ASSERT_EQ(w->sys.vdom_init(core), VdomStatus::kOk);
        DomainAllocator arena(w->sys, core, false, 2);
        before_grow = snapshot_durable_state(w->sys);
        FaultPlan probe(1);
        probe.arm_probe(FaultSite::kCrash);
        w->machine.set_faults(&probe);
        ASSERT_TRUE(arena.allocate(core, 64).ok());
        w->machine.set_faults(nullptr);
        crossings = probe.occurrences(FaultSite::kCrash);
        after_grow = snapshot_durable_state(w->sys);
    }
    std::uint64_t commits_before_grow = 2;  // init + arena vdom_alloc.
    ASSERT_GE(crossings, 5u);  // BEGIN (2) + COMMIT (2) + interior.

    for (std::uint64_t k = 1; k <= crossings; ++k) {
        Wal wal;
        auto w = fresh_world(hw::ArchKind::kX86);
        w->proc.mm().set_wal(&wal);
        hw::Core &core = w->core();
        ASSERT_EQ(w->sys.vdom_init(core), VdomStatus::kOk);
        auto arena =
            std::make_unique<DomainAllocator>(w->sys, core, false, 2);
        Wal image;
        FaultPlan plan(1);
        plan.arm_crash(crossing(k), [&] { image = wal; });
        w->machine.set_faults(&plan);
        (void)arena->allocate(core, 64);
        w->machine.set_faults(nullptr);
        ASSERT_EQ(plan.fires(FaultSite::kCrash), 1u) << "k=" << k;
        image.reboot();
        auto fresh = fresh_world(hw::ArchKind::kX86);
        RecoveryStats stats =
            recover(fresh->sys, fresh->core(), image, {});
        ASSERT_TRUE(stats.ok) << "k=" << k << ": " << stats.error;
        // Binary outcome: the growth either committed wholly or is
        // wholly invisible — never a half-grown pool.
        std::string recovered = snapshot_durable_state(fresh->sys);
        if (stats.committed > commits_before_grow)
            EXPECT_EQ(recovered, after_grow) << "k=" << k;
        else
            EXPECT_EQ(recovered, before_grow) << "k=" << k;
    }
}

// -- PMO attach/detach durability -----------------------------------------

TEST(Recovery, PmoAttachAtomicAcrossEveryCrashPointBothArches)
{
    constexpr int kPmo = 9;
    constexpr std::size_t kPages = 3;
    constexpr std::uint64_t kSeed = 77;
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        // Probe the attach's crash crossings.
        std::uint64_t crossings = 0;
        {
            Wal wal;
            apps::PmoStore store;
            auto w = fresh_world(arch);
            w->proc.mm().set_wal(&wal);
            ASSERT_EQ(w->sys.vdom_init(w->core()), VdomStatus::kOk);
            FaultPlan probe(1);
            probe.arm_probe(FaultSite::kCrash);
            w->machine.set_faults(&probe);
            apps::PmoAttachResult r = apps::pmo_attach(
                w->sys, w->core(), store, kPmo, kPages, kSeed);
            ASSERT_EQ(r.status, VdomStatus::kOk);
            crossings = probe.occurrences(FaultSite::kCrash);
            EXPECT_TRUE(store.intact(kPmo, kSeed, kPages));
        }
        ASSERT_GE(crossings, kPages + 4);  // BEGIN+COMMIT+page persists.

        for (std::uint64_t k = 1; k <= crossings; ++k) {
            Wal wal;
            apps::PmoStore store;
            auto w = fresh_world(arch);
            w->proc.mm().set_wal(&wal);
            ASSERT_EQ(w->sys.vdom_init(w->core()), VdomStatus::kOk);
            CrashImage image;
            FaultPlan plan(1);
            plan.arm_crash(crossing(k), [&] { image = {wal, store}; });
            w->machine.set_faults(&plan);
            (void)apps::pmo_attach(w->sys, w->core(), store, kPmo,
                                   kPages, kSeed);
            w->machine.set_faults(nullptr);
            ASSERT_EQ(plan.fires(FaultSite::kCrash), 1u) << "k=" << k;
            image.wal.reboot();
            auto fresh = fresh_world(arch);
            RecoveryStats stats =
                recover(fresh->sys, fresh->core(), image.wal,
                        apps::pmo_recovery_hook(image.store));
            ASSERT_TRUE(stats.ok)
                << hw::arch_name(arch) << " k=" << k << ": "
                << stats.error;
            // Durability oracle: all-or-nothing content, never a torn
            // object.
            if (image.store.has(kPmo)) {
                EXPECT_TRUE(image.store.intact(kPmo, kSeed, kPages))
                    << hw::arch_name(arch) << " k=" << k;
                EXPECT_GT(stats.committed, 1u);
            } else {
                EXPECT_EQ(stats.committed, 1u) << "k=" << k;  // init only.
            }
        }
    }
}

TEST(Recovery, PmoDetachEraseIsRedoneAcrossEveryCrashPointBothArches)
{
    constexpr int kPmo = 4;
    constexpr std::size_t kPages = 2;
    constexpr std::uint64_t kSeed = 31;
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        // Probe the detach's crossings over an attached object.
        std::uint64_t crossings = 0;
        {
            Wal wal;
            apps::PmoStore store;
            auto w = fresh_world(arch);
            w->proc.mm().set_wal(&wal);
            ASSERT_EQ(w->sys.vdom_init(w->core()), VdomStatus::kOk);
            apps::PmoAttachResult r = apps::pmo_attach(
                w->sys, w->core(), store, kPmo, kPages, kSeed);
            ASSERT_EQ(r.status, VdomStatus::kOk);
            FaultPlan probe(1);
            probe.arm_probe(FaultSite::kCrash);
            w->machine.set_faults(&probe);
            ASSERT_EQ(apps::pmo_detach(w->sys, w->core(), store, kPmo,
                                       r.vdom),
                      VdomStatus::kOk);
            crossings = probe.occurrences(FaultSite::kCrash);
            EXPECT_FALSE(store.has(kPmo));
        }
        ASSERT_GE(crossings, 5u);  // BEGIN (2) + COMMIT (2) + erase point.

        for (std::uint64_t k = 1; k <= crossings; ++k) {
            Wal wal;
            apps::PmoStore store;
            auto w = fresh_world(arch);
            w->proc.mm().set_wal(&wal);
            ASSERT_EQ(w->sys.vdom_init(w->core()), VdomStatus::kOk);
            apps::PmoAttachResult r = apps::pmo_attach(
                w->sys, w->core(), store, kPmo, kPages, kSeed);
            ASSERT_EQ(r.status, VdomStatus::kOk);
            CrashImage image;
            FaultPlan plan(1);
            plan.arm_crash(crossing(k), [&] { image = {wal, store}; });
            w->machine.set_faults(&plan);
            (void)apps::pmo_detach(w->sys, w->core(), store, kPmo,
                                   r.vdom);
            w->machine.set_faults(nullptr);
            ASSERT_EQ(plan.fires(FaultSite::kCrash), 1u) << "k=" << k;
            image.wal.reboot();
            auto fresh = fresh_world(arch);
            RecoveryStats stats =
                recover(fresh->sys, fresh->core(), image.wal,
                        apps::pmo_recovery_hook(image.store));
            ASSERT_TRUE(stats.ok)
                << hw::arch_name(arch) << " k=" << k << ": "
                << stats.error;
            WalScan scan = image.wal.scan();
            bool detach_committed = false;
            for (const kernel::WalCommitted &entry : scan.committed)
                if (entry.begin.op == WalOp::kPmoDetach)
                    detach_committed = true;
            if (detach_committed) {
                // Crash after COMMIT, before/within the erase: recovery
                // finishes the erase idempotently.
                EXPECT_FALSE(image.store.has(kPmo))
                    << hw::arch_name(arch) << " k=" << k;
            } else {
                // Uncommitted detach: the object must survive intact.
                EXPECT_TRUE(image.store.intact(kPmo, kSeed, kPages))
                    << hw::arch_name(arch) << " k=" << k;
            }
        }
    }
}

// -- Tapped crash images --------------------------------------------------

/// One op script over every WAL-wired entry point, replayed from scratch
/// for each crash.  The arena is declared after the world so it goes
/// first.
struct ImageRun {
    std::unique_ptr<World> world;
    kernel::Task *task = nullptr;
    VdomId vdom = kInvalidVdom;
    hw::Vpn vpn = 0;
    VdomId pmo_vdom = kInvalidVdom;
    std::unique_ptr<DomainAllocator> arena;
};

constexpr int kImagePmo = 1;
constexpr std::size_t kImagePmoPages = 3;
constexpr std::uint64_t kImagePmoSeed = 77;

using ImageStep = void (*)(ImageRun &, apps::PmoStore &);

const std::vector<ImageStep> kImageSteps = {
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.world->sys.vdom_init(r.world->core());
    },
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.world->sys.vdr_alloc(r.world->core(), *r.task, 4);
    },
    [](ImageRun &r, apps::PmoStore &) {
        r.vdom = r.world->sys.vdom_alloc(r.world->core(), false);
    },
    [](ImageRun &r, apps::PmoStore &) {
        kernel::MmStruct &mm = r.world->proc.mm();
        OpTxn txn(mm, r.world->core(), WalOp::kMmap, 0, 2, 0);
        r.vpn = mm.mmap(2);
        txn.commit(r.vpn);
    },
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.world->sys.vdom_mprotect(r.world->core(), r.vpn, 2, r.vdom);
    },
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.world->sys.wrvdr(r.world->core(), *r.task, r.vdom,
                                 VPerm::kFullAccess);
    },
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.world->sys.access(r.world->core(), *r.task, r.vpn, true);
    },
    [](ImageRun &r, apps::PmoStore &) {
        r.arena = std::make_unique<DomainAllocator>(r.world->sys,
                                                    r.world->core(), false, 2);
    },
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.arena->allocate(r.world->core(), 64);
    },
    [](ImageRun &r, apps::PmoStore &store) {
        r.pmo_vdom = apps::pmo_attach(r.world->sys, r.world->core(), store,
                                      kImagePmo, kImagePmoPages,
                                      kImagePmoSeed)
                         .vdom;
    },
    [](ImageRun &r, apps::PmoStore &store) {
        (void)apps::pmo_detach(r.world->sys, r.world->core(), store,
                               kImagePmo, r.pmo_vdom);
    },
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.world->sys.wrvdr(r.world->core(), *r.task, r.vdom,
                                 VPerm::kAccessDisable);
    },
    [](ImageRun &r, apps::PmoStore &) {
        (void)r.world->sys.vdom_free(r.world->core(), r.vdom);
    },
};

/// A fresh world logging to \p wal, with steps [0, i) run clean.
std::unique_ptr<ImageRun>
replay_steps(hw::ArchKind arch, std::size_t i, Wal &wal,
             apps::PmoStore &store)
{
    auto run = std::make_unique<ImageRun>();
    run->world = fresh_world(arch);
    run->task = run->world->spawn();
    run->world->proc.mm().set_wal(&wal);
    for (std::size_t j = 0; j < i; ++j)
        kImageSteps[j](*run, store);
    return run;
}

/// Crossings of step \p i, counted by a probe run.
std::uint64_t
count_crossings(hw::ArchKind arch, std::size_t i)
{
    Wal wal;
    apps::PmoStore store;
    auto run = replay_steps(arch, i, wal, store);
    FaultPlan probe(1);
    probe.arm_probe(FaultSite::kCrash);
    run->world->machine.set_faults(&probe);
    kImageSteps[i](*run, store);
    return probe.occurrences(FaultSite::kCrash);
}

/// Runs step \p i once with kCrash firing at each of its \p n crossings,
/// tapping the image of every one.
std::vector<CrashImage>
tap_images(hw::ArchKind arch, std::size_t i, std::uint64_t n)
{
    Wal wal;
    apps::PmoStore store;
    auto run = replay_steps(arch, i, wal, store);
    std::vector<CrashImage> images;
    FaultPlan plan(1);
    plan.arm_crash({.every = 1, .max_fires = n}, [&] {
        EXPECT_EQ(plan.occurrences(FaultSite::kCrash), images.size() + 1);
        images.push_back({wal, store});
    });
    run->world->machine.set_faults(&plan);
    kImageSteps[i](*run, store);
    return images;
}

/// The reference for tap_images: a run of step \p i that loses power at
/// crossing \p k alone, with its own copy taken there.
CrashImage
image_at(hw::ArchKind arch, std::size_t i, std::uint64_t k)
{
    Wal wal;
    apps::PmoStore store;
    auto run = replay_steps(arch, i, wal, store);
    CrashImage image;
    FaultPlan plan(1);
    plan.arm_crash(crossing(k), [&] { image = {wal, store}; });
    run->world->machine.set_faults(&plan);
    kImageSteps[i](*run, store);
    EXPECT_EQ(plan.fires(FaultSite::kCrash), 1u);
    return image;
}

/// A recovered world's durable outcome.
struct Recovered {
    RecoveryStats stats;
    std::string durable;
    std::map<int, std::vector<std::uint64_t>> store;
};

/// Reboots a fresh world from (a copy of) \p image and recovers it.
Recovered
recover_into_fresh_world(hw::ArchKind arch, CrashImage image)
{
    image.wal.reboot();
    auto fresh = fresh_world(arch);
    fresh->spawn();  // Replay finds the task by tid.
    Recovered out;
    out.stats = recover(fresh->sys, fresh->core(), image.wal,
                        apps::pmo_recovery_hook(image.store));
    out.durable = snapshot_durable_state(fresh->sys);
    out.store = std::move(image.store.content);
    return out;
}

bool
same_record(const WalRecord &x, const WalRecord &y)
{
    return x.lsn == y.lsn && x.txn == y.txn && x.type == y.type &&
           x.op == y.op && x.tid == y.tid && x.a == y.a && x.b == y.b &&
           x.c == y.c && x.d == y.d && x.checksum == y.checksum;
}

/// The ABORT records in \p wal's log.
std::ptrdiff_t
abort_records(const Wal &wal)
{
    return std::count_if(
        wal.records().begin(), wal.records().end(),
        [](const WalRecord &r) { return r.type == WalRecType::kAbort; });
}

TEST(CrashImage, OneRunTapsTheSameImagesAsOneRunPerCrossing)
{
    // A fire returns false and the op runs on, so firing at crossings
    // 1..k-1 must not change what crossing k leaves: image k of the run
    // that taps every crossing equals the image of a run armed at k
    // alone, record for record, and recovers identically.
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        for (std::size_t i = 0; i < kImageSteps.size(); ++i) {
            std::uint64_t n = count_crossings(arch, i);
            EXPECT_GT(n, 0u) << hw::arch_name(arch) << " step " << i;
            std::vector<CrashImage> images = tap_images(arch, i, n);
            ASSERT_EQ(images.size(), n);

            for (std::uint64_t k = 1; k <= n; ++k) {
                const std::string at = std::string(hw::arch_name(arch)) +
                                       " step " + std::to_string(i) +
                                       " k=" + std::to_string(k);
                const CrashImage &tapped = images[k - 1];
                CrashImage single = image_at(arch, i, k);
                ASSERT_EQ(tapped.wal.size(), single.wal.size()) << at;
                for (std::size_t r = 0; r < tapped.wal.size(); ++r)
                    EXPECT_TRUE(same_record(tapped.wal.records()[r],
                                            single.wal.records()[r]))
                        << at << " lsn " << r + 1;
                EXPECT_EQ(tapped.wal.commits(), single.wal.commits()) << at;
                EXPECT_EQ(abort_records(tapped.wal),
                          abort_records(single.wal))
                    << at;
                EXPECT_EQ(tapped.wal.in_txn(), single.wal.in_txn()) << at;
                EXPECT_EQ(tapped.store.content, single.store.content) << at;

                Recovered a = recover_into_fresh_world(arch, tapped);
                Recovered b = recover_into_fresh_world(arch, single);
                ASSERT_TRUE(a.stats.ok) << at << ": " << a.stats.error;
                ASSERT_TRUE(b.stats.ok) << at << ": " << b.stats.error;
                EXPECT_EQ(a.durable, b.durable) << at;
                EXPECT_EQ(a.store, b.store) << at;
                EXPECT_EQ(a.stats.records, b.stats.records) << at;
                EXPECT_EQ(a.stats.torn, b.stats.torn) << at;
                EXPECT_EQ(a.stats.committed, b.stats.committed) << at;
                EXPECT_EQ(a.stats.uncommitted, b.stats.uncommitted) << at;
                EXPECT_EQ(a.stats.aborted, b.stats.aborted) << at;
                EXPECT_EQ(a.stats.replayed, b.stats.replayed) << at;
                EXPECT_EQ(a.stats.undone, b.stats.undone) << at;
            }
        }
    }
}

TEST(CrashImage, CrossingMidPmoPersistLeavesPartialEntryThatRecoveryUndoes)
{
    const std::size_t attach = 9;  // kImageSteps[9] is the pmo_attach.
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        std::uint64_t n = count_crossings(arch, attach);
        std::vector<CrashImage> images = tap_images(arch, attach, n);
        ASSERT_EQ(images.size(), n);

        // The crossings between the first page persist and the last one
        // see the object's store entry holding 1..kPages-1 pages.
        std::vector<bool> seen(kImagePmoPages, false);
        for (std::uint64_t k = 1; k <= n; ++k) {
            const CrashImage &image = images[k - 1];
            auto it = image.store.content.find(kImagePmo);
            if (it == image.store.content.end() || it->second.empty() ||
                it->second.size() >= kImagePmoPages)
                continue;
            const std::string at = std::string(hw::arch_name(arch)) +
                                   " k=" + std::to_string(k);
            seen[it->second.size()] = true;
            for (std::size_t p = 0; p < it->second.size(); ++p)
                EXPECT_EQ(it->second[p],
                          apps::PmoStore::pattern(kImagePmo, kImagePmoSeed,
                                                  p))
                    << at;

            Recovered rec = recover_into_fresh_world(arch, image);
            ASSERT_TRUE(rec.stats.ok) << at << ": " << rec.stats.error;
            EXPECT_EQ(rec.stats.committed, image.wal.commits()) << at;
            EXPECT_EQ(rec.stats.uncommitted, 1u) << at;
            EXPECT_EQ(rec.stats.undone, 1u) << at;
            EXPECT_EQ(rec.store.count(kImagePmo), 0u) << at;
        }
        for (std::size_t p = 1; p < kImagePmoPages; ++p)
            EXPECT_TRUE(seen[p]) << hw::arch_name(arch) << " " << p
                                 << " pages persisted";
    }
}

// -- Cycle identity -------------------------------------------------------

/// A workload across every WAL-wired entry point.
hw::CycleBreakdown
drive_wired_ops(World &w, apps::PmoStore &store)
{
    hw::Core &core = w.core();
    kernel::Task *task = w.ready_thread();
    auto [vdom, vpn] = w.make_domain(2);
    w.sys.wrvdr(core, *task, vdom, VPerm::kFullAccess);
    w.sys.access(core, *task, vpn, true);
    DomainAllocator arena(w.sys, core, false, 2);
    (void)arena.allocate(core, 64);
    Sandbox sandbox(w.sys);
    hw::Vpn sb = w.proc.mm().mmap(1);
    sandbox.sandbox_mprotect(core, sb, 1, vdom);
    apps::PmoAttachResult att =
        apps::pmo_attach(w.sys, core, store, 1, 2, 5);
    apps::pmo_detach(w.sys, core, store, 1, att.vdom);
    w.sys.wrvdr(core, *task, vdom, VPerm::kAccessDisable);
    w.sys.vdr_free(core, *task);
    return w.machine.total_breakdown();
}

TEST(Wal, CycleIdentityWhenUnattachedAndChargesOnlyWalKindWhenAttached)
{
    // Same workload, one world with no WAL (every logging site is a null
    // pointer test) and one with the log attached.  The attached run may
    // spend extra cycles ONLY under the new named CostKind::kWal bucket;
    // every other per-kind total must agree to the cycle.
    apps::PmoStore store_off;
    apps::PmoStore store_on;
    Wal wal;
    auto off_world = fresh_world(hw::ArchKind::kX86);
    hw::CycleBreakdown off = drive_wired_ops(*off_world, store_off);
    auto on_world = fresh_world(hw::ArchKind::kX86);
    on_world->proc.mm().set_wal(&wal);
    hw::CycleBreakdown on = drive_wired_ops(*on_world, store_on);

    EXPECT_GT(wal.size(), 0u);
    for (std::size_t k = 0; k < static_cast<std::size_t>(
                                    hw::CostKind::kNumKinds);
         ++k) {
        auto kind = static_cast<hw::CostKind>(k);
        if (kind == hw::CostKind::kWal) {
            // Both runs persist PMO content (the store is always
            // durable); the attached run additionally pays per-record
            // append + flush.
            EXPECT_GT(on.get(kind), off.get(kind));
            continue;
        }
        EXPECT_EQ(on.get(kind), off.get(kind))
            << "cost kind " << hw::cost_kind_name(kind);
    }
}

// -- Shootdown exponential backoff ----------------------------------------

TEST(Shootdown, ExponentialBackoffChargesCappedSchedule)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    kernel::ShootdownManager sd(machine);
    const hw::CostTable &costs = machine.params().costs;
    telemetry::MetricsRegistry registry;

    // Sticky drop from the first crossing: all four retries fire, then
    // the post-retry delivery goes through unconditionally.
    FaultPlan plan(1);
    plan.arm_exact(FaultSite::kIpiDrop, 1, /*sticky=*/true);
    machine.set_faults(&plan);
    {
        telemetry::ScopedMetrics attach(registry);
        sd.shoot(machine.core(0), 0b0010, kernel::FlushKind::kAll);
    }
    machine.set_faults(nullptr);
    EXPECT_EQ(registry.value(telemetry::Metric::kShootdownRetries), 4u);

    // Deterministic capped doubling: waits of 1x, 2x, 4x, 8x ipi_wait
    // (the shift saturates at 3), plus the final uncontended delivery.
    hw::Cycles expected = 5 * costs.ipi_post +
                          (1 + 2 + 4 + 8 + 1) * costs.ipi_wait;
    EXPECT_NEAR(machine.core(0).breakdown().get(hw::CostKind::kShootdown),
                expected, 0.01);

    // The new histogram saw exactly the four backoff waits.
    telemetry::Histogram h =
        registry.histogram(telemetry::Metric::kShootdownBackoff);
    EXPECT_EQ(h.count, 4u);
    std::uint64_t expected_sum = 0;
    for (int shift = 0; shift <= 3; ++shift)
        expected_sum += static_cast<std::uint64_t>(
            costs.ipi_wait * static_cast<hw::Cycles>(1ULL << shift));
    EXPECT_EQ(h.sum, expected_sum);
}

TEST(Shootdown, UnarmedPathChargesNoBackoff)
{
    // With no fault armed the retry loop never runs: the per-target cost
    // stays exactly ipi_post + ipi_wait (the pre-backoff pin), so the
    // backoff change is cycle-invisible to every clean run.
    hw::Machine machine(hw::ArchParams::x86(2));
    kernel::ShootdownManager sd(machine);
    const hw::CostTable &costs = machine.params().costs;
    telemetry::MetricsRegistry registry;
    {
        telemetry::ScopedMetrics attach(registry);
        sd.shoot(machine.core(0), 0b0010, kernel::FlushKind::kAll);
    }
    EXPECT_NEAR(machine.core(0).breakdown().get(hw::CostKind::kShootdown),
                costs.ipi_post + costs.ipi_wait, 0.01);
    EXPECT_EQ(registry.value(telemetry::Metric::kShootdownRetries), 0u);
    EXPECT_EQ(registry.histogram(telemetry::Metric::kShootdownBackoff)
                  .count,
              0u);
}

}  // namespace
}  // namespace vdom
