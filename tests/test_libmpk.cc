/// \file
/// libmpk baseline tests: eviction storms, busy waiting, huge pages.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/libmpk.h"
#include "common.h"

namespace vdom::baselines {
namespace {

using kernel::Task;
using ::vdom::testing::World;

class LibMpkTest : public ::testing::Test {
  protected:
    LibMpkTest() : world(World::x86(4)), mpk(world->proc) {}

    /// Allocates a key over fresh, pre-faulted pages.
    std::pair<int, hw::Vpn>
    make_key(std::uint64_t pages)
    {
        hw::Vpn vpn = world->proc.mm().mmap(pages);
        int key = mpk.pkey_alloc(world->core(0));
        mpk.pkey_mprotect(world->core(0), vpn, pages, key);
        return {key, vpn};
    }

    std::unique_ptr<World> world;
    LibMpk mpk;
};

TEST_F(LibMpkTest, FifteenKeysWithoutEviction)
{
    Task *task = world->spawn();
    for (int i = 0; i < 15; ++i) {
        auto [key, vpn] = make_key(1);
        (void)vpn;
        EXPECT_EQ(mpk.pkey_set(world->core(0), *task, key,
                               VPerm::kFullAccess),
                  MpkResult::kOk);
    }
    EXPECT_EQ(mpk.stats().evictions, 0u);
    EXPECT_EQ(mpk.num_hw_keys_in_use(), 15u);
}

TEST_F(LibMpkTest, SixteenthKeyEvicts)
{
    Task *task = world->spawn();
    std::vector<int> keys;
    for (int i = 0; i < 15; ++i) {
        auto [key, vpn] = make_key(1);
        (void)vpn;
        keys.push_back(key);
        mpk.pkey_set(world->core(0), *task, key, VPerm::kFullAccess);
        mpk.pkey_set(world->core(0), *task, key, VPerm::kAccessDisable);
    }
    auto [extra, evpn] = make_key(1);
    (void)evpn;
    EXPECT_EQ(mpk.pkey_set(world->core(0), *task, extra,
                           VPerm::kFullAccess),
              MpkResult::kOk);
    EXPECT_EQ(mpk.stats().evictions, 1u);
}

TEST_F(LibMpkTest, EvictedKeyPagesFault)
{
    Task *task = world->spawn();
    auto [key, vpn] = make_key(2);
    mpk.pkey_set(world->core(0), *task, key, VPerm::kFullAccess);
    EXPECT_TRUE(mpk.access(world->core(0), *task, vpn, true));
    mpk.pkey_set(world->core(0), *task, key, VPerm::kAccessDisable);
    // Fill all 15 hw keys to force key out.
    for (int i = 0; i < 15; ++i) {
        auto [k2, v2] = make_key(1);
        (void)v2;
        mpk.pkey_set(world->core(0), *task, k2, VPerm::kFullAccess);
        mpk.pkey_set(world->core(0), *task, k2, VPerm::kAccessDisable);
    }
    // PROT_NONE pages: the access must fail (page fault, not silent).
    world->core(0).tlb().flush_all();
    EXPECT_FALSE(mpk.access(world->core(0), *task, vpn, false));
}

TEST_F(LibMpkTest, BusyWaitWhenAllKeysHeld)
{
    // 15 threads each hold one key; a 16th thread cannot make progress.
    std::vector<Task *> holders;
    for (int i = 0; i < 15; ++i) {
        Task *t = world->spawn(i % 4);
        auto [key, vpn] = make_key(1);
        (void)vpn;
        ASSERT_EQ(mpk.pkey_set(world->core(i % 4), *t, key,
                               VPerm::kFullAccess),
                  MpkResult::kOk);
        holders.push_back(t);
    }
    Task *waiter = world->spawn(3);
    auto [extra, evpn] = make_key(1);
    (void)evpn;
    hw::Cycles before = world->core(3).now();
    EXPECT_EQ(mpk.pkey_set(world->core(3), *waiter, extra,
                           VPerm::kFullAccess),
              MpkResult::kWouldBlock);
    EXPECT_GT(mpk.stats().busy_waits, 0u);
    EXPECT_GT(world->core(3).now(), before);  // Spin cycles charged.
    EXPECT_GT(world->core(3).breakdown().get(hw::CostKind::kBusyWait), 0.0);
    // A holder releases; the waiter now succeeds (with an eviction).
    mpk.pkey_set(world->core(0), *holders[0], 0, VPerm::kAccessDisable);
    EXPECT_EQ(mpk.pkey_set(world->core(3), *waiter, extra,
                           VPerm::kFullAccess),
              MpkResult::kOk);
}

TEST_F(LibMpkTest, EvictionBroadcastsToProcessCores)
{
    Task *task = world->spawn(0);
    world->spawn(1);  // Puts core 1 in the process cpumask.
    world->core(1).tlb().insert(world->core(1).asid(), 42, {});
    for (int i = 0; i < 16; ++i) {
        auto [key, vpn] = make_key(1);
        (void)vpn;
        mpk.pkey_set(world->core(0), *task, key, VPerm::kFullAccess);
        mpk.pkey_set(world->core(0), *task, key, VPerm::kAccessDisable);
    }
    EXPECT_GE(mpk.stats().evictions, 1u);
    // Core 1 was interrupted and flushed (libmpk has no CPU narrowing).
    EXPECT_GT(world->core(1).breakdown().get(hw::CostKind::kShootdown), 0.0);
    EXPECT_FALSE(
        world->core(1).tlb().lookup(world->core(1).asid(), 42).has_value());
}

TEST(LibMpkEviction, SeenGenerationCoversUnionBitmapAndEvictingCore)
{
    // Eight cores: vds0 runs on 1 and 3, a second VDS on 4, and core 6
    // performs the eviction without any VDS listing it.
    std::unique_ptr<World> world(World::x86(8));
    LibMpk mpk(world->proc);
    kernel::MmStruct &mm = world->proc.mm();
    Task *task = world->spawn(1);
    world->spawn(3);
    Task *other = world->spawn(4);
    world->proc.switch_vds(world->core(4), *other, *mm.create_vds(),
                           hw::CostKind::kContextSwitch);
    ASSERT_EQ(mm.union_cpu_bitmap(), (1ULL << 1) | (1ULL << 3) | (1ULL << 4));

    for (int i = 0; i < 16; ++i) {
        hw::Vpn vpn = mm.mmap(1);
        int key = mpk.pkey_alloc(world->core(0));
        mpk.pkey_mprotect(world->core(0), vpn, 1, key);
        ASSERT_EQ(mpk.pkey_set(world->core(6), *task, key,
                               VPerm::kFullAccess),
                  MpkResult::kOk);
        mpk.pkey_set(world->core(6), *task, key, VPerm::kAccessDisable);
    }
    ASSERT_EQ(mpk.stats().evictions, 1u);

    const kernel::Vds &vds0 = *mm.vds0();
    for (std::size_t c = 0; c < world->machine.num_cores(); ++c) {
        bool covered = c == 1 || c == 3 || c == 4 || c == 6;
        EXPECT_EQ(vds0.core_seen_gen(c) == vds0.tlb_gen(), covered)
            << "core " << c;
    }
}

TEST_F(LibMpkTest, EvictionCostScalesWithPages)
{
    Task *task = world->spawn();
    // Two 512-page (2MB) keys + filler to force churn.
    auto [big_a, vpn_a] = make_key(512);
    (void)vpn_a;
    for (int i = 0; i < 14; ++i) {
        auto [k, v] = make_key(1);
        (void)v;
        mpk.pkey_set(world->core(0), *task, k, VPerm::kFullAccess);
        mpk.pkey_set(world->core(0), *task, k, VPerm::kAccessDisable);
    }
    mpk.pkey_set(world->core(0), *task, big_a, VPerm::kFullAccess);
    mpk.pkey_set(world->core(0), *task, big_a, VPerm::kAccessDisable);
    // Re-touch the fillers so big_a is the LRU victim: the measured swap
    // is then 2MB out + 2MB in, the Table 4 configuration.
    for (int i = 0; i < 14; ++i) {
        mpk.pkey_set(world->core(0), *task, i + 1, VPerm::kFullAccess);
        mpk.pkey_set(world->core(0), *task, i + 1, VPerm::kAccessDisable);
    }
    auto [big_b, vpn_b] = make_key(512);
    (void)vpn_b;
    hw::Cycles before = world->core(0).now();
    mpk.pkey_set(world->core(0), *task, big_b, VPerm::kFullAccess);
    hw::Cycles cost = world->core(0).now() - before;
    // Table 4: libmpk eviction of a 2MB key costs ~30k cycles.
    EXPECT_GT(cost, 20'000.0);
    EXPECT_LT(cost, 45'000.0);
}

TEST_F(LibMpkTest, HugePagesEvictCheaply)
{
    LibMpk huge_mpk(world->proc, /*huge_pages=*/true);
    Task *task = world->spawn();
    hw::Vpn vpn = world->proc.mm().mmap(512, true);
    int key = huge_mpk.pkey_alloc(world->core(0));
    huge_mpk.pkey_mprotect(world->core(0), vpn, 512, key);
    huge_mpk.pkey_set(world->core(0), *task, key, VPerm::kFullAccess);
    huge_mpk.pkey_set(world->core(0), *task, key, VPerm::kAccessDisable);
    for (int i = 0; i < 15; ++i) {
        hw::Vpn v2 = world->proc.mm().mmap(512, true);
        int k2 = huge_mpk.pkey_alloc(world->core(0));
        huge_mpk.pkey_mprotect(world->core(0), v2, 512, k2);
        huge_mpk.pkey_set(world->core(0), *task, k2, VPerm::kFullAccess);
        huge_mpk.pkey_set(world->core(0), *task, k2, VPerm::kAccessDisable);
    }
    hw::Cycles before = world->core(0).now();
    huge_mpk.pkey_set(world->core(0), *task, key, VPerm::kFullAccess);
    hw::Cycles cost = world->core(0).now() - before;
    // One PMD each way instead of 512 PTEs: far below the 4KB-page cost.
    EXPECT_LT(cost, 6'000.0);
    EXPECT_GE(huge_mpk.stats().evictions, 1u);
}

TEST_F(LibMpkTest, MetadataLockSerializesEvictors)
{
    Task *t0 = world->spawn(0);
    Task *t1 = world->spawn(1);
    std::vector<int> keys;
    for (int i = 0; i < 17; ++i) {
        auto [k, v] = make_key(64);
        (void)v;
        keys.push_back(k);
    }
    // Both threads churn through keys; the second evictor must queue.
    mpk.pkey_set(world->core(0), *t0, keys[0], VPerm::kFullAccess);
    mpk.pkey_set(world->core(0), *t0, keys[0], VPerm::kAccessDisable);
    for (int i = 1; i < 16; ++i) {
        mpk.pkey_set(world->core(0), *t0, keys[i], VPerm::kFullAccess);
        mpk.pkey_set(world->core(0), *t0, keys[i], VPerm::kAccessDisable);
    }
    hw::Cycles lock_release = world->core(0).now();
    // Core 1 is far behind core 0; its eviction waits for the lock.
    ASSERT_LT(world->core(1).now(), lock_release);
    mpk.pkey_set(world->core(1), *t1, keys[16], VPerm::kFullAccess);
    EXPECT_GE(world->core(1).now(), lock_release);
    EXPECT_GT(world->core(1).breakdown().get(hw::CostKind::kBusyWait), 0.0);
}

TEST_F(LibMpkTest, InvalidKeyRejected)
{
    Task *task = world->spawn();
    EXPECT_EQ(mpk.pkey_set(world->core(0), *task, 99, VPerm::kFullAccess),
              MpkResult::kInvalid);
    EXPECT_EQ(mpk.pkey_mprotect(world->core(0), 0, 1, -1),
              VdomStatus::kInvalidVdom);
}

}  // namespace
}  // namespace vdom::baselines
