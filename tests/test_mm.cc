/// \file
/// MmStruct tests: layout, vdom assignment, demand paging, eviction ops,
/// and a seeded property test of the shadow invariant over many VDSes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "hw/machine.h"
#include "kernel/mm.h"
#include "sim/fault.h"
#include "sim/rng.h"

namespace vdom::kernel {
namespace {

class MmTest : public ::testing::Test {
  protected:
    MmTest()
        : params(hw::ArchParams::x86(2)),
          machine(params),
          shootdown(machine),
          mm(params, &shootdown)
    {
        core().set_pgd(&mm.vds0()->pgd(), 1);
    }

    hw::Core &core() { return machine.core(0); }

    hw::ArchParams params;
    hw::Machine machine;
    ShootdownManager shootdown;
    MmStruct mm;
};

TEST_F(MmTest, MmapDisjointRegions)
{
    hw::Vpn a = mm.mmap(10);
    hw::Vpn b = mm.mmap(10);
    EXPECT_GE(b, a + 10);
    EXPECT_NE(mm.vmas().find(a), nullptr);
    EXPECT_NE(mm.vmas().find(b + 9), nullptr);
    EXPECT_EQ(mm.vmas().find(a + 10), nullptr);  // Guard gap.
}

TEST_F(MmTest, LargeMmapIsPmdAligned)
{
    hw::Vpn big = mm.mmap(512);
    EXPECT_EQ(big % params.pmd_span_pages, 0u);
    hw::Vpn huge = mm.mmap(512, true);
    EXPECT_EQ(huge % params.pmd_span_pages, 0u);
}

TEST_F(MmTest, AssignVdomAndVdt)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(8);
    EXPECT_EQ(mm.assign_vdom(core(), region, 8, v), VdomStatus::kOk);
    EXPECT_EQ(mm.vdom_of(region + 3), v);
    EXPECT_EQ(mm.vdm().vdt().protected_pages(v), 8u);
}

TEST_F(MmTest, AssignSplitsVma)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(10);
    ASSERT_EQ(mm.assign_vdom(core(), region + 3, 4, v), VdomStatus::kOk);
    EXPECT_EQ(mm.vdom_of(region), kCommonVdom);
    EXPECT_EQ(mm.vdom_of(region + 3), v);
    EXPECT_EQ(mm.vdom_of(region + 6), v);
    EXPECT_EQ(mm.vdom_of(region + 7), kCommonVdom);
}

TEST_F(MmTest, AddressSpaceIntegrity)
{
    // §7.2: a region given one vdom can never be reassigned to another.
    VdomId a = mm.vdm().alloc(false);
    VdomId b = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(4);
    ASSERT_EQ(mm.assign_vdom(core(), region, 4, a), VdomStatus::kOk);
    EXPECT_EQ(mm.assign_vdom(core(), region, 4, b),
              VdomStatus::kAlreadyAssigned);
    EXPECT_EQ(mm.assign_vdom(core(), region + 1, 2, b),
              VdomStatus::kAlreadyAssigned);
    // Re-assigning the same vdom is idempotent.
    EXPECT_EQ(mm.assign_vdom(core(), region, 4, a), VdomStatus::kOk);
}

TEST_F(MmTest, AssignRejectsBadInput)
{
    EXPECT_EQ(mm.assign_vdom(core(), 0xdead000, 4, 99),
              VdomStatus::kInvalidVdom);
    VdomId v = mm.vdm().alloc(false);
    EXPECT_EQ(mm.assign_vdom(core(), 0xdead000, 4, v),
              VdomStatus::kInvalidRange);
    EXPECT_EQ(mm.assign_vdom(core(), 0, 0, v), VdomStatus::kInvalidRange);
}

TEST_F(MmTest, FaultInPopulatesShadowAndVds)
{
    hw::Vpn region = mm.mmap(2);
    EXPECT_TRUE(mm.fault_in(core(), *mm.vds0(), region));
    EXPECT_TRUE(mm.shadow().translate(region).present);
    hw::Translation t = mm.vds0()->pgd().translate(region);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, params.default_pdom);
}

TEST_F(MmTest, FaultInUnknownAddressFails)
{
    EXPECT_FALSE(mm.fault_in(core(), *mm.vds0(), 0xdead000));
}

TEST_F(MmTest, FaultInProtectedPageUnmappedVdomGetsAccessNever)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(2);
    mm.assign_vdom(core(), region, 2, v);
    mm.fault_in(core(), *mm.vds0(), region);
    hw::Translation t = mm.vds0()->pgd().translate(region);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, params.access_never_pdom);
}

TEST_F(MmTest, FaultInProtectedPageMappedVdomGetsItsPdom)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(2);
    mm.assign_vdom(core(), region, 2, v);
    mm.vds0()->map_vdom(6, v);
    mm.fault_in(core(), *mm.vds0(), region);
    EXPECT_EQ(mm.vds0()->pgd().translate(region).pdom, 6);
}

TEST_F(MmTest, CrossVdsDemandPagingChargesMemsync)
{
    hw::Vpn region = mm.mmap(1);
    mm.fault_in(core(), *mm.vds0(), region);
    Vds *other = mm.create_vds();
    hw::Cycles before = core().breakdown().get(hw::CostKind::kMemSync);
    mm.fault_in(core(), *other, region);
    EXPECT_GT(core().breakdown().get(hw::CostKind::kMemSync), before);
    EXPECT_TRUE(other->pgd().translate(region).present);
}

TEST_F(MmTest, FaultInIdempotent)
{
    hw::Vpn region = mm.mmap(1);
    mm.fault_in(core(), *mm.vds0(), region);
    hw::Cycles before = core().now();
    EXPECT_TRUE(mm.fault_in(core(), *mm.vds0(), region));
    EXPECT_EQ(core().now(), before);  // Early-out: no charge.
}

TEST_F(MmTest, InstallVdomMapsPresentPages)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(4);
    mm.assign_vdom(core(), region, 4, v);
    for (int i = 0; i < 4; ++i)
        mm.fault_in(core(), *mm.vds0(), region + i);
    Vds *other = mm.create_vds();
    other->map_vdom(5, v);
    hw::PtOps ops = mm.install_vdom_in_vds(core(), *other, v, 5,
                                           hw::CostKind::kMigration);
    EXPECT_EQ(ops.pte_writes, 4u);
    EXPECT_EQ(other->pgd().translate(region + 2).pdom, 5);
}

TEST_F(MmTest, EvictUsesPmdFastPathFor2MbVdom)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(512);
    mm.assign_vdom(core(), region, 512, v);
    mm.vds0()->map_vdom(6, v);
    for (int i = 0; i < 512; ++i)
        mm.fault_in(core(), *mm.vds0(), region + i);
    hw::PtOps ops = mm.evict_vdom_from_vds(core(), *mm.vds0(), v);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    EXPECT_TRUE(mm.vds0()->pgd().translate(region).pmd_disabled);
}

TEST_F(MmTest, EvictSmallVdomRetagsPerPte)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(2);
    mm.assign_vdom(core(), region, 2, v);
    mm.vds0()->map_vdom(6, v);
    mm.fault_in(core(), *mm.vds0(), region);
    mm.fault_in(core(), *mm.vds0(), region + 1);
    hw::PtOps ops = mm.evict_vdom_from_vds(core(), *mm.vds0(), v);
    EXPECT_EQ(ops.pte_writes, 2u);
    EXPECT_EQ(mm.vds0()->pgd().translate(region).pdom,
              params.access_never_pdom);
}

TEST_F(MmTest, EvictBumpsTlbGeneration)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(1);
    mm.assign_vdom(core(), region, 1, v);
    std::uint64_t gen = mm.vds0()->tlb_gen();
    mm.evict_vdom_from_vds(core(), *mm.vds0(), v);
    EXPECT_GT(mm.vds0()->tlb_gen(), gen);
}

TEST_F(MmTest, MunmapRemovesEverywhere)
{
    VdomId v = mm.vdm().alloc(false);
    hw::Vpn region = mm.mmap(4);
    mm.assign_vdom(core(), region, 4, v);
    mm.fault_in(core(), *mm.vds0(), region);
    Vds *other = mm.create_vds();
    mm.fault_in(core(), *other, region);
    mm.munmap(core(), region, 4);
    EXPECT_EQ(mm.vmas().find(region), nullptr);
    EXPECT_FALSE(mm.shadow().translate(region).present);
    EXPECT_FALSE(mm.vds0()->pgd().translate(region).present);
    EXPECT_FALSE(other->pgd().translate(region).present);
    EXPECT_TRUE(mm.vdm().vdt().areas(v).empty());
}

TEST_F(MmTest, MunmapPartial)
{
    hw::Vpn region = mm.mmap(10);
    mm.munmap(core(), region + 2, 3);
    EXPECT_NE(mm.vmas().find(region), nullptr);
    EXPECT_EQ(mm.vmas().find(region + 3), nullptr);
    EXPECT_NE(mm.vmas().find(region + 6), nullptr);
}

TEST_F(MmTest, HugeFaultInMapsWholePmd)
{
    hw::Vpn region = mm.mmap(512, true);
    mm.fault_in(core(), *mm.vds0(), region + 5);
    hw::Translation t = mm.vds0()->pgd().translate(region + 100);
    ASSERT_TRUE(t.present);
    EXPECT_TRUE(t.huge);
}

TEST_F(MmTest, UnionCpuBitmap)
{
    mm.vds0()->cpu_set(0);
    Vds *other = mm.create_vds();
    other->cpu_set(1);
    EXPECT_EQ(mm.union_cpu_bitmap(), 3u);
}

// -- Shadow invariant under a random op mix --------------------------------

/// A region the property test mapped (it stays listed after munmap, so
/// the invariant is also checked where the layout is gone).
struct Region {
    hw::Vpn start;
    std::uint64_t pages;
    bool huge;
};

/// Tallies over all seeds, so the test can require that each interesting
/// case actually happened.
struct Coverage {
    std::size_t skipped_areas = 0;
    std::size_t swept_areas = 0;
    std::size_t failed_mprotects = 0;
    std::size_t disabled_munmaps = 0;
    std::size_t reclaimed = 0;
    std::size_t max_vdses = 0;
};

/// True when some VDS translates a page of [vpn, vpn+pages) through a
/// disabled PMD.
bool
any_disabled(const MmStruct &mm, hw::Vpn vpn, std::uint64_t pages)
{
    for (const auto &vds : mm.vdses()) {
        for (std::uint64_t i = 0; i < pages; ++i)
            if (vds->pgd().translate(vpn + i).pmd_disabled)
                return true;
    }
    return false;
}

/// Every VDS maps a page only where the shadow does (MmStruct's
/// invariant), checked in 64-page chunks over every region.
void
expect_shadow_covers_vdses(MmStruct &mm, const std::vector<Region> &regions,
                           const char *op)
{
    const hw::PageTable &shadow = mm.shadow();
    for (const Region &r : regions) {
        for (std::uint64_t off = 0; off < r.pages; off += 64) {
            std::uint64_t n = std::min<std::uint64_t>(64, r.pages - off);
            hw::Vpn chunk = r.start + off;
            bool in_shadow = shadow.any_present(chunk, n);
            for (const auto &vds : mm.vdses()) {
                if (!in_shadow) {
                    ASSERT_FALSE(vds->pgd().any_present(chunk, n))
                        << "after " << op << ": VDS " << vds->id()
                        << " maps pages in [" << chunk << ", +" << n
                        << ") the shadow does not";
                    continue;
                }
                for (std::uint64_t i = 0; i < n; ++i) {
                    ASSERT_TRUE(!vds->pgd().any_present(chunk + i, 1) ||
                                shadow.any_present(chunk + i, 1))
                        << "after " << op << ": VDS " << vds->id()
                        << " maps page " << chunk + i
                        << " the shadow does not";
                }
            }
        }
    }
}

/// Mirrors assign_vdom's per-area walk: for each area the call would
/// retag and that the shadow has never populated (and that covers no
/// whole PMD span), no VDS may have a page or a huge PMD there, so
/// skipping the sweep cannot change any VDS.  A VDS may still hold a
/// disabled PMD over part of such an area (reclaim_range empties one
/// without dropping it); set_pdom_range leaves a span it covers only in
/// part untouched, so that case needs no sweep either.
void
expect_skipped_areas_empty(MmStruct &mm, hw::Vpn start, std::uint64_t pages,
                           VdomId vdom, Coverage &cov)
{
    std::uint64_t span = mm.params().pmd_span_pages;
    for (Vma *vma : mm.vmas().overlapping(start, pages)) {
        if (vma->vdom != kCommonVdom && vma->vdom != vdom)
            return;  // kAlreadyAssigned: the call retags nothing.
    }
    for (Vma *vma : mm.vmas().overlapping(start, pages)) {
        hw::Vpn lo = std::max(vma->start, start);
        hw::Vpn hi = std::min(vma->end(), start + pages);
        if (vma->vdom == vdom && vma->start >= start &&
            vma->end() <= start + pages)
            continue;
        bool covers_span = (lo + span - 1) / span * span + span <= hi;
        if (covers_span || mm.shadow().any_present(lo, hi - lo)) {
            ++cov.swept_areas;
            continue;
        }
        ++cov.skipped_areas;
        for (const auto &vds : mm.vdses()) {
            EXPECT_FALSE(vds->pgd().any_present(lo, hi - lo))
                << "VDS " << vds->id() << " has pages in skipped area ["
                << lo << ", " << hi << ")";
            for (hw::Vpn v = lo; v < hi; ++v) {
                hw::Translation t = vds->pgd().translate(v);
                EXPECT_FALSE(t.present || t.huge || t.prot_none)
                    << "VDS " << vds->id() << " page " << v;
            }
        }
    }
}

/// After a successful assignment of \p vdom over [start, start+pages),
/// every VDS serves each mapped 4KB page there under the vdom's pdom in
/// that VDS, or access-never where the VDS does not map the vdom: no
/// page keeps its old default tag.
void
expect_revoked(MmStruct &mm, hw::Vpn start, std::uint64_t pages,
               VdomId vdom)
{
    for (const auto &vds : mm.vdses()) {
        hw::Pdom want = mm.params().access_never_pdom;
        if (auto mapped = vds->pdom_of(vdom))
            want = *mapped;
        for (hw::Vpn v = start; v < start + pages; ++v) {
            if (mm.vdom_of(v) != vdom)
                continue;  // Guard page between regions.
            hw::Translation t = vds->pgd().translate(v);
            if (t.present && !t.huge) {
                ASSERT_EQ(t.pdom, want)
                    << "VDS " << vds->id() << " page " << v;
            }
        }
    }
}

void
run_shadow_property(std::uint64_t seed, Coverage &cov)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto w = std::unique_ptr<::vdom::testing::World>(
        ::vdom::testing::World::x86(4));
    MmStruct &mm = w->proc.mm();
    hw::Core &core0 = w->core(0);
    // Three threads with a two-table budget each, so grants beyond the
    // free pdoms switch VDS or evict; plus VDSes no thread owns.
    std::vector<Task *> tasks;
    for (std::size_t c = 0; c < 3; ++c)
        tasks.push_back(w->ready_thread(2, c));
    for (int i = 0; i < 3; ++i)
        mm.create_vds();

    sim::FaultPlan plan(seed);
    if (seed % 2 == 0) {
        sim::FaultSpec vdt;
        vdt.probability = 0.15;
        plan.arm(sim::FaultSite::kVdtAllocFail, vdt);
        sim::FaultSpec delay;
        delay.probability = 0.2;
        plan.arm(sim::FaultSite::kPteWriteDelay, delay);
    }
    w->machine.set_faults(&plan);

    sim::Rng rng(seed);
    std::vector<Region> regions;
    std::vector<Region> live;
    std::vector<VdomId> vdoms;
    auto new_region = [&] {
        Region r{0, 1 + rng.below(6), false};
        switch (rng.below(4)) {
          case 0:
            r.pages = 512 * (1 + rng.below(2));
            break;
          case 1:
            r.pages = 512 * (1 + rng.below(2));
            r.huge = true;
            break;
          default:
            break;
        }
        r.start = mm.mmap(r.pages, r.huge);
        regions.push_back(r);
        live.push_back(r);
        return r;
    };
    auto pick_vdom = [&] {
        if (vdoms.empty() || rng.below(2) == 0)
            vdoms.push_back(w->sys.vdom_alloc(core0, rng.below(4) == 0));
        return vdoms[rng.below(vdoms.size())];
    };
    auto any_vds = [&]() -> Vds & {
        return *mm.vdses()[rng.below(mm.num_vdses())];
    };
    auto protect_with = [&](hw::Vpn start, std::uint64_t pages,
                            VdomId vdom) {
        expect_skipped_areas_empty(mm, start, pages, vdom, cov);
        VdomStatus st = w->sys.vdom_mprotect(core0, start, pages, vdom);
        if (st == VdomStatus::kResourceExhausted)
            ++cov.failed_mprotects;
        if (st == VdomStatus::kOk)
            expect_revoked(mm, start, pages, vdom);
    };
    auto protect = [&](hw::Vpn start, std::uint64_t pages) {
        protect_with(start, pages, pick_vdom());
    };

    for (int i = 0; i < 4; ++i)
        new_region();
    for (int op = 0; op < 140; ++op) {
        const char *name = "";
        std::size_t ri = rng.below(live.size());
        const Region r = live[ri];
        switch (rng.below(10)) {
          case 0:
            name = "mmap";
            new_region();
            break;
          case 1:
          case 2: {
            // Fault a run of pages into one VDS: sometimes a whole span,
            // so evicting it later takes the PMD fast path.
            name = "fault_in";
            Vds &vds = any_vds();
            std::uint64_t off = rng.below(r.pages);
            std::uint64_t n = rng.below(3) == 0 ? r.pages - off
                                                : 1 + rng.below(8);
            for (std::uint64_t i = 0; i < n && off + i < r.pages; ++i)
                mm.fault_in(core0, vds, r.start + off + i);
            break;
          }
          case 3: {
            name = "mprotect.fresh";
            Region fresh = new_region();
            std::uint64_t off = rng.below(2) ? 0 : rng.below(fresh.pages);
            protect(fresh.start + off,
                    1 + rng.below(fresh.pages - off));
            break;
          }
          case 4: {
            name = "mprotect.partial";
            std::uint64_t off = rng.below(r.pages);
            protect(r.start + off, 1 + rng.below(r.pages - off));
            break;
          }
          case 5: {
            // From inside one live region to inside a later one: the
            // range crosses guard pages and several VMAs.
            name = "mprotect.multi";
            const Region &b = live[rng.below(live.size())];
            const Region &a = r.start <= b.start ? r : b;
            const Region &z = r.start <= b.start ? b : r;
            hw::Vpn start = a.start + rng.below(a.pages);
            hw::Vpn end = z.start + 1 + rng.below(z.pages);
            if (end > start)
                protect(start, end - start);
            break;
          }
          case 6: {
            // A burst of grants through wrvdr: past the free pdoms they
            // switch VDS, create one or evict; revocations free pdoms.
            name = "wrvdr";
            std::size_t t = rng.below(tasks.size());
            Task &task = *tasks[t];
            hw::Core &core = w->core(t);
            for (std::uint64_t k = 1 + rng.below(6); k > 0; --k) {
                VdomId vdom = pick_vdom();
                bool grant = rng.below(4) != 0;
                w->sys.wrvdr(core, task, vdom,
                             grant ? VPerm::kFullAccess
                                   : VPerm::kAccessDisable);
            }
            w->sys.access(core, task, r.start + rng.below(r.pages), true);
            break;
          }
          case 7: {
            // A whole-span domain, filled in one thread's VDS under its
            // pdom: a later eviction there disables the PMD (§5.5).
            name = "mprotect.span";
            Region span = new_region();
            VdomId vdom = w->sys.vdom_alloc(core0);
            vdoms.push_back(vdom);
            protect_with(span.start, span.pages, vdom);
            std::size_t t = rng.below(tasks.size());
            Task &task = *tasks[t];
            hw::Core &core = w->core(t);
            w->sys.wrvdr(core, task, vdom, VPerm::kFullAccess);
            for (std::uint64_t i = 0; i < span.pages; ++i)
                mm.fault_in(core, *task.vds(), span.start + i);
            break;
          }
          case 8: {
            // Half the time, a region an eviction left under a disabled
            // PMD in some VDS, if there is one.
            name = "munmap";
            if (rng.below(2) == 0) {
                for (std::size_t i = 0; i < live.size(); ++i) {
                    if (any_disabled(mm, live[i].start, live[i].pages)) {
                        ri = i;
                        break;
                    }
                }
            }
            const Region u = live[ri];
            std::uint64_t off = rng.below(2) ? 0 : rng.below(u.pages);
            std::uint64_t n = rng.below(2) ? u.pages - off
                                           : 1 + rng.below(u.pages - off);
            if (any_disabled(mm, u.start + off, n))
                ++cov.disabled_munmaps;
            mm.munmap(core0, u.start + off, n);
            if (off == 0 && n == u.pages) {
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(ri));
                if (live.empty())
                    new_region();
            }
            break;
          }
          default: {
            name = "reclaim_range";
            std::uint64_t off = rng.below(r.pages);
            cov.reclaimed += mm.reclaim_range(
                core0, r.start + off, 1 + rng.below(r.pages - off));
            break;
          }
        }
        expect_shadow_covers_vdses(mm, regions, name);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    cov.max_vdses = std::max(cov.max_vdses, mm.num_vdses());
}

TEST(MmProperty, VdsesMapOnlyWhatTheShadowMaps)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        run_shadow_property(seed, cov);
        if (HasFatalFailure())
            return;
    }
    // The mix reached every case the skip has to get right.
    EXPECT_GT(cov.skipped_areas, 0u);
    EXPECT_GT(cov.swept_areas, 0u);
    EXPECT_GT(cov.failed_mprotects, 0u);
    EXPECT_GT(cov.disabled_munmaps, 0u);
    EXPECT_GT(cov.reclaimed, 0u);
    EXPECT_GE(cov.max_vdses, 5u);
}

}  // namespace
}  // namespace vdom::kernel
