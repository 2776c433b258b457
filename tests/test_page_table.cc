/// \file
/// Page-table model tests: domain tagging, PMD fast paths, PROT_NONE, and
/// a differential check of every mutator against a naive reference model.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hw/page_table.h"
#include "sim/rng.h"

namespace vdom::hw {
namespace {

constexpr std::size_t kSpan = 512;

TEST(PageTable, MapAndTranslate)
{
    PageTable pt(kSpan);
    EXPECT_FALSE(pt.translate(100).present);
    PtOps ops = pt.map_page(100, 3);
    EXPECT_EQ(ops.pte_writes, 1u);
    Translation t = pt.translate(100);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, 3);
    EXPECT_FALSE(t.huge);
}

TEST(PageTable, UnmapPage)
{
    PageTable pt(kSpan);
    pt.map_page(7, 2);
    PtOps ops = pt.unmap_page(7);
    EXPECT_EQ(ops.pte_writes, 1u);
    EXPECT_FALSE(pt.translate(7).present);
    // Unmapping an absent page is a no-op.
    EXPECT_EQ(pt.unmap_page(7).pte_writes, 0u);
}

TEST(PageTable, HugeMapping)
{
    PageTable pt(kSpan);
    PtOps ops = pt.map_huge(0, 5);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    Translation t = pt.translate(17);
    ASSERT_TRUE(t.present);
    EXPECT_TRUE(t.huge);
    EXPECT_EQ(t.pdom, 5);
    EXPECT_EQ(pt.present_pages(), kSpan);
}

TEST(PageTable, RetagRangePerPte)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < 10; ++v)
        pt.map_page(v, 2);
    PtOps ops = pt.set_pdom_range(0, 10, 4, false);
    EXPECT_EQ(ops.pte_writes, 10u);
    EXPECT_EQ(pt.translate(9).pdom, 4);
}

TEST(PageTable, RetagSkipsAbsentPages)
{
    PageTable pt(kSpan);
    pt.map_page(0, 2);
    pt.map_page(5, 2);
    PtOps ops = pt.set_pdom_range(0, 10, 4, false);
    EXPECT_EQ(ops.pte_writes, 2u);
}

TEST(PageTable, PmdDisableFastPath)
{
    PageTable pt(kSpan);
    // A full uniform span: eviction disables one PMD, not 512 PTEs (§5.5).
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    PtOps ops = pt.disable_range(0, kSpan, 1, true);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    Translation t = pt.translate(42);
    EXPECT_FALSE(t.present);
    EXPECT_TRUE(t.pmd_disabled);
}

TEST(PageTable, PmdFastPathNeedsFullUniformSpan)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, v < 10 ? 7 : 6);  // Mixed pdoms: not uniform.
    PtOps ops = pt.disable_range(0, kSpan, 1, true);
    EXPECT_EQ(ops.pmd_writes, 0u);
    EXPECT_EQ(ops.pte_writes, kSpan);
    // PTE-level eviction retags with the access-never pdom.
    Translation t = pt.translate(0);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, 1);
}

TEST(PageTable, HlruRemapToSamePdomIsOnePmdWrite)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    pt.disable_range(0, kSpan, 1, true);
    // Remap to the SAME pdom: one PMD write restores everything (§5.5).
    PtOps ops = pt.set_pdom_range(0, kSpan, 6, true);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, 0u);
    EXPECT_EQ(pt.translate(100).pdom, 6);
}

TEST(PageTable, RemapToDifferentPdomPaysPerPte)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    pt.disable_range(0, kSpan, 1, true);
    PtOps ops = pt.set_pdom_range(0, kSpan, 9, true);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, kSpan);
    EXPECT_EQ(pt.translate(100).pdom, 9);
}

TEST(PageTable, HugeDisableAndRestore)
{
    PageTable pt(kSpan);
    pt.map_huge(0, 4);
    PtOps disable = pt.disable_range(0, kSpan, 1, true);
    EXPECT_EQ(disable.pmd_writes, 1u);
    EXPECT_TRUE(pt.translate(3).pmd_disabled);
    PtOps restore = pt.set_pdom_range(0, kSpan, 8, true);
    EXPECT_EQ(restore.pmd_writes, 1u);
    Translation t = pt.translate(3);
    ASSERT_TRUE(t.present);
    EXPECT_TRUE(t.huge);
    EXPECT_EQ(t.pdom, 8);
}

TEST(PageTable, MapPageIntoDisabledSpanNeutralizesSiblings)
{
    PageTable pt(kSpan, /*access_never=*/1);
    for (Vpn v = 0; v < kSpan; ++v)
        pt.map_page(v, 6);
    pt.disable_range(0, kSpan, 1, true);
    // Re-enabling one page must not resurrect the whole evicted span with
    // its old tags.
    pt.map_page(0, 9);
    EXPECT_EQ(pt.translate(0).pdom, 9);
    Translation sibling = pt.translate(1);
    ASSERT_TRUE(sibling.present);
    EXPECT_EQ(sibling.pdom, 1);  // access-never, not the stale pdom 6.
}

TEST(PageTable, ProtNoneRoundTrip)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < 8; ++v)
        pt.map_page(v, 3);
    PtOps none = pt.protect_none_range(0, 8);
    EXPECT_EQ(none.pte_writes, 8u);
    Translation t = pt.translate(2);
    EXPECT_FALSE(t.present);
    EXPECT_TRUE(t.prot_none);
    // Restore via retag (the libmpk swap-in path).
    PtOps restore = pt.set_pdom_range(0, 8, 5, false);
    EXPECT_EQ(restore.pte_writes, 8u);
    t = pt.translate(2);
    ASSERT_TRUE(t.present);
    EXPECT_EQ(t.pdom, 5);
}

TEST(PageTable, ProtNoneOnHugeUsesOnePmdWrite)
{
    PageTable pt(kSpan);
    pt.map_huge(0, 3);
    PtOps none = pt.protect_none_range(0, kSpan);
    EXPECT_EQ(none.pmd_writes, 1u);
    EXPECT_EQ(none.pte_writes, 0u);
    EXPECT_FALSE(pt.translate(10).present);
}

TEST(PageTable, ProtNoneIdempotent)
{
    PageTable pt(kSpan);
    pt.map_page(0, 3);
    pt.protect_none_range(0, 1);
    PtOps again = pt.protect_none_range(0, 1);
    EXPECT_EQ(again.pte_writes, 0u);
}

TEST(PageTable, PresentPagesCount)
{
    PageTable pt(kSpan);
    for (Vpn v = 0; v < 20; ++v)
        pt.map_page(v, 2);
    EXPECT_EQ(pt.present_pages(), 20u);
    pt.unmap_page(0);
    EXPECT_EQ(pt.present_pages(), 19u);
}

TEST(PageTable, MultiPmdRange)
{
    PageTable pt(kSpan);
    // 64MB worth: 32 spans (Table 3's big-eviction case).
    constexpr std::uint64_t kPages = 32 * kSpan;
    for (Vpn v = 0; v < kPages; ++v)
        pt.map_page(v, 6);
    PtOps disable = pt.disable_range(0, kPages, 1, true);
    EXPECT_EQ(disable.pmd_writes, 32u);
    EXPECT_EQ(disable.pte_writes, 0u);
    PtOps restore = pt.set_pdom_range(0, kPages, 6, true);
    EXPECT_EQ(restore.pmd_writes, 32u);
    EXPECT_EQ(restore.pte_writes, 0u);
}

TEST(PageTable, UnalignedRangeFallsBackToPtes)
{
    PageTable pt(kSpan);
    for (Vpn v = 10; v < 10 + kSpan; ++v)
        pt.map_page(v, 6);
    // Covers 512 pages but straddles two PMDs: no span is fully covered.
    PtOps disable = pt.disable_range(10, kSpan, 1, true);
    EXPECT_EQ(disable.pmd_writes, 0u);
    EXPECT_EQ(disable.pte_writes, kSpan);
}


// ---------------------------------------------------------------------------
// Differential tests: PageTable against a naive array-of-structs reference
// that keeps the per-PTE semantics and the per-page install loop verbatim.

/// Reference page table: one struct per PTE, one map entry per PMD.
class RefPageTable {
  public:
    RefPageTable(std::size_t span, Pdom access_never)
        : span_(span), access_never_(access_never) {}

    Translation
    translate(Vpn vpn) const
    {
        Translation t;
        auto it = leaves_.find(vpn / span_);
        if (it == leaves_.end())
            return t;
        const Leaf &leaf = it->second;
        if (leaf.kind == Kind::kDisabled) {
            t.pmd_disabled = true;
            return t;
        }
        if (leaf.kind == Kind::kHuge) {
            t.present = true;
            t.huge = true;
            t.pdom = leaf.pdom;
            return t;
        }
        const Pte &pte = leaf.ptes[vpn % span_];
        if (!pte.present)
            return t;
        if (pte.prot_none) {
            t.prot_none = true;
            return t;
        }
        t.present = true;
        t.pdom = pte.pdom;
        return t;
    }

    PtOps
    map_page(Vpn vpn, Pdom pdom)
    {
        PtOps ops;
        Leaf &leaf = grow(vpn / span_);
        if (leaf.kind != Kind::kTable) {
            if (leaf.kind == Kind::kDisabled) {
                for (std::size_t i = 0; i < span_; ++i) {
                    if (leaf.ptes[i].present && i != vpn % span_) {
                        leaf.ptes[i].pdom = access_never_;
                        ++ops.pte_writes;
                    }
                }
            }
            leaf.kind = Kind::kTable;
            leaf.was_huge = false;
            ++ops.pmd_writes;
        }
        Pte &pte = leaf.ptes[vpn % span_];
        pte.present = true;
        pte.pdom = pdom;
        ++ops.pte_writes;
        return ops;
    }

    PtOps
    unmap_page(Vpn vpn)
    {
        PtOps ops;
        Leaf *leaf = find(vpn / span_);
        if (!leaf || leaf->kind == Kind::kHuge)
            return ops;
        Pte &pte = leaf->ptes[vpn % span_];
        if (!pte.present)
            return ops;
        pte = Pte{};
        ++ops.pte_writes;
        return ops;
    }

    PtOps
    unmap_huge(Vpn vpn)
    {
        PtOps ops;
        Leaf *leaf = find(vpn / span_);
        if (leaf && (leaf->kind == Kind::kHuge ||
                     (leaf->kind == Kind::kDisabled && leaf->was_huge))) {
            leaves_.erase(vpn / span_);
            ++ops.pmd_writes;
        }
        return ops;
    }

    PtOps
    map_huge(Vpn vpn, Pdom pdom)
    {
        Leaf &leaf = grow(vpn / span_);
        leaf.kind = Kind::kHuge;
        leaf.pdom = pdom;
        leaf.ptes.assign(span_, Pte{});
        PtOps ops;
        ++ops.pmd_writes;
        return ops;
    }

    PtOps
    set_pdom_range(Vpn vpn, std::uint64_t count, Pdom pdom, bool fast)
    {
        PtOps ops;
        for (Vpn v = vpn; v < vpn + count;) {
            Vpn span_start = v / span_ * span_;
            Vpn span_end = span_start + span_;
            Leaf *leaf = find(v / span_);
            if (leaf && v == span_start && vpn + count >= span_end) {
                if (leaf->kind == Kind::kHuge) {
                    leaf->pdom = pdom;
                    ++ops.pmd_writes;
                    v = span_end;
                    continue;
                }
                if (leaf->kind == Kind::kDisabled) {
                    ++ops.pmd_writes;
                    if (leaf->was_huge) {
                        leaf->kind = Kind::kHuge;
                        leaf->pdom = pdom;
                        leaf->was_huge = false;
                        v = span_end;
                        continue;
                    }
                    leaf->kind = Kind::kTable;
                    if (fast && leaf->pdom == pdom) {
                        v = span_end;
                        continue;
                    }
                }
            }
            Vpn chunk_end = std::min(vpn + count, span_end);
            for (; v < chunk_end; ++v) {
                if (!leaf || leaf->kind != Kind::kTable)
                    continue;
                Pte &pte = leaf->ptes[v % span_];
                if (pte.present) {
                    pte.pdom = pdom;
                    pte.prot_none = false;
                    ++ops.pte_writes;
                }
            }
        }
        return ops;
    }

    PtOps
    disable_range(Vpn vpn, std::uint64_t count, Pdom access_never, bool fast)
    {
        PtOps ops;
        for (Vpn v = vpn; v < vpn + count;) {
            Vpn span_start = v / span_ * span_;
            Vpn span_end = span_start + span_;
            Leaf *leaf = find(v / span_);
            if (leaf && v == span_start && vpn + count >= span_end) {
                if (leaf->kind == Kind::kHuge) {
                    leaf->kind = Kind::kDisabled;
                    leaf->was_huge = true;
                    ++ops.pmd_writes;
                    v = span_end;
                    continue;
                }
                if (fast && uniform(*leaf)) {
                    leaf->kind = Kind::kDisabled;
                    leaf->pdom = leaf->ptes[0].pdom;
                    ++ops.pmd_writes;
                    v = span_end;
                    continue;
                }
            }
            Vpn chunk_end = std::min(vpn + count, span_end);
            for (; v < chunk_end; ++v) {
                if (!leaf || leaf->kind != Kind::kTable)
                    continue;
                Pte &pte = leaf->ptes[v % span_];
                if (pte.present && pte.pdom != access_never) {
                    pte.pdom = access_never;
                    ++ops.pte_writes;
                }
            }
        }
        return ops;
    }

    PtOps
    protect_none_range(Vpn vpn, std::uint64_t count)
    {
        PtOps ops;
        for (Vpn v = vpn; v < vpn + count;) {
            Vpn span_start = v / span_ * span_;
            Vpn span_end = span_start + span_;
            Leaf *leaf = find(v / span_);
            if (leaf && leaf->kind == Kind::kHuge && v == span_start &&
                vpn + count >= span_end) {
                leaf->kind = Kind::kDisabled;
                leaf->was_huge = true;
                ++ops.pmd_writes;
                v = span_end;
                continue;
            }
            Vpn chunk_end = std::min(vpn + count, span_end);
            for (; v < chunk_end; ++v) {
                if (!leaf)
                    continue;
                Pte &pte = leaf->ptes[v % span_];
                if (pte.present && !pte.prot_none) {
                    pte.prot_none = true;
                    ++ops.pte_writes;
                }
            }
        }
        return ops;
    }

    /// The per-page install loop PageTable::install_from replaces.
    PtOps
    install_from(const RefPageTable &src, Vpn vpn, std::uint64_t count,
                 Pdom pdom, bool fast)
    {
        PtOps ops;
        for (std::uint64_t i = 0; i < count; ++i) {
            Translation here = translate(vpn + i);
            if (here.present || here.pmd_disabled) {
                ops += set_pdom_range(vpn + i, count - i, pdom, fast);
                break;
            }
            if (src.translate(vpn + i).present)
                ops += map_page(vpn + i, pdom);
        }
        return ops;
    }

    bool
    any_present(Vpn vpn, std::uint64_t count) const
    {
        for (Vpn v = vpn; v < vpn + count; ++v) {
            auto it = leaves_.find(v / span_);
            if (it == leaves_.end())
                continue;
            const Leaf &leaf = it->second;
            if (leaf.kind == Kind::kHuge ||
                (leaf.kind == Kind::kDisabled && leaf.was_huge) ||
                (!leaf.ptes.empty() && leaf.ptes[v % span_].present))
                return true;
        }
        return false;
    }

    std::uint64_t
    present_pages() const
    {
        std::uint64_t count = 0;
        for (const auto &[idx, leaf] : leaves_) {
            (void)idx;
            if (leaf.kind == Kind::kHuge) {
                count += span_;
                continue;
            }
            for (const Pte &pte : leaf.ptes)
                count += pte.present;
        }
        return count;
    }

  private:
    enum class Kind { kTable, kDisabled, kHuge };
    struct Pte {
        bool present = false;
        bool prot_none = false;
        Pdom pdom = 0;
    };
    struct Leaf {
        Kind kind = Kind::kTable;
        Pdom pdom = 0;
        bool was_huge = false;
        std::vector<Pte> ptes;
    };

    Leaf *
    find(Vpn idx)
    {
        auto it = leaves_.find(idx);
        return it == leaves_.end() ? nullptr : &it->second;
    }

    Leaf &
    grow(Vpn idx)
    {
        Leaf &leaf = leaves_[idx];
        if (leaf.ptes.empty())
            leaf.ptes.assign(span_, Pte{});
        return leaf;
    }

    bool
    uniform(const Leaf &leaf) const
    {
        if (leaf.kind != Kind::kTable)
            return false;
        for (const Pte &pte : leaf.ptes) {
            if (!pte.present || pte.prot_none ||
                pte.pdom != leaf.ptes[0].pdom)
                return false;
        }
        return true;
    }

    std::size_t span_;
    Pdom access_never_;
    std::map<Vpn, Leaf> leaves_;
};

constexpr Pdom kNever = 1;

/// A PageTable and its reference, driven in lockstep.
struct Pair {
    PageTable pt;
    RefPageTable ref;

    explicit Pair(std::size_t span) : pt(span, kNever), ref(span, kNever) {}
};

::testing::AssertionResult
same_ops(const PtOps &got, const PtOps &want)
{
    if (got.pte_writes == want.pte_writes &&
        got.pmd_writes == want.pmd_writes)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "pte " << got.pte_writes << " vs " << want.pte_writes
           << ", pmd " << got.pmd_writes << " vs " << want.pmd_writes;
}

/// Compares the translation of every page in [lo, hi).
::testing::AssertionResult
same_pages(const Pair &p, Vpn lo, Vpn hi)
{
    for (Vpn v = lo; v < hi; ++v) {
        Translation a = p.pt.translate(v);
        Translation b = p.ref.translate(v);
        if (a.present != b.present || a.pmd_disabled != b.pmd_disabled ||
            a.prot_none != b.prot_none || a.huge != b.huge ||
            a.pdom != b.pdom) {
            return ::testing::AssertionFailure()
                   << "vpn " << v << ": present " << a.present << "/"
                   << b.present << " disabled " << a.pmd_disabled << "/"
                   << b.pmd_disabled << " prot_none " << a.prot_none << "/"
                   << b.prot_none << " huge " << a.huge << "/" << b.huge
                   << " pdom " << int(a.pdom) << "/" << int(b.pdom);
        }
    }
    if (p.pt.present_pages() != p.ref.present_pages())
        return ::testing::AssertionFailure() << "present_pages differs";
    return ::testing::AssertionSuccess();
}

/// Fills [vpn, vpn+count) page by page with \p pdom on both sides.
PtOps
fill(Pair &p, Vpn vpn, std::uint64_t count, Pdom pdom)
{
    PtOps ops;
    for (Vpn v = vpn; v < vpn + count; ++v) {
        PtOps want = p.ref.map_page(v, pdom);
        PtOps got = p.pt.map_page(v, pdom);
        EXPECT_TRUE(same_ops(got, want)) << "map_page " << v;
        ops += got;
    }
    return ops;
}

PtOps
install(Pair &dst, const Pair &src, Vpn vpn, std::uint64_t count,
        Pdom pdom, bool fast)
{
    PtOps want = dst.ref.install_from(src.ref, vpn, count, pdom, fast);
    PtOps got = dst.pt.install_from(src.pt, vpn, count, pdom, fast);
    EXPECT_TRUE(same_ops(got, want)) << "install_from " << vpn << "+"
                                     << count;
    return got;
}

/// Seeded random sequences of every mutator on a destination and a source
/// table, with install_from between them; compares after every op.
void
run_random(std::size_t span, bool fast, std::uint64_t seed, int steps)
{
    sim::Rng rng(seed);
    Pair dst(span);
    Pair src(span);
    const Vpn universe = 4 * span;
    const Vpn checked = universe + 2 * span;
    for (int step = 0; step < steps; ++step) {
        Pair &p = rng.below(2) ? dst : src;
        Vpn vpn = rng.below(universe);
        std::uint64_t count = 1 + rng.below(2 * span);
        if (rng.below(2)) {  // Span-aligned, whole spans: the fast paths.
            vpn = vpn / span * span;
            count = span * (1 + rng.below(2));
        }
        Pdom pdom = static_cast<Pdom>(rng.below(4));
        PtOps got, want;
        int op = static_cast<int>(rng.below(9));
        switch (op) {
        case 0:
            want = p.ref.map_page(vpn, pdom);
            got = p.pt.map_page(vpn, pdom);
            break;
        case 1:
            want = p.ref.unmap_page(vpn);
            got = p.pt.unmap_page(vpn);
            break;
        case 2:
            vpn = vpn / span * span;
            want = p.ref.map_huge(vpn, pdom);
            got = p.pt.map_huge(vpn, pdom);
            break;
        case 3:
            want = p.ref.unmap_huge(vpn);
            got = p.pt.unmap_huge(vpn);
            break;
        case 4:
            want = p.ref.set_pdom_range(vpn, count, pdom, fast);
            got = p.pt.set_pdom_range(vpn, count, pdom, fast);
            break;
        case 5: {
            Pdom never = rng.below(4) ? kNever : pdom;
            want = p.ref.disable_range(vpn, count, never, fast);
            got = p.pt.disable_range(vpn, count, never, fast);
            break;
        }
        case 6:
            want = p.ref.protect_none_range(vpn, count);
            got = p.pt.protect_none_range(vpn, count);
            break;
        case 7:
            want = dst.ref.install_from(src.ref, vpn, count, pdom, fast);
            got = dst.pt.install_from(src.pt, vpn, count, pdom, fast);
            break;
        default:
            want = got = fill(p, vpn, count, pdom);
            break;
        }
        ASSERT_TRUE(same_ops(got, want))
            << "seed " << seed << " step " << step << " op " << op
            << " vpn " << vpn << " count " << count;
        Vpn q = rng.below(checked);
        std::uint64_t q_count = 1 + rng.below(2 * span);
        for (auto [a, n] : {std::pair{vpn, count}, std::pair{q, q_count}}) {
            ASSERT_EQ(p.pt.any_present(a, n), p.ref.any_present(a, n))
                << "any_present " << a << "+" << n << ", seed " << seed
                << " step " << step;
        }
        ASSERT_TRUE(same_pages(dst, 0, checked))
            << "dst, seed " << seed << " step " << step << " op " << op;
        ASSERT_TRUE(same_pages(src, 0, checked))
            << "src, seed " << seed << " step " << step << " op " << op;
    }
}

TEST(PageTableRef, RandomSpan8FastPath)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        run_random(8, true, seed, 400);
}

TEST(PageTableRef, RandomSpan8NoFastPath)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        run_random(8, false, seed, 400);
}

TEST(PageTableRef, RandomSpan512FastPath)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        run_random(kSpan, true, seed, 300);
}

TEST(PageTableRef, RandomSpan512NoFastPath)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        run_random(kSpan, false, seed, 300);
}

TEST(PageTableRef, InstallOverLiveProtNoneKeepsProtBit)
{
    Pair src(kSpan), dst(kSpan);
    fill(src, 0, 64, 0);
    fill(dst, 0, 16, 5);
    dst.ref.protect_none_range(0, 16);
    dst.pt.protect_none_range(0, 16);
    PtOps ops = install(dst, src, 0, 64, 3, true);
    EXPECT_EQ(ops.pte_writes, 64u);
    EXPECT_EQ(ops.pmd_writes, 0u);
    Translation t = dst.pt.translate(4);
    EXPECT_FALSE(t.present);
    EXPECT_TRUE(t.prot_none);  // The prot bit survives the install.
    EXPECT_EQ(dst.pt.translate(40).pdom, 3);
    EXPECT_TRUE(same_pages(dst, 0, kSpan));
}

TEST(PageTableRef, InstallIntoDisabledLeafRetags)
{
    for (bool fast : {true, false}) {
        Pair src(kSpan), dst(kSpan);
        fill(src, 0, 2 * kSpan, 0);
        fill(dst, 0, kSpan, 6);
        dst.ref.disable_range(0, kSpan, kNever, true);
        dst.pt.disable_range(0, kSpan, kNever, true);
        ASSERT_TRUE(dst.pt.translate(0).pmd_disabled);
        // The disabled span stops the copy at once: the retag costs one
        // PMD write (plus the PTEs without the fast path), and the absent
        // span after it stays absent.
        PtOps ops = install(dst, src, 0, 2 * kSpan, 6, fast);
        EXPECT_EQ(ops.pmd_writes, 1u);
        EXPECT_EQ(ops.pte_writes, fast ? 0u : kSpan);
        EXPECT_FALSE(dst.pt.translate(kSpan).present);
        EXPECT_TRUE(same_pages(dst, 0, 2 * kSpan));
    }
}

TEST(PageTableRef, InstallIntoHugeLeafRetagsPmd)
{
    Pair src(kSpan), dst(kSpan);
    fill(src, 0, 2 * kSpan, 0);
    fill(dst, 0, 10, 2);
    dst.ref.map_huge(kSpan, 4);
    dst.pt.map_huge(kSpan, 4);
    // Pages 10.. map from the shadow, then the huge span stops the copy.
    PtOps ops = install(dst, src, 10, 2 * kSpan - 10, 7, true);
    EXPECT_EQ(ops.pmd_writes, 1u);
    EXPECT_EQ(ops.pte_writes, kSpan - 10);
    Translation t = dst.pt.translate(kSpan + 3);
    EXPECT_TRUE(t.huge);
    EXPECT_EQ(t.pdom, 7);
    EXPECT_TRUE(same_pages(dst, 0, 2 * kSpan));
}

TEST(PageTableRef, InstallFromHugeDisabledAndAbsentSources)
{
    Pair src(kSpan), dst(kSpan);
    src.ref.map_huge(0, 3);
    src.pt.map_huge(0, 3);
    src.ref.map_huge(kSpan, 3);
    src.pt.map_huge(kSpan, 3);
    src.ref.disable_range(kSpan, kSpan, kNever, true);
    src.pt.disable_range(kSpan, kSpan, kNever, true);
    fill(src, 3 * kSpan, kSpan, 0);
    src.ref.disable_range(3 * kSpan, kSpan, kNever, true);
    src.pt.disable_range(3 * kSpan, kSpan, kNever, true);
    // Span 0 huge (copies every page), span 1 disabled-was-huge, span 2
    // absent, span 3 disabled table: only span 0 maps.
    PtOps ops = install(dst, src, 0, 4 * kSpan, 5, true);
    EXPECT_EQ(ops.pte_writes, kSpan);
    EXPECT_EQ(ops.pmd_writes, 0u);
    EXPECT_EQ(dst.pt.present_pages(), kSpan);
    EXPECT_FALSE(dst.pt.translate(0).huge);
    EXPECT_TRUE(same_pages(dst, 0, 4 * kSpan));
}

TEST(PageTableRef, InstallMidSpanAcrossSeveralSpans)
{
    for (bool fast : {true, false}) {
        Pair src(kSpan), dst(kSpan);
        fill(src, 100, 4 * kSpan, 0);
        src.ref.protect_none_range(kSpan + 7, 9);
        src.pt.protect_none_range(kSpan + 7, 9);
        // A live page mid-way in span 2 stops the copy there.
        fill(dst, 2 * kSpan + 50, 1, 2);
        PtOps ops = install(dst, src, 300, 3 * kSpan, 4, fast);
        EXPECT_EQ(ops.pmd_writes, 0u);
        EXPECT_TRUE(same_pages(dst, 0, 5 * kSpan));
        Translation live = dst.pt.translate(2 * kSpan + 50);
        ASSERT_TRUE(live.present);
        EXPECT_EQ(live.pdom, 4);
        // Past the stop, absent pages stay absent (the retag maps nothing).
        EXPECT_FALSE(dst.pt.translate(2 * kSpan + 60).present);
        EXPECT_FALSE(dst.pt.translate(kSpan + 8).present);
    }
}

TEST(PageTableDeathTest, DirectoryStopsTheRunAtItsLimit)
{
    // The PMD directory is a flat array of kDenseLimit spans: the last
    // page under it maps, the first page past it stops the run in every
    // build type instead of growing the directory.
    PageTable pt(kSpan);
    const Vpn last = PageTable::kDenseLimit * kSpan - 1;
    pt.map_page(last, 3);
    EXPECT_TRUE(pt.translate(last).present);
    EXPECT_EQ(pt.present_pages(), 1u);
    EXPECT_DEATH(pt.map_page(last + 1, 3), "past the directory");
}

}  // namespace
}  // namespace vdom::hw
