/// \file
/// Virtual Domain Table: hierarchical vdom -> protected-area index (§5.3).
///
/// "VDM has a hierarchical structure called virtual domain table (VDT),
/// whose last-level entries point to chained virtual memory areas protected
/// by the indexing vdom."  The two-level radix bounds memory for sparse id
/// spaces while keeping lookup O(1); the kernel walks it during eviction to
/// find every area of the victim vdom.  A leaf's chain array grows on
/// demand up to the highest slot it has chained, so a process with a few
/// vdoms pays for a few chains, not for 1024.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/arch.h"
#include "vdom/types.h"

namespace vdom::kernel {

/// One protected memory area chained under a VDT leaf.
struct VdtArea {
    hw::Vpn start = 0;
    std::uint64_t pages = 0;
    bool huge = false;
};

/// Two-level radix table indexed by vdom id.
class Vdt {
  public:
    static constexpr std::size_t kLeafBits = 10;
    static constexpr std::size_t kLeafSize = 1u << kLeafBits;  // 1024

    /// Appends \p area to the chain of \p vdom.
    void
    add_area(VdomId vdom, const VdtArea &area)
    {
        std::vector<std::vector<VdtArea>> &chains = leaf_for(vdom).chains;
        std::size_t lo = vdom & (kLeafSize - 1);
        if (lo >= chains.size())
            chains.resize(lo + 1);
        chains[lo].push_back(area);
    }

    /// Removes the most recently chained area of \p vdom (transaction
    /// rollback).  remove_range would be wrong here: re-assigning a range
    /// to the same vdom chains a duplicate area, and trimming by range
    /// would eat the original too.
    void
    pop_area(VdomId vdom)
    {
        std::vector<VdtArea> *chain = chain_for(vdom);
        if (chain && !chain->empty())
            chain->pop_back();
    }

    /// Removes all areas of \p vdom (vdom_free).
    void
    clear(VdomId vdom)
    {
        if (std::vector<VdtArea> *chain = chain_for(vdom))
            chain->clear();
    }

    /// Removes areas overlapping [vpn, vpn+count) from \p vdom's chain
    /// (munmap of protected memory).  Partial overlaps are trimmed.
    void
    remove_range(VdomId vdom, hw::Vpn vpn, std::uint64_t count)
    {
        std::vector<VdtArea> *chain = chain_for(vdom);
        if (!chain)
            return;
        std::vector<VdtArea> kept;
        for (const VdtArea &a : *chain) {
            hw::Vpn a_end = a.start + a.pages;
            hw::Vpn r_end = vpn + count;
            if (a_end <= vpn || a.start >= r_end) {
                kept.push_back(a);
                continue;
            }
            if (a.start < vpn)
                kept.push_back({a.start, vpn - a.start, a.huge});
            if (a_end > r_end)
                kept.push_back({r_end, a_end - r_end, a.huge});
        }
        *chain = std::move(kept);
    }

    /// Returns the chained areas of \p vdom (empty when none).
    const std::vector<VdtArea> &
    areas(VdomId vdom) const
    {
        static const std::vector<VdtArea> kEmpty;
        const std::vector<VdtArea> *chain =
            const_cast<Vdt *>(this)->chain_for(vdom);
        return chain ? *chain : kEmpty;
    }

    /// Total pages protected by \p vdom.
    std::uint64_t
    protected_pages(VdomId vdom) const
    {
        std::uint64_t total = 0;
        for (const VdtArea &a : areas(vdom))
            total += a.pages;
        return total;
    }

    /// Number of allocated leaf tables (memory-footprint metric).
    std::size_t
    num_leaves() const
    {
        std::size_t n = 0;
        for (const auto &leaf : roots_)
            if (leaf)
                ++n;
        return n;
    }

  private:
    struct Leaf {
        /// Indexed by the vdom's low kLeafBits; slots past the end have
        /// never been chained and hold no areas.
        std::vector<std::vector<VdtArea>> chains;
    };

    /// The chain of \p vdom, or null when its slot was never chained.
    std::vector<VdtArea> *
    chain_for(VdomId vdom)
    {
        std::size_t hi = vdom >> kLeafBits;
        if (hi >= roots_.size() || !roots_[hi])
            return nullptr;
        std::vector<std::vector<VdtArea>> &chains = roots_[hi]->chains;
        std::size_t lo = vdom & (kLeafSize - 1);
        return lo < chains.size() ? &chains[lo] : nullptr;
    }

    /// The leaf holding \p vdom, created on first use.
    Leaf &
    leaf_for(VdomId vdom)
    {
        std::size_t hi = vdom >> kLeafBits;
        if (hi >= roots_.size())
            roots_.resize(hi + 1);
        if (!roots_[hi])
            roots_[hi] = std::make_unique<Leaf>();
        return *roots_[hi];
    }

    std::vector<std::unique_ptr<Leaf>> roots_;
};

}  // namespace vdom::kernel
