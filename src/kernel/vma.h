/// \file
/// Virtual memory areas and the process-wide address-space layout.
///
/// All VDSes of a process share one layout ("address translation is shared
/// across VDSes for all virtual addresses", §5.3); only the pdom tags in
/// each VDS's page table differ.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "hw/arch.h"
#include "telemetry/metrics.h"
#include "vdom/types.h"

namespace vdom::kernel {

/// One mapped region.  The extended vm_flags carry the owning vdom (§6.2:
/// "Linux kernel identifies the vdom of the fault address through the
/// extended vm_flags in VMA").
struct Vma {
    hw::Vpn start = 0;          ///< First page.
    std::uint64_t pages = 0;    ///< Length in pages.
    VdomId vdom = kCommonVdom;  ///< Owning virtual domain.
    bool huge = false;          ///< Mapped with 2MB pages.

    hw::Vpn end() const { return start + pages; }
    bool contains(hw::Vpn vpn) const { return vpn >= start && vpn < end(); }
};

/// Ordered set of VMAs (Linux keeps these in a red-black tree; std::map
/// provides the same ordered-tree semantics).
///
/// A single-entry lookup cache sits in front of the tree — the analogue of
/// the kernel's per-task vmacache.  Fault streams hit the same region
/// repeatedly (a loop touching a buffer faults page after page in one VMA),
/// so the common find() is one `contains` check instead of a tree descent.
/// The cache is guarded by a generation counter bumped by every operation
/// that could invalidate or re-route the cached pointer.
class VmaTree {
  public:
    /// Inserts a region.  The caller guarantees no overlap (MmStruct's
    /// mmap allocates disjoint ranges).
    void
    insert(const Vma &vma)
    {
        vmas_[vma.start] = vma;
        ++gen_;
    }

    /// Removes the region starting at \p start; returns true if found.
    bool
    erase(hw::Vpn start)
    {
        ++gen_;
        return vmas_.erase(start) > 0;
    }

    /// Finds the VMA containing \p vpn.
    const Vma *
    find(hw::Vpn vpn) const
    {
        if (cache_gen_ == gen_ && cached_ && cached_->contains(vpn)) {
            telemetry::metric_add(telemetry::Metric::kVmaCacheHit);
            return cached_;
        }
        telemetry::metric_add(telemetry::Metric::kVmaCacheMiss);
        auto it = vmas_.upper_bound(vpn);
        if (it == vmas_.begin())
            return nullptr;
        --it;
        if (!it->second.contains(vpn))
            return nullptr;
        cached_ = &it->second;
        cache_gen_ = gen_;
        return cached_;
    }

    /// Collects the VMAs overlapping [vpn, vpn+count).
    std::vector<Vma *>
    overlapping(hw::Vpn vpn, std::uint64_t count)
    {
        // Mutable pointers escape: the caller may rewrite a region's
        // bounds, so the cached pointer can no longer be trusted.
        ++gen_;
        std::vector<Vma *> out;
        auto it = vmas_.upper_bound(vpn);
        if (it != vmas_.begin())
            --it;
        for (; it != vmas_.end() && it->second.start < vpn + count; ++it) {
            if (it->second.end() > vpn)
                out.push_back(&it->second);
        }
        return out;
    }

    std::size_t size() const { return vmas_.size(); }
    auto begin() const { return vmas_.begin(); }
    auto end() const { return vmas_.end(); }

  private:
    std::map<hw::Vpn, Vma> vmas_;

    /// Bumped by every mutation / mutable-pointer escape; the cache is
    /// valid only while cache_gen_ == gen_.
    std::uint64_t gen_ = 0;
    mutable const Vma *cached_ = nullptr;
    mutable std::uint64_t cache_gen_ = ~std::uint64_t{0};
};

}  // namespace vdom::kernel
