/// \file
/// Virtual Domain Space (§5.3): a separate address space with a private
/// (pdom -> vdom) domain map.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "hw/arch.h"
#include "hw/page_table.h"
#include "vdom/types.h"

namespace vdom::kernel {

/// One separate address space.
///
/// "VDom allocates a descriptor for each VDS to bookkeep the pgd and domain
/// map. Since pdoms are fewer than vdoms, the domain map is indexed by pdom
/// and stores the (pdom, vdom) pairs to avoid sparsity. Furthermore, the
/// descriptor contains a CPU bitmap and a unique context identifier" (§5.3).
class Vds {
  public:
    /// Domain-map entry: which vdom a pdom holds and how many resident
    /// threads actively access it (Fig. 3's "#thread" column).
    struct MapEntry {
        VdomId vdom = kInvalidVdom;
        std::uint32_t nthreads = 0;
        hw::Cycles last_use = 0;  ///< LRU tick for HLRU eviction.
    };

    /// \p id is unique within the owning process (MmStruct numbers its
    /// VDSes 0, 1, 2, ...).
    Vds(std::uint32_t id, const hw::ArchParams &params);

    std::uint32_t id() const { return id_; }

    hw::PageTable &pgd() { return pgd_; }
    const hw::PageTable &pgd() const { return pgd_; }

    /// Context identifier the owning process's ASID allocator keys on:
    /// id() + 1, unique within the process and never 0 (the X86
    /// allocator's empty-slot marker).
    std::uint64_t ctx_id() const { return std::uint64_t{id_} + 1; }

    /// Does nothing (context ids derive from id()); perfbench is its only
    /// caller.
    static void reset_ctx_ids();

    // --- domain map -------------------------------------------------------
    //
    // The per-vdom probes (is_mapped/pdom_of/touch/thread refs) are inline:
    // they are one bounds check plus one flat-table load, and they sit on
    // the wrvdr/ensure_mapped fast path.

    /// True when \p vdom is mapped to some pdom here (vdom0 always is).
    bool
    is_mapped(VdomId vdom) const
    {
        const VdomSlot *slot = slot_at(vdom);
        return slot && slot->mapped;
    }

    /// The pdom \p vdom maps to, or nullopt.
    std::optional<hw::Pdom>
    pdom_of(VdomId vdom) const
    {
        const VdomSlot *slot = slot_at(vdom);
        if (!slot || !slot->mapped)
            return std::nullopt;
        return slot->pdom;
    }

    /// The vdom occupying \p pdom, or kInvalidVdom.
    VdomId vdom_at(hw::Pdom pdom) const { return map_[pdom].vdom; }

    /// Picks a free pdom, preferring \p preferred when it is free (HLRU
    /// remap-to-same-pdom, §5.5).
    std::optional<hw::Pdom>
    find_free_pdom(std::optional<hw::Pdom> preferred) const;

    std::size_t free_pdoms() const { return free_count_; }
    std::size_t usable_pdoms() const { return usable_count_; }

    /// Installs vdom -> pdom in the map (page-table updates are the
    /// caller's job; costs are charged there).
    void map_vdom(hw::Pdom pdom, VdomId vdom);

    /// Removes the mapping at \p pdom, remembering it as the vdom's last
    /// pdom for HLRU.
    void unmap_pdom(hw::Pdom pdom);

    /// Refreshes the LRU tick of the pdom backing \p vdom.
    void
    touch(VdomId vdom, hw::Cycles now)
    {
        const VdomSlot *slot = slot_at(vdom);
        if (slot && slot->mapped)
            map_[slot->pdom].last_use = now;
    }

    /// Adjusts the per-vdom active-thread count (Fig. 3 "#thread").
    void
    add_thread_ref(VdomId vdom)
    {
        const VdomSlot *slot = slot_at(vdom);
        if (slot && slot->mapped)
            ++map_[slot->pdom].nthreads;
    }

    void
    remove_thread_ref(VdomId vdom)
    {
        const VdomSlot *slot = slot_at(vdom);
        if (slot && slot->mapped && map_[slot->pdom].nthreads > 0)
            --map_[slot->pdom].nthreads;
    }

    std::uint32_t
    thread_refs(VdomId vdom) const
    {
        const VdomSlot *slot = slot_at(vdom);
        return (slot && slot->mapped) ? map_[slot->pdom].nthreads : 0;
    }

    /// The pdom \p vdom occupied last time it was mapped here, if any.
    std::optional<hw::Pdom>
    last_pdom(VdomId vdom) const
    {
        const VdomSlot *slot = slot_at(vdom);
        if (!slot || !slot->has_last)
            return std::nullopt;
        return slot->last;
    }

    /// HLRU victim selection (§5.5).
    ///
    /// \param incoming       vdom about to be mapped.
    /// \param evictable      predicate: true when the vdom may be evicted
    ///                       (typically: requesting thread holds AD on it
    ///                       and it is not pinned).
    /// \param pinned         predicate: vdom is pinned (evict last).
    /// \returns the victim pdom, or nullopt when every mapped vdom is
    ///          accessible and nothing can be displaced.
    std::optional<hw::Pdom>
    choose_victim(VdomId incoming,
                  const std::function<bool(VdomId)> &evictable,
                  const std::function<bool(VdomId)> &pinned) const;

    /// Calls \p fn(pdom, vdom) for every mapped usable pdom, lowest pdom
    /// first (reserved pdoms are never visited).  When \p fn returns bool,
    /// returning false stops the walk; the result is false iff it stopped.
    template <typename Fn>
    bool
    for_each_mapped(Fn &&fn) const
    {
        for (hw::Pdom p = first_usable_; p < map_.size(); ++p) {
            VdomId v = map_[p].vdom;
            if (v == kInvalidVdom)
                continue;
            if constexpr (std::is_void_v<
                              std::invoke_result_t<Fn &, hw::Pdom, VdomId>>) {
                fn(p, v);
            } else if (!fn(p, v)) {
                return false;
            }
        }
        return true;
    }

    /// Number of usable pdoms holding a vdom.
    std::size_t mapped_pdoms() const { return usable_count_ - free_count_; }

    /// Lowest pdom the domain map hands out (below it: reserved pdoms).
    hw::Pdom first_usable_pdom() const { return first_usable_; }

    // --- residency --------------------------------------------------------

    /// Threads whose current VDS is this one.
    std::size_t resident_threads() const { return resident_threads_; }
    void thread_enter() { ++resident_threads_; }
    void
    thread_leave()
    {
        if (resident_threads_ > 0)
            --resident_threads_;
    }

    /// CPU bitmap: cores currently executing threads of this VDS (§5.3,
    /// drives minimal TLB shootdowns).
    std::uint64_t cpu_bitmap() const { return cpu_bitmap_; }
    void cpu_set(std::size_t core) { cpu_bitmap_ |= (1ULL << core); }
    void cpu_clear(std::size_t core) { cpu_bitmap_ &= ~(1ULL << core); }

    // --- TLB generations (§6.1: "TLB generation is added in X86
    // vds_struct for the X86-specific ASID management") -------------------
    //
    // Every page-table change bumps the generation.  Cores that observed
    // the change (precise flush at modification time) record the new
    // generation; a core resuming this VDS with a stale recorded
    // generation must flush the VDS's ASID before use.

    std::uint64_t tlb_gen() const { return tlb_gen_; }
    void bump_tlb_gen() { ++tlb_gen_; }

    std::uint64_t
    core_seen_gen(std::size_t core) const
    {
        return core < core_seen_gen_.size() ? core_seen_gen_[core] : 0;
    }

    void
    set_core_seen_gen(std::size_t core, std::uint64_t gen)
    {
        if (core < core_seen_gen_.size())
            core_seen_gen_[core] = gen;
    }

    /// Map-consistency check used by property tests: pdom->vdom injective,
    /// counts coherent.  Returns false on violation.
    bool check_consistency() const;

  private:
    std::uint32_t id_;
    const hw::ArchParams *params_;
    hw::PageTable pgd_;

    /// Per-vdom state: current pdom (reverse map) and the pdom the vdom
    /// occupied last time it was mapped (HLRU, §5.5), folded into one flat
    /// table indexed by VdomId.  Vdom ids are allocated densely from a
    /// process-wide counter, so a vector beats the previous pair of
    /// unordered_maps on every pdom_of/is_mapped/last_pdom probe.
    struct VdomSlot {
        hw::Pdom pdom = 0;      ///< Valid when \ref mapped.
        bool mapped = false;
        hw::Pdom last = 0;      ///< Valid when \ref has_last.
        bool has_last = false;
    };

    /// Slot for \p vdom, or nullptr when the table has never seen it
    /// (equivalent to missing from both of the old maps).
    const VdomSlot *
    slot_at(VdomId vdom) const
    {
        return vdom < by_vdom_.size() ? &by_vdom_[vdom] : nullptr;
    }

    VdomSlot &slot_grow(VdomId vdom);

    hw::Pdom first_usable_;
    std::size_t usable_count_;
    std::size_t free_count_;
    std::vector<MapEntry> map_;  ///< Indexed by pdom.
    std::vector<VdomSlot> by_vdom_;  ///< Indexed by VdomId.

    std::size_t resident_threads_ = 0;
    std::uint64_t cpu_bitmap_ = 0;
    std::uint64_t tlb_gen_ = 1;
    std::vector<std::uint64_t> core_seen_gen_;

    // (the shared context-id counter lives in vds.cc)
};

}  // namespace vdom::kernel
