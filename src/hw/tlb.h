/// \file
/// ASID-tagged, capacity-limited translation lookaside buffer model.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/arch.h"
#include "sim/fault.h"
#include "telemetry/metrics.h"

namespace vdom::hw {

/// A cached translation: the domain tag travels with the TLB entry, exactly
/// as on MPK/ARM hardware ("TLB entries are tagged with the domain
/// identifier of the pages", §2).
struct TlbEntry {
    Pdom pdom = 0;
    bool huge = false;
};

/// Per-core unified fully associative TLB with exact LRU replacement.
///
/// Entries are tagged by ASID, so switching page tables does not require a
/// flush — the mechanism VDom leans on for cheap VDS switches (§5).  Hits,
/// misses, evictions and flushes are counted in the metrics registry
/// (`tlb.*`); the MMU charges walk cycles for misses and the shootdown
/// manager charges flush cycles.
///
/// Storage is flat (no per-entry allocation): a slot array threaded with
/// one intrusive LRU list, indexed by an open-addressing hash table.
/// Construction allocates only the 8-cell index: the slot array grows
/// geometrically up to capacity as a bump pointer hands out slots
/// (removed slots are reused first, LIFO), and the index doubles whenever
/// an insert would push its load above ½, up to 2× capacity.  A world
/// builds one TLB per core and most never fill, so sizing slots and cells
/// for capacity up front dominated world construction.  The eviction
/// order is bit-identical to the previous `unordered_map` + `list`
/// global-LRU implementation — proven by the golden-replay test in
/// tests/test_tlb_replay.cc.
///
/// Flush cost is what the flush removes, not O(capacity): `flush_all`
/// walks the LRU list and removes only the entries present, and
/// `flush_asid` costs O(matching entries).  A dense per-tag count of
/// live entries lets it return at once on a tag that holds none (most
/// ASID flushes on the Fig. 7 and ablation workloads) and stop walking
/// after the last match.  Domain switches flush often but find the TLB
/// nearly empty, so a flush that rewrote every slot, or walked every
/// entry to remove none, dominated host time.
class Tlb {
  public:
    /// \param capacity total entries; 0 still holds one entry, as the
    ///        reference LRU in tests/test_tlb_replay.cc does.
    explicit Tlb(std::size_t capacity);

    /// Looks up (asid, vpn); refreshes LRU position on hit.  Defined
    /// inline below: this is the single hottest simulator function (every
    /// modeled memory access lands here), and keeping it visible to the
    /// MMU lets the compiler fold the whole hit path into do_translate.
    /// \p faults is the plan of the world this TLB belongs to (the MMU
    /// passes its core's): an injected kTlbEntryDrop turns a hit into a
    /// miss.
    std::optional<TlbEntry> lookup(Asid asid, Vpn vpn,
                                   sim::FaultPlan *faults = nullptr);

    /// Installs a translation, evicting the LRU victim when the TLB is
    /// full.
    void insert(Asid asid, Vpn vpn, const TlbEntry &entry);

    /// Drops every entry; O(live entries).
    void flush_all();

    /// Drops every entry tagged \p asid; returns at once when the tag
    /// holds none, else walks from MRU until the last match is gone.
    void flush_asid(Asid asid);

    /// Drops entries for [vpn, vpn+count) in \p asid; returns the number of
    /// pages actually touched (for range-flush cost accounting).
    std::uint64_t flush_range(Asid asid, Vpn vpn, std::uint64_t count);

    /// Largest tag a key keeps intact: make_key stores the tag above a
    /// 48-bit vpn, so a larger tag would alias one below it.
    static constexpr Asid kMaxAsid = 0xffff;

    std::size_t size() const { return size_; }

    /// Live entries tagged \p asid.
    std::size_t
    size(Asid asid) const
    {
        return asid < tag_live_.size() ? tag_live_[asid] : 0;
    }

    std::size_t capacity() const { return capacity_; }

  private:
    using Key = std::uint64_t;

    static constexpr std::uint32_t kNil = 0xffffffffu;

    static Key
    make_key(Asid asid, Vpn vpn)
    {
        return (static_cast<std::uint64_t>(asid) << 48) |
               (vpn & 0xffffffffffffULL);
    }

    /// The tag a key stores (its top 16 bits).
    static std::size_t tag_of(Key key) { return key >> 48; }

    /// Fibonacci (multiplicative) hash: a single multiply whose *high*
    /// bits are well mixed even for sequential VPNs.  One multiply matters
    /// here — the backward-shift deletion recomputes the hash for every
    /// cell it probes, so this sits on the insert/evict hot path.
    static std::uint64_t
    mix(Key key)
    {
        return key * 0x9e3779b97f4a7c15ULL;
    }

    /// One TLB entry slot, threaded into the LRU list.
    struct Slot {
        Key key = 0;
        std::uint32_t prev = kNil;  ///< Towards MRU.
        std::uint32_t next = kNil;  ///< Towards LRU.
        TlbEntry entry;
    };

    /// Open-addressing index cell (linear probing, ≤50% load: `insert`
    /// doubles the index before crossing it).
    struct Cell {
        Key key = 0;
        std::uint32_t slot = kNil;  ///< kNil = empty cell.
    };

    /// Index cell a key ideally lands in: the hash's top bits (the mixed
    /// ones), taken by shift rather than mask.
    std::size_t ideal_pos(Key key) const { return mix(key) >> hash_shift_; }

    std::uint32_t
    index_find(Key key) const
    {
        std::size_t pos = ideal_pos(key);
        while (true) {
            const Cell &cell = index_[pos];
            if (cell.slot == kNil)
                return kNil;
            if (cell.key == key)
                return cell.slot;
            pos = (pos + 1) & index_mask_;
        }
    }

    void index_insert(Key key, std::uint32_t slot);
    void index_erase(Key key);

    /// Smallest index: the size a fresh TLB starts with.
    static constexpr std::size_t kMinIndex = 8;

    /// Reallocates the index at \p cells (a power of two) and re-inserts
    /// every live slot, walking the LRU list.
    void resize_index(std::size_t cells);

    void
    list_unlink(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        if (s.prev != kNil)
            slots_[s.prev].next = s.next;
        else
            head_ = s.next;
        if (s.next != kNil)
            slots_[s.next].prev = s.prev;
        else
            tail_ = s.prev;
    }

    void
    list_push_front(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.prev = kNil;
        s.next = head_;
        if (s.next != kNil)
            slots_[s.next].prev = slot;
        else
            tail_ = slot;
        head_ = slot;
    }

    void
    touch_front(std::uint32_t slot)
    {
        if (head_ == slot)
            return;
        list_unlink(slot);
        list_push_front(slot);
    }

    /// Removes an occupied slot entirely (index + list + free list).
    void remove_slot(std::uint32_t slot);

    std::size_t capacity_;    ///< Reported capacity (constructor value).
    std::size_t slot_count_;  ///< Effective capacity: max(capacity_, 1).
    std::size_t size_ = 0;

    /// Grows by one slot only when the free list is empty; its storage
    /// grows from n to 2n + 4 slots, capped at `slot_count_`.
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNil;  ///< Removed slots chained via `next`.
    std::uint32_t head_ = kNil;  ///< MRU.
    std::uint32_t tail_ = kNil;  ///< LRU.
    std::vector<Cell> index_;  ///< kMinIndex .. bit_ceil(2 × slot_count_).
    std::size_t index_mask_ = 0;
    unsigned hash_shift_ = 63;  ///< 64 - log2(index size).
    /// Live entries per stored tag, grown on insert to the largest tag
    /// seen (at most kMaxAsid + 1 cells).
    std::vector<std::uint32_t> tag_live_;
};

inline std::optional<TlbEntry>
Tlb::lookup(Asid asid, Vpn vpn, sim::FaultPlan *faults)
{
    Key key = make_key(asid, vpn);
    std::uint32_t slot = index_find(key);
    if (slot != kNil &&
        sim::fault_fires(faults, sim::FaultSite::kTlbEntryDrop)) {
        // Injected spurious invalidation: the entry vanishes and the
        // lookup misses; the subsequent page-table walk re-fills it.
        remove_slot(slot);
        slot = kNil;
    }
    if (slot == kNil) {
        telemetry::metric_add(telemetry::Metric::kTlbMiss);
        return std::nullopt;
    }
    telemetry::metric_add(telemetry::Metric::kTlbHit);
    touch_front(slot);
    return slots_[slot].entry;
}

}  // namespace vdom::hw
