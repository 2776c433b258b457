/// \file
/// TLB model implementation: flat fully associative array with exact LRU,
/// indexed by an open-addressing hash table (no per-entry allocation on
/// any path).

#include "hw/tlb.h"

#include <algorithm>
#include <bit>

#include "sim/fault.h"
#include "telemetry/metrics.h"

namespace vdom::hw {

namespace tm = ::vdom::telemetry;

Tlb::Tlb(std::size_t capacity)
    : capacity_(capacity), slot_count_(capacity == 0 ? 1 : capacity)
{
    resize_index(kMinIndex);
}

void
Tlb::resize_index(std::size_t cells)
{
    index_.assign(cells, Cell{});
    index_mask_ = cells - 1;
    hash_shift_ = 64 - static_cast<unsigned>(std::bit_width(cells) - 1);
    for (std::uint32_t slot = head_; slot != kNil; slot = slots_[slot].next)
        index_insert(slots_[slot].key, slot);
}

void
Tlb::index_insert(Key key, std::uint32_t slot)
{
    std::size_t pos = ideal_pos(key);
    while (index_[pos].slot != kNil)
        pos = (pos + 1) & index_mask_;
    index_[pos] = Cell{key, slot};
}

void
Tlb::index_erase(Key key)
{
    std::size_t pos = ideal_pos(key);
    while (true) {
        Cell &cell = index_[pos];
        if (cell.slot == kNil)
            return;  // Not present (caller guarantees it is; be safe).
        if (cell.key == key)
            break;
        pos = (pos + 1) & index_mask_;
    }
    // Backward-shift deletion (Knuth 6.4, algorithm R): keep probe chains
    // contiguous without tombstones.
    std::size_t hole = pos;
    index_[hole].slot = kNil;
    std::size_t probe = hole;
    while (true) {
        probe = (probe + 1) & index_mask_;
        if (index_[probe].slot == kNil)
            return;
        std::size_t home = ideal_pos(index_[probe].key);
        // Move the cell into the hole when its home position lies
        // cyclically outside (hole, probe].
        bool movable = (probe > hole)
            ? (home <= hole || home > probe)
            : (home <= hole && home > probe);
        if (movable) {
            index_[hole] = index_[probe];
            index_[probe].slot = kNil;
            hole = probe;
        }
    }
}

void
Tlb::remove_slot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    index_erase(s.key);
    list_unlink(slot);
    --size_;
    --tag_live_[tag_of(s.key)];
    s.prev = kNil;
    s.next = free_head_;
    free_head_ = slot;
}

void
Tlb::insert(Asid asid, Vpn vpn, const TlbEntry &entry)
{
    Key key = make_key(asid, vpn);
    std::uint32_t slot = index_find(key);
    if (slot != kNil) {
        slots_[slot].entry = entry;
        touch_front(slot);
        return;
    }
    if (size_ >= slot_count_) {
        tm::metric_add(tm::Metric::kTlbEvict);
        remove_slot(tail_);
    }
    // Removed slots are reused (LIFO) before the bump pointer moves on.
    std::uint32_t fresh = free_head_;
    if (fresh != kNil) {
        free_head_ = slots_[fresh].next;
    } else {
        fresh = static_cast<std::uint32_t>(slots_.size());
        // Grows geometrically, capped so a full TLB holds `slot_count_`.
        if (slots_.size() == slots_.capacity())
            slots_.reserve(std::min(slot_count_, 2 * slots_.size() + 4));
        slots_.emplace_back();
    }
    if (2 * (size_ + 1) > index_.size())
        resize_index(2 * index_.size());
    Slot &s = slots_[fresh];
    s.key = key;
    s.entry = entry;
    list_push_front(fresh);
    ++size_;
    if (tag_of(key) >= tag_live_.size())
        tag_live_.resize(tag_of(key) + 1);
    ++tag_live_[tag_of(key)];
    index_insert(key, fresh);
}

void
Tlb::flush_all()
{
    tm::metric_add(tm::Metric::kTlbFlush);
    while (head_ != kNil)
        remove_slot(head_);
}

void
Tlb::flush_asid(Asid asid)
{
    tm::metric_add(tm::Metric::kTlbFlush);
    if (asid >= tag_live_.size())
        return;
    std::uint32_t &live = tag_live_[asid];
    for (std::uint32_t slot = head_; live != 0;) {
        std::uint32_t next = slots_[slot].next;
        if (tag_of(slots_[slot].key) == asid)
            remove_slot(slot);
        slot = next;
    }
}

std::uint64_t
Tlb::flush_range(Asid asid, Vpn vpn, std::uint64_t count)
{
    std::uint64_t touched = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t slot = index_find(make_key(asid, vpn + i));
        if (slot != kNil) {
            remove_slot(slot);
            ++touched;
        }
    }
    if (touched)
        tm::metric_add(tm::Metric::kTlbFlushedPages, touched);
    return touched;
}

}  // namespace vdom::hw
