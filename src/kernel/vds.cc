/// \file
/// Virtual Domain Space implementation.

#include "kernel/vds.h"

#include <algorithm>

namespace vdom::kernel {

void
Vds::reset_ctx_ids()
{
}

Vds::Vds(std::uint32_t id, const hw::ArchParams &params)
    : id_(id),
      params_(&params),
      pgd_(params.pmd_span_pages),
      first_usable_(static_cast<hw::Pdom>(params.num_reserved_pdoms)),
      usable_count_(params.usable_pdoms()),
      free_count_(params.usable_pdoms()),
      map_(params.num_pdoms),
      core_seen_gen_(params.num_cores, 0)
{
    // vdom0 (common) is permanently bound to pdom0 in every VDS (Fig. 3).
    map_[params.default_pdom].vdom = kCommonVdom;
    VdomSlot &slot = slot_grow(kCommonVdom);
    slot.pdom = params.default_pdom;
    slot.mapped = true;
}

Vds::VdomSlot &
Vds::slot_grow(VdomId vdom)
{
    if (vdom >= by_vdom_.size()) {
        std::size_t grown =
            std::max<std::size_t>(vdom + 1, by_vdom_.size() * 2);
        by_vdom_.resize(std::max<std::size_t>(grown, 8));
    }
    return by_vdom_[vdom];
}

std::optional<hw::Pdom>
Vds::find_free_pdom(std::optional<hw::Pdom> preferred) const
{
    if (!params_->knobs.hlru)
        preferred.reset();
    if (preferred && *preferred >= first_usable_ &&
        *preferred < params_->num_pdoms &&
        map_[*preferred].vdom == kInvalidVdom) {
        return preferred;
    }
    for (hw::Pdom p = first_usable_; p < params_->num_pdoms; ++p) {
        if (map_[p].vdom == kInvalidVdom)
            return p;
    }
    return std::nullopt;
}

void
Vds::map_vdom(hw::Pdom pdom, VdomId vdom)
{
    MapEntry &entry = map_[pdom];
    if (entry.vdom == kInvalidVdom && pdom >= first_usable_ &&
        free_count_ > 0) {
        --free_count_;
    }
    entry.vdom = vdom;
    entry.nthreads = 0;
    VdomSlot &slot = slot_grow(vdom);
    slot.pdom = pdom;
    slot.mapped = true;
    slot.last = pdom;
    slot.has_last = true;
}

void
Vds::unmap_pdom(hw::Pdom pdom)
{
    MapEntry &entry = map_[pdom];
    if (entry.vdom == kInvalidVdom)
        return;
    VdomSlot &slot = slot_grow(entry.vdom);
    slot.last = pdom;
    slot.has_last = true;
    slot.mapped = false;
    entry.vdom = kInvalidVdom;
    entry.nthreads = 0;
    if (pdom >= first_usable_)
        ++free_count_;
}

std::optional<hw::Pdom>
Vds::choose_victim(VdomId incoming,
                   const std::function<bool(VdomId)> &evictable,
                   const std::function<bool(VdomId)> &pinned) const
{
    // HLRU step 1: reuse the incoming vdom's previous pdom when its current
    // occupant is inaccessible and not pinned (§5.5).
    const VdomSlot *slot =
        params_->knobs.hlru ? slot_at(incoming) : nullptr;
    if (slot && slot->has_last) {
        hw::Pdom p = slot->last;
        VdomId occupant = map_[p].vdom;
        if (occupant != kInvalidVdom && occupant != kCommonVdom &&
            evictable(occupant) && !pinned(occupant)) {
            return p;
        }
    }
    // HLRU step 2: LRU among evictable unpinned vdoms.
    auto scan = [&](bool include_pinned) -> std::optional<hw::Pdom> {
        std::optional<hw::Pdom> best;
        hw::Cycles best_tick = 0;
        for (hw::Pdom p = first_usable_; p < params_->num_pdoms; ++p) {
            VdomId v = map_[p].vdom;
            if (v == kInvalidVdom || v == kCommonVdom || !evictable(v))
                continue;
            if (!include_pinned && pinned(v))
                continue;
            if (!best || map_[p].last_use < best_tick) {
                best = p;
                best_tick = map_[p].last_use;
            }
        }
        return best;
    };
    if (auto victim = scan(false))
        return victim;
    // Pinned vdoms are "less likely to be evicted", not exempt: fall back
    // to strict LRU including them.
    return scan(true);
}

bool
Vds::check_consistency() const
{
    std::size_t mapped = 0;
    for (hw::Pdom p = first_usable_; p < params_->num_pdoms; ++p) {
        VdomId v = map_[p].vdom;
        if (v == kInvalidVdom)
            continue;
        ++mapped;
        const VdomSlot *slot = slot_at(v);
        if (!slot || !slot->mapped || slot->pdom != p)
            return false;
    }
    if (mapped + free_count_ != usable_count_)
        return false;
    // Reverse entries must not be stale (besides vdom0 on pdom0).
    for (VdomId v = 0; v < by_vdom_.size(); ++v) {
        const VdomSlot &slot = by_vdom_[v];
        if (!slot.mapped)
            continue;
        if (map_[slot.pdom].vdom != v)
            return false;
        if (v == kCommonVdom && slot.pdom != params_->default_pdom)
            return false;
    }
    return true;
}

}  // namespace vdom::kernel
