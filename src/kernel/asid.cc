/// \file
/// ASID allocator implementations.

#include "kernel/asid.h"

#include <limits>

#include "hw/machine.h"
#include "sim/fault.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"

namespace vdom::kernel {

void
reset_unique_asids()
{
}

std::unique_ptr<AsidAllocator>
AsidAllocator::make(hw::Machine &machine)
{
    if (machine.params().kind == hw::ArchKind::kX86) {
        return std::make_unique<X86PcidAllocator>(
            machine, machine.params().asid_slots);
    }
    return std::make_unique<ArmAsidAllocator>(machine);
}

X86PcidAllocator::X86PcidAllocator(hw::Machine &machine,
                                   std::size_t slots_per_core)
    : machine_(&machine),
      slots_(machine.num_cores(), std::vector<Slot>(slots_per_core))
{
}

AsidAssignment
X86PcidAllocator::assign(std::size_t core, std::uint64_t ctx_id)
{
    ++tick_;
    auto &core_slots = slots_[core];
    // Injected PCID-cache thrash: the context's slot (if any) is treated
    // as lost, forcing the recycle path and its flush — the behaviour of
    // a cache too small for the working set.
    bool forced = sim::fault_fires(machine_->faults(),
                                   sim::FaultSite::kAsidExhaustion);
    if (forced) {
        for (Slot &slot : core_slots) {
            if (slot.ctx_id == ctx_id)
                slot.ctx_id = 0;
        }
    }
    // Hit: context already cached on this core.
    for (Slot &slot : core_slots) {
        if (slot.ctx_id == ctx_id) {
            slot.lru = tick_;
            return {slot.asid, false, false};
        }
    }
    // Miss: take an empty slot, else recycle the LRU one (which implies a
    // flush of that PCID when the generation check fails, as in Linux).
    Slot *victim = nullptr;
    if (!forced) {
        for (Slot &slot : core_slots) {
            if (slot.ctx_id == 0) {
                victim = &slot;
                break;
            }
        }
    }
    bool recycled = false;
    if (!victim) {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (Slot &slot : core_slots) {
            if (slot.lru < best) {
                best = slot.lru;
                victim = &slot;
            }
        }
        recycled = true;
        telemetry::metric_add(telemetry::Metric::kAsidRecycle);
    }
    victim->ctx_id = ctx_id;
    victim->asid = machine_->next_asid();
    victim->lru = tick_;
    return {victim->asid, recycled, false,
            recycled ? telemetry::flight_new_flow(machine_->flight()) : 0};
}

ArmAsidAllocator::ArmAsidAllocator(hw::Machine &machine,
                                   std::size_t space_size)
    : machine_(&machine), space_size_(space_size)
{
}

AsidAssignment
ArmAsidAllocator::assign(std::size_t core, std::uint64_t ctx_id)
{
    (void)core;
    // Injected exhaustion: behave exactly as if the ASID space ran out,
    // taking the full rollover path below (generation bump + flush-all).
    bool forced = sim::fault_fires(machine_->faults(),
                                   sim::FaultSite::kAsidExhaustion);
    auto it = active_.find(ctx_id);
    if (!forced && it != active_.end())
        return {it->second, false, false};
    if (forced || used_ + 1 >= space_size_) {
        // Generation rollover: every context must re-allocate, and all
        // TLBs are flushed (the caller broadcasts the flush).
        ++generation_;
        active_.clear();
        used_ = 0;
        telemetry::metric_add(telemetry::Metric::kAsidRollover);
        hw::Asid asid = machine_->next_asid();
        active_[ctx_id] = asid;
        ++used_;
        return {asid, false, true,
                telemetry::flight_new_flow(machine_->flight())};
    }
    hw::Asid asid = machine_->next_asid();
    active_[ctx_id] = asid;
    ++used_;
    return {asid, false, false};
}

}  // namespace vdom::kernel
