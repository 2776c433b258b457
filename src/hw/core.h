/// \file
/// Simulated processor core: local clock, TLB, permission register.

#pragma once

#include <cstdint>

#include "hw/arch.h"
#include "hw/cost_kind.h"
#include "hw/perm_register.h"
#include "hw/tlb.h"

namespace vdom::telemetry {
class FlightRecorder;
}  // namespace vdom::telemetry

namespace vdom::hw {

class PageTable;

/// One simulated hardware thread.
///
/// A core owns the per-core architectural state the paper's design depends
/// on: the domain permission register (PKRU/DACR), an ASID-tagged TLB, the
/// current page-table base (pgd) and ASID, and a local cycle clock.  All
/// cycle charges name a CostKind so benches can report breakdowns.  It
/// also carries its machine's fault plan and flight recorder (null unless
/// Machine attaches them), so every injection and record site reaches its
/// world's sinks in one load.
class Core {
  public:
    Core(std::size_t id, const ArchParams &params)
        : id_(id), params_(&params), tlb_(params.tlb_entries)
    {
    }

    std::size_t id() const { return id_; }
    const ArchParams &params() const { return *params_; }
    const CostTable &costs() const { return params_->costs; }

    /// Local clock in cycles.
    Cycles now() const { return clock_; }

    /// Advances the clock by \p cycles, attributing them to \p kind.
    void
    charge(CostKind kind, Cycles cycles)
    {
        clock_ += cycles;
        breakdown_.add(kind, cycles);
    }

    /// Moves the clock forward to \p when (idle/wait until a future event);
    /// the elapsed time is attributed to \p kind.
    void
    advance_to(Cycles when, CostKind kind)
    {
        if (when > clock_) {
            breakdown_.add(kind, when - clock_);
            clock_ = when;
        }
    }

    Tlb &tlb() { return tlb_; }
    const Tlb &tlb() const { return tlb_; }
    PermRegister &perm_reg() { return perm_reg_; }
    const PermRegister &perm_reg() const { return perm_reg_; }

    /// Currently installed address space.
    const PageTable *pgd() const { return pgd_; }
    Asid asid() const { return asid_; }

    /// Installs a new (pgd, asid) pair, charging the base-register write.
    /// TLB is NOT flushed: ASID tagging makes that unnecessary (§5).
    void
    switch_pgd(const PageTable *pgd, Asid asid, CostKind kind)
    {
        pgd_ = pgd;
        asid_ = asid;
        charge(kind, costs().pgd_switch);
    }

    /// Installs (pgd, asid) without charging (initial placement).
    void
    set_pgd(const PageTable *pgd, Asid asid)
    {
        pgd_ = pgd;
        asid_ = asid;
    }

    const CycleBreakdown &breakdown() const { return breakdown_; }
    CycleBreakdown &breakdown() { return breakdown_; }

    /// The machine's fault plan and flight recorder, or nullptr.
    sim::FaultPlan *faults() const { return faults_; }
    telemetry::FlightRecorder *flight() const { return flight_; }

    /// Resets clock, cycle breakdown and architectural state (benchmark
    /// setup).  Event counts live in the metrics registry, so the TLB
    /// flush here counts as one `tlb.flush` like any other.
    void
    reset()
    {
        clock_ = 0;
        breakdown_ = CycleBreakdown{};
        tlb_.flush_all();
        perm_reg_.reset();
        pgd_ = nullptr;
        asid_ = 0;
    }

  private:
    friend class Machine;

    std::size_t id_;
    const ArchParams *params_;
    Cycles clock_ = 0;
    Tlb tlb_;
    PermRegister perm_reg_;
    const PageTable *pgd_ = nullptr;
    Asid asid_ = 0;
    CycleBreakdown breakdown_;
    sim::FaultPlan *faults_ = nullptr;
    telemetry::FlightRecorder *flight_ = nullptr;
};

}  // namespace vdom::hw
