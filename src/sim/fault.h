/// \file
/// Deterministic fault injection (site x trigger x count).
///
/// The paper's correctness story (§5-§6) rests on the kernel surviving
/// hostile schedules: ASID rollover storms, eviction under pressure, IPIs
/// that arrive late.  This engine makes such adversity reproducible: a
/// `FaultPlan` arms named sites across src/hw, src/kernel and src/vdom,
/// and every decision flows through one seeded `sim::Rng`, so a failing
/// run is replayed exactly by re-arming the same plan with the same seed.
///
/// A plan belongs to one world: `hw::Machine::set_faults` attaches it,
/// every core holds the pointer (null by default), and each injection
/// site passes its core's plan to `fault_fires`, which is a single
/// predictable-branch pointer test when none is attached — an unarmed
/// world stays cycle-identical (the cycle-identity test in
/// tests/test_telemetry.cc pins this down), and a plan never sees the
/// crossings of a world it is not attached to.
///
/// Contract for injection sites: a firing site may charge simulated
/// cycles and change *recoverable* state, but must degrade gracefully —
/// every failure surfaces as a VdomStatus or a counted, bounded retry,
/// never a crash or silent corruption.

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "sim/rng.h"
#include "telemetry/metrics.h"

namespace vdom::sim {

/// Named injection points, one per fail-capable operation.
enum class FaultSite : std::uint8_t {
    // hw
    kTlbEntryDrop,     ///< TLB entry vanishes; lookup reports a miss.
    kPteWriteDelay,    ///< A page-table write stalls and is re-issued.
    kPermRegWriteFail, ///< Permission-register write fails; bounded retry.
    // kernel
    kIpiDrop,          ///< Shootdown IPI lost; re-posted with backoff.
    kAsidExhaustion,   ///< Forced ASID rollover (ARM) / PCID thrash (x86).
    kVdsAllocFail,     ///< VDS allocation fails; fall back to eviction.
    kVdtAllocFail,     ///< VDT area allocation fails; mprotect rejected.
    // vdom
    kVdrExhausted,     ///< VDR slot allocation fails.
    kGateEntryDenied,  ///< Secure call-gate entry aborted; retryable.
    kNumSites,
    // sim (fail-stop)
    /// Power loss: the plan's crash tap copies the durable media at the
    /// crossing, and nothing the op does afterwards is part of that
    /// image (FaultPlan::arm_crash).  Deliberately aliased past
    /// kNumSites so it is *excluded* from kNumFaultSites: every existing
    /// arm-all-sites loop and sweep stays graceful-only, and crash
    /// injection is opt-in via an explicit arm_crash.  When armed,
    /// kCrash piggybacks an occurrence on every other site's crossing
    /// (see FaultPlan::should_fire), so each graceful fault point doubles
    /// as a crash point; WAL ordering points additionally call
    /// `fault_fires(kCrash)` directly.
    kCrash = kNumSites,
};

constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::kNumSites);

/// Returns a short label for \p site (used in logs and bench JSON).
constexpr const char *
fault_site_name(FaultSite site)
{
    switch (site) {
      case FaultSite::kTlbEntryDrop: return "tlb_entry_drop";
      case FaultSite::kPteWriteDelay: return "pte_write_delay";
      case FaultSite::kPermRegWriteFail: return "perm_reg_write_fail";
      case FaultSite::kIpiDrop: return "ipi_drop";
      case FaultSite::kAsidExhaustion: return "asid_exhaustion";
      case FaultSite::kVdsAllocFail: return "vds_alloc_fail";
      case FaultSite::kVdtAllocFail: return "vdt_alloc_fail";
      case FaultSite::kVdrExhausted: return "vdr_exhausted";
      case FaultSite::kGateEntryDenied: return "gate_entry_denied";
      case FaultSite::kCrash: return "crash";  // == kNumSites
    }
    return "?";
}

/// Trigger for one armed site.  Both triggers may be combined; a site
/// fires when either says so, subject to the \p max_fires budget.
struct FaultSpec {
    double probability = 0.0;  ///< Chance each occurrence fires.
    std::uint64_t every = 0;   ///< Fire every Nth occurrence (0 = off).
    std::uint64_t skip = 0;    ///< Occurrences to pass before arming.
    std::uint64_t max_fires =
        std::numeric_limits<std::uint64_t>::max();  ///< Fire budget.
};

/// Observer of a kCrash fire: it copies the durable media (the WAL and
/// the PMO store) as a power loss at that instant would leave them.
using CrashTap = std::function<void()>;

/// An armed set of fault sites driven by one seeded RNG.
///
/// Determinism: the RNG is consumed once per occurrence of a
/// probability-armed site, in program order, so identical workloads
/// produce identical fire sequences.  Occurrences of unarmed sites are
/// not counted and consume nothing.
class FaultPlan {
  public:
    explicit FaultPlan(std::uint64_t seed = 1) : rng_(seed) {}

    /// Arms a graceful site; kCrash is armed with arm_crash, so that no
    /// plan fires it without a tap.
    void
    arm(FaultSite site, const FaultSpec &spec)
    {
        assert(site != FaultSite::kCrash);
        set(site, spec);
    }

    /// Arms kCrash to fire per \p spec, calling \p tap at every fire.  A
    /// fire returns false, so the op runs on as though nothing happened;
    /// what it does past the crossing is invisible to a harness that
    /// recovers from the tapped images.  That lets one run capture every
    /// crossing of an op (sim/chaos.h).
    void
    arm_crash(const FaultSpec &spec, CrashTap tap)
    {
        crash_tap_ = std::move(tap);
        set(FaultSite::kCrash, spec);
    }

    // --- systematic sweep arming (deterministic, no RNG) -----------------
    //
    // The sweep oracle (sim/chaos.h) runs an op once with every site
    // probe-armed to count fault-point crossings N, then replays the op N
    // times firing exactly at crossing k (the power-loss sweep instead
    // runs it once more, firing kCrash at all N through a crash tap).
    // Neither mode consumes the RNG (probability stays 0), so the sweep
    // is bit-reproducible.

    /// Count-only: occurrences are tallied, nothing ever fires.  Any
    /// site, kCrash included.
    void arm_probe(FaultSite site) { set(site, FaultSpec{}); }

    /// Fires exactly at the \p k-th occurrence (1-based).  With \p sticky,
    /// keeps firing at every occurrence from k on — models a persistent
    /// failure that defeats in-op retry loops.
    void
    arm_exact(FaultSite site, std::uint64_t k, bool sticky = false)
    {
        FaultSpec spec;
        spec.every = 1;
        spec.skip = k == 0 ? 0 : k - 1;
        if (!sticky)
            spec.max_fires = 1;
        arm(site, spec);
    }

    bool armed(FaultSite site) const { return state(site).armed; }

    /// The trigger spec last armed for \p site (meaningful while armed).
    const FaultSpec &spec(FaultSite site) const { return state(site).spec; }

    /// Decides whether the current occurrence of \p site fires.  Called
    /// from the injection sites via `fault_fires`; bumps
    /// telemetry::Metric::kFaultsInjected on fire.
    bool should_fire(FaultSite site);

    /// Occurrences seen while the site was armed.
    std::uint64_t
    occurrences(FaultSite site) const
    {
        return state(site).occurrences;
    }

    /// Times the site actually fired.
    std::uint64_t fires(FaultSite site) const { return state(site).fires; }

    /// Fires across every site, kCrash included.
    std::uint64_t
    total_fires() const
    {
        std::uint64_t total = 0;
        for (const SiteState &st : sites_)
            total += st.fires;
        return total;
    }

    /// Zeroes every occurrence/fire counter (the RNG keeps its stream).
    void
    reset_counts()
    {
        for (SiteState &st : sites_) {
            st.occurrences = 0;
            st.fires = 0;
        }
    }

  private:
    struct SiteState {
        FaultSpec spec;
        bool armed = false;
        std::uint64_t occurrences = 0;
        std::uint64_t fires = 0;
    };

    void
    set(FaultSite site, const FaultSpec &spec)
    {
        SiteState &st = state(site);
        st.spec = spec;
        st.armed = true;
    }

    SiteState &
    state(FaultSite site)
    {
        return sites_[static_cast<std::size_t>(site)];
    }
    const SiteState &
    state(FaultSite site) const
    {
        return sites_[static_cast<std::size_t>(site)];
    }

    Rng rng_;
    // +1: slot for kCrash, which aliases kNumSites and deliberately sits
    // outside the kNumFaultSites range swept by graceful-fault loops.
    std::array<SiteState, kNumFaultSites + 1> sites_;
    CrashTap crash_tap_;
};

/// True when the current occurrence of \p site must fail under \p plan,
/// the plan attached to the crossing's world.  With none attached this is
/// one pointer test (no out-of-line call) and never touches simulated
/// time or the RNG.
inline bool
fault_fires(FaultPlan *plan, FaultSite site)
{
    return plan != nullptr && plan->should_fire(site);
}

}  // namespace vdom::sim
