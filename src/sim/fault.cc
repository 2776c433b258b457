/// \file
/// Fault-injection engine implementation.

#include "sim/fault.h"

namespace vdom::sim {

bool
FaultPlan::should_fire(FaultSite site)
{
    // Power loss piggybacks on every other site's crossing: with kCrash
    // armed, each fault point anywhere in the system is also a potential
    // crash point, so the crash sweep enumerates them without touching a
    // single call site.  Guarded on armed so unarmed runs see one extra
    // predictable branch and nothing else (no counters, no RNG).
    if (site != FaultSite::kCrash && state(FaultSite::kCrash).armed)
        (void)should_fire(FaultSite::kCrash);
    SiteState &st = state(site);
    if (!st.armed)
        return false;
    ++st.occurrences;
    if (st.occurrences <= st.spec.skip)
        return false;
    // The RNG is consumed for every post-skip occurrence of a
    // probability-armed site — including over-budget ones — so the stream
    // position depends only on the workload, not on earlier outcomes.
    bool fire = false;
    if (st.spec.probability > 0.0 && rng_.uniform() < st.spec.probability)
        fire = true;
    if (st.spec.every != 0 &&
        (st.occurrences - st.spec.skip) % st.spec.every == 0) {
        fire = true;
    }
    if (!fire || st.fires >= st.spec.max_fires)
        return false;
    ++st.fires;
    ++total_fires_;
    telemetry::metric_add(telemetry::Metric::kFaultsInjected);
    // kCrash is fail-stop: halt the world after the fire is booked, so a
    // post-mortem of the caught PowerLoss still sees accurate counters.
    if (site == FaultSite::kCrash)
        throw PowerLoss{st.fires, st.occurrences};
    return true;
}

}  // namespace vdom::sim
