/// \file
/// Intel call gate implementation.

#include "vdom/callgate.h"

#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace vdom {

namespace tm = ::vdom::telemetry;

GateFrame
CallGate::enter(hw::Core &core) const
{
    tm::metric_add(tm::Metric::kGateEnter);
    tm::span_begin(core, "gate", 0);
    GateFrame frame;
    frame.saved_pkru = core.perm_reg().raw();
    // rdpkru; and $0xfffffff3, %eax; wrpkru  -> full access to pdom1.
    core.perm_reg().set(api_pdom_, hw::Perm::kFullAccess);
    // lsl core-number read + secure sharing page + stack switch: the cycle
    // cost of the whole sequence is the CostTable's secure_gate; the caller
    // (the API layer) charges it once per call, entry+exit combined.
    frame.on_secure_stack = true;
    return frame;
}

bool
CallGate::exit(hw::Core &core, GateFrame &frame,
               std::uint32_t target_pkru) const
{
    // Fig. 4 lines 23-28: merge the target vdom update with the pdom1
    // access-disable into one wrpkru.
    std::uint32_t mask = 0x3u << (2 * api_pdom_);
    std::uint32_t ad = static_cast<std::uint32_t>(hw::Perm::kAccessDisable)
                       << (2 * api_pdom_);
    std::uint32_t eax = (target_pkru & ~mask) | ad;
    core.perm_reg().load_raw(eax);
    frame.on_secure_stack = false;
    tm::metric_add(tm::Metric::kGateExit);
    tm::span_end(core, "gate", 0);
    // Lines 29-31: defend against a hijacked eax that would keep pdom1
    // open past the gate.
    bool legal = exit_value_legal(eax);
    if (!legal)
        tm::metric_add(tm::Metric::kGateExitBlocked);
    return legal;
}

bool
CallGate::exit_value_legal(std::uint32_t eax) const
{
    std::uint32_t mask = 0x3u << (2 * api_pdom_);
    std::uint32_t ad = static_cast<std::uint32_t>(hw::Perm::kAccessDisable)
                       << (2 * api_pdom_);
    return (eax & mask) == ad;
}

}  // namespace vdom
