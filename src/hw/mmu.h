/// \file
/// Memory access path: TLB lookup -> page-table walk -> domain check.

#pragma once

#include "hw/arch.h"
#include "hw/core.h"
#include "hw/page_table.h"
#include "hw/perm.h"

namespace vdom::hw {

/// Outcome of one simulated memory access.
enum class AccessOutcome : std::uint8_t {
    kOk,           ///< Translation present, permission granted.
    kDomainFault,  ///< Permission register denies the page's pdom
                   ///  (protection-key fault on Intel, domain fault on ARM).
    kPageFault,    ///< No translation (demand paging or disabled PMD).
};

/// Detailed access result.
struct AccessResult {
    AccessOutcome outcome = AccessOutcome::kOk;
    Pdom pdom = 0;             ///< Domain tag of the page (when translated).
    bool pmd_disabled = false; ///< Page fault came from a disabled PMD.
    bool tlb_hit = false;
};

/// Stateless access engine over a core's current (pgd, asid).
///
/// Mirrors the hardware sequence from §2: "the processor gets the domain
/// identifier of the virtual address, checks the access permission to that
/// address in the register, and raises an exception if any violation is
/// detected."  Charges TLB-hit or walk cycles on the core.
class Mmu {
  public:
    /// Performs one access to \p vpn on \p core.
    /// \param write true for a store, false for a load.
    static AccessResult access(Core &core, Vpn vpn, bool write);

    /// Translation step only (no permission check); used by kernel code
    /// paths that probe mappings.
    static AccessResult translate_only(Core &core, Vpn vpn);

  private:
    static AccessResult translate_slow(Core &core, Vpn vpn);
};

/// The whole TLB-hit path lives in the header: every simulated load/store
/// funnels through here, so the hit case (lookup + permission check +
/// cycle charge) must inline into workload loops.  Only the miss path
/// (page-table walk + TLB fill) pays an out-of-line call.
inline AccessResult
Mmu::translate_only(Core &core, Vpn vpn)
{
    auto hit = core.tlb().lookup(core.asid(), vpn, core.faults());
    if (hit) {
        core.charge(CostKind::kTlbMiss, core.costs().tlb_hit);
        AccessResult res;
        res.tlb_hit = true;
        res.outcome = AccessOutcome::kOk;
        res.pdom = hit->pdom;
        return res;
    }
    return translate_slow(core, vpn);
}

inline AccessResult
Mmu::access(Core &core, Vpn vpn, bool write)
{
    AccessResult res = translate_only(core, vpn);
    if (res.outcome != AccessOutcome::kOk)
        return res;
    Perm perm = core.perm_reg().get(res.pdom);
    bool allowed = write ? perm_allows_write(perm) : perm_allows_read(perm);
    if (!allowed)
        res.outcome = AccessOutcome::kDomainFault;
    return res;
}

}  // namespace vdom::hw
