/// \file
/// The domain virtualization algorithm (§5.4, Fig. 3).
///
/// Input event: thread T needs vdom D active (wrvdr grant or a fault on
/// D-protected memory).  The algorithm walks the paper's flowchart:
///
///   ❶ D mapped in T's current VDS?            -> done
///   ❷ current VDS has a free pdom?            -> ❸ map D there
///   ❹ T alone in its VDS?                     -> ❺ VDS switch or eviction
///   ❻❼ some existing VDS can accommodate T?   -> thread migration
///   ❽ otherwise                               -> new VDS + migration
///
/// Step ❺ balances pgd switches against evictions: frequently-accessed
/// vdoms (vdom_alloc's freq flag) and threads that still hold access to
/// other vdoms mapped here prefer eviction; otherwise the thread switches
/// to (or allocates, within its nas budget) another VDS.

#pragma once

#include <cstdint>
#include <optional>

#include "hw/arch.h"
#include "hw/core.h"
#include "kernel/process.h"
#include "kernel/task.h"
#include "kernel/vds.h"
#include "telemetry/metrics.h"
#include "vdom/types.h"

namespace vdom {

/// Executes the virtualization algorithm over one process.  Each outcome
/// is counted in the metrics registry, and only there: `virt.map_hit`
/// (❶), `virt.map_free` (❸), `virt.vds_switch` and `virt.hlru_evict`
/// (❺), `virt.migration` (❼/❽) and `virt.vds_alloc` (❽).
class DomainVirtualizer {
  public:
    explicit DomainVirtualizer(kernel::Process &proc) : proc_(&proc) {}

    /// Makes \p vdom usable by \p task: on return, \p task->vds() maps
    /// \p vdom to the returned pdom.
    ///
    /// Inline fast path for ❶ (vdom already mapped in the current VDS —
    /// the common case on every repeat wrvdr grant); everything else goes
    /// out of line.
    ///
    /// \param charge_kernel_entry charge a syscall on the slow path (false
    ///        when the caller already paid fault entry).
    /// \returns nullopt only if \p vdom has no possible placement (cannot
    ///          happen for allocated vdoms).
    std::optional<hw::Pdom>
    ensure_mapped(hw::Core &core, kernel::Task &task, VdomId vdom,
                  bool charge_kernel_entry = true)
    {
        kernel::Vds &cur = *task.vds();
        // ❶ Already mapped in the current VDS: nothing to do.
        if (auto pdom = cur.pdom_of(vdom)) {
            cur.touch(vdom, core.now());
            telemetry::metric_add(telemetry::Metric::kDomainMapHit);
            return pdom;
        }
        return ensure_mapped_slow(core, task, vdom, charge_kernel_entry);
    }

  private:
    /// Steps ❷..❽ (vdom not mapped in the current VDS).
    std::optional<hw::Pdom> ensure_mapped_slow(hw::Core &core,
                                               kernel::Task &task,
                                               VdomId vdom,
                                               bool charge_kernel_entry);

    /// True when \p vds can hold \p task's active set plus \p vdom (❼).
    bool fits(const kernel::Task &task, const kernel::Vds &vds,
              VdomId vdom) const;

    /// ❺: VDS switch, new VDS within nas, or eviction.
    std::optional<hw::Pdom> switch_or_evict(hw::Core &core,
                                            kernel::Task &task, VdomId vdom);

    /// Moves \p task into \p target, mapping its active set + \p vdom
    /// (Fig. 3 right).
    std::optional<hw::Pdom> migrate(hw::Core &core, kernel::Task &task,
                                    kernel::Vds &target, VdomId vdom);

    /// Evicts a victim in \p vds (HLRU, §5.5) and maps \p vdom in its
    /// place.
    std::optional<hw::Pdom> evict_and_map(hw::Core &core,
                                          kernel::Task &task,
                                          kernel::Vds &vds, VdomId vdom);

    /// Maps \p vdom to \p pdom in \p vds, installing present pages.
    void map_into(hw::Core &core, kernel::Vds &vds, VdomId vdom,
                  hw::Pdom pdom, hw::CostKind kind);

    kernel::Process *proc_;
};

}  // namespace vdom
