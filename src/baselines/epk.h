/// \file
/// EPK baseline (Gu et al., ATC'22), simulated per the paper's §7.4.
///
/// EPK combines MPK with VMFUNC: each extended page table (EPT) provides
/// 15 usable protection keys; keys beyond that live in additional EPTs and
/// switching to them issues VMFUNC.  The paper could not obtain EPK's code
/// and *simulated* it by inserting the reported per-switch cycle counts —
/// 97 cycles for an in-EPT MPK switch, 350 or 830 cycles per VMFUNC switch
/// depending on the total number of EPTs — plus the cost of running the
/// whole application inside a VM.  This model follows the same
/// methodology (and therefore, like the paper's, under-counts EPK's extra
/// TLB misses from multiple EPTs).

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baselines/vm_model.h"
#include "hw/arch.h"
#include "hw/core.h"
#include "kernel/task.h"
#include "vdom/types.h"

namespace vdom::baselines {

/// EPK instance for one in-VM process.
class Epk {
  public:
    explicit Epk(const hw::ArchParams &params) : params_(&params) {}

    /// Allocates a key; keys fill EPT groups in order.
    int
    key_alloc(hw::Core &core)
    {
        core.charge(hw::CostKind::kSyscall,
                    vm_.syscall_cycles(params_->costs.syscall));
        return next_key_++;
    }

    /// Number of EPTs currently needed.
    std::size_t
    num_epts() const
    {
        return next_key_ == 0
            ? 1
            : (static_cast<std::size_t>(next_key_) + kKeysPerEpt - 1) /
                kKeysPerEpt;
    }

    /// Per-VMFUNC cycle cost at the current EPT count (§7.4: "350 cycles
    /// or 830 cycles are inserted").
    hw::Cycles
    vmfunc_cycles() const
    {
        std::size_t epts = num_epts();
        if (epts <= 1)
            return 0;
        return epts <= 4 ? params_->costs.vmfunc_mid
                         : params_->costs.vmfunc_many;
    }

    /// Sets the calling thread's permission on \p key: an MPK-style switch
    /// when the key's EPT is current, a VMFUNC switch otherwise.
    void
    key_set(hw::Core &core, kernel::Task &task, int key, VPerm perm)
    {
        (void)perm;
        std::size_t ept = static_cast<std::size_t>(key) / kKeysPerEpt;
        std::size_t &cur = current_ept_[task.tid()];
        if (ept == cur) {
            core.charge(hw::CostKind::kPermReg, params_->costs.pkey_set);
            ++stats_.mpk_switches;
        } else {
            // §7.4: "350 cycles or 830 cycles are inserted" per
            // VMFUNC-based switch — the reported number is the whole
            // switch, not an increment on top of the MPK path.
            core.charge(hw::CostKind::kVmExit, vmfunc_cycles());
            cur = ept;
            ++stats_.vmfunc_switches;
        }
    }

    /// The VM execution model applied to the application's own work.
    const VmModel &vm() const { return vm_; }

    struct Stats {
        std::uint64_t mpk_switches = 0;
        std::uint64_t vmfunc_switches = 0;
    };
    const Stats &stats() const { return stats_; }

  private:
    /// Usable protection keys per EPT.
    static constexpr std::size_t kKeysPerEpt = 15;

    const hw::ArchParams *params_;
    int next_key_ = 0;
    std::unordered_map<std::uint32_t, std::size_t> current_ept_;
    VmModel vm_;
    Stats stats_;
};

}  // namespace vdom::baselines
