/// \file
/// ASID management, per architecture (§2, §6.1).
///
/// VDS switches are cheap precisely because ASID-tagged TLBs avoid flushes
/// on page-table switches.  Linux manages ASIDs differently per arch:
///
///  - X86: each core keeps a small cache of PCID slots (TLB_NR_DYN_ASIDS=6)
///    with TLB generations; a context falling out of the cache needs its
///    slot flushed on reuse.
///  - ARM: a global ASID space with generation rollover; exhausting the
///    space flushes everything everywhere.
///
/// The model hands out TLB tags that are machine-unique and never recycled
/// within a world (hw::Machine::next_asid), so stale entries can never be
/// matched; the `need_flush*` flags report when the real hardware would
/// have paid an invalidation, and callers charge cycles accordingly.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hw/arch.h"

namespace vdom::hw {
class Machine;
}  // namespace vdom::hw

namespace vdom::kernel {

/// Result of assigning an ASID to a (core, context) pair.
struct AsidAssignment {
    hw::Asid asid = 0;
    bool need_flush_asid = false;  ///< A recycled slot must be invalidated.
    bool need_flush_all = false;   ///< ARM generation rollover.
    /// Causality id for the flush this assignment implies (0 = none).
    /// Allocated from the flight recorder on the recycle/rollover paths so
    /// the caller's flushes and shootdowns join the same flow.
    std::uint64_t flow = 0;
};

/// Architecture-specific ASID policy.
class AsidAllocator {
  public:
    virtual ~AsidAllocator() = default;

    /// Builds the allocator matching \p machine's architecture; its tags
    /// come from \p machine.
    static std::unique_ptr<AsidAllocator> make(hw::Machine &machine);

    /// Returns the ASID to run \p ctx_id under on \p core.
    virtual AsidAssignment assign(std::size_t core, std::uint64_t ctx_id) = 0;
};

/// X86 PCID-slot cache (Linux-style dynamic ASIDs + TLB generations).
class X86PcidAllocator final : public AsidAllocator {
  public:
    /// One cache of \p slots_per_core slots per core of \p machine.
    X86PcidAllocator(hw::Machine &machine, std::size_t slots_per_core);

    AsidAssignment assign(std::size_t core, std::uint64_t ctx_id) override;

  private:
    struct Slot {
        std::uint64_t ctx_id = 0;  ///< 0 = empty.
        hw::Asid asid = 0;
        std::uint64_t lru = 0;
    };

    hw::Machine *machine_;
    std::vector<std::vector<Slot>> slots_;  ///< [core][slot]
    std::uint64_t tick_ = 0;
};

/// Does nothing (hw::Machine numbers its own tags); perfbench is its only
/// caller.
void reset_unique_asids();

/// ARM global ASID allocator with generation rollover.
class ArmAsidAllocator final : public AsidAllocator {
  public:
    explicit ArmAsidAllocator(hw::Machine &machine,
                              std::size_t space_size = 256);

    AsidAssignment assign(std::size_t core, std::uint64_t ctx_id) override;

    std::uint64_t generation() const { return generation_; }

  private:
    hw::Machine *machine_;
    std::size_t space_size_;
    std::size_t used_ = 0;
    std::uint64_t generation_ = 1;
    std::unordered_map<std::uint64_t, hw::Asid> active_;
};

}  // namespace vdom::kernel
