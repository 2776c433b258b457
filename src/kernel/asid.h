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
/// The model hands out globally unique TLB tags, so stale entries can never
/// be matched; the `need_flush*` flags report when the real hardware would
/// have paid an invalidation, and callers charge cycles accordingly.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hw/arch.h"

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

    /// Builds the allocator matching \p params' architecture.
    static std::unique_ptr<AsidAllocator> make(const hw::ArchParams &params);

    /// Returns the ASID to run \p ctx_id under on \p core.
    virtual AsidAssignment assign(std::size_t core, std::uint64_t ctx_id) = 0;

    /// Number of hardware invalidations this policy has implied so far.
    virtual std::uint64_t flush_count() const = 0;
};

/// X86 PCID-slot cache (Linux-style dynamic ASIDs + TLB generations).
class X86PcidAllocator final : public AsidAllocator {
  public:
    X86PcidAllocator(std::size_t num_cores, std::size_t slots_per_core);

    AsidAssignment assign(std::size_t core, std::uint64_t ctx_id) override;
    std::uint64_t flush_count() const override { return flushes_; }

  private:
    struct Slot {
        std::uint64_t ctx_id = 0;  ///< 0 = empty.
        hw::Asid asid = 0;
        std::uint64_t lru = 0;
    };

    std::size_t slots_per_core_;
    std::vector<std::vector<Slot>> slots_;  ///< [core][slot]
    std::uint64_t tick_ = 0;
    std::uint64_t flushes_ = 0;
};

/// Hands out a machine-unique TLB tag.  Tags are process-agnostic so two
/// processes sharing a machine can never alias each other's TLB entries
/// (real hardware reaches the same guarantee through flushes; unique tags
/// are the simulator's cheaper equivalent).
hw::Asid next_unique_asid();

/// Restarts the unique-tag counter.  Only for harnesses that build several
/// same-seed worlds in one OS process and need their ASID streams (and
/// thus flight records / post-mortem bundles) byte-identical; never call
/// while a machine built under the old counter is still in use.
void reset_unique_asids();

/// ARM global ASID allocator with generation rollover.
class ArmAsidAllocator final : public AsidAllocator {
  public:
    explicit ArmAsidAllocator(std::size_t space_size = 256);

    AsidAssignment assign(std::size_t core, std::uint64_t ctx_id) override;
    std::uint64_t flush_count() const override { return flushes_; }

    std::uint64_t generation() const { return generation_; }

  private:
    std::size_t space_size_;
    std::size_t used_ = 0;
    std::uint64_t generation_ = 1;
    std::unordered_map<std::uint64_t, hw::Asid> active_;
    std::uint64_t flushes_ = 0;
};

}  // namespace vdom::kernel
