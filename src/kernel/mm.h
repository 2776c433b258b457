/// \file
/// Process memory descriptor (the paper's extended mm_struct, §6.1/§6.2).
///
/// One MmStruct serves *all* VDSes of a process: "we decide to use it for
/// all VDSes ... only page tables require extra synchronization."  It owns
/// the shared VMA layout, the per-process VDM/VDT, a shadow page table
/// (the master copy demand paging reads from), and the list of VDSes.
///
/// Synchronization policy (§6.2): lazy through page faults when permissions
/// grow (VDS demand paging), eager across every VDS page table when
/// permissions shrink (munmap, vdom assignment, protection changes).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/arch.h"
#include "hw/core.h"
#include "hw/page_table.h"
#include "kernel/journal.h"
#include "kernel/shootdown.h"
#include "kernel/wal.h"
#include "kernel/vdm.h"
#include "kernel/vds.h"
#include "kernel/vma.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"
#include "vdom/types.h"

namespace vdom::kernel {

/// Per-process memory state.
///
/// Invariant: a VDS maps a page (a PTE, possibly prot_none or under a
/// disabled PMD, or a huge PMD) only where the shadow maps it.  VDS
/// tables are filled only from the shadow (fault_in, install_vdom_in_vds),
/// and munmap and reclaim_range remove a page from every VDS when they
/// remove it from the shadow (a huge mmap is assumed to fill whole PMD
/// spans, as every caller's does).  reclaim_range relies on this to visit
/// shadow-present pages only, and assign_vdom to skip revoking areas the
/// shadow has never populated.  The one exception is libmpk
/// (baselines/libmpk.cc), which maps its pages straight into vds0; those
/// ranges never reach assign_vdom.
class MmStruct {
  public:
    MmStruct(const hw::ArchParams &params, ShootdownManager *shootdown);

    const hw::ArchParams &params() const { return *params_; }

    Vdm &vdm() { return vdm_; }
    const Vdm &vdm() const { return vdm_; }

    /// The process-wide undo log (kernel/journal.h).  Ops open an OpTxn
    /// on it; mutators below record inverses when it is active.
    Journal &journal() { return journal_; }

    /// The attached write-ahead log, or nullptr (the default).  The Wal
    /// is the durable medium and is owned by whoever simulates the
    /// "NVDIMM" (harness or test), outliving this process across a
    /// simulated reboot.  Every logging site is a no-op when detached,
    /// so unattached runs stay cycle-identical.
    Wal *wal() { return wal_; }
    void set_wal(Wal *wal) { wal_ = wal; }

    VmaTree &vmas() { return vmas_; }
    const VmaTree &vmas() const { return vmas_; }
    hw::PageTable &shadow() { return shadow_; }

    // --- VDS management ---------------------------------------------------

    /// The initial VDS every thread starts in.
    Vds *vds0() { return vdses_.front().get(); }

    /// Allocates and chains a new VDS (charged by the caller via
    /// CostTable::vds_alloc).
    Vds *create_vds();

    const std::vector<std::unique_ptr<Vds>> &vdses() const { return vdses_; }
    std::size_t num_vdses() const { return vdses_.size(); }

    /// Union of all VDS CPU bitmaps: every core running this process.
    std::uint64_t union_cpu_bitmap() const;

    // --- layout -------------------------------------------------------------

    /// Allocates \p pages of fresh virtual address space (returns the first
    /// vpn).  With \p huge, the region is 2MB-aligned and backed by huge
    /// pages.  Pages become present on first touch (demand paging).
    hw::Vpn mmap(std::uint64_t pages, bool huge = false);

    /// Unmaps [start, start+pages): eagerly removes translations from the
    /// shadow and every VDS, drops VDT areas, and shoots down every core
    /// running the process.
    void munmap(hw::Core &core, hw::Vpn start, std::uint64_t pages);

    /// Assigns \p vdom to [start, start+pages) (vdom_mprotect backend).
    ///
    /// Enforces address-space integrity (§7.2): pages already owned by a
    /// different protected vdom are rejected.  Splits VMAs as needed,
    /// chains the area into the VDT, and eagerly retags present pages in
    /// every VDS (revocation is eager, §6.2), with shootdowns.  An area
    /// with no shadow-present page and no whole PMD span is not swept:
    /// by the invariant above no VDS has anything there to retag.
    VdomStatus assign_vdom(hw::Core &core, hw::Vpn start,
                           std::uint64_t pages, VdomId vdom);

    // --- paging ----------------------------------------------------------

    /// First-touch / VDS demand paging for \p vpn in \p vds.
    ///
    /// \returns false when no VMA covers \p vpn (SIGSEGV for the caller).
    /// Charges fault-side costs on \p core: shadow population on first
    /// touch, memsync when copying into a VDS table (§6.2, Table 5).
    bool fault_in(hw::Core &core, Vds &vds, hw::Vpn vpn);

    /// Eagerly maps every present page of \p vdom into \p vds with tag
    /// \p pdom ("the OS kernel assigns PTEs of all present pages protected
    /// by the vdom with the selected pdom", §5.4).  Returns entry-write
    /// counts; cycles are charged on \p core under \p kind.
    hw::PtOps install_vdom_in_vds(hw::Core &core, Vds &vds, VdomId vdom,
                                  hw::Pdom pdom, hw::CostKind kind);

    /// Disables every area of \p vdom in \p vds (eviction, §5.4): PTEs are
    /// retagged access-never or PMDs disabled (§5.5), then minimal TLB
    /// invalidation: range flush for small areas, full-ASID flush for large
    /// ones, local-only when the VDS runs nowhere else.
    hw::PtOps evict_vdom_from_vds(hw::Core &core, Vds &vds, VdomId vdom);

    /// kswapd-style page reclaim: drops the frames backing
    /// [start, start+pages) from the shadow and every VDS (eager
    /// synchronization, §6.2) while keeping the VMAs — a later access
    /// demand-pages the data back in with the correct domain tag.
    /// \returns the number of pages actually reclaimed.
    std::uint64_t reclaim_range(hw::Core &core, hw::Vpn start,
                                std::uint64_t pages);

    /// The vdom owning \p vpn (kCommonVdom when unprotected / unmapped).
    VdomId vdom_of(hw::Vpn vpn) const;

    /// Charges \p ops at CostTable rates on \p core under \p kind.
    void charge_pt_ops(hw::Core &core, const hw::PtOps &ops,
                       hw::CostKind kind) const;

  private:
    /// Bumps every VDS's TLB generation and flush-alls every core running
    /// the process (eager revocation paths: munmap, vdom assignment).
    void flush_everywhere(hw::Core &core);

    const hw::ArchParams *params_;
    ShootdownManager *shootdown_;
    Journal journal_;
    Wal *wal_ = nullptr;
    Vdm vdm_;
    VmaTree vmas_;
    hw::PageTable shadow_;
    std::vector<std::unique_ptr<Vds>> vdses_;
    std::uint32_t next_vds_id_ = 0;
    hw::Vpn next_vpn_ = 0x1000;  ///< Bump allocator for fresh mappings.
};

/// The guard every API op opens, once: an undo-journal scope for graceful
/// failures plus, when a WAL is attached, the op's write-ahead record for
/// power loss.
///
/// - Construction seals the WAL BEGIN (outermost guard only), then opens
///   the journal scope.
/// - commit() commits the journal scope, then seals the WAL COMMIT, whose
///   payload words may carry the op's results.
/// - Destruction without commit() unwinds this scope's journal entries
///   newest first, then seals an ABORT.
///
/// A power loss is not an unwind: the crash tap copies the durable media
/// at the crossing and the op runs on (sim::FaultPlan::arm_crash), so the
/// guard only ever sees graceful outcomes.
///
/// Guards nest.  An inner commit leaves its journal entries in place so an
/// enclosing rollback still unwinds them, and the log is discarded only
/// when the outermost guard commits.  An inner guard's WAL half is a no-op
/// (`Wal::in_txn()`): the outer op's record subsumes it, and replaying the
/// outer op re-executes the inner one.  A rollback that undid anything
/// emits one kTxnRollback flight record labelled `wal_op_name(op)`, the
/// txn.rollback counter and the txn.journal_depth histogram.
class OpTxn {
  public:
    /// \param core  core charged for WAL appends and undo work, and whose
    ///              clock stamps the rollback flight record.
    /// \param tid   acting thread (0 = kernel/none).
    /// \param a,b,c,d  the WAL BEGIN payload (see WalOp).
    OpTxn(MmStruct &mm, hw::Core &core, WalOp op, std::uint32_t tid,
          std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0,
          std::uint64_t d = 0)
        : journal_(&mm.journal()),
          core_(&core),
          op_(op),
          tid_(tid),
          mark_(mm.journal().entries())
    {
        if (Wal *wal = mm.wal(); wal != nullptr && !wal->in_txn()) {
            wal_txn_ = wal->begin(core, op, tid, a, b, c, d);
            wal_ = wal;
        }
        ++journal_->depth_;
    }

    ~OpTxn()
    {
        if (done_)
            return;
        rollback();
        if (wal_ != nullptr)
            wal_->abort(*core_, wal_txn_);
    }

    OpTxn(const OpTxn &) = delete;
    OpTxn &operator=(const OpTxn &) = delete;

    /// Marks the op successful; \p a and \p b are the WAL COMMIT payload.
    void
    commit(std::uint64_t a = 0, std::uint64_t b = 0)
    {
        if (done_)
            return;
        done_ = true;
        if (--journal_->depth_ == 0)
            journal_->entries_.clear();
        if (wal_ != nullptr)
            wal_->commit(*core_, wal_txn_, a, b);
    }

  private:
    /// Unwinds this scope's journal entries in reverse order.
    void
    rollback()
    {
        Journal &journal = *journal_;
        std::size_t undone = journal.entries_.size() - mark_;
        journal.rolling_back_ = true;
        while (journal.entries_.size() > mark_) {
            journal.entries_.back()();
            journal.entries_.pop_back();
        }
        journal.rolling_back_ = false;
        --journal.depth_;
        if (undone == 0)
            return;  // Fail-stop preamble: nothing happened, stay silent.
        ++journal.rollbacks_;
        telemetry::metric_add(telemetry::Metric::kTxnRollback);
        telemetry::metric_observe(telemetry::Metric::kTxnJournalDepth,
                                  undone);
        telemetry::flight_record(*core_, telemetry::FlightEvent::kTxnRollback,
                                 tid_, 0, static_cast<std::uint64_t>(undone),
                                 0, wal_op_name(op_));
    }

    Journal *journal_;
    hw::Core *core_;
    WalOp op_;
    std::uint32_t tid_;
    std::size_t mark_;  ///< Journal entries recorded before this scope.
    Wal *wal_ = nullptr;
    std::uint64_t wal_txn_ = 0;
    bool done_ = false;
};

}  // namespace vdom::kernel
