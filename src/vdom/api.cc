/// \file
/// VDom API implementation.

#include "vdom/api.h"

#include "sim/fault.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace vdom {

namespace tm = ::vdom::telemetry;

namespace {

/// Records elapsed simulated cycles into a latency histogram at scope exit
/// (covers every return path of the instrumented call).
class LatencyProbe {
  public:
    LatencyProbe(tm::Metric metric, const hw::Core &core)
        : metric_(metric), core_(&core), start_(core.now())
    {
    }

    ~LatencyProbe()
    {
        tm::metric_observe(metric_,
                           static_cast<std::uint64_t>(core_->now() - start_));
    }

    LatencyProbe(const LatencyProbe &) = delete;
    LatencyProbe &operator=(const LatencyProbe &) = delete;

  private:
    tm::Metric metric_;
    const hw::Core *core_;
    hw::Cycles start_;
};

}  // namespace

VdomSystem::VdomSystem(kernel::Process &proc)
    : proc_(&proc),
      virt_(proc),
      gate_(proc.params().access_never_pdom)
{
}

VdomStatus
VdomSystem::vdom_init(hw::Core &core)
{
    if (initialized_)
        return VdomStatus::kOk;
    const hw::CostTable &costs = core.costs();
    core.charge(hw::CostKind::kSyscall, costs.syscall);
    // Allocate the API region (VDR arrays + secure sharing page) and lock
    // it under the access-never pdom for the whole process lifetime (§6.3).
    // Transactional: a fault during the assignment must not leave the
    // region's VMA behind (or api_region_ pointing at unlocked pages).
    kernel::MmStruct &mm = proc_->mm();
    // WAL intent first (write-ahead): a crash mid-op replays or drops the
    // whole init depending on whether the COMMIT record got sealed.
    kernel::OpTxn txn(mm, core, kernel::WalOp::kVdomInit, 0);
    hw::Vpn region = mm.mmap(kApiRegionPages);
    VdomStatus st = mm.assign_vdom(core, region, kApiRegionPages, kApiVdom);
    if (st != VdomStatus::kOk)
        return st;  // Rollback unwinds the mmap and seals an ABORT.
    // Touch the pages so they are present (and pdom1-tagged) everywhere.
    for (std::uint64_t i = 0; i < kApiRegionPages; ++i)
        mm.fault_in(core, *mm.vds0(), region + i);
    api_region_ = region;
    initialized_ = true;
    txn.commit(region);
    return VdomStatus::kOk;
}

VdomId
VdomSystem::vdom_alloc(hw::Core &core, bool frequent)
{
    if (!initialized_)
        return kInvalidVdom;
    core.charge(hw::CostKind::kSyscall, core.costs().syscall);
    kernel::MmStruct &mm = proc_->mm();
    // Logged so replay reproduces the allocator's id-recycling sequence;
    // the COMMIT payload carries the id for replay-divergence checks.
    kernel::OpTxn txn(mm, core, kernel::WalOp::kVdomAlloc, 0,
                      frequent ? 1 : 0);
    VdomId id = mm.vdm().alloc(frequent);
    if (id != kInvalidVdom)
        txn.commit(id);
    return id;
}

VdomStatus
VdomSystem::vdom_free(hw::Core &core, VdomId vdom)
{
    if (!initialized_)
        return VdomStatus::kNotInitialized;
    if (vdom == kCommonVdom || vdom == kApiVdom)
        return VdomStatus::kPermissionDenied;
    kernel::MmStruct &mm = proc_->mm();
    if (!mm.vdm().is_allocated(vdom))
        return VdomStatus::kInvalidVdom;
    core.charge(hw::CostKind::kSyscall, core.costs().syscall);
    kernel::OpTxn txn(mm, core, kernel::WalOp::kVdomFree, 0, vdom);
    // Unmap from every VDS that holds it; the pages return to the
    // access-never pdom until (if ever) reassigned.
    for (const auto &vds : mm.vdses()) {
        if (auto pdom = vds->pdom_of(vdom)) {
            // Clear the hardware slot on every core currently running
            // this VDS: the pdom is about to be recycled and a stale FA
            // must not survive onto its next occupant.
            hw::Machine &machine = proc_->machine();
            for (std::size_t c = 0; c < machine.num_cores(); ++c) {
                if (vds->cpu_bitmap() & (1ULL << c)) {
                    machine.core(c).perm_reg().set(
                        *pdom, hw::Perm::kAccessDisable);
                }
            }
            mm.evict_vdom_from_vds(core, *vds, vdom);
            vds->unmap_pdom(*pdom);
        }
    }
    // Scrub the id from every thread's VDR: vdom_alloc may recycle it,
    // and a stale grant must not carry over to the new incarnation
    // (DESIGN.md invariant 1).
    for (const auto &t : proc_->tasks()) {
        Vdr *vdr = t->vdr();
        if (!vdr)
            continue;
        if (vperm_active(vdr->get(vdom)))
            t->clear_ref_home(vdom);
        vdr->set(vdom, VPerm::kAccessDisable);
    }
    mm.vdm().free(vdom);
    txn.commit();
    return VdomStatus::kOk;
}

VdomStatus
VdomSystem::vdom_mprotect(hw::Core &core, hw::Vpn vpn, std::uint64_t pages,
                          VdomId vdom)
{
    if (!initialized_)
        return VdomStatus::kNotInitialized;
    if (vdom == kApiVdom)
        return VdomStatus::kPermissionDenied;
    const hw::CostTable &costs = core.costs();
    core.charge(hw::CostKind::kSyscall,
                costs.syscall + costs.mprotect_base);
    kernel::MmStruct &mm = proc_->mm();
    // The WAL half is a nested no-op when an outer op (secure grow,
    // sandbox, pmo_attach) already holds the WAL transaction — its record
    // subsumes this one.
    kernel::OpTxn txn(mm, core, kernel::WalOp::kMprotect, 0, vpn, pages,
                      vdom);
    VdomStatus st = mm.assign_vdom(core, vpn, pages, vdom);
    if (st == VdomStatus::kOk)
        txn.commit();
    return st;
}

VdomStatus
VdomSystem::vdom_mprotect_bytes(hw::Core &core, hw::VAddr addr,
                                std::uint64_t len, VdomId vdom)
{
    if (len == 0 || len - 1 > ~addr)  // ~addr: bytes above addr.
        return VdomStatus::kInvalidRange;
    std::uint64_t ps = proc_->params().page_size;
    hw::Vpn first = addr / ps;
    hw::Vpn last = (addr + len - 1) / ps;
    return vdom_mprotect(core, first, last - first + 1, vdom);
}

VdomStatus
VdomSystem::vdr_alloc(hw::Core &core, kernel::Task &task, std::size_t nas)
{
    if (!initialized_)
        return VdomStatus::kNotInitialized;
    if (task.has_vdr())
        return VdomStatus::kVdrInUse;
    core.charge(hw::CostKind::kSyscall, core.costs().syscall);
    // Injected VDR slot exhaustion: the kernel entry was paid but no VDR
    // exists afterwards — the thread can retry once slots free up.
    if (sim::fault_fires(core.faults(), sim::FaultSite::kVdrExhausted)) {
        tm::flight_record(
            core, tm::FlightEvent::kFaultInjected, task.tid(), 0,
            static_cast<std::uint64_t>(sim::FaultSite::kVdrExhausted), 0,
            sim::fault_site_name(sim::FaultSite::kVdrExhausted));
        return VdomStatus::kResourceExhausted;
    }
    kernel::OpTxn txn(proc_->mm(), core, kernel::WalOp::kVdrAlloc,
                      task.tid(), nas);
    task.alloc_vdr(nas == 0 ? 1 : nas);
    task.add_owned(task.vds());
    txn.commit();
    return VdomStatus::kOk;
}

VdomStatus
VdomSystem::vdr_free(hw::Core &core, kernel::Task &task)
{
    if (!task.has_vdr())
        return VdomStatus::kNoVdr;
    core.charge(hw::CostKind::kSyscall, core.costs().syscall);
    kernel::OpTxn txn(proc_->mm(), core, kernel::WalOp::kVdrFree,
                      task.tid());
    // Drop this thread's active references wherever they live.
    task.for_each_ref_home([](VdomId v, kernel::Vds *home) {
        if (home)
            home->remove_thread_ref(v);
    });
    task.free_vdr();
    core.perm_reg().reset();
    txn.commit();
    return VdomStatus::kOk;
}

void
VdomSystem::charge_api_entry(hw::Core &core, ApiMode mode)
{
    const hw::CostTable &costs = core.costs();
    const hw::ArchParams &params = proc_->params();
    // NB: Cycles is double, so the charge sequence (not just the per-kind
    // sum) is part of the reproducible output — do not merge charges.
    core.charge(hw::CostKind::kApi, costs.api_call);
    if (params.user_perm_reg) {
        // Intel: user-space PKRU path, optionally through the call gate.
        if (mode == ApiMode::kSecure)
            core.charge(hw::CostKind::kApi, costs.secure_gate);
    } else {
        // ARM: the DACR write is privileged — every call syscalls.
        core.charge(hw::CostKind::kSyscall, costs.syscall);
    }
}

void
VdomSystem::sync_hw_slot(hw::Core &core, kernel::Task &task, VdomId vdom,
                         hw::Pdom pdom)
{
    // The hardware register belongs to whichever task is installed on the
    // core: a cross-thread VDR update (e.g. a kernel-side revocation on
    // the target's behalf) must not clobber an unrelated running thread's
    // register image — the VDR change takes effect when the target is
    // next installed (Process::rebuild_perm_reg).
    kernel::Task *installed = proc_->running_on(core.id());
    if (installed && installed != &task)
        return;
    const Vdr *vdr = task.vdr();
    VPerm perm = vdr ? vdr->get(vdom) : VPerm::kAccessDisable;
    core.perm_reg().set(pdom, to_hw_perm(perm));
}

VdomStatus
VdomSystem::wrvdr(hw::Core &core, kernel::Task &task, VdomId vdom,
                  VPerm perm, ApiMode mode)
{
    if (!initialized_)
        return VdomStatus::kNotInitialized;
    if (!task.has_vdr())
        return VdomStatus::kNoVdr;
    if (vdom == kApiVdom)
        return VdomStatus::kPermissionDenied;
    if (!proc_->mm().vdm().is_allocated(vdom))
        return VdomStatus::kInvalidVdom;

    tm::metric_add(tm::Metric::kWrvdrCalls);
    tm::Span span("wrvdr", core, task.tid());
    LatencyProbe latency(tm::Metric::kWrvdrLatency, core);

    const hw::CostTable &costs = core.costs();
    // Injected call-gate entry denial (§6.3): the trusted entry aborted
    // before reading the VDR.  The aborted entry still costs a call, but
    // nothing is mutated — the caller may simply retry.
    if (mode == ApiMode::kSecure &&
        sim::fault_fires(core.faults(), sim::FaultSite::kGateEntryDenied)) {
        core.charge(hw::CostKind::kApi, costs.api_call);
        tm::flight_record(
            core, tm::FlightEvent::kFaultInjected, task.tid(), 0,
            static_cast<std::uint64_t>(sim::FaultSite::kGateEntryDenied), vdom,
            sim::fault_site_name(sim::FaultSite::kGateEntryDenied));
        return VdomStatus::kTransientFault;
    }
    charge_api_entry(core, mode);
    // VDR array update + permission arithmetic + register read/write.
    // (Separate charges: Cycles is double, so merging them would perturb
    // the floating-point accumulation order.)
    core.charge(hw::CostKind::kPermReg, costs.vdr_update + costs.perm_compute);
    if (proc_->params().user_perm_reg)
        core.charge(hw::CostKind::kPermReg, costs.perm_reg_read);
    core.charge(hw::CostKind::kPermReg, costs.perm_reg_write);

    // Everything past this point mutates: the VDR array write, the mapping
    // machinery, the thread-reference bookkeeping.  The transaction makes
    // every failure exit below all-or-nothing.
    kernel::MmStruct &mm = proc_->mm();
    kernel::OpTxn txn(mm, core, kernel::WalOp::kWrvdr, task.tid(), vdom,
                      static_cast<std::uint64_t>(perm));

    Vdr &vdr = *task.vdr();
    VPerm old = vdr.set(vdom, perm);
    {
        Vdr *vp = &vdr;
        mm.journal().record([vp, vdom, old] { vp->set(vdom, old); });
    }

    // Injected permission-register write failure: the VDR array write has
    // landed but the register write keeps bouncing; each re-issue is
    // charged, and past the budget the call gives up — the rollback
    // restores the VDR, so no state diverges.
    for (int retry = 1;
         sim::fault_fires(core.faults(), sim::FaultSite::kPermRegWriteFail);
         ++retry) {
        tm::flight_record(
            core, tm::FlightEvent::kFaultInjected, task.tid(), 0,
            static_cast<std::uint64_t>(sim::FaultSite::kPermRegWriteFail),
            static_cast<std::uint64_t>(retry),
            sim::fault_site_name(sim::FaultSite::kPermRegWriteFail));
        if (retry > kMaxPermRegRetries)
            return VdomStatus::kRetriesExhausted;
        core.charge(hw::CostKind::kPermReg, costs.perm_reg_write);
    }

    if (vperm_active(perm)) {
        // Granting access: the vdom must be mapped somewhere usable (the
        // algorithm may switch/migrate the thread, §5.4).  On ARM the API
        // already runs in the kernel (the DACR write is privileged), so
        // the slow path does not pay a second kernel entry.
        auto pdom = virt_.ensure_mapped(
            core, task, vdom,
            /*charge_kernel_entry=*/proc_->params().user_perm_reg);
        if (!pdom)
            return VdomStatus::kInvalidVdom;  // Rollback restores the VDR.
        kernel::Vds *after = task.vds();
        kernel::Task *tp = &task;
        if (!vperm_active(old)) {
            after->add_thread_ref(vdom);
            task.set_ref_home(vdom, after);
            mm.journal().record([tp, after, vdom] {
                tp->clear_ref_home(vdom);
                after->remove_thread_ref(vdom);
            });
        } else if (kernel::Vds *home = task.ref_home(vdom);
                   home != after) {
            // Already active, but the grant landed in a different VDS
            // (the algorithm switched/remapped): move the reference.
            if (home)
                home->remove_thread_ref(vdom);
            after->add_thread_ref(vdom);
            task.set_ref_home(vdom, after);
            mm.journal().record([tp, home, after, vdom] {
                after->remove_thread_ref(vdom);
                if (home) {
                    home->add_thread_ref(vdom);
                    tp->set_ref_home(vdom, home);
                } else {
                    tp->clear_ref_home(vdom);
                }
            });
        }
        after->touch(vdom, core.now());
        sync_hw_slot(core, task, vdom, *pdom);
    } else {
        // Revoking access: drop the reference on the VDS that holds it
        // (not necessarily the current one) and clear the hardware slot.
        if (vperm_active(old)) {
            kernel::Vds *home = task.ref_home(vdom);
            kernel::Vds *holder = home ? home : task.vds();
            holder->remove_thread_ref(vdom);
            task.clear_ref_home(vdom);
            kernel::Task *tp = &task;
            bool had_home = home != nullptr;
            mm.journal().record([tp, holder, vdom, had_home] {
                holder->add_thread_ref(vdom);
                if (had_home)
                    tp->set_ref_home(vdom, holder);
            });
        }
        if (auto pdom = task.vds()->pdom_of(vdom))
            sync_hw_slot(core, task, vdom, *pdom);
    }
    txn.commit();
    return VdomStatus::kOk;
}

VdomStatus
VdomSystem::rdvdr(hw::Core &core, kernel::Task &task, VdomId vdom,
                  VPerm *out, ApiMode mode)
{
    tm::metric_add(tm::Metric::kRdvdrCalls);
    if (out)
        *out = VPerm::kAccessDisable;
    if (!initialized_)
        return VdomStatus::kNotInitialized;
    if (!task.has_vdr())
        return VdomStatus::kNoVdr;
    if (vdom == kApiVdom)
        return VdomStatus::kPermissionDenied;
    if (!proc_->mm().vdm().is_allocated(vdom))
        return VdomStatus::kInvalidVdom;
    const hw::CostTable &costs = core.costs();
    charge_api_entry(core, mode);
    core.charge(hw::CostKind::kPermReg, costs.vdr_update);
    if (out)
        *out = task.vdr()->get(vdom);
    return VdomStatus::kOk;
}

VPerm
VdomSystem::rdvdr(hw::Core &core, kernel::Task &task, VdomId vdom,
                  ApiMode mode)
{
    VPerm perm = VPerm::kAccessDisable;
    rdvdr(core, task, vdom, &perm, mode);
    return perm;
}

VAccess
VdomSystem::access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                   bool write)
{
    kernel::MmStruct &mm = proc_->mm();
    const hw::CostTable &costs = core.costs();

    for (int attempt = 0; attempt < 4; ++attempt) {
        hw::AccessResult res = hw::Mmu::access(core, vpn, write);
        if (res.outcome == hw::AccessOutcome::kOk)
            return VAccess{true, false, res.pdom};

        tm::metric_add(tm::Metric::kFaultsHandled);
        tm::Span fault_span("fault", core, task.tid());
        LatencyProbe fault_latency(tm::Metric::kFaultLatency, core);
        core.charge(hw::CostKind::kFault, costs.fault_entry);
        VdomId vdom = mm.vdom_of(vpn);
        tm::flight_event(core, tm::FlightEvent::kFault, task.tid(), vdom,
                         task.vds()->id(), task.vds()->id());

        // §6.2: the kernel identifies the vdom via the VMA's extended
        // vm_flags and inspects the per-thread VDR; violations SIGSEGV.
        const kernel::Vma *vma = mm.vmas().find(vpn);
        if (!vma) {
            tm::metric_add(tm::Metric::kSigsegv);
            return VAccess{false, true, 0};
        }
        bool allowed = true;
        if (vdom == kApiVdom) {
            // API data: legal only while inside the call gate (pdom1 open).
            allowed = gate_.inside(core);
        } else if (vdom != kCommonVdom) {
            const Vdr *vdr = task.vdr();
            VPerm perm = vdr ? vdr->get(vdom) : VPerm::kAccessDisable;
            allowed =
                write ? perm == VPerm::kFullAccess : vperm_active(perm);
        }
        if (!allowed) {
            tm::metric_add(tm::Metric::kSigsegv);
            tm::flight_event(core, tm::FlightEvent::kSigsegv, task.tid(), vdom,
                             task.vds()->id(), task.vds()->id());
            return VAccess{false, true, 0};
        }

        // Legitimate fault: demand paging and/or an unmapped / evicted
        // vdom.  Make the vdom usable, fault the page in, and retry.
        if (vdom != kCommonVdom && vdom != kApiVdom) {
            auto pdom = virt_.ensure_mapped(core, task, vdom, false);
            if (pdom)
                sync_hw_slot(core, task, vdom, *pdom);
        }
        if (!mm.fault_in(core, *task.vds(), vpn)) {
            tm::metric_add(tm::Metric::kSigsegv);
            return VAccess{false, true, 0};
        }
    }
    tm::metric_add(tm::Metric::kSigsegv);
    return VAccess{false, true, 0};
}

}  // namespace vdom
