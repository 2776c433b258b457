/// \file
/// MmStruct implementation.

#include "kernel/mm.h"

#include "sim/fault.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"

namespace vdom::kernel {

MmStruct::MmStruct(const hw::ArchParams &params, ShootdownManager *shootdown)
    : params_(&params),
      shootdown_(shootdown),
      shadow_(params.pmd_span_pages)
{
    vdses_.push_back(std::make_unique<Vds>(next_vds_id_++, params));
}

Vds *
MmStruct::create_vds()
{
    vdses_.push_back(std::make_unique<Vds>(next_vds_id_++, *params_));
    telemetry::metric_set(telemetry::Metric::kVdsCount, vdses_.size());
    return vdses_.back().get();
}

std::uint64_t
MmStruct::union_cpu_bitmap() const
{
    std::uint64_t bitmap = 0;
    for (const auto &vds : vdses_)
        bitmap |= vds->cpu_bitmap();
    return bitmap;
}

hw::Vpn
MmStruct::mmap(std::uint64_t pages, bool huge)
{
    hw::Vpn saved_next = next_vpn_;
    std::uint64_t span = params_->pmd_span_pages;
    // 2MB-align both huge mappings and any large region: the §5.5 PMD
    // fast path needs vdom areas to cover whole PMD spans (real mmap also
    // aligns big anonymous mappings).
    if (huge || pages >= span)
        next_vpn_ = (next_vpn_ + span - 1) / span * span;
    hw::Vpn start = next_vpn_;
    next_vpn_ += pages;
    // Leave a guard page between regions so adjacent VMAs never coalesce
    // into one vdom accidentally.
    next_vpn_ += 1;
    vmas_.insert(Vma{start, pages, kCommonVdom, huge});
    journal_.record([this, start, saved_next] {
        vmas_.erase(start);
        next_vpn_ = saved_next;
    });
    return start;
}

void
MmStruct::munmap(hw::Core &core, hw::Vpn start, std::uint64_t pages)
{
    auto overlapping = vmas_.overlapping(start, pages);
    for (Vma *vma : overlapping) {
        if (vma->vdom != kCommonVdom)
            vdm_.vdt().remove_range(vma->vdom, start, pages);
    }
    // Eager synchronization (§6.2): remove from shadow and every VDS.
    // Huge-mapped regions drop whole PMD entries (any span the unmap
    // touches is removed entirely — the model does not split THPs).
    bool any_huge = false;
    for (Vma *vma : overlapping)
        any_huge = any_huge || vma->huge;
    hw::PtOps ops;
    auto unmap_in = [&](hw::PageTable &pgd) {
        hw::PtOps out;
        for (std::uint64_t i = 0; i < pages; ++i)
            out += pgd.unmap_page(start + i);
        if (any_huge) {
            std::uint64_t span = params_->pmd_span_pages;
            for (hw::Vpn base = start / span * span; base < start + pages;
                 base += span) {
                out += pgd.unmap_huge(base);
            }
        }
        return out;
    };
    ops += unmap_in(shadow_);
    for (auto &vds : vdses_)
        charge_pt_ops(core, unmap_in(vds->pgd()), hw::CostKind::kMemSync);
    charge_pt_ops(core, ops, hw::CostKind::kMemSync);
    // Every core running the process may cache stale translations.
    flush_everywhere(core);
    // Trim the layout.
    for (Vma *vma : overlapping) {
        hw::Vpn v_start = vma->start;
        std::uint64_t v_pages = vma->pages;
        VdomId v_vdom = vma->vdom;
        bool v_huge = vma->huge;
        vmas_.erase(v_start);
        if (v_start < start) {
            vmas_.insert(Vma{v_start, start - v_start, v_vdom, v_huge});
        }
        hw::Vpn r_end = start + pages;
        hw::Vpn v_end = v_start + v_pages;
        if (v_end > r_end)
            vmas_.insert(Vma{r_end, v_end - r_end, v_vdom, v_huge});
    }
}

VdomStatus
MmStruct::assign_vdom(hw::Core &core, hw::Vpn start, std::uint64_t pages,
                      VdomId vdom)
{
    if (pages == 0)
        return VdomStatus::kInvalidRange;
    if (!vdm_.is_allocated(vdom))
        return VdomStatus::kInvalidVdom;
    auto overlapping = vmas_.overlapping(start, pages);
    if (overlapping.empty())
        return VdomStatus::kInvalidRange;
    // Address-space integrity (§7.2): once a region is assigned a vdom, it
    // cannot be reassigned until process termination.
    for (Vma *vma : overlapping) {
        if (vma->vdom != kCommonVdom && vma->vdom != vdom)
            return VdomStatus::kAlreadyAssigned;
    }
    // Validations passed: everything below mutates, so it runs under a
    // transaction (nests under callers that opened their own).  A VDT
    // allocation failure mid-range unwinds the areas already assigned.
    ScopedTxn txn(journal_, core, 0, "assign_vdom");
    // Rollback must re-invalidate any translation range whose PTEs it
    // rewrites — recorded first so it runs *after* every retag undo.
    auto reflush = std::make_shared<bool>(false);
    journal_.record([this, &core, reflush] {
        if (*reflush)
            flush_everywhere(core);
    });
    // vdom_mprotect protects "pages containing any part within
    // [addr, addr+len-1]" — expand to whole-VMA-clamped page ranges and
    // split VMAs so the protected span is exactly covered.
    hw::PtOps total_ops;
    for (Vma *vma : overlapping) {
        hw::Vpn lo = std::max(vma->start, start);
        hw::Vpn hi = std::min(vma->end(), start + pages);
        hw::Vpn v_start = vma->start;
        std::uint64_t v_pages = vma->pages;
        VdomId v_vdom = vma->vdom;
        bool v_huge = vma->huge;
        if (vma->vdom == vdom && v_start >= start && vma->end() <= start + pages)
            continue;  // Already fully assigned.
        // Injected VDT allocation failure: chaining this area's leaf entry
        // failed.  Fired per area, before the area mutates anything, so a
        // multi-VMA range can fail mid-loop — the transaction restores the
        // areas already converted.
        if (sim::fault_fires(sim::FaultSite::kVdtAllocFail)) {
            telemetry::flight_record(
                {telemetry::FlightEvent::kFaultInjected,
                 static_cast<std::uint32_t>(core.id()), 0,
                 static_cast<std::uint64_t>(core.now()), 0,
                 static_cast<std::uint64_t>(sim::FaultSite::kVdtAllocFail),
                 vdom,
                 sim::fault_site_name(sim::FaultSite::kVdtAllocFail)});
            return VdomStatus::kResourceExhausted;
        }
        vmas_.erase(v_start);
        if (v_start < lo)
            vmas_.insert(Vma{v_start, lo - v_start, kCommonVdom, v_huge});
        vmas_.insert(Vma{lo, hi - lo, vdom, v_huge});
        if (v_start + v_pages > hi)
            vmas_.insert(Vma{hi, v_start + v_pages - hi, kCommonVdom, v_huge});
        journal_.record([this, v_start, v_pages, v_vdom, v_huge, lo, hi] {
            if (v_start < lo)
                vmas_.erase(v_start);
            vmas_.erase(lo);
            if (v_start + v_pages > hi)
                vmas_.erase(hi);
            vmas_.insert(Vma{v_start, v_pages, v_vdom, v_huge});
        });
        vdm_.vdt().add_area(vdom, VdtArea{lo, hi - lo, v_huge});
        journal_.record([this, vdom] { vdm_.vdt().pop_area(vdom); });
        // Eager revocation across every VDS (§6.2): present pages lose
        // their default-pdom tag right away.
        for (auto &vds : vdses_) {
            hw::Pdom tag = params_->access_never_pdom;
            if (auto mapped = vds->pdom_of(vdom))
                tag = *mapped;
            hw::PtOps ops =
                vds->pgd().set_pdom_range(lo, hi - lo, tag, false);
            total_ops += ops;
            charge_pt_ops(core, ops, hw::CostKind::kMemSync);
            if (ops.pte_writes + ops.pmd_writes > 0) {
                // Pages of a kCommonVdom VMA were tagged default before
                // the retag; same-vdom re-assigns rewrite the same tag.
                hw::Pdom old_tag =
                    v_vdom == kCommonVdom ? params_->default_pdom : tag;
                Vds *vp = vds.get();
                std::uint64_t n = hi - lo;
                journal_.record([this, &core, vp, lo, n, old_tag, reflush] {
                    hw::PtOps undo =
                        vp->pgd().set_pdom_range(lo, n, old_tag, false);
                    charge_pt_ops(core, undo, hw::CostKind::kMemSync);
                    if (undo.pte_writes + undo.pmd_writes > 0)
                        *reflush = true;
                });
            }
        }
    }
    // Fresh, never-faulted pages have no live translations anywhere: the
    // process-wide flush is only needed when a PTE actually changed (the
    // common case for httpd's per-request key domains skips it).
    if (total_ops.pte_writes + total_ops.pmd_writes > 0)
        flush_everywhere(core);
    txn.commit();
    return VdomStatus::kOk;
}

void
MmStruct::flush_everywhere(hw::Core &core)
{
    for (auto &vds : vdses_)
        vds->bump_tlb_gen();
    if (!shootdown_)
        return;
    std::uint64_t cpus = union_cpu_bitmap();
    // Anchor the process-wide flush on the initiating core so the issue →
    // receipt arrows in the flight trace hang off a named cause.
    std::uint64_t flow = telemetry::flight_new_flow();
    if (flow) {
        telemetry::flight_record(
            {telemetry::FlightEvent::kFlushAll,
             static_cast<std::uint32_t>(core.id()), 0,
             static_cast<std::uint64_t>(core.now()), flow, cpus});
    }
    shootdown_->shoot(core, cpus, FlushKind::kAll, 0, 0, 0, false, flow);
    shootdown_->local_flush(core, FlushKind::kAll);
    // The flush-all scrubbed every entry on those cores: record the new
    // generations so switch-in does not pay a redundant flush.
    std::uint64_t covered = cpus | (1ULL << core.id());
    for (auto &vds : vdses_) {
        for (std::size_t c = 0; c < 64; ++c) {
            if (covered & (1ULL << c))
                vds->set_core_seen_gen(c, vds->tlb_gen());
        }
    }
}

bool
MmStruct::fault_in(hw::Core &core, Vds &vds, hw::Vpn vpn)
{
    const Vma *vma = vmas_.find(vpn);
    if (!vma)
        return false;
    telemetry::metric_add(telemetry::Metric::kFaultIn, 1, core.id());
    // Already mapped in this VDS (e.g. remapped by the virtualization
    // algorithm between the fault and this handler): nothing to do.
    if (vds.pgd().translate(vpn).present)
        return true;
    const hw::CostTable &costs = params_->costs;
    hw::Pdom tag = params_->default_pdom;
    if (vma->vdom != kCommonVdom) {
        tag = params_->access_never_pdom;
        if (auto mapped = vds.pdom_of(vma->vdom))
            tag = *mapped;
    }
    if (vma->huge) {
        hw::Vpn base =
            vpn / params_->pmd_span_pages * params_->pmd_span_pages;
        hw::Translation in_shadow = shadow_.translate(base);
        if (!in_shadow.present) {
            // First touch anywhere in the process: populate the shadow.
            charge_pt_ops(core, shadow_.map_huge(base, params_->default_pdom),
                          hw::CostKind::kFault);
        } else {
            // Present elsewhere: this is cross-VDS demand paging (§6.2).
            core.charge(hw::CostKind::kMemSync, costs.memsync_page);
            telemetry::metric_add(telemetry::Metric::kMemsyncPages, 1,
                                  core.id());
        }
        charge_pt_ops(core, vds.pgd().map_huge(base, tag),
                      hw::CostKind::kMemSync);
        return true;
    }
    hw::Translation in_shadow = shadow_.translate(vpn);
    if (!in_shadow.present) {
        charge_pt_ops(core, shadow_.map_page(vpn, params_->default_pdom),
                      hw::CostKind::kFault);
    } else {
        core.charge(hw::CostKind::kMemSync, costs.memsync_page);
        telemetry::metric_add(telemetry::Metric::kMemsyncPages, 1,
                              core.id());
    }
    charge_pt_ops(core, vds.pgd().map_page(vpn, tag), hw::CostKind::kMemSync);
    return true;
}

hw::PtOps
MmStruct::install_vdom_in_vds(hw::Core &core, Vds &vds, VdomId vdom,
                              hw::Pdom pdom, hw::CostKind kind)
{
    hw::PtOps total;
    const std::vector<VdtArea> &areas = vdm_.vdt().areas(vdom);
    for (const VdtArea &area : areas) {
        if (area.huge) {
            for (hw::Vpn base = area.start;
                 base < area.start + area.pages;
                 base += params_->pmd_span_pages) {
                if (shadow_.translate(base).present)
                    total += vds.pgd().map_huge(base, pdom);
            }
            continue;
        }
        for (std::uint64_t i = 0; i < area.pages; ++i) {
            hw::Vpn vpn = area.start + i;
            hw::Translation in_vds = vds.pgd().translate(vpn);
            if (in_vds.present || in_vds.pmd_disabled) {
                // Present (possibly under a disabled PMD): retag the whole
                // remaining area in one call to benefit from the §5.5 PMD
                // fast path, then stop the per-page loop.
                total += vds.pgd().set_pdom_range(
                    vpn, area.pages - i, pdom,
                    params_->knobs.pmd_fast_path);
                break;
            }
            if (shadow_.translate(vpn).present)
                total += vds.pgd().map_page(vpn, pdom);
        }
    }
    // Remapping retags live translations: TLB entries cached since the
    // eviction flush (e.g. filled by a denied access, which still installs
    // the translation on real hardware) would otherwise serve the stale
    // access-never tag forever.  Same minimal-invalidation policy as
    // eviction; cores not running the VDS catch up via the generation
    // check at switch-in.
    vds.bump_tlb_gen();
    bool local_runs_vds = core.pgd() == &vds.pgd();
    if (shootdown_ && local_runs_vds) {
        bool flushed_asid = false;
        for (const VdtArea &area : areas) {
            if (area.pages <= params_->range_flush_max_pages) {
                shootdown_->local_flush(core, FlushKind::kRange,
                                        core.asid(), area.start,
                                        area.pages);
            } else if (!flushed_asid) {
                shootdown_->local_flush(core, FlushKind::kAsid,
                                        core.asid());
                flushed_asid = true;
            }
        }
        vds.set_core_seen_gen(core.id(), vds.tlb_gen());
    }
    if (shootdown_) {
        std::uint64_t others = params_->knobs.narrow_shootdown
            ? vds.cpu_bitmap()
            : union_cpu_bitmap();
        others &= ~(1ULL << core.id());
        if (others) {
            std::uint64_t flow = telemetry::flight_new_flow();
            if (flow) {
                telemetry::flight_record(
                    {telemetry::FlightEvent::kVdomInstall,
                     static_cast<std::uint32_t>(core.id()), 0,
                     static_cast<std::uint64_t>(core.now()), flow, vdom,
                     vds.id()});
            }
            shootdown_->shoot(core, others, FlushKind::kAsid, 0, 0, 0,
                              /*target_current_asid=*/true, flow);
            for (std::size_t c = 0; c < 64; ++c) {
                if (others & (1ULL << c))
                    vds.set_core_seen_gen(c, vds.tlb_gen());
            }
        }
    }
    charge_pt_ops(core, total, kind);
    return total;
}

hw::PtOps
MmStruct::evict_vdom_from_vds(hw::Core &core, Vds &vds, VdomId vdom)
{
    hw::PtOps total;
    vds.bump_tlb_gen();
    // The precise local flush applies only when this core currently runs
    // the VDS (core.asid() then names it); otherwise cores pick the change
    // up lazily via the TLB-generation check at switch-in.
    bool local_runs_vds = core.pgd() == &vds.pgd();
    bool flushed_asid = false;
    for (const VdtArea &area : vdm_.vdt().areas(vdom)) {
        total += vds.pgd().disable_range(area.start, area.pages,
                                         params_->access_never_pdom,
                                         params_->knobs.pmd_fast_path);
        // §5.5: minimal invalidation — range flush small areas, whole-ASID
        // flush for large ones (processors charge range flushes per page).
        if (shootdown_ && local_runs_vds) {
            if (area.pages <= params_->range_flush_max_pages) {
                shootdown_->local_flush(core, FlushKind::kRange, core.asid(),
                                        area.start, area.pages);
            } else if (!flushed_asid) {
                shootdown_->local_flush(core, FlushKind::kAsid, core.asid());
                flushed_asid = true;
            }
        }
    }
    // Remote invalidation only where the VDS actually runs (CPU bitmap);
    // with narrowing ablated, broadcast to every core of the process.
    if (shootdown_) {
        std::uint64_t others = params_->knobs.narrow_shootdown
            ? vds.cpu_bitmap()
            : union_cpu_bitmap();
        others &= ~(1ULL << core.id());
        if (others) {
            std::uint64_t flow = telemetry::flight_new_flow();
            if (flow) {
                telemetry::flight_record(
                    {telemetry::FlightEvent::kVdomEvict,
                     static_cast<std::uint32_t>(core.id()), 0,
                     static_cast<std::uint64_t>(core.now()), flow, vdom,
                     vds.id()});
            }
            shootdown_->shoot(core, others, FlushKind::kAsid, 0, 0, 0,
                              /*target_current_asid=*/true, flow);
            for (std::size_t c = 0; c < 64; ++c) {
                if (others & (1ULL << c))
                    vds.set_core_seen_gen(c, vds.tlb_gen());
            }
        }
    }
    if (local_runs_vds)
        vds.set_core_seen_gen(core.id(), vds.tlb_gen());
    charge_pt_ops(core, total, hw::CostKind::kEviction);
    return total;
}

std::uint64_t
MmStruct::reclaim_range(hw::Core &core, hw::Vpn start, std::uint64_t pages)
{
    std::uint64_t reclaimed = 0;
    hw::PtOps ops;
    for (std::uint64_t i = 0; i < pages; ++i) {
        hw::Vpn vpn = start + i;
        if (!shadow_.translate(vpn).present)
            continue;
        ops += shadow_.unmap_page(vpn);
        for (auto &vds : vdses_)
            ops += vds->pgd().unmap_page(vpn);
        ++reclaimed;
    }
    if (reclaimed > 0) {
        charge_pt_ops(core, ops, hw::CostKind::kMemSync);
        // Reclaim invalidates live translations everywhere the process
        // runs (kswapd batches one flush per scan pass).
        flush_everywhere(core);
    }
    return reclaimed;
}

VdomId
MmStruct::vdom_of(hw::Vpn vpn) const
{
    const Vma *vma = vmas_.find(vpn);
    return vma ? vma->vdom : kCommonVdom;
}

void
MmStruct::charge_pt_ops(hw::Core &core, const hw::PtOps &ops,
                        hw::CostKind kind) const
{
    const hw::CostTable &costs = params_->costs;
    hw::Cycles cycles =
        costs.pte_update * static_cast<hw::Cycles>(ops.pte_writes) +
        costs.pmd_update * static_cast<hw::Cycles>(ops.pmd_writes);
    // Injected PTE write delay: one write hit a stalled cacheline and was
    // re-issued — pure extra latency, no state change.
    if ((ops.pte_writes || ops.pmd_writes) &&
        sim::fault_fires(sim::FaultSite::kPteWriteDelay)) {
        cycles += costs.pte_update;
        telemetry::flight_record(
            {telemetry::FlightEvent::kFaultInjected,
             static_cast<std::uint32_t>(core.id()), 0,
             static_cast<std::uint64_t>(core.now()), 0,
             static_cast<std::uint64_t>(sim::FaultSite::kPteWriteDelay),
             ops.pte_writes,
             sim::fault_site_name(sim::FaultSite::kPteWriteDelay)});
    }
    core.charge(kind, cycles);
}

}  // namespace vdom::kernel
