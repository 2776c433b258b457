/// \file
/// TLB shootdown manager (§5.5).
///
/// The VDom kernel "keeps track of the ASIDs and CPU bitmaps of all VDSes
/// to reduce excessive inter-processor TLB flushes": only cores whose bit
/// is set in a VDS's bitmap receive an IPI.  The libmpk baseline, by
/// contrast, broadcasts to every core running the process — the behaviour
/// behind Figure 1's shootdown wedge.

#pragma once

#include <algorithm>
#include <cstdint>

#include "hw/arch.h"
#include "hw/machine.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace vdom::kernel {

/// Remote-flush request kinds.
enum class FlushKind : std::uint8_t {
    kAll,    ///< Flush every entry.
    kAsid,   ///< Flush one ASID.
    kRange,  ///< Flush a page range within an ASID (§5.5 range flushes).
};

/// Shootdown statistics.
struct ShootdownStats {
    std::uint64_t shootdowns = 0;
    std::uint64_t ipis = 0;
    std::uint64_t retries = 0;  ///< Dropped IPIs that were re-posted.
};

/// Executes TLB shootdowns over the simulated machine.
class ShootdownManager {
  public:
    explicit ShootdownManager(hw::Machine &machine) : machine_(&machine) {}

    /// Flushes \p kind on every core in \p cpu_bitmap except the initiator.
    ///
    /// Applies target flushes immediately (the simulator's causality
    /// guarantee — no stale entries survive), charging:
    ///   initiator: ipi_post per target + ipi_wait per target,
    ///   each target: ipi_handle + the flush itself.
    ///
    /// \param asid  target ASID (kAsid/kRange).  ASIDs are per-core on X86
    ///        (PCID), so when \p target_current_asid is set, each remote
    ///        core flushes its *own* current ASID instead — the right
    ///        semantics when shooting cores that are running the VDS whose
    ///        tables changed.
    /// \param vpn,count  page range (kRange).
    /// \param flow  causality id threading this shootdown into a larger
    ///        interaction (ASID rollover, eviction, flush-everywhere); 0
    ///        allocates a fresh flow when a flight recorder is attached.
    void
    shoot(hw::Core &initiator, std::uint64_t cpu_bitmap, FlushKind kind,
          hw::Asid asid = 0, hw::Vpn vpn = 0, std::uint64_t count = 0,
          bool target_current_asid = false, std::uint64_t flow = 0)
    {
        const hw::CostTable &costs = initiator.costs();
        hw::Cycles start = initiator.now();
        std::uint64_t ipis = 0;
        std::uint64_t retries = 0;
        // Flight recorder: the issue record must precede every receipt in
        // program order, so the fan-out is pre-counted off-path.  All of
        // this is skipped (one branch) when no recorder is attached, and
        // it never touches simulated time.
        telemetry::FlightRecorder *flight = telemetry::flight_sink();
        std::uint64_t use_flow = 0;
        if (flight) {
            std::uint64_t fanout = 0;
            for (std::size_t c = 0; c < machine_->num_cores(); ++c)
                if (c != initiator.id() && (cpu_bitmap & (1ULL << c)))
                    ++fanout;
            if (fanout) {
                use_flow = flow ? flow : flight->new_flow();
                flight->record(
                    {telemetry::FlightEvent::kShootdownIssue,
                     static_cast<std::uint32_t>(initiator.id()), 0,
                     static_cast<std::uint64_t>(start), use_flow, fanout,
                     static_cast<std::uint64_t>(kind)});
            }
        }
        hw::Cycles last_done = start;
        for (std::size_t c = 0; c < machine_->num_cores(); ++c) {
            if (c == initiator.id() || !(cpu_bitmap & (1ULL << c)))
                continue;
            hw::Core &target = machine_->core(c);
            // An injected IPI drop times out on the initiator, which
            // re-posts with capped exponential backoff (1x, 2x, 4x, ...
            // up to 2^kMaxBackoffShift x ipi_wait): colliding initiators
            // de-synchronize instead of re-posting in lockstep, and the
            // deterministic doubling keeps replays bit-identical.
            // Delivery is guaranteed within kMaxIpiRetries: after the
            // last drop the re-post below goes through unconditionally.
            for (int attempt = 1;
                 attempt <= kMaxIpiRetries &&
                 sim::fault_fires(sim::FaultSite::kIpiDrop);
                 ++attempt) {
                hw::Cycles backoff =
                    costs.ipi_wait *
                    static_cast<hw::Cycles>(
                        1ULL << std::min(attempt - 1, kMaxBackoffShift));
                initiator.charge(hw::CostKind::kShootdown,
                                 costs.ipi_post + backoff);
                telemetry::metric_observe(
                    telemetry::Metric::kShootdownBackoff,
                    static_cast<std::uint64_t>(backoff), initiator.id());
                ++retries;
                telemetry::metric_add(
                    telemetry::Metric::kShootdownRetries, 1,
                    initiator.id());
                telemetry::flight_record(
                    {telemetry::FlightEvent::kIpiRetry,
                     static_cast<std::uint32_t>(initiator.id()), 0,
                     static_cast<std::uint64_t>(initiator.now()), use_flow,
                     static_cast<std::uint64_t>(attempt), c});
            }
            target.charge(hw::CostKind::kShootdown, costs.ipi_handle);
            telemetry::flight_record(
                {telemetry::FlightEvent::kIpiReceive,
                 static_cast<std::uint32_t>(c), 0,
                 static_cast<std::uint64_t>(target.now()), use_flow});
            hw::Asid use = target_current_asid ? target.asid() : asid;
            apply_flush(target, kind, use, vpn, count);
            telemetry::flight_record(
                {telemetry::FlightEvent::kRemoteFlush,
                 static_cast<std::uint32_t>(c), 0,
                 static_cast<std::uint64_t>(target.now()), use_flow, use,
                 static_cast<std::uint64_t>(kind)});
            last_done = std::max(last_done, target.now());
            initiator.charge(hw::CostKind::kShootdown,
                             costs.ipi_post + costs.ipi_wait);
            ++ipis;
        }
        if (ipis) {
            ++stats_.shootdowns;
            stats_.ipis += ipis;
            stats_.retries += retries;
            sim::trace({sim::TraceEvent::kShootdown, initiator.now(), 0,
                        kInvalidVdom, 0, 0,
                        static_cast<std::uint32_t>(initiator.id())});
            std::size_t shard = initiator.id();
            telemetry::metric_add(telemetry::Metric::kShootdowns, 1, shard);
            telemetry::metric_add(telemetry::Metric::kShootdownIpis, ipis,
                                  shard);
            // Initiator-side latency: posting the IPIs and waiting for
            // every target's acknowledgement.
            telemetry::metric_observe(
                telemetry::Metric::kShootdownLatency,
                static_cast<std::uint64_t>(initiator.now() - start), shard);
            // Flow shape: fan-out, and end-to-end latency from issue to
            // the last remote flush completion (target clocks can trail
            // the initiator's, so clamp at the initiator-side wait).
            telemetry::metric_observe(telemetry::Metric::kShootdownFanout,
                                      ipis, shard);
            hw::Cycles e2e_end = std::max(last_done, initiator.now());
            telemetry::metric_observe(
                telemetry::Metric::kShootdownE2eLatency,
                static_cast<std::uint64_t>(e2e_end - start), shard);
            telemetry::span_instant(
                "shootdown", static_cast<std::uint64_t>(initiator.now()),
                static_cast<std::uint32_t>(initiator.id()), 0, "kernel");
        }
    }

    /// Applies a local flush on \p core, charging flush cycles.
    void
    local_flush(hw::Core &core, FlushKind kind, hw::Asid asid = 0,
                hw::Vpn vpn = 0, std::uint64_t count = 0)
    {
        apply_flush(core, kind, asid, vpn, count);
    }

    /// Broadcast flush-all to every core (ARM ASID rollover).  \p flow
    /// threads the triggering interaction's causality id through the
    /// shootdown (0 = allocate fresh).
    void
    broadcast_flush_all(hw::Core &initiator, std::uint64_t flow = 0)
    {
        std::uint64_t all = (machine_->num_cores() >= 64)
            ? ~0ULL
            : ((1ULL << machine_->num_cores()) - 1);
        shoot(initiator, all, FlushKind::kAll, 0, 0, 0, false, flow);
        local_flush(initiator, FlushKind::kAll);
    }

    const ShootdownStats &stats() const { return stats_; }
    void reset_stats() { stats_ = ShootdownStats{}; }

  private:
    /// Re-post budget per target; the delivery after the last retry
    /// always succeeds, so a shootdown can never hang.
    static constexpr int kMaxIpiRetries = 4;

    /// Exponential-backoff cap: retry waits grow 1x, 2x, 4x, ... and
    /// saturate at 2^kMaxBackoffShift x ipi_wait.
    static constexpr int kMaxBackoffShift = 3;

    static void
    apply_flush(hw::Core &core, FlushKind kind, hw::Asid asid, hw::Vpn vpn,
                std::uint64_t count)
    {
        const hw::CostTable &costs = core.costs();
        switch (kind) {
          case FlushKind::kAll:
            core.tlb().flush_all();
            core.charge(hw::CostKind::kTlbFlush, costs.tlb_flush_all);
            break;
          case FlushKind::kAsid:
            core.tlb().flush_asid(asid);
            core.charge(hw::CostKind::kTlbFlush, costs.tlb_flush_asid);
            break;
          case FlushKind::kRange:
            core.tlb().flush_range(asid, vpn, count);
            core.charge(hw::CostKind::kTlbFlush,
                        costs.tlb_flush_page *
                            static_cast<hw::Cycles>(count));
            break;
        }
    }

    hw::Machine *machine_;
    ShootdownStats stats_;
};

}  // namespace vdom::kernel
