/// \file
/// Causal flight recorder: always-on, fixed-budget per-core event rings
/// with monotonic causality ids.
///
/// The metrics registry answers "how much"; the flight recorder answers
/// "what happened, how long it took and what caused what".  It is the one
/// event stream: the typed events of the virtualization algorithm
/// (flight_event() below), span boundaries (telemetry/span.h) and fault
/// fires share one timeline.  Every cross-core interaction — shootdown
/// issue -> IPI receipt -> remote flush, ASID rollover -> broadcast
/// flush, vdom install/evict -> remote invalidation — carries a *flow
/// id*: a monotonically increasing causality id stamped on every record
/// the interaction touches, on whichever core it lands.  The Chrome-trace
/// exporter (trace_export.h) turns flows into Perfetto flow events
/// (ph "s"/"t"/"f"), rendering issuer->receiver arrows across core
/// tracks; the post-mortem writer (postmortem.h) dumps the last-N records
/// when a run dies.
///
/// Storage is one FlatRing per core at a fixed budget (the flat-layout
/// convention): recording is an array store + index bump, never an
/// allocation past warm-up.  A recorder belongs to one world:
/// `hw::Machine::set_flight` attaches it and every core holds the pointer
/// (null by default).  Each record site names the core its event happens
/// on (flight_record()/flight_event() below, spans) and the record goes
/// to that core's recorder.  With none attached a site is a single
/// predictable-branch pointer test, charges nothing, and no flow id is
/// handed out — the cycle-identity tests pin this down.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/flat_ring.h"
#include "vdom/types.h"

namespace vdom::telemetry {

/// Kinds of flight-recorder records, one unified timeline.
enum class FlightEvent : std::uint8_t {
    // Span boundaries (telemetry/span.h; `name` carries the label).
    kSpanBegin,
    kSpanEnd,
    kSpanInstant,
    // Typed simulator events (flight_event() packs their payload).
    kMapFree,     ///< vdom mapped to a free pdom (❸).
    kEvict,       ///< vdom evicted from a VDS (❺).
    kVdsSwitch,   ///< Thread switched pgd (❺).
    kMigration,   ///< Thread migrated to another VDS (❼/❽).
    kVdsCreate,   ///< New VDS allocated (❽).
    kFault,       ///< Page/domain fault handled.
    kSigsegv,     ///< Access violation delivered.
    kShootdown,   ///< Remote TLB shootdown issued.
    // Cross-core shootdown flow (flow id links issuer to receivers).
    kShootdownIssue,  ///< a = fan-out (targets), b = FlushKind.
    kIpiReceive,      ///< On the target core.
    kIpiRetry,        ///< Initiator re-posted a dropped IPI; a = attempt.
    kRemoteFlush,     ///< Target applied the flush; a = ASID flushed.
    // Kernel causality anchors.
    kAsidRollover,    ///< ARM generation rollover -> broadcast flush-all.
    kAsidRecycle,     ///< x86 PCID slot recycled; a = new ASID.
    kFlushAll,        ///< Process-wide flush_everywhere; flows into shoot.
    kVdomInstall,     ///< Vdom installed into a VDS; a = vdom, b = vds id.
    kVdomEvict,       ///< Vdom evicted from a VDS; a = vdom, b = vds id.
    // Fault injection (sim/fault.h); a = FaultSite.
    kFaultInjected,
    // Transaction rollback (kernel/journal.h); a = entries unwound,
    // name = the op label.
    kTxnRollback,
    // Crash recovery (vdom/recovery.h); one per WAL record replayed or
    // undone on "reboot": a = WAL op kind, b = txn id, name = op label.
    kRecoveryReplay,
    kNumEvents,
};

constexpr std::size_t kNumFlightEvents =
    static_cast<std::size_t>(FlightEvent::kNumEvents);

/// Returns a short stable label for \p event (used in JSON bundles).
const char *flight_event_name(FlightEvent event);

/// One flight-recorder record.
struct FlightRecord {
    FlightEvent kind = FlightEvent::kSpanInstant;
    std::uint32_t core = 0;      ///< Core the event executed on.
    std::uint32_t tid = 0;       ///< Acting thread (0 = n/a).
    std::uint64_t ts = 0;        ///< Simulated cycles (core-local clock).
    std::uint64_t flow = 0;      ///< Causality id (0 = standalone event).
    std::uint64_t a = 0;         ///< Payload (vdom, site, fan-out, ...).
    std::uint64_t b = 0;         ///< Payload (vds ids, flush kind, ...).
    const char *name = nullptr;  ///< Span label (span kinds only).
    std::uint64_t seq = 0;       ///< Program-order sequence (recorder-set).
};

/// Per-core bounded recorder with a monotonic causality-id source.
class FlightRecorder {
  public:
    /// \param cores     number of per-core rings (records from core ids
    ///        beyond it fold into ring 0).
    /// \param per_core  fixed record budget per core ring.
    explicit FlightRecorder(std::size_t cores = 1,
                            std::size_t per_core = 1024);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    std::size_t num_cores() const { return rings_.size(); }
    std::size_t per_core_capacity() const { return per_core_; }

    /// Appends \p rec to its core's ring, stamping the program-order
    /// sequence number.  Never allocates once the ring is warm.
    void
    record(const FlightRecord &rec)
    {
        ++total_;
        FlatRing<FlightRecord> &ring =
            rings_[rec.core < rings_.size() ? rec.core : 0];
        FlightRecord stamped = rec;
        stamped.seq = next_seq_++;
        if (!ring.push(stamped))
            ++dropped_;
    }

    /// Allocates the next causality id (monotonic, starts at 1).
    std::uint64_t new_flow() { return ++last_flow_; }

    /// Highest causality id handed out so far (0 = none yet).
    std::uint64_t last_flow() const { return last_flow_; }

    /// Records ever seen (including ones that overwrote older entries).
    std::uint64_t total() const { return total_; }

    /// Records lost to ring wrap (or to a zero-capacity ring).
    std::uint64_t dropped() const { return dropped_; }

    const FlatRing<FlightRecord> &
    ring(std::size_t core) const
    {
        return rings_[core < rings_.size() ? core : 0];
    }

    /// Every retained record across all cores, in program order (by seq).
    std::vector<FlightRecord> merged() const;

    /// Retained records of kind \p kind, across all cores.
    std::size_t count(FlightEvent kind) const;

    /// Retained records of kind \p kind, in program order (by seq).
    std::vector<FlightRecord> filter(FlightEvent kind) const;

    /// One-line rendering of \p rec, decoding the payload flight_event()
    /// packs for typed events:  "[1234] evict tid=3 vdom=42 vds=1".
    static std::string format(const FlightRecord &rec);

    void clear();

  private:
    std::size_t per_core_;
    std::vector<FlatRing<FlightRecord>> rings_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t last_flow_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t dropped_ = 0;
};

/// Records an event of \p kind that happened on \p core into the core's
/// recorder, if one is attached, stamped with the core's id and clock
/// (simulated cycles, truncated).  \p core is an hw::Core or anything
/// with id()/now()/flight().
template <class Core>
inline void
flight_record(const Core &core, FlightEvent kind, std::uint32_t tid,
              std::uint64_t flow = 0, std::uint64_t a = 0,
              std::uint64_t b = 0, const char *name = nullptr)
{
    if (FlightRecorder *sink = core.flight()) {
        sink->record({kind, static_cast<std::uint32_t>(core.id()), tid,
                      static_cast<std::uint64_t>(core.now()), flow, a, b,
                      name});
    }
}

/// Records a typed simulator event on \p core.  The one place that packs
/// the typed payload: a = \p vdom (0 for kInvalidVdom, which only
/// kShootdown passes), b = vds_from << 32 | vds_to.
template <class Core>
inline void
flight_event(const Core &core, FlightEvent kind, std::uint32_t tid,
             VdomId vdom, std::uint32_t vds_from, std::uint32_t vds_to)
{
    flight_record(core, kind, tid, 0, vdom == kInvalidVdom ? 0 : vdom,
                  (static_cast<std::uint64_t>(vds_from) << 32) | vds_to);
}

/// Allocates a causality id from \p sink, or returns 0 when detached (a 0
/// flow id on a record means "standalone"; detached call sites stay
/// branch-only).
inline std::uint64_t
flight_new_flow(FlightRecorder *sink)
{
    return sink ? sink->new_flow() : 0;
}

}  // namespace vdom::telemetry
