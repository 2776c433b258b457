/// \file
/// Causal flight recorder: always-on, fixed-budget per-core event rings
/// with monotonic causality ids.
///
/// The metrics registry answers "how much", spans answer "how long"; the
/// flight recorder answers "what caused what".  It unifies the typed
/// events from sim/trace.h, span boundaries, and fault fires into one
/// timeline, and every cross-core interaction — shootdown issue -> IPI
/// receipt -> remote flush, ASID rollover -> broadcast flush, vdom
/// install/evict -> remote invalidation — carries a *flow id*: a
/// monotonically increasing causality id stamped on every record the
/// interaction touches, on whichever core it lands.  The Chrome-trace
/// exporter (trace_export.h) turns flows into Perfetto flow events
/// (ph "s"/"t"/"f"), rendering issuer->receiver arrows across core
/// tracks; the post-mortem writer (postmortem.h) dumps the last-N records
/// when a run dies.
///
/// Storage is one FlatRing per core at a fixed budget (PR-5 flat-layout
/// convention): recording is an array store + index bump, never an
/// allocation past warm-up.  The hook follows the telemetry null-sink
/// contract: with no recorder attached, flight_record()/flight_new_flow()
/// are a single predictable-branch pointer test, charge nothing, and the
/// flow counter does not advance — the cycle-identity tests pin this down.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/flat_ring.h"

namespace vdom::telemetry {

/// Kinds of flight-recorder records, one unified timeline.
enum class FlightEvent : std::uint8_t {
    // Span boundaries (mirrors SpanEvent::Phase; `name` carries the label).
    kSpanBegin,
    kSpanEnd,
    kSpanInstant,
    // Typed simulator events (mirrors sim::TraceEvent).
    kMapFree,
    kEvict,
    kVdsSwitch,
    kMigration,
    kVdsCreate,
    kFault,
    kSigsegv,
    kShootdown,
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
    /// \param cores     number of per-core rings (core ids beyond fold
    ///        into ring 0, like metrics shards).
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

    void clear();

  private:
    std::size_t per_core_;
    std::vector<FlatRing<FlightRecord>> rings_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t last_flow_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t dropped_ = 0;
};

// -- Global hook (null by default, zero-cost when detached) ---------------

namespace detail {
/// Thread-local, so a host thread only sees the recorder it attached.
extern thread_local FlightRecorder *g_flight_sink;  ///< Use flight_sink().
}  // namespace detail

/// The attached recorder, or nullptr.  Inline so the common detached case
/// is a single load + branch at every record site.
inline FlightRecorder *
flight_sink()
{
    return detail::g_flight_sink;
}

inline void
set_flight_sink(FlightRecorder *recorder)
{
    detail::g_flight_sink = recorder;
}

/// Records \p rec if a recorder is attached.
inline void
flight_record(const FlightRecord &rec)
{
    if (FlightRecorder *sink = flight_sink())
        sink->record(rec);
}

/// Allocates a causality id, or returns 0 when detached (a 0 flow id on a
/// record means "standalone"; detached call sites stay branch-only).
inline std::uint64_t
flight_new_flow()
{
    if (FlightRecorder *sink = flight_sink())
        return sink->new_flow();
    return 0;
}

/// RAII attachment of a recorder (restores the previous sink).
class ScopedFlightRecorder {
  public:
    explicit ScopedFlightRecorder(FlightRecorder &recorder)
        : previous_(flight_sink())
    {
        set_flight_sink(&recorder);
    }
    ~ScopedFlightRecorder() { set_flight_sink(previous_); }

    ScopedFlightRecorder(const ScopedFlightRecorder &) = delete;
    ScopedFlightRecorder &operator=(const ScopedFlightRecorder &) = delete;

  private:
    FlightRecorder *previous_;
};

}  // namespace vdom::telemetry
