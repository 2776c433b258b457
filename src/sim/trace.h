/// \file
/// Lightweight event tracer for debugging and analysis.
///
/// A bounded ring buffer of typed events (domain mapped, evicted, VDS
/// switched, thread migrated, fault, shootdown).  Tracing is opt-in and
/// zero-cost when no tracer is attached; the virtualization layer emits
/// events through the global hook.  Intended uses: post-mortem analysis in
/// tests ("exactly one migration happened, from VDS 0 to VDS 1"), and
/// human-readable dumps when debugging workload models.
///
/// Storage is a fixed-capacity flat ring (telemetry/flat_ring.h), the
/// PR-5 layout convention shared with the causal flight recorder.  Every
/// trace() additionally forwards into the flight recorder's unified
/// timeline when one is attached (telemetry/flightrec.h), so typed events
/// interleave with span boundaries and shootdown flows in program order.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hw/arch.h"
#include "telemetry/flat_ring.h"
#include "telemetry/flightrec.h"
#include "vdom/types.h"

namespace vdom::sim {

/// Kinds of traced events.
enum class TraceEvent : std::uint8_t {
    kMapFree,     ///< vdom mapped to a free pdom (❸).
    kEvict,       ///< vdom evicted from a VDS (❺).
    kVdsSwitch,   ///< thread switched pgd (❺).
    kMigration,   ///< thread migrated to another VDS (❼/❽).
    kVdsCreate,   ///< new VDS allocated (❽).
    kFault,       ///< page/domain fault handled.
    kSigsegv,     ///< access violation delivered.
    kShootdown,   ///< remote TLB shootdown issued.
};

/// Returns a short label for \p event.
const char *trace_event_name(TraceEvent event);

/// The flight-recorder kind mirroring \p event (the two enums share
/// labels; the mapping is pinned by tests/test_flightrec.cc).
constexpr telemetry::FlightEvent
flight_event_of(TraceEvent event)
{
    switch (event) {
      case TraceEvent::kMapFree: return telemetry::FlightEvent::kMapFree;
      case TraceEvent::kEvict: return telemetry::FlightEvent::kEvict;
      case TraceEvent::kVdsSwitch:
        return telemetry::FlightEvent::kVdsSwitch;
      case TraceEvent::kMigration:
        return telemetry::FlightEvent::kMigration;
      case TraceEvent::kVdsCreate:
        return telemetry::FlightEvent::kVdsCreate;
      case TraceEvent::kFault: return telemetry::FlightEvent::kFault;
      case TraceEvent::kSigsegv: return telemetry::FlightEvent::kSigsegv;
      case TraceEvent::kShootdown:
        return telemetry::FlightEvent::kShootdown;
    }
    return telemetry::FlightEvent::kSpanInstant;
}

/// One trace record.
struct TraceRecord {
    TraceEvent event;
    hw::Cycles when = 0;        ///< Core-local time of the event.
    std::uint32_t tid = 0;      ///< Acting thread (0 = n/a).
    VdomId vdom = kInvalidVdom; ///< Subject vdom (kInvalidVdom = n/a).
    std::uint32_t vds_from = 0; ///< Source VDS id.
    std::uint32_t vds_to = 0;   ///< Destination VDS id (same = n/a).
    std::uint32_t core = 0;     ///< Core the event executed on.
};

/// Bounded ring of trace records.  Capacity 0 retains nothing (events are
/// still counted in total()).
class Tracer {
  public:
    explicit Tracer(std::size_t capacity = 4096) : records_(capacity) {}

    void
    record(const TraceRecord &rec)
    {
        ++total_;
        records_.push(rec);
    }

    /// Events currently retained (oldest first).
    const telemetry::FlatRing<TraceRecord> &records() const
    {
        return records_;
    }

    /// Total events ever recorded (including dropped ones).
    std::uint64_t total() const { return total_; }

    /// Count of retained records matching \p event.
    std::size_t
    count(TraceEvent event) const
    {
        std::size_t n = 0;
        for (const TraceRecord &r : records_)
            if (r.event == event)
                ++n;
        return n;
    }

    /// Retained records matching \p event, oldest first.
    std::vector<TraceRecord>
    filter(TraceEvent event) const
    {
        std::vector<TraceRecord> out;
        for (const TraceRecord &r : records_)
            if (r.event == event)
                out.push_back(r);
        return out;
    }

    void
    clear()
    {
        records_.clear();
        total_ = 0;
    }

    /// Writes a human-readable dump of the retained records.
    void dump(std::ostream &out) const;

    /// One-line rendering of a record.
    static std::string format(const TraceRecord &rec);

  private:
    telemetry::FlatRing<TraceRecord> records_;
    std::uint64_t total_ = 0;
};

namespace detail {
/// Thread-local, so a host thread only sees the tracer it attached.
extern thread_local Tracer *g_trace_sink;  ///< Use trace_sink() instead.
}  // namespace detail

/// Global trace hook: null by default (no cost); tests and tools attach a
/// Tracer around the region of interest.  Inline so the common detached
/// case is a single load + branch at every trace() site.
inline Tracer *
trace_sink()
{
    return detail::g_trace_sink;
}

inline void
set_trace_sink(Tracer *tracer)
{
    detail::g_trace_sink = tracer;
}

/// Emits \p rec to the attached tracer (if any) and mirrors it into the
/// flight recorder's unified timeline (if one is attached).
inline void
trace(const TraceRecord &rec)
{
    if (Tracer *sink = trace_sink())
        sink->record(rec);
    if (telemetry::FlightRecorder *flight = telemetry::flight_sink()) {
        flight->record({flight_event_of(rec.event), rec.core, rec.tid,
                        static_cast<std::uint64_t>(rec.when), 0,
                        rec.vdom == kInvalidVdom ? 0 : rec.vdom,
                        (static_cast<std::uint64_t>(rec.vds_from) << 32) |
                            rec.vds_to,
                        nullptr});
    }
}

/// RAII attachment of a tracer (restores the previous sink).
class ScopedTrace {
  public:
    explicit ScopedTrace(Tracer &tracer) : previous_(trace_sink())
    {
        set_trace_sink(&tracer);
    }
    ~ScopedTrace() { set_trace_sink(previous_); }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    Tracer *previous_;
};

}  // namespace vdom::sim
