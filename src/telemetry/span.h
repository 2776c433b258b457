/// \file
/// Spans: nested begin/end intervals with thread/core attribution,
/// recorded into the flight recorder's unified timeline.
///
/// Complements the typed flight events (flightrec.h): where those answer
/// "which events happened", spans answer "where did the time go" — an
/// exported flight trace (trace_export.h) renders span records as a
/// flame-style timeline per core/thread, next to the typed events and the
/// shootdown flow arrows.
///
/// Same null-sink contract as the other flight records: with no recorder
/// attached to the world, span_begin/span_end are a pointer test and
/// nothing else, and recording never advances simulated time.  Names must
/// be string literals (or otherwise outlive the recorder): records store
/// the pointer, not a copy, so the hot path never allocates.

#pragma once

#include <cstdint>

#include "telemetry/flightrec.h"

namespace vdom::telemetry {

/// Span boundaries on \p core (an hw::Core or anything with
/// id()/now()/flight()), stamped with its id and clock.
template <class Core>
inline void
span_begin(const Core &core, const char *name, std::uint32_t tid)
{
    flight_record(core, FlightEvent::kSpanBegin, tid, 0, 0, 0, name);
}

template <class Core>
inline void
span_end(const Core &core, const char *name, std::uint32_t tid)
{
    flight_record(core, FlightEvent::kSpanEnd, tid, 0, 0, 0, name);
}

template <class Core>
inline void
span_instant(const Core &core, const char *name, std::uint32_t tid)
{
    flight_record(core, FlightEvent::kSpanInstant, tid, 0, 0, 0, name);
}

/// RAII span on a core; ends the span with the core's clock at
/// destruction:
///     telemetry::Span span("wrvdr", core, task.tid());
template <class Core>
class Span {
  public:
    Span(const char *name, const Core &core, std::uint32_t tid)
        : name_(name), core_(&core), tid_(tid)
    {
        span_begin(*core_, name_, tid_);
    }

    ~Span() { span_end(*core_, name_, tid_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const Core *core_;
    std::uint32_t tid_;
};

}  // namespace vdom::telemetry
