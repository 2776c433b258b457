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
/// Same null-hook contract as the other telemetry sinks: with no recorder
/// attached, span_begin/span_end are a pointer test and nothing else, and
/// recording never advances simulated time.  Names must be string literals
/// (or otherwise outlive the recorder): records store the pointer, not a
/// copy, so the hot path never allocates.

#pragma once

#include <cstdint>

#include "telemetry/flightrec.h"

namespace vdom::telemetry {

inline void
span_begin(const char *name, std::uint64_t ts, std::uint32_t core,
           std::uint32_t tid)
{
    flight_record({FlightEvent::kSpanBegin, core, tid, ts, 0, 0, 0, name});
}

inline void
span_end(const char *name, std::uint64_t ts, std::uint32_t core,
         std::uint32_t tid)
{
    flight_record({FlightEvent::kSpanEnd, core, tid, ts, 0, 0, 0, name});
}

inline void
span_instant(const char *name, std::uint64_t ts, std::uint32_t core,
             std::uint32_t tid)
{
    flight_record({FlightEvent::kSpanInstant, core, tid, ts, 0, 0, 0, name});
}

/// RAII span over a clock-bearing context (hw::Core or anything with
/// now()/id()); ends the span with the clock's value at destruction:
///     telemetry::Span span("wrvdr", core, task.tid());
template <class Clock>
class Span {
  public:
    Span(const char *name, const Clock &clock, std::uint32_t tid)
        : name_(name), clock_(&clock), tid_(tid)
    {
        span_begin(name_, static_cast<std::uint64_t>(clock_->now()),
                   static_cast<std::uint32_t>(clock_->id()), tid_);
    }

    ~Span()
    {
        span_end(name_, static_cast<std::uint64_t>(clock_->now()),
                 static_cast<std::uint32_t>(clock_->id()), tid_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const Clock *clock_;
    std::uint32_t tid_;
};

}  // namespace vdom::telemetry
