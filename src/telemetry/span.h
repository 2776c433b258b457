/// \file
/// Span tracing: nested begin/end intervals with thread/core attribution.
///
/// Complements the typed-event ring in sim/trace.h: where that answers
/// "which events happened", spans answer "where did the time go" — a
/// recorded run exports to Chrome-trace/Perfetto JSON (trace_export.h) and
/// renders as a flame-style timeline per core/thread.
///
/// Same null-hook contract as the other telemetry sinks: with no tracer
/// attached, span_begin/span_end are a pointer test and nothing else, and
/// recording never advances simulated time.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/flightrec.h"

namespace vdom::telemetry {

/// One span event.  Names and categories must be string literals (or
/// otherwise outlive the tracer): events store the pointer, not a copy, so
/// the hot path never allocates.
struct SpanEvent {
    enum class Phase : std::uint8_t {
        kBegin,    ///< Chrome-trace "B".
        kEnd,      ///< Chrome-trace "E".
        kInstant,  ///< Chrome-trace "i".
    };

    Phase phase;
    const char *name;
    const char *category;
    std::uint64_t ts;    ///< Simulated cycles (core-local clock).
    std::uint32_t core;  ///< Core the event executed on.
    std::uint32_t tid;   ///< Acting task (0 = n/a).
};

/// Bounded recorder of span events.
class SpanTracer {
  public:
    explicit SpanTracer(std::size_t max_events = 1u << 20)
        : max_events_(max_events)
    {
    }

    void
    begin(const char *name, std::uint64_t ts, std::uint32_t core,
          std::uint32_t tid, const char *category = "sim")
    {
        push({SpanEvent::Phase::kBegin, name, category, ts, core, tid});
    }

    void
    end(const char *name, std::uint64_t ts, std::uint32_t core,
        std::uint32_t tid, const char *category = "sim")
    {
        push({SpanEvent::Phase::kEnd, name, category, ts, core, tid});
    }

    void
    instant(const char *name, std::uint64_t ts, std::uint32_t core,
            std::uint32_t tid, const char *category = "sim")
    {
        push({SpanEvent::Phase::kInstant, name, category, ts, core, tid});
    }

    const std::vector<SpanEvent> &events() const { return events_; }

    /// Events recorded but not retained (capacity overflow).
    std::uint64_t dropped() const { return dropped_; }

    /// Maximum begin/end nesting depth reached on any (core, tid) track.
    /// Tracks live in a sorted flat vector keyed by (core << 32 | tid):
    /// the handful of distinct tracks makes a binary search over a
    /// contiguous array cheaper than a tree node per track.
    std::size_t
    max_depth() const
    {
        struct Track {
            std::uint64_t key;
            std::size_t depth;
        };
        std::vector<Track> tracks;
        auto track_of = [&tracks](std::uint64_t key) -> Track & {
            auto it = std::lower_bound(
                tracks.begin(), tracks.end(), key,
                [](const Track &t, std::uint64_t k) { return t.key < k; });
            if (it == tracks.end() || it->key != key)
                it = tracks.insert(it, Track{key, 0});
            return *it;
        };
        std::size_t max = 0;
        for (const SpanEvent &e : events_) {
            std::uint64_t key =
                (static_cast<std::uint64_t>(e.core) << 32) | e.tid;
            if (e.phase == SpanEvent::Phase::kBegin) {
                max = std::max(max, ++track_of(key).depth);
            } else if (e.phase == SpanEvent::Phase::kEnd) {
                Track &t = track_of(key);
                if (t.depth > 0)
                    --t.depth;
            }
        }
        return max;
    }

    void
    clear()
    {
        events_.clear();
        dropped_ = 0;
    }

  private:
    void
    push(const SpanEvent &event)
    {
        if (events_.size() >= max_events_) {
            ++dropped_;
            return;
        }
        events_.push_back(event);
    }

    std::size_t max_events_;
    std::vector<SpanEvent> events_;
    std::uint64_t dropped_ = 0;
};

// -- Global hook ----------------------------------------------------------

namespace detail {
/// Thread-local, so a host thread only sees the tracer it attached.
extern thread_local SpanTracer *g_span_sink;  ///< Use span_sink() instead.
}  // namespace detail

/// The attached span tracer, or nullptr.  Inline so the common detached
/// case is a single load + branch at every Span construction site.
inline SpanTracer *
span_sink()
{
    return detail::g_span_sink;
}

inline void
set_span_sink(SpanTracer *tracer)
{
    detail::g_span_sink = tracer;
}

inline void
span_begin(const char *name, std::uint64_t ts, std::uint32_t core,
           std::uint32_t tid, const char *category = "sim")
{
    if (SpanTracer *sink = span_sink())
        sink->begin(name, ts, core, tid, category);
    flight_record({FlightEvent::kSpanBegin, core, tid, ts, 0, 0, 0, name});
}

inline void
span_end(const char *name, std::uint64_t ts, std::uint32_t core,
         std::uint32_t tid, const char *category = "sim")
{
    if (SpanTracer *sink = span_sink())
        sink->end(name, ts, core, tid, category);
    flight_record({FlightEvent::kSpanEnd, core, tid, ts, 0, 0, 0, name});
}

inline void
span_instant(const char *name, std::uint64_t ts, std::uint32_t core,
             std::uint32_t tid, const char *category = "sim")
{
    if (SpanTracer *sink = span_sink())
        sink->instant(name, ts, core, tid, category);
    flight_record({FlightEvent::kSpanInstant, core, tid, ts, 0, 0, 0, name});
}

/// RAII attachment of a span tracer (restores the previous sink).
class ScopedSpanTrace {
  public:
    explicit ScopedSpanTrace(SpanTracer &tracer) : previous_(span_sink())
    {
        set_span_sink(&tracer);
    }
    ~ScopedSpanTrace() { set_span_sink(previous_); }

    ScopedSpanTrace(const ScopedSpanTrace &) = delete;
    ScopedSpanTrace &operator=(const ScopedSpanTrace &) = delete;

  private:
    SpanTracer *previous_;
};

/// RAII span over a clock-bearing context (hw::Core or anything with
/// now()/id()); ends the span with the clock's value at destruction:
///     telemetry::Span span("wrvdr", core, task.tid(), "api");
template <class Clock>
class Span {
  public:
    Span(const char *name, const Clock &clock, std::uint32_t tid,
         const char *category = "sim")
        : name_(name), category_(category), clock_(&clock), tid_(tid)
    {
        span_begin(name_, static_cast<std::uint64_t>(clock_->now()),
                   static_cast<std::uint32_t>(clock_->id()), tid_,
                   category_);
    }

    ~Span()
    {
        span_end(name_, static_cast<std::uint64_t>(clock_->now()),
                 static_cast<std::uint32_t>(clock_->id()), tid_, category_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const char *category_;
    const Clock *clock_;
    std::uint32_t tid_;
};

}  // namespace vdom::telemetry
