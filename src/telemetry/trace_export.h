/// \file
/// Chrome-trace / Perfetto JSON export of the flight recorder's timeline.
///
/// The output loads directly into chrome://tracing or ui.perfetto.dev:
/// every simulated core becomes a process row, every task a thread row,
/// nested spans render as a flame timeline, typed events as thin slices,
/// and causality flows as arrows between core tracks.  Timestamps are
/// simulated cycles reported in the JSON's microsecond field (1 cycle ==
/// 1 "us"), which keeps relative widths exact.

#pragma once

#include <iosfwd>
#include <string>

namespace vdom::telemetry {

class FlightRecorder;
class MetricsRegistry;

/// Writes \p recorder's unified timeline as Chrome-trace JSON.  Every
/// flight record becomes an event on its core's process track (span kinds
/// render as B/E/i, everything else as a thin complete slice), and every
/// causality flow with two or more records becomes a chain of Chrome-trace
/// flow events (ph "s"/"t"/"f" sharing the flow id), which Perfetto
/// renders as issuer->receiver arrows across core tracks.
void write_flight_trace(std::ostream &out, const FlightRecorder &recorder,
                        const MetricsRegistry *metrics = nullptr);

/// Convenience: the same document as a string.
std::string flight_trace_json(const FlightRecorder &recorder,
                              const MetricsRegistry *metrics = nullptr);

/// Writes the flight trace to \p path; returns false when the file cannot
/// be opened.
bool export_flight_trace(const std::string &path,
                         const FlightRecorder &recorder,
                         const MetricsRegistry *metrics = nullptr);

}  // namespace vdom::telemetry
