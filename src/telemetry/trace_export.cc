/// \file
/// Flight-trace (Chrome-trace JSON) exporter implementation.

#include "telemetry/trace_export.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "telemetry/flightrec.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace vdom::telemetry {

namespace {

/// Metadata rows naming each core's process track ("core N", not a bare
/// pid) for whatever set of core ids the events touch.
void
write_core_names(JsonWriter &w, std::vector<std::uint32_t> cores)
{
    std::sort(cores.begin(), cores.end());
    cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
    for (std::uint32_t core : cores) {
        w.begin_object();
        w.key("name").value("process_name");
        w.key("ph").value("M");
        w.key("pid").value(std::uint64_t{core});
        w.key("tid").value(std::uint64_t{0});
        w.key("args").begin_object();
        w.key("name").value("core " + std::to_string(core));
        w.end_object();
        w.end_object();
    }
}

void
write_metrics_tail(JsonWriter &w, const MetricsRegistry *metrics)
{
    if (!metrics)
        return;
    w.key("metrics").begin_object();
    for (const MetricsRegistry::Sample &s : metrics->snapshot())
        w.key(s.name).value(s.value);
    w.end_object();
}

}  // namespace

void
write_flight_trace(std::ostream &out, const FlightRecorder &recorder,
                   const MetricsRegistry *metrics)
{
    const std::vector<FlightRecord> records = recorder.merged();

    JsonWriter w(out);
    w.begin_object();
    w.key("traceEvents").begin_array();

    std::vector<std::uint32_t> cores;
    cores.reserve(records.size());
    for (const FlightRecord &r : records)
        cores.push_back(r.core);
    write_core_names(w, std::move(cores));

    for (const FlightRecord &r : records) {
        w.begin_object();
        switch (r.kind) {
          case FlightEvent::kSpanBegin:
            w.key("name").value(r.name ? r.name : "span");
            w.key("cat").value("flight");
            w.key("ph").value("B");
            break;
          case FlightEvent::kSpanEnd:
            w.key("name").value(r.name ? r.name : "span");
            w.key("cat").value("flight");
            w.key("ph").value("E");
            break;
          case FlightEvent::kSpanInstant:
            w.key("name").value(r.name ? r.name : "span");
            w.key("cat").value("flight");
            w.key("ph").value("i");
            break;
          default:
            // Thin complete slice: flow events need an enclosing slice on
            // the track to bind their arrow endpoints to.
            w.key("name").value(flight_event_name(r.kind));
            w.key("cat").value("flight");
            w.key("ph").value("X");
            w.key("dur").value(std::uint64_t{1});
            break;
        }
        w.key("ts").value(r.ts);
        w.key("pid").value(std::uint64_t{r.core});
        w.key("tid").value(std::uint64_t{r.tid});
        if (r.kind == FlightEvent::kSpanInstant)
            w.key("s").value("t");
        w.key("args").begin_object();
        w.key("seq").value(r.seq);
        if (r.flow)
            w.key("flow").value(r.flow);
        if (r.a)
            w.key("a").value(r.a);
        if (r.b)
            w.key("b").value(r.b);
        w.end_object();
        w.end_object();
    }

    // Causality arrows: each flow id's records chain start -> step ->
    // finish across whatever core tracks they landed on.  bp:"e" binds
    // each endpoint to the enclosing slice emitted above.
    std::vector<const FlightRecord *> flowed;
    for (const FlightRecord &r : records)
        if (r.flow)
            flowed.push_back(&r);
    std::stable_sort(flowed.begin(), flowed.end(),
                     [](const FlightRecord *x, const FlightRecord *y) {
                         return x->flow != y->flow ? x->flow < y->flow
                                                   : x->seq < y->seq;
                     });
    for (std::size_t i = 0; i < flowed.size();) {
        std::size_t j = i;
        while (j < flowed.size() && flowed[j]->flow == flowed[i]->flow)
            ++j;
        if (j - i >= 2) {
            for (std::size_t k = i; k < j; ++k) {
                const FlightRecord &r = *flowed[k];
                w.begin_object();
                w.key("name").value("causal");
                w.key("cat").value("flow");
                w.key("ph").value(k == i ? "s" : (k + 1 == j ? "f" : "t"));
                w.key("id").value(r.flow);
                w.key("ts").value(r.ts);
                w.key("pid").value(std::uint64_t{r.core});
                w.key("tid").value(std::uint64_t{r.tid});
                if (k + 1 == j)
                    w.key("bp").value("e");
                w.end_object();
            }
        }
        i = j;
    }

    w.end_array();
    w.key("displayTimeUnit").value("ms");
    if (recorder.dropped() > 0)
        w.key("droppedEvents").value(recorder.dropped());
    write_metrics_tail(w, metrics);
    w.end_object();
    out << "\n";
}

std::string
flight_trace_json(const FlightRecorder &recorder,
                  const MetricsRegistry *metrics)
{
    std::ostringstream out;
    write_flight_trace(out, recorder, metrics);
    return out.str();
}

bool
export_flight_trace(const std::string &path, const FlightRecorder &recorder,
                    const MetricsRegistry *metrics)
{
    std::ofstream out(path);
    if (!out)
        return false;
    write_flight_trace(out, recorder, metrics);
    return true;
}

}  // namespace vdom::telemetry
