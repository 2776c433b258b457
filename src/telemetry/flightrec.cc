/// \file
/// Flight recorder implementation.

#include "telemetry/flightrec.h"

#include <algorithm>
#include <sstream>

namespace vdom::telemetry {

const char *
flight_event_name(FlightEvent event)
{
    switch (event) {
      case FlightEvent::kSpanBegin: return "span_begin";
      case FlightEvent::kSpanEnd: return "span_end";
      case FlightEvent::kSpanInstant: return "span_instant";
      case FlightEvent::kMapFree: return "map_free";
      case FlightEvent::kEvict: return "evict";
      case FlightEvent::kVdsSwitch: return "vds_switch";
      case FlightEvent::kMigration: return "migration";
      case FlightEvent::kVdsCreate: return "vds_create";
      case FlightEvent::kFault: return "fault";
      case FlightEvent::kSigsegv: return "sigsegv";
      case FlightEvent::kShootdown: return "shootdown";
      case FlightEvent::kShootdownIssue: return "shootdown_issue";
      case FlightEvent::kIpiReceive: return "ipi_receive";
      case FlightEvent::kIpiRetry: return "ipi_retry";
      case FlightEvent::kRemoteFlush: return "remote_flush";
      case FlightEvent::kAsidRollover: return "asid_rollover";
      case FlightEvent::kAsidRecycle: return "asid_recycle";
      case FlightEvent::kFlushAll: return "flush_all";
      case FlightEvent::kVdomInstall: return "vdom_install";
      case FlightEvent::kVdomEvict: return "vdom_evict";
      case FlightEvent::kFaultInjected: return "fault_injected";
      case FlightEvent::kTxnRollback: return "txn_rollback";
      case FlightEvent::kRecoveryReplay: return "recovery_replay";
      case FlightEvent::kNumEvents: break;
    }
    return "?";
}

FlightRecorder::FlightRecorder(std::size_t cores, std::size_t per_core)
    : per_core_(per_core)
{
    if (cores == 0)
        cores = 1;
    rings_.reserve(cores);
    for (std::size_t c = 0; c < cores; ++c)
        rings_.emplace_back(per_core);
}

std::vector<FlightRecord>
FlightRecorder::merged() const
{
    std::vector<FlightRecord> out;
    std::size_t n = 0;
    for (const auto &ring : rings_)
        n += ring.size();
    out.reserve(n);
    for (const auto &ring : rings_)
        for (const FlightRecord &rec : ring)
            out.push_back(rec);
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &x, const FlightRecord &y) {
                  return x.seq < y.seq;
              });
    return out;
}

std::size_t
FlightRecorder::count(FlightEvent kind) const
{
    std::size_t n = 0;
    for (const auto &ring : rings_)
        for (const FlightRecord &rec : ring)
            if (rec.kind == kind)
                ++n;
    return n;
}

std::vector<FlightRecord>
FlightRecorder::filter(FlightEvent kind) const
{
    std::vector<FlightRecord> out;
    for (const auto &ring : rings_)
        for (const FlightRecord &rec : ring)
            if (rec.kind == kind)
                out.push_back(rec);
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &x, const FlightRecord &y) {
                  return x.seq < y.seq;
              });
    return out;
}

std::string
FlightRecorder::format(const FlightRecord &rec)
{
    std::ostringstream out;
    out << "[" << rec.ts << "] " << flight_event_name(rec.kind);
    if (rec.name)
        out << " " << rec.name;
    if (rec.tid != 0)
        out << " tid=" << rec.tid;
    bool typed = rec.kind >= FlightEvent::kMapFree &&
                 rec.kind <= FlightEvent::kShootdown;
    if (typed && rec.kind != FlightEvent::kShootdown) {
        // Unpack flight_event()'s payload.  vdom 0 is kCommonVdom, a real
        // subject, so every kind but kShootdown prints it.
        std::uint64_t from = rec.b >> 32;
        std::uint64_t to = rec.b & 0xffffffffu;
        out << " vdom=" << rec.a;
        if (from != to)
            out << " vds " << from << "->" << to;
        else
            out << " vds=" << from;
    } else if (!typed) {
        if (rec.flow)
            out << " flow=" << rec.flow;
        if (rec.a)
            out << " a=" << rec.a;
        if (rec.b)
            out << " b=" << rec.b;
    }
    return out.str();
}

void
FlightRecorder::clear()
{
    for (auto &ring : rings_)
        ring.clear();
    next_seq_ = 1;
    last_flow_ = 0;
    total_ = 0;
    dropped_ = 0;
}

}  // namespace vdom::telemetry
