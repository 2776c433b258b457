/// \file
/// Flight-recorder tests: FlatRing wrap semantics, causality-id
/// monotonicity across real shootdowns, Chrome-trace flow-event export,
/// and byte-identical post-mortem bundles across same-seed chaos runs.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "kernel/shootdown.h"
#include "sim/chaos.h"
#include "telemetry/flat_ring.h"
#include "telemetry/flightrec.h"
#include "telemetry/postmortem.h"
#include "telemetry/trace_export.h"

namespace vdom::telemetry {
namespace {

using ::vdom::testing::FakeCore;
using ::vdom::testing::World;

TEST(FlatRing, FillsThenOverwritesOldest)
{
    FlatRing<int> ring(3);
    EXPECT_TRUE(ring.empty());
    EXPECT_TRUE(ring.push(1));
    EXPECT_TRUE(ring.push(2));
    EXPECT_TRUE(ring.push(3));
    EXPECT_EQ(ring.size(), 3u);
    // Full: the next push reports a drop and evicts the oldest element.
    EXPECT_FALSE(ring.push(4));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.front(), 2);
    EXPECT_EQ(ring.back(), 4);
    EXPECT_EQ(ring[0], 2);
    EXPECT_EQ(ring[1], 3);
    EXPECT_EQ(ring[2], 4);
    // Range-for walks in age order.
    std::vector<int> seen;
    for (int v : ring)
        seen.push_back(v);
    EXPECT_EQ(seen, (std::vector<int>{2, 3, 4}));
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

TEST(FlatRing, ZeroCapacityRetainsNothing)
{
    FlatRing<int> ring(0);
    EXPECT_FALSE(ring.push(1));
    EXPECT_TRUE(ring.empty());
}

TEST(FlightRecorder, StampsMonotonicSeqAndShardsByCore)
{
    FlightRecorder rec(2, 4);
    rec.record({FlightEvent::kVdsSwitch, 0});
    rec.record({FlightEvent::kVdsSwitch, 1});
    rec.record({FlightEvent::kVdsSwitch, 7});  // Beyond shards: folds to 0.
    EXPECT_EQ(rec.total(), 3u);
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_EQ(rec.ring(0).size(), 2u);
    EXPECT_EQ(rec.ring(1).size(), 1u);
    std::vector<FlightRecord> merged = rec.merged();
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].seq, 1u);
    EXPECT_EQ(merged[1].seq, 2u);
    EXPECT_EQ(merged[2].seq, 3u);
    EXPECT_EQ(merged[2].core, 7u);
}

TEST(FlightRecorder, RingWrapCountsDrops)
{
    FlightRecorder rec(1, 2);
    for (int i = 0; i < 5; ++i)
        rec.record({FlightEvent::kFault, 0});
    EXPECT_EQ(rec.total(), 5u);
    EXPECT_EQ(rec.dropped(), 3u);
    ASSERT_EQ(rec.ring(0).size(), 2u);
    // Oldest retained record is #4 of 5.
    EXPECT_EQ(rec.ring(0).front().seq, 4u);
    rec.clear();
    EXPECT_EQ(rec.total(), 0u);
    EXPECT_EQ(rec.last_flow(), 0u);
}

TEST(FlightHooks, DetachedSinkIsZeroAndAttachedSinkRecords)
{
    flight_record(FakeCore{}, FlightEvent::kFault, 0);  // Must not crash.
    EXPECT_EQ(flight_new_flow(nullptr), 0u);
    FlightRecorder rec(1);
    EXPECT_EQ(flight_new_flow(&rec), 1u);
    flight_record(FakeCore{&rec}, FlightEvent::kFault, 0);
    EXPECT_EQ(rec.total(), 1u);
    EXPECT_EQ(rec.last_flow(), 1u);
}

/// flight_event() packs a typed event onto the emitting core's ring:
/// a = vdom, b = vds_from << 32 | vds_to, no flow, no name; ts truncates
/// the core-local clock, and kInvalidVdom packs as a = 0.
TEST(FlightRecorder, TraceForwardsIntoUnifiedTimeline)
{
    FlightRecorder rec(4);
    flight_event(FakeCore{&rec, 3, 123.0}, FlightEvent::kMigration, 9, 5, 1,
                 2);
    ASSERT_EQ(rec.total(), 1u);
    const FlightRecord &r = rec.ring(3).front();
    EXPECT_EQ(r.kind, FlightEvent::kMigration);
    EXPECT_EQ(r.core, 3u);
    EXPECT_EQ(r.tid, 9u);
    EXPECT_EQ(r.ts, 123u);
    EXPECT_EQ(r.flow, 0u);
    EXPECT_EQ(r.a, 5u);                         // vdom
    EXPECT_EQ(r.b, (1ull << 32) | 2u);          // vds_from << 32 | vds_to
    EXPECT_EQ(r.name, nullptr);

    flight_event(FakeCore{&rec, 0, 7.9}, FlightEvent::kShootdown, 0,
                 kInvalidVdom, 0, 0);
    const FlightRecord &s = rec.ring(0).front();
    EXPECT_EQ(s.ts, 7u);
    EXPECT_EQ(s.a, 0u);
    EXPECT_EQ(s.b, 0u);
}

/// Every shootdown issue allocates a fresh, strictly increasing flow id,
/// and each flow links the issue record to one receipt + flush per target.
TEST(FlightRecorder, ShootdownFlowsAreMonotonicAndComplete)
{
    auto world = std::unique_ptr<World>(World::x86(4));
    world->ready_thread();
    world->spawn(1);
    world->spawn(2);
    FlightRecorder rec(4);
    world->machine.set_flight(&rec);

    kernel::ShootdownManager &sd = world->proc.shootdown();
    sd.shoot(world->core(0), 0b0110, kernel::FlushKind::kAll);
    std::uint64_t first = rec.last_flow();
    EXPECT_GE(first, 1u);
    sd.shoot(world->core(0), 0b0010, kernel::FlushKind::kAll);
    std::uint64_t second = rec.last_flow();
    EXPECT_GT(second, first);

    // First flow: one issue (fan-out 2) + 2 receipts + 2 flushes.
    std::size_t issues = 0, receives = 0, flushes = 0;
    for (const FlightRecord &r : rec.merged()) {
        if (r.flow != first)
            continue;
        if (r.kind == FlightEvent::kShootdownIssue) {
            ++issues;
            EXPECT_EQ(r.core, 0u);
            EXPECT_EQ(r.a, 2u);  // fan-out
        } else if (r.kind == FlightEvent::kIpiReceive) {
            ++receives;
            EXPECT_TRUE(r.core == 1 || r.core == 2);
        } else if (r.kind == FlightEvent::kRemoteFlush) {
            ++flushes;
        }
    }
    EXPECT_EQ(issues, 1u);
    EXPECT_EQ(receives, 2u);
    EXPECT_EQ(flushes, 2u);
}

/// The Chrome-trace export renders each flow as a s -> t -> f chain so
/// Perfetto draws issuer -> receiver arrows.
TEST(FlightTrace, ExportsFlowEvents)
{
    auto world = std::unique_ptr<World>(World::x86(4));
    world->ready_thread();
    world->spawn(1);
    world->spawn(2);
    FlightRecorder rec(4);
    world->machine.set_flight(&rec);
    world->proc.shootdown().shoot(world->core(0), 0b0110,
                                  kernel::FlushKind::kAll);
    std::string json = flight_trace_json(rec);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"shootdown_issue\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ipi_receive\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"remote_flush\""), std::string::npos);
    // Flow chain: one start, intermediate steps, one finish with bp:"e".
    EXPECT_NE(json.find("\"name\":\"causal\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

/// A single-record flow (e.g. local-only flush) must not emit arrows.
TEST(FlightTrace, SkipsDegenerateFlows)
{
    FlightRecorder rec(1);
    rec.record({FlightEvent::kFlushAll, 0, 0, 10, /*flow=*/5});
    std::string json = flight_trace_json(rec);
    EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"causal\""), std::string::npos);
}

/// Same-seed chaos runs produce byte-identical post-mortem bundles — the
/// determinism contract run_all.sh enforces end to end.
TEST(Postmortem, SameSeedBundlesAreByteIdentical)
{
    auto bundle_for = [](std::uint64_t seed) {
        sim::ChaosConfig config;
        config.arch = hw::ArchKind::kX86;
        config.ops = 120;
        config.seed = seed;
        config.faults.push_back(
            {sim::FaultSite::kIpiDrop, sim::FaultSpec{0.2, 0, 0}});
        config.faults.push_back(
            {sim::FaultSite::kAsidExhaustion, sim::FaultSpec{0.1, 0, 0}});
        sim::ChaosHarness harness(config);
        sim::ChaosResult result = harness.run();
        EXPECT_TRUE(result.ok()) << result.first_violation;
        EXPECT_GT(result.flight_records, 0u);
        PostmortemInfo info;
        info.reason = "terminal_snapshot";
        info.context.emplace_back("seed", std::to_string(seed));
        info.flight = &harness.flight();
        info.plan = &harness.plan();
        info.system = &harness.system();
        return postmortem_json(info);
    };
    std::string a = bundle_for(42);
    std::string b = bundle_for(42);
    EXPECT_EQ(a, b);
    // A different seed produces a genuinely different timeline.
    EXPECT_NE(a, bundle_for(43));
    // Schema spot checks.
    EXPECT_NE(a.find("\"bundle\":\"vdom_postmortem\""), std::string::npos);
    EXPECT_NE(a.find("\"version\":1"), std::string::npos);
    EXPECT_NE(a.find("\"flight\":{"), std::string::npos);
    EXPECT_NE(a.find("\"introspect\":{"), std::string::npos);
    EXPECT_NE(a.find("\"fault_plan\":{"), std::string::npos);
    EXPECT_NE(a.find("\"site\":\"ipi_drop\""), std::string::npos);
}

/// The harness-level exporter writes the same document to disk.
TEST(Postmortem, HarnessExportWritesFile)
{
    sim::ChaosConfig config;
    config.ops = 40;
    config.seed = 7;
    sim::ChaosHarness harness(config);
    harness.run();
    std::string path = ::testing::TempDir() + "flightrec_bundle.json";
    ASSERT_TRUE(harness.export_postmortem(path, "terminal_snapshot"));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string doc = buf.str();
    EXPECT_NE(doc.find("\"bundle\":\"vdom_postmortem\""), std::string::npos);
    EXPECT_NE(doc.find("\"reason\":\"terminal_snapshot\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"arch\":\"X86\""), std::string::npos);
}

/// Tail truncation: only the newest last_n records survive into the
/// bundle, and the omitted count says how many fell off.
TEST(Postmortem, LastNKeepsNewestRecords)
{
    FlightRecorder rec(1, 64);
    for (std::uint32_t i = 0; i < 10; ++i)
        rec.record({FlightEvent::kFault, 0, 0, i});
    PostmortemInfo info;
    info.reason = "r";
    info.flight = &rec;
    info.last_n = 3;
    std::string doc = postmortem_json(info);
    EXPECT_NE(doc.find("\"omitted\":7"), std::string::npos);
    EXPECT_EQ(doc.find("\"seq\":7,"), std::string::npos);
    EXPECT_NE(doc.find("\"seq\":8,"), std::string::npos);
    EXPECT_NE(doc.find("\"seq\":10,"), std::string::npos);
}

}  // namespace
}  // namespace vdom::telemetry
