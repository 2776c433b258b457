/// \file
/// Telemetry tests: metrics registry (counters, gauges, histograms and
/// snapshots), spans in the flight record, the flight-trace export, and
/// the cycle-identity guarantee (instrumentation never charges cycles).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/httpd.h"
#include "apps/strategy.h"
#include "common.h"
#include "hw/cost_kind.h"
#include "sim/fault.h"
#include "telemetry/flightrec.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"

namespace vdom::telemetry {
namespace {

using kernel::Task;
using ::vdom::testing::FakeCore;
using ::vdom::testing::World;

TEST(MetricsRegistry, CountersAccumulate)
{
    MetricsRegistry registry;
    registry.add(Metric::kTlbMiss, 3);
    registry.add(Metric::kTlbMiss, 5);
    registry.add(Metric::kTlbMiss);
    EXPECT_EQ(registry.value(Metric::kTlbMiss), 9u);
    EXPECT_EQ(registry.value(Metric::kTlbHit), 0u);
}

TEST(MetricsRegistry, GaugeOverwrites)
{
    MetricsRegistry registry;
    registry.set(Metric::kVdsCount, 4);
    registry.set(Metric::kVdsCount, 4);  // Overwrites, no accumulation.
    EXPECT_EQ(registry.value(Metric::kVdsCount), 4u);
    registry.set(Metric::kVdsCount, 2);
    EXPECT_EQ(registry.value(Metric::kVdsCount), 2u);
}

TEST(MetricsRegistry, SnapshotSkipsZeroesByDefault)
{
    MetricsRegistry registry;
    registry.add(Metric::kShootdowns, 2);
    auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].name, "shootdown.count");
    EXPECT_EQ(samples[0].value, 2u);
    // With zeroes: exactly one sample per well-known metric, in table
    // order.
    auto all = registry.snapshot(/*include_zeroes=*/true);
    ASSERT_EQ(all.size(), kNumWellKnownMetrics);
    for (std::size_t i = 0; i < kNumWellKnownMetrics; ++i) {
        EXPECT_EQ(all[i].name, kMetricDefs[i].name);
        EXPECT_EQ(all[i].kind, kMetricDefs[i].kind);
    }
}

TEST(MetricsRegistry, ResetZeroesEverything)
{
    MetricsRegistry registry;
    registry.add(Metric::kTlbHit, 5);
    registry.observe(Metric::kWrvdrLatency, 100);
    registry.reset();
    EXPECT_EQ(registry.value(Metric::kTlbHit), 0u);
    EXPECT_EQ(registry.histogram(Metric::kWrvdrLatency).count, 0u);
}

TEST(Histogram, Log2BucketMath)
{
    EXPECT_EQ(Histogram::bucket_of(0), 0u);
    EXPECT_EQ(Histogram::bucket_of(1), 1u);
    EXPECT_EQ(Histogram::bucket_of(2), 2u);
    EXPECT_EQ(Histogram::bucket_of(3), 2u);
    EXPECT_EQ(Histogram::bucket_of(4), 3u);
    EXPECT_EQ(Histogram::bucket_of(1023), 10u);
    EXPECT_EQ(Histogram::bucket_of(1024), 11u);
    EXPECT_EQ(Histogram::bucket_bound(0), 0u);
    EXPECT_EQ(Histogram::bucket_bound(2), 3u);
    EXPECT_EQ(Histogram::bucket_bound(11), 2047u);
}

TEST(Histogram, PercentilesAndMean)
{
    Histogram h;
    // 90 cheap samples (value 10, bucket bound 15) and 10 expensive ones
    // (value 1000, bucket bound 1023).
    for (int i = 0; i < 90; ++i)
        h.observe(10);
    for (int i = 0; i < 10; ++i)
        h.observe(1000);
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.percentile(0.50), 15u);
    EXPECT_EQ(h.percentile(0.89), 15u);
    EXPECT_EQ(h.percentile(0.99), 1023u);
    EXPECT_DOUBLE_EQ(h.mean(), (90.0 * 10 + 10.0 * 1000) / 100.0);
    EXPECT_EQ(Histogram{}.percentile(0.5), 0u);  // Empty histogram.
}

TEST(Histogram, MergeAddsBucketsCountAndSum)
{
    Histogram a, b;
    a.observe(5);
    b.observe(5);
    b.observe(500);
    a += b;
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(a.sum, 510u);
    EXPECT_EQ(a.buckets[Histogram::bucket_of(5)], 2u);
    EXPECT_EQ(a.buckets[Histogram::bucket_of(500)], 1u);
}

TEST(MetricsRegistry, HistogramMergesShards)
{
    MetricsRegistry registry;
    registry.observe(Metric::kShootdownLatency, 100);
    registry.observe(Metric::kShootdownLatency, 200);
    Histogram h = registry.histogram(Metric::kShootdownLatency);
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 300u);
    // A histogram's scalar value is its sample count.
    EXPECT_EQ(registry.value(Metric::kShootdownLatency), 2u);
}

TEST(MetricNames, WellKnownTableIsComplete)
{
    for (std::size_t i = 0; i < kNumWellKnownMetrics; ++i) {
        auto m = static_cast<Metric>(i);
        ASSERT_NE(metric_name(m), nullptr);
        EXPECT_GT(std::string(metric_name(m)).size(), 0u);
        // Naming scheme: histograms end in "_cycles" (latencies),
        // "_targets" (fan-out distributions) or "_depth" (log sizes).
        std::string name = metric_name(m);
        auto ends_with = [&name](const std::string &suffix) {
            return name.size() > suffix.size() &&
                   name.substr(name.size() - suffix.size()) == suffix;
        };
        bool histo_suffix = ends_with("_cycles") || ends_with("_targets") ||
                            ends_with("_depth");
        EXPECT_EQ(metric_kind(m) == MetricKind::kHistogram, histo_suffix)
            << name;
    }
}

/// An instrumented httpd run records properly nested spans: on every
/// (core, tid) track each end closes the innermost open begin of the same
/// name, no span stays open, and the request > wrvdr > ensure_mapped >
/// evict chain shows up as real nesting depth.
TEST(SpanNesting, BalancedPerCoreTidTrackInHttpdRun)
{
    auto world = std::unique_ptr<World>(World::x86(8));
    world->sys.vdom_init(world->core(0));
    apps::VdomStrategy strategy(world->sys, 2);
    apps::HttpdConfig cfg =
        apps::HttpdConfig::for_arch(hw::ArchKind::kX86, 16, 1);
    cfg.workers = 40;
    cfg.total_requests = 100;
    FlightRecorder flight(8, std::size_t{1} << 14);
    world->machine.set_flight(&flight);
    apps::HttpdResult r =
        apps::run_httpd(world->machine, world->proc, strategy, cfg);
    ASSERT_EQ(r.completed, cfg.total_requests);
    ASSERT_EQ(flight.dropped(), 0u);

    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<std::string>>
        open;
    std::size_t spans = 0, max_depth = 0;
    for (const FlightRecord &r : flight.merged()) {
        std::vector<std::string> &stack = open[{r.core, r.tid}];
        if (r.kind == FlightEvent::kSpanBegin) {
            stack.push_back(r.name);
            max_depth = std::max(max_depth, stack.size());
            ++spans;
        } else if (r.kind == FlightEvent::kSpanEnd) {
            ASSERT_FALSE(stack.empty())
                << "unmatched end of " << r.name << " seq " << r.seq;
            ASSERT_EQ(stack.back(), r.name) << "seq " << r.seq;
            stack.pop_back();
        }
    }
    for (const auto &[track, stack] : open)
        EXPECT_TRUE(stack.empty()) << "core " << track.first << " tid "
                                   << track.second << " left "
                                   << stack.size() << " spans open";
    EXPECT_GE(spans, cfg.total_requests);
    EXPECT_GE(max_depth, 4u);
}

/// Span emitters write only into the recorder of the core they are
/// given: detached they are a no-op, and the RAII Span brackets its scope
/// with the core's clock at entry and exit.
TEST(SpanHooks, NullSinkIsSafeAndSpansGoToTheirSink)
{
    span_begin(FakeCore{}, "x", 0);  // Must not crash.
    span_end(FakeCore{nullptr, 0, 1}, "x", 0);
    FlightRecorder outer(1), inner(1);
    span_instant(FakeCore{&outer}, "o", 0);
    span_instant(FakeCore{&inner}, "i", 0);
    span_instant(FakeCore{&outer, 0, 1}, "o", 0);
    EXPECT_EQ(outer.total(), 2u);
    EXPECT_EQ(inner.total(), 1u);
    EXPECT_EQ(inner.ring(0).front().kind, FlightEvent::kSpanInstant);
    EXPECT_STREQ(inner.ring(0).front().name, "i");

    FakeCore detached{nullptr, 2, 10};
    {
        Span<FakeCore> span("none", detached, 5);  // Must not crash.
    }
    FlightRecorder rec(4);
    FakeCore core{&rec, 2, 10};
    {
        Span<FakeCore> span("scope", core, 5);
        core.clock = 25;
    }
    std::vector<FlightRecord> records = rec.merged();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].kind, FlightEvent::kSpanBegin);
    EXPECT_EQ(records[1].kind, FlightEvent::kSpanEnd);
    EXPECT_EQ(records[0].ts, 10u);
    EXPECT_EQ(records[1].ts, 25u);
    EXPECT_EQ(records[1].core, 2u);
    EXPECT_EQ(records[1].tid, 5u);
}

TEST(MetricHooks, NullSinkIsSafeAndScopedAttachRestores)
{
    set_metrics_sink(nullptr);
    metric_add(Metric::kTlbHit);  // Must not crash.
    metric_set(Metric::kVdsCount, 3);
    metric_observe(Metric::kWrvdrLatency, 10);
    MetricsRegistry registry;
    {
        ScopedMetrics attach(registry);
        metric_add(Metric::kTlbHit, 2);
    }
    EXPECT_EQ(metrics_sink(), nullptr);
    EXPECT_EQ(registry.value(Metric::kTlbHit), 2u);
}

TEST(JsonWriter, EscapesAndNests)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.begin_object();
    w.key("s").value("a\"b\\c\n");
    w.key("arr").begin_array().value(1).value(2.5).value(true).end_array();
    w.key("nested").begin_object().key("k").value(std::uint64_t{7})
        .end_object();
    w.end_object();
    EXPECT_EQ(out.str(),
              "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[1,2.5,true],"
              "\"nested\":{\"k\":7}}");
}

TEST(FlightTrace, ExportsSpansWithAttribution)
{
    FlightRecorder rec(2);
    span_begin(FakeCore{&rec, 0, 100}, "request", 7);
    span_begin(FakeCore{&rec, 0, 110}, "wrvdr", 7);
    span_end(FakeCore{&rec, 0, 150}, "wrvdr", 7);
    span_instant(FakeCore{&rec, 1, 160}, "shootdown", 0);
    span_end(FakeCore{&rec, 0, 200}, "request", 7);

    MetricsRegistry registry;
    registry.add(Metric::kWrvdrCalls, 1);

    std::string json = flight_trace_json(rec, &registry);
    // Structural spot-checks: event array, phases, attribution, metadata.
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"flight\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    // The attached registry is appended as a self-describing block.
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"api.wrvdr\":1"), std::string::npos);
    // No dropped records -> no droppedEvents key.
    EXPECT_EQ(json.find("droppedEvents"), std::string::npos);
}

TEST(FlightTrace, ReportsDrops)
{
    FlightRecorder rec(1, 1);
    span_instant(FakeCore{&rec}, "lost", 0);
    span_instant(FakeCore{&rec, 0, 1}, "kept", 0);
    std::string json = flight_trace_json(rec);
    EXPECT_NE(json.find("\"droppedEvents\":1"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"kept\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"lost\""), std::string::npos);
}

TEST(CycleBreakdown, OverheadExcludesComputeIoAndIdle)
{
    hw::CycleBreakdown b;
    b.add(hw::CostKind::kCompute, 1000);
    b.add(hw::CostKind::kIo, 500);
    b.add(hw::CostKind::kIdle, 250);
    b.add(hw::CostKind::kApi, 30);
    b.add(hw::CostKind::kEviction, 20);
    b.add(hw::CostKind::kShootdown, 10);
    EXPECT_EQ(b.total(), 1810u);
    EXPECT_EQ(b.overhead(), 60u);
}

TEST(CycleBreakdown, MergeCoversEveryCostKind)
{
    hw::CycleBreakdown a, b;
    for (std::size_t i = 0; i < hw::kNumCostKinds; ++i) {
        a.add(static_cast<hw::CostKind>(i), i + 1);
        b.add(static_cast<hw::CostKind>(i), 10 * (i + 1));
    }
    a += b;
    for (std::size_t i = 0; i < hw::kNumCostKinds; ++i)
        EXPECT_EQ(a.get(static_cast<hw::CostKind>(i)), 11 * (i + 1))
            << cost_kind_name(static_cast<hw::CostKind>(i));
}

/// Drives a deterministic workload touching the instrumented paths: wrvdr
/// churn past the pdom limit (evictions, map hits), protected accesses
/// (TLB, faults, sigsegv) and a remote shootdown.
void
drive_workload(World &world)
{
    Task *task = world.ready_thread(/*nas=*/1);
    std::size_t usable = world.machine.params().usable_pdoms();
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t i = 0; i < usable + 2; ++i)
        doms.push_back(world.make_domain(1));
    for (int round = 0; round < 3; ++round) {
        for (auto &[v, vpn] : doms) {
            world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
            world.sys.access(world.core(0), *task, vpn, true);
            world.sys.wrvdr(world.core(0), *task, v, VPerm::kAccessDisable);
        }
    }
    // A denied access (sigsegv path) and a remote shootdown.
    world.sys.access(world.core(0), *task, doms[0].second, true);
    world.spawn(1);
    world.proc.shootdown().shoot(world.core(0), 0b0010,
                                 kernel::FlushKind::kAll);
}

/// The zero-cost contract: attaching every telemetry sink must not change
/// a single simulated cycle — clocks and breakdowns are bit-identical to
/// an uninstrumented run.
TEST(CycleIdentity, SinksNeverChargeCycles)
{
    // Plain run, no sinks: a world is born with neither a plan nor a
    // recorder.
    set_metrics_sink(nullptr);
    auto plain = std::unique_ptr<World>(World::x86(4));
    EXPECT_EQ(plain->machine.faults(), nullptr);
    EXPECT_EQ(plain->machine.flight(), nullptr);
    drive_workload(*plain);

    // Instrumented run: metrics + flight recorder (spans and typed events)
    // attached, plus an attached-but-unarmed fault plan — injection sites
    // that never fire must not perturb a single cycle either.
    auto traced = std::unique_ptr<World>(World::x86(4));
    MetricsRegistry registry;
    sim::FaultPlan unarmed_plan(1);
    FlightRecorder flight(4);
    traced->machine.set_faults(&unarmed_plan);
    traced->machine.set_flight(&flight);
    {
        ScopedMetrics attach_metrics(registry);
        drive_workload(*traced);
    }
    EXPECT_EQ(unarmed_plan.total_fires(), 0u);

    // The instrumentation observed real activity...
    EXPECT_GT(registry.value(Metric::kWrvdrCalls), 0u);
    EXPECT_GT(registry.value(Metric::kHlruEvict), 0u);
    EXPECT_GT(registry.value(Metric::kSigsegv), 0u);
    EXPECT_GT(registry.value(Metric::kShootdowns), 0u);
    EXPECT_GT(registry.histogram(Metric::kWrvdrLatency).count, 0u);
    EXPECT_GT(flight.count(FlightEvent::kSpanBegin), 0u);
    EXPECT_GT(flight.count(FlightEvent::kSigsegv), 0u);
    EXPECT_GT(flight.total(), 0u);
    EXPECT_GT(flight.last_flow(), 0u);

    // ...and charged exactly nothing for it.
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(plain->core(c).now(), traced->core(c).now()) << c;
    hw::CycleBreakdown pb = plain->machine.total_breakdown();
    hw::CycleBreakdown tb = traced->machine.total_breakdown();
    for (std::size_t i = 0; i < hw::kNumCostKinds; ++i)
        EXPECT_EQ(pb.by_kind[i], tb.by_kind[i])
            << cost_kind_name(static_cast<hw::CostKind>(i));
}

/// What one world's run leaves behind: per-core clocks and its
/// recorder's retained records, rendered with core and sequence.
struct WorldRun {
    std::vector<hw::Cycles> clocks;
    std::vector<std::string> records;
};

WorldRun
observe(World &world, const FlightRecorder &flight)
{
    WorldRun run;
    for (std::size_t c = 0; c < world.machine.num_cores(); ++c)
        run.clocks.push_back(world.core(c).now());
    for (const FlightRecord &r : flight.merged())
        run.records.push_back(FlightRecorder::format(r) + " core=" +
                              std::to_string(r.core) +
                              " seq=" + std::to_string(r.seq));
    return run;
}

/// Probability-arms sites drive_workload crosses, so every crossing
/// draws from the plan's RNG and fires change cycles.
void
arm_probabilistic(sim::FaultPlan &plan)
{
    plan.arm(sim::FaultSite::kTlbEntryDrop, {.probability = 0.3});
    plan.arm(sim::FaultSite::kPteWriteDelay, {.probability = 0.25});
    plan.arm(sim::FaultSite::kIpiDrop, {.probability = 0.5});
}

/// Two worlds alive in one scope keep their own sinks.  A plan attached
/// to world A never sees world B's crossings: they do not fire, and they
/// advance neither A's occurrence counts nor its RNG.  Each recorder
/// holds only its own world's records.  So both worlds match the same
/// world run alone.
TEST(WorldSinks, TwoWorldsKeepTheirOwnPlanAndRecorder)
{
    constexpr std::size_t kRecords = std::size_t{1} << 14;
    sim::FaultPlan solo_plan(5);
    arm_probabilistic(solo_plan);
    FlightRecorder solo_a_flight(4, kRecords), solo_b_flight(4, kRecords);
    WorldRun want_a, want_b;
    {
        auto solo_a = std::unique_ptr<World>(World::x86(4));
        solo_a->machine.set_faults(&solo_plan);
        solo_a->machine.set_flight(&solo_a_flight);
        drive_workload(*solo_a);
        want_a = observe(*solo_a, solo_a_flight);
        auto solo_b = std::unique_ptr<World>(World::x86(4));
        solo_b->machine.set_flight(&solo_b_flight);
        drive_workload(*solo_b);
        want_b = observe(*solo_b, solo_b_flight);
    }
    // The plan really acts on A: it fires, and A's cycles move.
    ASSERT_GT(solo_plan.total_fires(), 0u);
    ASSERT_NE(want_a.clocks, want_b.clocks);

    sim::FaultPlan plan(5);
    arm_probabilistic(plan);
    FlightRecorder flight_a(4, kRecords), flight_b(4, kRecords);
    auto a = std::unique_ptr<World>(World::x86(4));
    auto b = std::unique_ptr<World>(World::x86(4));
    a->machine.set_faults(&plan);
    a->machine.set_flight(&flight_a);
    b->machine.set_flight(&flight_b);
    EXPECT_EQ(b->machine.faults(), nullptr);

    // B runs first, with A's plan armed and attached the whole time.
    drive_workload(*b);
    for (std::size_t s = 0; s <= sim::kNumFaultSites; ++s)
        EXPECT_EQ(plan.occurrences(static_cast<sim::FaultSite>(s)), 0u)
            << sim::fault_site_name(static_cast<sim::FaultSite>(s));
    EXPECT_EQ(flight_a.total(), 0u);
    drive_workload(*a);

    for (std::size_t s = 0; s <= sim::kNumFaultSites; ++s) {
        auto site = static_cast<sim::FaultSite>(s);
        EXPECT_EQ(plan.occurrences(site), solo_plan.occurrences(site))
            << sim::fault_site_name(site);
        EXPECT_EQ(plan.fires(site), solo_plan.fires(site))
            << sim::fault_site_name(site);
    }
    WorldRun got_a = observe(*a, flight_a);
    WorldRun got_b = observe(*b, flight_b);
    EXPECT_EQ(flight_a.dropped(), 0u);
    EXPECT_EQ(flight_b.dropped(), 0u);
    EXPECT_EQ(got_a.clocks, want_a.clocks);
    EXPECT_EQ(got_a.records, want_a.records);
    EXPECT_EQ(got_b.clocks, want_b.clocks);
    EXPECT_EQ(got_b.records, want_b.records);
}

/// Telemetry counters line up with the flight record's typed events for
/// the same run.
TEST(Integration, MetricsAgreeWithEventTrace)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    MetricsRegistry registry;
    FlightRecorder events(2, 1 << 16);
    world->machine.set_flight(&events);
    {
        ScopedMetrics attach_metrics(registry);
        Task *task = world->ready_thread(/*nas=*/1);
        std::size_t usable = world->machine.params().usable_pdoms();
        for (std::size_t i = 0; i < usable + 2; ++i) {
            auto [v, vpn] = world->make_domain(1);
            (void)vpn;
            world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
            world->sys.wrvdr(world->core(0), *task, v,
                             VPerm::kAccessDisable);
        }
    }
    ASSERT_EQ(events.dropped(), 0u);
    EXPECT_EQ(registry.value(Metric::kHlruEvict),
              events.count(FlightEvent::kEvict));
    EXPECT_EQ(registry.value(Metric::kDomainMapFree),
              events.count(FlightEvent::kMapFree));
    EXPECT_EQ(registry.value(Metric::kSigsegv),
              events.count(FlightEvent::kSigsegv));
}

}  // namespace
}  // namespace vdom::telemetry
