/// \file
/// Fault-injection engine and chaos-harness tests.
///
/// Covers the FaultPlan trigger semantics (every-Nth, probability, skip,
/// fire budget, seed reproducibility, null-hook no-op), the graceful
/// degradation of individual injection sites, and the full chaos sweep:
/// randomized churn with sites armed on both architectures, with the
/// DESIGN.md invariants checked after every operation.

#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"
#include "vdom/introspect.h"

namespace vdom {
namespace {

using ::vdom::testing::World;
using sim::ChaosConfig;
using sim::ChaosHarness;
using sim::ChaosResult;
using sim::FaultPlan;
using sim::FaultSite;
using sim::FaultSpec;

// -- FaultPlan trigger semantics ------------------------------------------

TEST(FaultPlan, UnarmedSitesNeverFireAndCountNothing)
{
    FaultPlan plan(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(plan.should_fire(FaultSite::kTlbEntryDrop));
    EXPECT_EQ(plan.occurrences(FaultSite::kTlbEntryDrop), 0u);
    EXPECT_EQ(plan.fires(FaultSite::kTlbEntryDrop), 0u);
    EXPECT_EQ(plan.total_fires(), 0u);
}

TEST(FaultPlan, EveryNthFiresExactlyOnSchedule)
{
    FaultPlan plan(7);
    plan.arm(FaultSite::kIpiDrop, {.every = 3});
    std::vector<int> fired;
    for (int i = 1; i <= 9; ++i) {
        if (plan.should_fire(FaultSite::kIpiDrop))
            fired.push_back(i);
    }
    EXPECT_EQ(fired, (std::vector<int>{3, 6, 9}));
    EXPECT_EQ(plan.occurrences(FaultSite::kIpiDrop), 9u);
    EXPECT_EQ(plan.fires(FaultSite::kIpiDrop), 3u);
}

TEST(FaultPlan, SkipDelaysArmingAndBudgetCapsFires)
{
    FaultPlan plan(7);
    plan.arm(FaultSite::kVdsAllocFail,
             {.every = 1, .skip = 2, .max_fires = 3});
    std::vector<int> fired;
    for (int i = 1; i <= 10; ++i) {
        if (plan.should_fire(FaultSite::kVdsAllocFail))
            fired.push_back(i);
    }
    // Occurrences 1-2 skipped, then every occurrence fires until the
    // budget of 3 is spent.
    EXPECT_EQ(fired, (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(plan.occurrences(FaultSite::kVdsAllocFail), 10u);
    EXPECT_EQ(plan.fires(FaultSite::kVdsAllocFail), 3u);
    EXPECT_EQ(plan.total_fires(), 3u);
}

TEST(FaultPlan, ProbabilityStreamIsSeedReproducible)
{
    FaultPlan a(1234);
    FaultPlan b(1234);
    a.arm(FaultSite::kTlbEntryDrop, {.probability = 0.3});
    b.arm(FaultSite::kTlbEntryDrop, {.probability = 0.3});
    std::uint64_t fires = 0;
    for (int i = 0; i < 500; ++i) {
        bool fa = a.should_fire(FaultSite::kTlbEntryDrop);
        bool fb = b.should_fire(FaultSite::kTlbEntryDrop);
        ASSERT_EQ(fa, fb) << "diverged at occurrence " << i;
        fires += fa;
    }
    // A 30% coin over 500 tosses lands well inside (50, 250).
    EXPECT_GT(fires, 50u);
    EXPECT_LT(fires, 250u);
    EXPECT_EQ(a.fires(FaultSite::kTlbEntryDrop), fires);
}

TEST(FaultPlan, NullHookIsANoOp)
{
    EXPECT_FALSE(sim::fault_fires(nullptr, FaultSite::kTlbEntryDrop));

    auto world = std::unique_ptr<World>(World::x86(2));
    EXPECT_EQ(world->machine.faults(), nullptr);
    FaultPlan plan(7);
    plan.arm(FaultSite::kTlbEntryDrop, {.every = 1});
    world->machine.set_faults(&plan);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(world->core(c).faults(), &plan);
    EXPECT_TRUE(
        sim::fault_fires(world->core(1).faults(), FaultSite::kTlbEntryDrop));
    // Detached again: no counting, no firing.
    world->machine.set_faults(nullptr);
    EXPECT_EQ(world->core(1).faults(), nullptr);
    EXPECT_FALSE(
        sim::fault_fires(world->core(1).faults(), FaultSite::kTlbEntryDrop));
    EXPECT_EQ(plan.occurrences(FaultSite::kTlbEntryDrop), 1u);
}

TEST(FaultPlan, FiresAreCountedInTelemetry)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    FaultPlan plan(7);
    plan.arm(FaultSite::kGateEntryDenied, {.every = 2});
    for (int i = 0; i < 10; ++i)
        plan.should_fire(FaultSite::kGateEntryDenied);
    EXPECT_EQ(registry.value(telemetry::Metric::kFaultsInjected), 5u);
}

TEST(FaultPlan, ResetCountsKeepsArming)
{
    FaultPlan plan(7);
    plan.arm(FaultSite::kIpiDrop, {.every = 1});
    plan.should_fire(FaultSite::kIpiDrop);
    plan.reset_counts();
    EXPECT_EQ(plan.fires(FaultSite::kIpiDrop), 0u);
    EXPECT_EQ(plan.total_fires(), 0u);
    EXPECT_TRUE(plan.armed(FaultSite::kIpiDrop));
    EXPECT_TRUE(plan.should_fire(FaultSite::kIpiDrop));
}

// -- Individual site degradation ------------------------------------------

TEST(FaultSiteBehavior, VdrExhaustedSurfacesResourceExhausted)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    world->sys.vdom_init(world->core(0));
    kernel::Task *task = world->spawn();
    FaultPlan plan(7);
    plan.arm(FaultSite::kVdrExhausted, {.every = 1});
    world->machine.set_faults(&plan);
    EXPECT_EQ(world->sys.vdr_alloc(world->core(0), *task, 2),
              VdomStatus::kResourceExhausted);
    EXPECT_FALSE(task->has_vdr());
    world->machine.set_faults(nullptr);
    // Unarmed retry succeeds: the failure was transient, not sticky.
    EXPECT_EQ(world->sys.vdr_alloc(world->core(0), *task, 2),
              VdomStatus::kOk);
}

TEST(FaultSiteBehavior, VdtAllocFailRejectsMprotectWithoutMutation)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    world->ready_thread();
    VdomId v = world->sys.vdom_alloc(world->core(0));
    hw::Vpn vpn = world->proc.mm().mmap(2);
    FaultPlan plan(7);
    plan.arm(FaultSite::kVdtAllocFail, {.every = 1});
    world->machine.set_faults(&plan);
    EXPECT_EQ(world->sys.vdom_mprotect(world->core(0), vpn, 2, v),
              VdomStatus::kResourceExhausted);
    world->machine.set_faults(nullptr);
    EXPECT_TRUE(world->proc.mm().vdm().vdt().areas(v).empty());
    // The same call succeeds once the fault clears.
    EXPECT_EQ(world->sys.vdom_mprotect(world->core(0), vpn, 2, v),
              VdomStatus::kOk);
}

TEST(FaultSiteBehavior, PermRegWriteFailExhaustsRetriesWithoutMutation)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    FaultPlan plan(7);
    plan.arm(FaultSite::kPermRegWriteFail, {.probability = 1.0});
    world->machine.set_faults(&plan);
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, v,
                               VPerm::kFullAccess),
              VdomStatus::kRetriesExhausted);
    world->machine.set_faults(nullptr);
    // The grant never landed: VDR still reports the default.
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, v),
              VPerm::kAccessDisable);
    // Bounded: retries stop after the cap, they do not loop forever.
    EXPECT_LE(plan.fires(FaultSite::kPermRegWriteFail), 8u);
}

TEST(FaultSiteBehavior, GateEntryDeniedIsRetryable)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    FaultPlan plan(7);
    plan.arm(FaultSite::kGateEntryDenied, {.every = 1, .max_fires = 1});
    world->machine.set_faults(&plan);
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, v,
                               VPerm::kFullAccess),
              VdomStatus::kTransientFault);
    // Budget spent: the retry goes through and the grant lands.
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, v,
                               VPerm::kFullAccess),
              VdomStatus::kOk);
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, v),
              VPerm::kFullAccess);
}

TEST(FaultSiteBehavior, TlbEntryDropForcesRewalkNotCorruption)
{
    auto world = std::unique_ptr<World>(World::x86(1));
    kernel::Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    ASSERT_TRUE(world->sys.access(world->core(0), *task, vpn, true).ok);

    FaultPlan plan(7);
    plan.arm(FaultSite::kTlbEntryDrop, {.probability = 1.0});
    world->machine.set_faults(&plan);
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    VAccess res = world->sys.access(world->core(0), *task, vpn, true);
    // The access still succeeds -- it just pays a rewalk.
    EXPECT_TRUE(res.ok);
    EXPECT_GT(plan.fires(FaultSite::kTlbEntryDrop), 0u);
    EXPECT_GT(registry.value(telemetry::Metric::kTlbMiss), 0u);
}

// -- Chaos sweeps (>= 4 sites x both architectures) -----------------------

struct SweepCase {
    FaultSite site;
    FaultSpec spec;
};

class ChaosSweep
    : public ::testing::TestWithParam<std::tuple<hw::ArchKind, SweepCase>> {
};

TEST_P(ChaosSweep, InvariantsHoldAfterEveryInjection)
{
    auto [arch, sweep] = GetParam();
    ChaosConfig config;
    config.arch = arch;
    config.ops = 400;
    config.seed = 99;
    config.faults = {{sweep.site, sweep.spec}};

    ChaosHarness harness(config);
    ChaosResult result = harness.run();
    EXPECT_TRUE(result.ok()) << result.first_violation;
    EXPECT_EQ(result.ops, 400u);
    EXPECT_GE(result.invariant_checks, result.ops);
    std::size_t idx = static_cast<std::size_t>(sweep.site);
    EXPECT_GT(result.occurrences_by_site[idx], 0u)
        << "site " << sim::fault_site_name(sweep.site)
        << " never reached while armed";
    EXPECT_GT(result.fires_by_site[idx], 0u)
        << "site " << sim::fault_site_name(sweep.site) << " never fired";
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, ChaosSweep,
    ::testing::Combine(
        ::testing::Values(hw::ArchKind::kX86, hw::ArchKind::kArm),
        ::testing::Values(
            SweepCase{FaultSite::kTlbEntryDrop, {.probability = 0.4}},
            SweepCase{FaultSite::kPteWriteDelay, {.probability = 0.4}},
            SweepCase{FaultSite::kPermRegWriteFail, {.probability = 0.3}},
            SweepCase{FaultSite::kIpiDrop, {.probability = 0.4}},
            SweepCase{FaultSite::kAsidExhaustion, {.probability = 0.1}},
            SweepCase{FaultSite::kVdsAllocFail, {.probability = 0.5}},
            SweepCase{FaultSite::kVdtAllocFail, {.probability = 0.5}},
            SweepCase{FaultSite::kGateEntryDenied, {.probability = 0.3}})),
    [](const auto &info) {
        return std::string(hw::arch_name(std::get<0>(info.param))) + "_" +
               sim::fault_site_name(std::get<1>(info.param).site);
    });

TEST(ChaosAllArmed, EverySiteAtOnceOnBothArches)
{
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        ChaosConfig config;
        config.arch = arch;
        config.ops = 600;
        config.seed = 5;
        for (std::size_t s = 0; s < sim::kNumFaultSites; ++s) {
            config.faults.emplace_back(static_cast<FaultSite>(s),
                                       FaultSpec{.probability = 0.2});
        }
        ChaosHarness harness(config);
        ChaosResult result = harness.run();
        EXPECT_TRUE(result.ok())
            << hw::arch_name(arch) << ": " << result.first_violation;
        EXPECT_GT(result.faults_injected, 0u);
        EXPECT_GT(result.transient_failures, 0u);
    }
}

TEST(ChaosAllArmed, BrutalModeNeverAborts)
{
    // Every site firing on every occurrence: pure degraded paths, still no
    // crash and no invariant violation.
    ChaosConfig config;
    config.ops = 150;
    config.seed = 3;
    for (std::size_t s = 0; s < sim::kNumFaultSites; ++s) {
        config.faults.emplace_back(static_cast<FaultSite>(s),
                                   FaultSpec{.every = 1});
    }
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        config.arch = arch;
        ChaosHarness harness(config);
        ChaosResult result = harness.run();
        EXPECT_TRUE(result.ok())
            << hw::arch_name(arch) << ": " << result.first_violation;
        EXPECT_GT(result.faults_injected, 0u);
    }
}

// -- Determinism under faults ---------------------------------------------

/// One fully armed run with telemetry attached, for replay comparison.
struct InstrumentedRun {
    ChaosResult result;
    std::vector<telemetry::MetricsRegistry::Sample> metrics;
    std::size_t span_events = 0;  ///< Span records the flight rings kept.
    std::uint64_t flight_digest = 0;  ///< Over every record's text form.
    std::string dump;                 ///< Introspect report at the end.
    std::vector<hw::Cycles> clocks;   ///< Per-core clocks at the end.
};

InstrumentedRun
run_instrumented(const ChaosConfig &config)
{
    InstrumentedRun out;
    telemetry::MetricsRegistry registry;
    ChaosHarness harness(config);
    {
        telemetry::ScopedMetrics metrics(registry);
        out.result = harness.run();
    }
    out.metrics = registry.snapshot();
    const telemetry::FlightRecorder &flight = harness.flight();
    using telemetry::FlightEvent;
    out.span_events = flight.count(FlightEvent::kSpanBegin) +
                      flight.count(FlightEvent::kSpanEnd) +
                      flight.count(FlightEvent::kSpanInstant);
    std::string records;
    for (const telemetry::FlightRecord &rec : flight.merged())
        records += telemetry::FlightRecorder::format(rec) + "\n";
    out.flight_digest = snapshot_hash(records);
    std::ostringstream dump;
    dump_state(harness.system(), dump);
    out.dump = dump.str();
    for (std::size_t c = 0; c < harness.machine().num_cores(); ++c)
        out.clocks.push_back(harness.machine().core(c).now());
    return out;
}

TEST(ChaosDeterminism, SameFaultedScheduleTwiceIsIdentical)
{
    for (hw::ArchKind arch : {hw::ArchKind::kX86, hw::ArchKind::kArm}) {
        ChaosConfig config;
        config.arch = arch;
        config.ops = 300;
        config.seed = 2024;
        config.faults = {
            {FaultSite::kTlbEntryDrop, {.probability = 0.2}},
            {FaultSite::kPermRegWriteFail, {.probability = 0.2}},
            {FaultSite::kIpiDrop, {.probability = 0.3}},
            {FaultSite::kAsidExhaustion, {.probability = 0.05}},
            {FaultSite::kVdsAllocFail, {.probability = 0.3}},
        };

        InstrumentedRun a = run_instrumented(config);
        // A result depends only on its inputs, not on how many worlds the
        // binary built before it: each world numbers its own TLB tags and
        // VDS context ids, which the flight records and the introspect
        // report print.  So throwaway worlds of another shape in between
        // change nothing.
        for (std::uint64_t i = 0; i < 3; ++i) {
            ChaosConfig other = config;
            other.arch = arch == hw::ArchKind::kX86 ? hw::ArchKind::kArm
                                                    : hw::ArchKind::kX86;
            other.cores = 2;
            other.ops = 150;
            other.seed = 31 + i;
            EXPECT_TRUE(ChaosHarness(other).run().ok());
        }
        InstrumentedRun b = run_instrumented(config);

        EXPECT_GT(a.result.faults_injected, 0u);
        EXPECT_EQ(a.flight_digest, b.flight_digest);
        EXPECT_EQ(a.dump, b.dump);
        EXPECT_EQ(a.clocks, b.clocks);
        EXPECT_EQ(a.result.max_clock, b.result.max_clock);
        EXPECT_EQ(a.result.faults_injected, b.result.faults_injected);
        EXPECT_EQ(a.result.ok_accesses, b.result.ok_accesses);
        EXPECT_EQ(a.result.transient_failures, b.result.transient_failures);
        for (std::size_t k = 0; k < hw::kNumCostKinds; ++k) {
            EXPECT_EQ(a.result.breakdown.by_kind[k],
                      b.result.breakdown.by_kind[k])
                << hw::cost_kind_name(static_cast<hw::CostKind>(k));
        }
        // Telemetry replays too: same counters, same flight stream length
        // and span records (retry loops emit no extra spans -- see
        // kernel/shootdown.h).
        ASSERT_EQ(a.metrics.size(), b.metrics.size());
        for (std::size_t i = 0; i < a.metrics.size(); ++i) {
            EXPECT_EQ(a.metrics[i].name, b.metrics[i].name);
            EXPECT_EQ(a.metrics[i].value, b.metrics[i].value)
                << a.metrics[i].name;
        }
        EXPECT_EQ(a.result.flight_records, b.result.flight_records);
        EXPECT_GT(a.span_events, 0u);
        EXPECT_EQ(a.span_events, b.span_events);
    }
}

TEST(ChaosDeterminism, RetriesChargeCyclesButEmitOneSpanPerShootdown)
{
    // Same seed/workload with and without IPI drops: the faulted run pays
    // more cycles (the retries) but records exactly as many shootdown
    // span events -- retries never double-count spans or shootdown counts.
    ChaosConfig clean;
    clean.ops = 250;
    clean.seed = 77;
    ChaosConfig faulty = clean;
    faulty.faults = {{FaultSite::kIpiDrop, {.probability = 0.5}}};

    InstrumentedRun a = run_instrumented(clean);
    InstrumentedRun b = run_instrumented(faulty);

    std::uint64_t shootdowns_a = 0, shootdowns_b = 0;
    std::uint64_t retries_b = 0;
    for (const auto &s : b.metrics) {
        if (s.name == "shootdown.count")
            shootdowns_b = s.value;
        if (s.name == "shootdown.retry")
            retries_b = s.value;
    }
    for (const auto &s : a.metrics) {
        if (s.name == "shootdown.count")
            shootdowns_a = s.value;
    }
    ASSERT_GT(shootdowns_a, 0u);
    EXPECT_EQ(shootdowns_a, shootdowns_b);
    EXPECT_GT(retries_b, 0u);
    EXPECT_GT(b.result.max_clock, a.result.max_clock);
}

// -- Pinned outputs --------------------------------------------------------
//
// The determinism tests above compare two runs of the same build.  These
// pin one small run of each harness per architecture to fixed values, so a
// change that moves any count, clock, cycle or digest fails here and not
// only in the checked-in results/.

/// One small armed churn run, printed as every count it reports.
std::string
chaos_pin(hw::ArchKind arch)
{
    ChaosConfig config;
    config.arch = arch;
    config.ops = 200;
    config.seed = 11;
    for (std::size_t s = 0; s < sim::kNumFaultSites; ++s) {
        config.faults.emplace_back(static_cast<FaultSite>(s),
                                   FaultSpec{.probability = 0.2});
    }
    ChaosHarness harness(config);
    ChaosResult r = harness.run();
    EXPECT_TRUE(r.ok()) << r.first_violation;
    // Cycles are doubles: 17 digits print every bit.
    std::ostringstream out;
    out << std::setprecision(17) << "ops=" << r.ops
        << " faults=" << r.faults_injected
        << " transient=" << r.transient_failures << " ok=" << r.ok_accesses
        << " denied=" << r.denied_accesses
        << " checks=" << r.invariant_checks << " clock=" << r.max_clock;
    for (std::size_t k = 0; k < hw::kNumCostKinds; ++k) {
        if (r.breakdown.by_kind[k] != 0) {
            out << " " << hw::cost_kind_name(static_cast<hw::CostKind>(k))
                << "=" << r.breakdown.by_kind[k];
        }
    }
    return out.str();
}

TEST(ChaosPins, ArmedChurnX86)
{
    EXPECT_EQ(chaos_pin(hw::ArchKind::kX86),
              "ops=200 faults=79 transient=18 ok=6 denied=83 "
              "checks=200 clock=73698.299999999945 api=1448 "
              "perm_reg=2217.6000000000004 "
              "syscall=35832.400000000023 tlb_miss=14167 "
              "tlb_flush=4185 tlb_shootdown=107700 eviction=56 "
              "mem_sync=616 fault=43644 context_switch=24480");
}

TEST(ChaosPins, ArmedChurnArm)
{
    EXPECT_EQ(chaos_pin(hw::ArchKind::kArm),
              "ops=200 faults=102 transient=16 ok=5 denied=84 "
              "checks=273 clock=226767.29999999987 api=792 "
              "perm_reg=4889.699999999998 "
              "syscall=63601.200000000012 tlb_miss=24229 "
              "tlb_flush=113060 tlb_shootdown=465600 eviction=120 "
              "migration=2597 mem_sync=1200 fault=78660 "
              "context_switch=26520");
}

std::uint64_t
sweep_pin(hw::ArchKind arch)
{
    sim::SweepConfig config;
    config.arch = arch;
    config.domains = 3;
    config.churn_ops = 6;
    sim::SweepResult r = sim::SweepHarness(config).run();
    EXPECT_TRUE(r.ok()) << r.first_violation;
    return r.digest;
}

std::uint64_t
crash_sweep_pin(hw::ArchKind arch)
{
    sim::CrashSweepConfig config;
    config.arch = arch;
    config.domains = 2;
    config.churn_ops = 4;
    sim::CrashSweepResult r = sim::CrashSweepHarness(config).run();
    EXPECT_TRUE(r.ok()) << r.first_violation;
    return r.digest;
}

TEST(ChaosPins, SweepDigests)
{
    EXPECT_EQ(sweep_pin(hw::ArchKind::kX86), 8373097713263232068u);
    EXPECT_EQ(sweep_pin(hw::ArchKind::kArm), 13928129430651937944u);
}

TEST(ChaosPins, CrashSweepDigests)
{
    EXPECT_EQ(crash_sweep_pin(hw::ArchKind::kX86), 3477118032067169126u);
    EXPECT_EQ(crash_sweep_pin(hw::ArchKind::kArm), 9962002743846802910u);
}

}  // namespace
}  // namespace vdom
