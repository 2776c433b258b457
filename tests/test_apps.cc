/// \file
/// Application-model tests: each workload runs under every strategy and
/// the relative ordering of overheads matches the paper's findings.

#include <gtest/gtest.h>

#include <memory>

#include "apps/httpd.h"
#include "apps/mysql.h"
#include "apps/pmo.h"
#include "common.h"

namespace vdom::apps {
namespace {

using ::vdom::testing::World;

/// Fresh world + strategy bundle for one benchmark run.
struct Bundle {
    std::unique_ptr<World> world;
    std::unique_ptr<baselines::LibMpk> mpk;
    std::unique_ptr<baselines::Epk> epk;
    std::unique_ptr<Strategy> strategy;

    hw::Machine &machine() { return world->machine; }
    kernel::Process &proc() { return world->proc; }
};

Bundle
make_bundle(const std::string &kind, hw::ArchKind arch, std::size_t cores,
            bool huge = false)
{
    Bundle b;
    b.world = std::make_unique<World>(arch == hw::ArchKind::kX86
                                          ? hw::ArchParams::x86(cores)
                                          : hw::ArchParams::arm(cores));
    b.world->sys.vdom_init(b.world->core(0));
    if (kind == "none") {
        b.strategy = std::make_unique<NoneStrategy>(b.world->proc);
    } else if (kind == "vdom") {
        b.strategy = std::make_unique<VdomStrategy>(b.world->sys, 2);
    } else if (kind == "vdom_switch") {
        b.strategy = std::make_unique<VdomStrategy>(b.world->sys, 6);
    } else if (kind == "vdom_evict") {
        b.strategy = std::make_unique<VdomStrategy>(b.world->sys, 1);
    } else if (kind == "lowerbound") {
        b.strategy = std::make_unique<LowerboundStrategy>(b.world->sys);
    } else if (kind == "libmpk") {
        b.mpk = std::make_unique<baselines::LibMpk>(b.world->proc, huge);
        b.strategy =
            std::make_unique<LibmpkStrategy>(b.world->proc, *b.mpk);
    } else if (kind == "epk") {
        b.epk = std::make_unique<baselines::Epk>(b.world->machine.params());
        b.strategy = std::make_unique<EpkStrategy>(b.world->proc, *b.epk);
    }
    return b;
}

double
httpd_rps(const std::string &kind, std::size_t clients = 8,
          std::size_t cores = 8)
{
    Bundle b = make_bundle(kind, hw::ArchKind::kX86, cores);
    HttpdConfig cfg = HttpdConfig::for_arch(hw::ArchKind::kX86, clients, 16);
    cfg.workers = 25;
    cfg.total_requests = 240;
    HttpdResult r = run_httpd(b.machine(), b.proc(), *b.strategy, cfg);
    EXPECT_EQ(r.completed, cfg.total_requests);
    return r.requests_per_sec;
}

TEST(Httpd, CompletesUnderAllStrategies)
{
    for (const char *kind : {"none", "vdom", "epk", "libmpk"})
        EXPECT_GT(httpd_rps(kind), 0.0) << kind;
}

TEST(Httpd, VdomOverheadSmall)
{
    // Measured at saturation; closed-loop tail effects make the small
    // config noisy, hence the loose band around the paper's <2.2%.
    double base = httpd_rps("none", 24);
    double vdom = httpd_rps("vdom", 24);
    double overhead = base / vdom - 1.0;
    EXPECT_LT(overhead, 0.06) << "VDom overhead too high: " << overhead;
    EXPECT_GT(overhead, -0.04);
}

TEST(Httpd, OrderingVdomBeatsEpkBeatsLibmpkUnderConcurrency)
{
    // libmpk's busy waiting needs >15 truly concurrent key holders to
    // bite (Fig. 1), so the ordering is asserted on the paper-sized
    // 26-core machine at high client counts.
    double vdom = httpd_rps("vdom", 24, 26);
    double epk = httpd_rps("epk", 24, 26);
    double libmpk = httpd_rps("libmpk", 24, 26);
    EXPECT_GT(vdom, epk);
    EXPECT_GT(epk, libmpk);
}

TEST(Httpd, LibmpkHealthyAtLowConcurrency)
{
    // The flip side of Fig. 1: with few concurrent clients, libmpk's
    // hardware keys suffice and it even beats in-VM EPK.
    double epk = httpd_rps("epk", 4);
    double libmpk = httpd_rps("libmpk", 4);
    EXPECT_GT(libmpk, epk * 0.97);
}

TEST(Httpd, ManyVdomsAllocated)
{
    Bundle b = make_bundle("vdom", hw::ArchKind::kX86, 8);
    HttpdConfig cfg = HttpdConfig::for_arch(hw::ArchKind::kX86, 8, 1);
    cfg.workers = 8;
    cfg.total_requests = 200;
    HttpdResult r = run_httpd(b.machine(), b.proc(), *b.strategy, cfg);
    // 2 fresh key domains per request, never recycled ("unlimited").
    EXPECT_EQ(r.vdoms_allocated, 2 * cfg.total_requests);
    EXPECT_GT(b.world->proc.mm().vdm().live_count(), 300u);
}

TEST(Httpd, LibmpkBusyWaitsUnderConcurrency)
{
    Bundle b = make_bundle("libmpk", hw::ArchKind::kX86, 8);
    HttpdConfig cfg = HttpdConfig::for_arch(hw::ArchKind::kX86, 24, 16);
    cfg.workers = 24;
    cfg.total_requests = 300;
    HttpdResult r = run_httpd(b.machine(), b.proc(), *b.strategy, cfg);
    EXPECT_GT(r.breakdown.get(hw::CostKind::kBusyWait), 0.0);
    EXPECT_GT(r.breakdown.get(hw::CostKind::kShootdown), 0.0);
}

double
mysql_qps(const std::string &kind, std::size_t conns = 8,
          std::size_t cores = 8)
{
    Bundle b = make_bundle(kind, hw::ArchKind::kX86, cores);
    MysqlConfig cfg = MysqlConfig::for_arch(hw::ArchKind::kX86, conns);
    cfg.duration = 300e6;  // Steady-state window (~0.14 simulated sec).
    MysqlResult r = run_mysql(b.machine(), b.proc(), *b.strategy, cfg);
    EXPECT_GT(r.completed, 0u);
    return r.queries_per_sec;
}

TEST(Mysql, CompletesUnderAllStrategies)
{
    for (const char *kind : {"none", "vdom", "epk"})
        EXPECT_GT(mysql_qps(kind), 0.0) << kind;
}

TEST(Mysql, VdomOverheadSmall)
{
    double base = mysql_qps("none");
    double vdom = mysql_qps("vdom");
    EXPECT_LT(base / vdom - 1.0, 0.05);
}

TEST(Mysql, LibmpkCollapsesBeyond14Connections)
{
    // Paper: libmpk cannot provide per-thread protection beyond 14
    // clients; >14 per-connection stack keys thrash the 15 hardware keys.
    // The effect needs real concurrency, so this runs on the paper-sized
    // 26-core machine.
    double mpk_36 = mysql_qps("libmpk", 36, 26);
    double vdom_36 = mysql_qps("vdom", 36, 26);
    double mpk_8 = mysql_qps("libmpk", 8, 26);
    double vdom_8 = mysql_qps("vdom", 8, 26);
    EXPECT_LT(mpk_36, vdom_36 * 0.85);
    // ...while below 14 connections it keeps up fine.
    EXPECT_GT(mpk_8, vdom_8 * 0.98);
}

TEST(Mysql, ContendedRunCountsIdlePolls)
{
    // More connections than cores: waiting connections poll their client
    // turnaround and the engine lock in short idle chunks, each a yield.
    Bundle b = make_bundle("vdom", hw::ArchKind::kX86, 4);
    MysqlConfig cfg = MysqlConfig::for_arch(hw::ArchKind::kX86, 12);
    cfg.total_queries = 120;
    MysqlResult r = run_mysql(b.machine(), b.proc(), *b.strategy, cfg);
    EXPECT_EQ(r.completed, 120u);
    EXPECT_GT(r.engine_yields, 0u);
    EXPECT_LT(r.engine_yields, r.engine_steps);
}

TEST(Mysql, VdomGroupsThreadsIntoVdses)
{
    Bundle b = make_bundle("vdom", hw::ArchKind::kX86, 8);
    MysqlConfig cfg = MysqlConfig::for_arch(hw::ArchKind::kX86, 20);
    cfg.total_queries = 200;
    run_mysql(b.machine(), b.proc(), *b.strategy, cfg);
    // >14 per-thread stack vdoms cannot share one address space.
    EXPECT_GT(b.world->proc.mm().num_vdses(), 1u);
}

double
pmo_cycles_per_op(const std::string &kind, std::size_t threads,
                  bool huge = false)
{
    Bundle b = make_bundle(kind, hw::ArchKind::kX86, 8, huge);
    PmoConfig cfg = PmoConfig::for_arch(hw::ArchKind::kX86, threads);
    cfg.ops_per_thread = 3'000;
    cfg.huge_pages = huge;
    PmoResult r = run_pmo(b.machine(), b.proc(), *b.strategy, cfg);
    EXPECT_EQ(r.completed, cfg.ops_per_thread * threads);
    return r.cycles_per_op;
}

TEST(Pmo, Fig7OrderingSingleThread)
{
    double none = pmo_cycles_per_op("none", 1);
    double lower = pmo_cycles_per_op("lowerbound", 1);
    double vdom_switch = pmo_cycles_per_op("vdom_switch", 1);
    double vdom_evict = pmo_cycles_per_op("vdom_evict", 1);
    double libmpk4k = pmo_cycles_per_op("libmpk", 1);
    // Fig. 7: lowerbound < VDS switch < eviction << libmpk (4KB).
    EXPECT_LT(none, lower);
    EXPECT_LT(lower, vdom_switch);
    EXPECT_LT(vdom_switch, vdom_evict);
    EXPECT_LT(vdom_evict, libmpk4k);
}

TEST(Pmo, LibmpkBlowsUpWithThreads)
{
    double one = pmo_cycles_per_op("libmpk", 1);
    double four = pmo_cycles_per_op("libmpk", 4);
    // Fig. 7: libmpk overhead grows superlinearly with parallel threads.
    EXPECT_GT(four, one * 1.5);
    // VDom VDS switch barely moves.
    double v1 = pmo_cycles_per_op("vdom_switch", 1);
    double v4 = pmo_cycles_per_op("vdom_switch", 4);
    EXPECT_LT(v4, v1 * 1.3);
}

TEST(Pmo, HugePagesCheaperThan4KForLibmpk)
{
    double fourk = pmo_cycles_per_op("libmpk", 2, false);
    double huge = pmo_cycles_per_op("libmpk", 2, true);
    EXPECT_LT(huge, fourk);
}

TEST(Pmo, ArmRuns)
{
    Bundle b = make_bundle("vdom_evict", hw::ArchKind::kArm, 4);
    PmoConfig cfg = PmoConfig::for_arch(hw::ArchKind::kArm, 2);
    cfg.ops_per_thread = 1'000;
    PmoResult r = run_pmo(b.machine(), b.proc(), *b.strategy, cfg);
    EXPECT_EQ(r.completed, 2'000u);
}

}  // namespace
}  // namespace vdom::apps
