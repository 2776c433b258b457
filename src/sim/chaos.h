/// \file
/// Chaos harnesses: the DESIGN.md invariants, and the Table 1 promise that
/// a failed call mutates nothing, checked under armed fault plans.
///
/// Three harnesses drive one op interpreter (chaos.cc), which builds the
/// world (machine + process + VdomSystem), performs each public-API op on
/// it, judges every access against the VDR policy and reports violations,
/// the first of which dumps a post-mortem bundle (telemetry/postmortem.h).
/// They differ only in the ops they emit and in what they check:
/// randomized churn with sites firing underneath (ChaosHarness), a
/// scripted sweep that fails every fault-point crossing of every op,
/// gracefully (SweepHarness) or by power loss (CrashSweepHarness), and a
/// whole application model under armed sites (run_chaos_apps).  All of it
/// is gtest-free so tests and bench/chaos_stress.cc can link it;
/// violations are reported as data, not assertions.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/pmo.h"
#include "hw/machine.h"
#include "kernel/process.h"
#include "kernel/wal.h"
#include "sim/fault.h"
#include "telemetry/flightrec.h"
#include "vdom/api.h"

namespace vdom::sim {

/// The op interpreter's public-API op and world (defined in chaos.cc).
struct Op;
struct World;

/// The checks every chaos harness counts, and the violations they found.
struct CheckTally {
    std::uint64_t invariant_checks = 0;
    std::uint64_t violations = 0;
    std::string first_violation;      ///< Empty when every check held.
    bool postmortem_written = false;  ///< A violation bundle was dumped.

    bool ok() const { return violations == 0; }
};

/// One chaos run's shape.  Everything is seeded: two runs with the same
/// config produce bit-identical clocks, breakdowns and fault sequences.
struct ChaosConfig {
    hw::ArchKind arch = hw::ArchKind::kX86;
    std::size_t cores = 4;
    std::size_t threads = 4;
    std::size_t domains = 24;
    int ops = 500;
    std::uint64_t seed = 1;
    /// Sites to arm (fault decisions draw from a plan seeded with `seed`).
    std::vector<std::pair<FaultSite, FaultSpec>> faults;
    /// When non-empty, the first invariant violation dumps a post-mortem
    /// bundle (telemetry/postmortem.h) to this path.
    std::string postmortem_path;
};

/// Outcome of one chaos run.
struct ChaosResult : CheckTally {
    std::uint64_t ops = 0;
    std::uint64_t faults_injected = 0;
    std::array<std::uint64_t, kNumFaultSites> occurrences_by_site{};
    std::array<std::uint64_t, kNumFaultSites> fires_by_site{};
    std::uint64_t ok_accesses = 0;
    std::uint64_t denied_accesses = 0;
    std::uint64_t transient_failures = 0;  ///< Graceful fault statuses seen.
    std::uint64_t flight_records = 0;  ///< Flight records seen by the run.
    std::uint64_t flows = 0;           ///< Causality ids handed out.
    hw::CycleBreakdown breakdown;
    hw::Cycles max_clock = 0;
};

/// Builds the world fault-free, then runs the churn with faults armed.  The
/// churn draws its ops from a seeded generator and hands each one to the
/// op interpreter.
class ChaosHarness {
  public:
    explicit ChaosHarness(const ChaosConfig &config);
    ~ChaosHarness();

    ChaosHarness(const ChaosHarness &) = delete;
    ChaosHarness &operator=(const ChaosHarness &) = delete;

    /// Runs the configured op count and returns the tally.  Callable once
    /// per harness (the world is consumed by the churn).
    ChaosResult run();

    hw::Machine &machine();
    kernel::Process &process();
    VdomSystem &system();
    const FaultPlan &plan() const { return plan_; }
    const telemetry::FlightRecorder &flight() const { return flight_; }

    /// Dumps a post-mortem bundle of the harness's current state (flight
    /// ring, introspect snapshot, attached metrics, fault plan) to \p path.
    /// Used for the forced terminal snapshot as well as violation bundles.
    bool export_postmortem(const std::string &path, const std::string &reason,
                           int op = -1) const;

  private:
    /// vdom_alloc + mmap + vdom_mprotect on \p core; a rejected mprotect
    /// frees the domain again.  Returns the mprotect status, or
    /// kInvalidVdom when vdom_alloc failed.
    VdomStatus create_domain(std::size_t core, std::uint64_t pages,
                             bool frequent);
    void free_domain(ChaosResult &result, int op, std::size_t core,
                     std::size_t live);
    /// A violation at churn op \p op, with this run's bundle.
    void report(ChaosResult &result, int op, const std::string &what);

    ChaosConfig config_;
    std::unique_ptr<World> world_;
    FaultPlan plan_;
    telemetry::FlightRecorder flight_;
    /// Live domains: (index into World::doms, index into World::regions).
    std::vector<std::pair<std::size_t, std::size_t>> live_;
};

// --- scripted fault-point sweep ------------------------------------------

/// How a swept fault point fails.
enum class FaultMode : std::uint8_t {
    /// A graceful site fires: the op must fail with a fault status and
    /// leave no trace, or complete with its guarantees intact.
    kGraceful,
    /// Power fails at the crossing (FaultSite::kCrash): only the durable
    /// image survives, and a fresh world recovers from it.
    kCrash,
};

/// Shape of one sweep.  Everything derives from the seed; two runs with
/// the same config produce identical scripts, crossing counts and
/// digests.  The modes differ only in their default script size.
template <FaultMode M>
struct FaultPointConfig {
    hw::ArchKind arch = hw::ArchKind::kX86;
    std::size_t cores = 2;
    std::size_t threads = 2;
    std::size_t domains = M == FaultMode::kGraceful ? 4 : 3;
    /// Seeded churn ops between the script's prologue and epilogue.
    int churn_ops = M == FaultMode::kGraceful ? 12 : 8;
    std::uint64_t seed = 1;
    /// When non-empty, the first violation dumps a post-mortem bundle.
    std::string postmortem_path;
};

/// The counters both fault modes keep.
struct FaultPointTally : CheckTally {
    std::uint64_t script_ops = 0;      ///< Ops in the deterministic script.
    std::uint64_t injected_runs = 0;   ///< Fresh worlds fired into.
    std::uint64_t snapshot_checks = 0; ///< Snapshot-oracle diffs.
    std::uint64_t digest = 0;          ///< Run fingerprint (determinism gate).
};

/// Outcome of one graceful sweep.
struct SweepResult : FaultPointTally {
    std::uint64_t fault_points = 0;  ///< Total (op, site, k) crossings.
    std::uint64_t failed_ops = 0;    ///< Graceful fault statuses seen.
    std::uint64_t degraded_ops = 0;  ///< Fired, but the op still kOk.
    std::uint64_t rollbacks = 0;     ///< Journal rollbacks observed.
};

/// Outcome of one power-loss sweep.
struct CrashSweepResult : FaultPointTally {
    std::uint64_t crash_points = 0;  ///< Total kCrash crossings probed.
    std::uint64_t recoveries = 0;    ///< Successful recovery passes.
    std::uint64_t replayed_ops = 0;  ///< Committed WAL ops redone.
    std::uint64_t torn_records = 0;  ///< Torn tail records truncated.
    std::uint64_t undone_ops = 0;    ///< Uncommitted durable undos.
    std::uint64_t pmo_checks = 0;    ///< PMO content-integrity checks.
};

/// The scripted fault-point harness.  Each mode derives a deterministic
/// script from the seed, over one op set: the domain API, secure-pool
/// growth, sandbox_mprotect and PMO attach/detach.  The script runs once
/// in a probe world that counts every crossing of the mode's fault
/// sites.  Then each (op, site, k-th crossing) fails exactly there.
///
/// Graceful mode sweeps every graceful site, once transiently and once
/// sticky (the fault keeps firing from crossing k on, defeating in-op
/// retry loops; the two pure-delay sites are exempt).  Its oracle:
///   - a graceful fault status must leave the introspect snapshot
///     byte-identical to the pre-op snapshot (journal rolled back), and a
///     disarmed retry of the same op must succeed;
///   - a kOk under injection must keep the access-verdict policy.
///
/// Graceful mode replays the script prefix in a fresh world for each
/// crossing.  Power-loss mode sweeps kCrash alone, with the WAL
/// attached; the probe also records the golden durable snapshot and PMO
/// set at every op boundary.  Each op with n crossings replays its
/// prefix once and runs once with kCrash firing at crossings 1..n
/// through a crash tap (FaultPlan::arm_crash), which copies the durable
/// media — the WAL and the PmoStore — at each.  Nothing the op does
/// after a crossing is part of that crossing's image.  Each image k then
/// reboots a fresh world and recovers from its own copies.  Its oracle,
/// per crossing:
///   - recovery must succeed with no replay divergence;
///   - the recovered durable snapshot must equal the golden one at the
///     last committed op boundary: golden[i] when the WAL says op i
///     committed, golden[i-1] otherwise (nothing in between is ever
///     observable);
///   - the PMO store must hold exactly the golden PMO set, every object
///     intact (torn attach content undone, interrupted detach redone);
///   - the access-verdict policy must hold in the recovered world.
///
/// In both modes the DESIGN.md invariants must hold after every op, any
/// other status is a violation, and the first violation dumps a
/// post-mortem bundle.
template <FaultMode M>
class FaultPointHarness {
  public:
    using Config = FaultPointConfig<M>;
    using Result = std::conditional_t<M == FaultMode::kGraceful,
                                      SweepResult, CrashSweepResult>;

    explicit FaultPointHarness(const Config &config);
    ~FaultPointHarness();

    FaultPointHarness(const FaultPointHarness &) = delete;
    FaultPointHarness &operator=(const FaultPointHarness &) = delete;

    /// Runs the probe and injection passes and returns the tally.
    Result run();

    const telemetry::FlightRecorder &flight() const { return flight_; }

  private:
    struct Golden;

    std::vector<Op> make_script() const;
    /// A fresh world with the script's ops [0, i) performed fault-free on
    /// fresh durable media; null, after a violation, when one fails.
    std::unique_ptr<World> replay_prefix(const std::vector<Op> &script,
                                         std::size_t i,
                                         FaultPointTally &result);
    /// The digest label of crossing \p k of \p site in op \p i.
    std::string injection_label(std::size_t i, const Op &op, FaultSite site,
                                std::uint64_t k, bool sticky) const;
    /// Graceful mode: one fresh world firing \p site at crossing \p k.
    void run_injection(const std::vector<Op> &script, std::size_t i,
                       FaultSite site, std::uint64_t k, bool sticky,
                       SweepResult &result);
    /// Power-loss mode: one run of op \p i tapping the durable image at
    /// each of its \p n crossings, then one recovery per image.
    void run_power_losses(const std::vector<Op> &script,
                          const std::vector<Golden> &golden, std::size_t i,
                          std::uint64_t n, CrashSweepResult &result);
    /// Checks world \p w, recovered together with \p store, against
    /// the golden op boundary \p expect.
    void verify_recovered(World &w, const apps::PmoStore &store,
                          const Golden &expect, const std::string &label,
                          CrashSweepResult &result);
    /// A violation in world \p w under \p plan, with this sweep's bundle.
    void report(FaultPointTally &result, World &w, const FaultPlan *plan,
                const std::string &what);

    Config config_;
    telemetry::FlightRecorder flight_;
    /// Power-loss mode's durable media: owned here (the "NVDIMM"), so they
    /// outlive every crashed world.  Reset before each prefix replay; a
    /// crash image is a copy of both.
    kernel::Wal wal_;
    apps::PmoStore store_;
};

extern template class FaultPointHarness<FaultMode::kGraceful>;
extern template class FaultPointHarness<FaultMode::kCrash>;

using SweepConfig = FaultPointConfig<FaultMode::kGraceful>;
using SweepHarness = FaultPointHarness<FaultMode::kGraceful>;
using CrashSweepConfig = FaultPointConfig<FaultMode::kCrash>;
using CrashSweepHarness = FaultPointHarness<FaultMode::kCrash>;

// --- application-workload chaos ------------------------------------------

/// Shape of one apps-under-chaos run: a full application model (httpd,
/// MySQL or the PMO string-replace benchmark) driven under the VDom
/// strategy with graceful fault sites armed underneath it.
struct ChaosAppsConfig {
    hw::ArchKind arch = hw::ArchKind::kX86;
    enum class Workload : std::uint8_t { kHttpd, kMysql, kPmo };
    Workload workload = Workload::kHttpd;
    std::size_t cores = 4;
    /// Workload size knob: requests (httpd), queries (MySQL) or ops per
    /// thread (PMO).  Small defaults keep the regression test fast.
    std::size_t work_items = 200;
    std::size_t clients = 8;  ///< Clients / connections / threads.
    std::uint64_t seed = 1;
    /// Sites to arm (graceful sites only — the app models retry through
    /// transient statuses; kCrash needs the CrashSweepHarness).
    std::vector<std::pair<FaultSite, FaultSpec>> faults;
};

/// Outcome of one apps-under-chaos run.
struct ChaosAppsResult : CheckTally {
    std::uint64_t completed = 0;        ///< Work items finished.
    std::uint64_t faults_injected = 0;  ///< Fault-site fires underneath.
    hw::Cycles elapsed = 0;
};

/// Runs \p config's workload with the configured fault plan armed and
/// checks the DESIGN.md structural invariants over the final world.  The
/// app models drive the public API through apps::VdomStrategy, so armed
/// graceful sites exercise their retry/degradation paths at scale.
ChaosAppsResult run_chaos_apps(const ChaosAppsConfig &config);

}  // namespace vdom::sim
