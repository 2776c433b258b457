/// \file
/// Chaos harness: randomized churn with an armed FaultPlan, checking the
/// DESIGN.md invariants after every operation.
///
/// The harness owns a full simulated world (machine + process + VdomSystem,
/// the same shape as tests/test_invariants.cc's World) and drives the op
/// mix of the invariant sweep — grant/revoke/pin/access plus domain
/// create/free and VDR churn — while injection sites fire underneath it.
/// It is gtest-free so both tests/test_chaos.cc and bench/chaos_stress.cc
/// can link it; violations are reported as data, not assertions.
///
/// Alongside the randomized harness lives its systematic sibling, the
/// fault-point sweep (SweepHarness): a deterministic script of public API
/// ops is probed once to count every fault-point crossing, then each
/// (op, site, k-th crossing) is replayed in a fresh world with the fault
/// fired exactly there.  Ops that fail with a graceful status must leave
/// the architectural snapshot (vdom/introspect.h) byte-identical — the
/// atomicity oracle for the undo journal (kernel/journal.h).

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
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
    /// Flight-recorder budget per core ring (0 disables the recorder).
    std::size_t flight_per_core = 1024;
    /// When non-empty, the first invariant violation dumps a post-mortem
    /// bundle (telemetry/postmortem.h) to this path.
    std::string postmortem_path;
};

/// Outcome of one chaos run.
struct ChaosResult {
    std::uint64_t ops = 0;
    std::uint64_t faults_injected = 0;
    std::array<std::uint64_t, kNumFaultSites> occurrences_by_site{};
    std::array<std::uint64_t, kNumFaultSites> fires_by_site{};
    std::uint64_t ok_accesses = 0;
    std::uint64_t denied_accesses = 0;
    std::uint64_t transient_failures = 0;  ///< Graceful fault statuses seen.
    std::uint64_t invariant_checks = 0;
    std::uint64_t violations = 0;
    std::string first_violation;  ///< Empty when every check held.
    std::uint64_t flight_records = 0;  ///< Flight records seen by the run.
    std::uint64_t flows = 0;           ///< Causality ids handed out.
    bool postmortem_written = false;   ///< A violation bundle was dumped.
    hw::CycleBreakdown breakdown;
    hw::Cycles max_clock = 0;

    bool ok() const { return violations == 0; }
};

/// Builds the world fault-free, then runs the churn with faults armed.
class ChaosHarness {
  public:
    explicit ChaosHarness(const ChaosConfig &config);
    ~ChaosHarness();

    ChaosHarness(const ChaosHarness &) = delete;
    ChaosHarness &operator=(const ChaosHarness &) = delete;

    /// Runs the configured op count and returns the tally.  Callable once
    /// per harness (the world is consumed by the churn).
    ChaosResult run();

    hw::Machine &machine() { return *machine_; }
    kernel::Process &process() { return *proc_; }
    VdomSystem &system() { return *sys_; }
    const FaultPlan &plan() const { return plan_; }
    const telemetry::FlightRecorder &flight() const { return flight_; }

    /// Dumps a post-mortem bundle of the harness's current state (flight
    /// ring, introspect snapshot, attached metrics, fault plan) to \p path.
    /// Used for the forced terminal snapshot as well as violation bundles.
    bool export_postmortem(const std::string &path, const std::string &reason,
                           int op = -1) const;

  private:
    /// vdom_alloc + mmap + vdom_mprotect; false when the assignment was
    /// rejected (e.g. an injected VDT allocation failure).
    bool make_domain(std::uint64_t pages, bool frequent,
                     std::size_t core_id, VdomStatus *status);

    void check_invariants(ChaosResult &result, int op);
    void record_violation(ChaosResult &result, int op,
                          const std::string &what);

    ChaosConfig config_;
    hw::ArchParams params_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<kernel::Process> proc_;
    std::unique_ptr<VdomSystem> sys_;
    FaultPlan plan_;
    telemetry::FlightRecorder flight_;
    std::vector<kernel::Task *> tasks_;
    std::vector<std::pair<VdomId, hw::Vpn>> doms_;
};

// --- systematic fault-point sweep ----------------------------------------

/// Shape of one sweep.  Everything is derived from the seed; two runs with
/// the same config produce identical scripts, crossing counts and digests.
struct SweepConfig {
    hw::ArchKind arch = hw::ArchKind::kX86;
    std::size_t cores = 2;
    std::size_t threads = 2;
    std::size_t domains = 4;
    /// Seeded churn ops appended to the deterministic script prologue.
    int churn_ops = 12;
    std::uint64_t seed = 1;
    /// Also replay each crossing in sticky mode (the fault keeps firing
    /// from crossing k on), defeating in-op retry loops.  Pure-delay
    /// sites are exempt — sticky there changes no architectural outcome.
    bool sticky = true;
    /// Flight-recorder budget per core ring (0 disables the recorder).
    std::size_t flight_per_core = 256;
    /// When non-empty, the first violation dumps a post-mortem bundle.
    std::string postmortem_path;
};

/// Outcome of one sweep.
struct SweepResult {
    std::uint64_t script_ops = 0;      ///< Ops in the deterministic script.
    std::uint64_t fault_points = 0;    ///< Total (op, site, k) crossings.
    std::uint64_t injected_runs = 0;   ///< Fresh worlds replayed.
    std::uint64_t failed_ops = 0;      ///< Graceful fault statuses seen.
    std::uint64_t degraded_ops = 0;    ///< Fired, but the op still kOk.
    std::uint64_t rollbacks = 0;       ///< Journal rollbacks observed.
    std::uint64_t snapshot_checks = 0; ///< Before/after snapshot diffs.
    std::uint64_t invariant_checks = 0;
    std::uint64_t violations = 0;
    std::string first_violation;       ///< Empty when every check held.
    std::uint64_t digest = 0;          ///< Run fingerprint (determinism gate).
    bool postmortem_written = false;

    bool ok() const { return violations == 0; }
};

/// The exhaustive sweep driver: probe once, then one fresh world per
/// (op, site, k-th crossing[, sticky]) with the fault fired exactly there.
///
/// The oracle per injected run:
///   - a graceful fault status must leave the introspect snapshot
///     byte-identical to the pre-op snapshot (journal rolled back), and a
///     disarmed retry of the same op must succeed;
///   - a kOk under injection (delay/retry sites) must keep the DESIGN.md
///     invariants and the access-verdict policy;
///   - any other status, snapshot divergence, or invariant breach is a
///     violation, and the first one dumps a post-mortem bundle.
class SweepHarness {
  public:
    explicit SweepHarness(const SweepConfig &config);
    ~SweepHarness();

    SweepHarness(const SweepHarness &) = delete;
    SweepHarness &operator=(const SweepHarness &) = delete;

    /// Runs probe + injection passes and returns the tally.
    SweepResult run();

    const telemetry::FlightRecorder &flight() const { return flight_; }

  private:
    struct Op;
    struct World;

    std::vector<Op> make_script() const;
    std::unique_ptr<World> build_world() const;
    void prepare(World &w, const Op &op) const;
    VdomStatus perform(World &w, const Op &op, bool *verdict_ok) const;
    void run_injection(const std::vector<Op> &script, std::size_t i,
                       FaultSite site, std::uint64_t k, bool sticky,
                       SweepResult &result);
    void record_violation(SweepResult &result, World *world,
                          const FaultPlan *plan, const std::string &what);
    void fold(SweepResult &result, const std::string &line) const;

    SweepConfig config_;
    telemetry::FlightRecorder flight_;
};

// --- exhaustive crash-point recovery sweep -------------------------------

/// Shape of one crash sweep.  Everything derives from the seed; two runs
/// with the same config produce byte-identical digests.
struct CrashSweepConfig {
    hw::ArchKind arch = hw::ArchKind::kX86;
    std::size_t cores = 2;
    std::size_t threads = 2;
    std::size_t domains = 3;
    /// Seeded churn ops appended to the deterministic script prologue.
    int churn_ops = 8;
    std::uint64_t seed = 1;
    /// Flight-recorder budget per core ring (0 disables the recorder).
    std::size_t flight_per_core = 256;
    /// When non-empty, the first violation dumps a post-mortem bundle.
    std::string postmortem_path;
};

/// Outcome of one crash sweep.
struct CrashSweepResult {
    std::uint64_t script_ops = 0;     ///< Ops in the deterministic script.
    std::uint64_t crash_points = 0;   ///< Total kCrash crossings probed.
    std::uint64_t injected_runs = 0;  ///< Crash/reboot/recover cycles run.
    std::uint64_t recoveries = 0;     ///< Successful recovery passes.
    std::uint64_t replayed_ops = 0;   ///< Committed WAL ops redone.
    std::uint64_t torn_records = 0;   ///< Torn tail records truncated.
    std::uint64_t undone_ops = 0;     ///< Uncommitted durable undos.
    std::uint64_t pmo_checks = 0;     ///< PMO content-integrity checks.
    std::uint64_t snapshot_checks = 0;///< Durable-snapshot oracle diffs.
    std::uint64_t invariant_checks = 0;
    std::uint64_t violations = 0;
    std::string first_violation;      ///< Empty when every check held.
    std::uint64_t digest = 0;         ///< Run fingerprint (determinism gate).
    bool postmortem_written = false;

    bool ok() const { return violations == 0; }
};

/// The exhaustive crash-point sweep driver (the tentpole oracle for
/// kernel/wal.h + vdom/recovery.h).  A deterministic script of
/// WAL-covered ops — including secure-pool growth, sandbox_mprotect and
/// PMO attach/detach — is probed once with kCrash count-armed, recording
/// per-op crossing counts, golden durable snapshots and golden PMO sets.
/// Then for every (op, k-th crossing) a fresh world replays the prefix,
/// crashes exactly there (sim::PowerLoss), reboots into a second fresh
/// world and recovers from the surviving WAL + PmoStore.
///
/// The oracle per injected run:
///   - recovery must succeed with no replay divergence;
///   - the recovered durable snapshot must equal the golden snapshot at
///     the last committed op boundary — exactly golden[i] when the WAL
///     says op i committed, exactly golden[i-1] otherwise (atomicity:
///     nothing in between is ever observable);
///   - the PMO store must hold exactly the golden PMO set, every object
///     intact (torn attach content undone, interrupted detach redone);
///   - DESIGN.md invariants and the access-verdict policy must hold in
///     the recovered world;
/// and the first violation dumps a post-mortem bundle.
class CrashSweepHarness {
  public:
    explicit CrashSweepHarness(const CrashSweepConfig &config);
    ~CrashSweepHarness();

    CrashSweepHarness(const CrashSweepHarness &) = delete;
    CrashSweepHarness &operator=(const CrashSweepHarness &) = delete;

    /// Runs probe + crash-injection passes and returns the tally.
    CrashSweepResult run();

    const telemetry::FlightRecorder &flight() const { return flight_; }

  private:
    struct Op;
    struct World;
    struct Golden;

    std::vector<Op> make_script() const;
    std::unique_ptr<World> build_world(kernel::Wal *wal) const;
    void prepare(World &w, const Op &op) const;
    /// Non-const: PMO ops write through the harness-owned durable store.
    VdomStatus perform(World &w, const Op &op, bool *verdict_ok);
    void run_injection(const std::vector<Op> &script,
                       const std::vector<Golden> &golden, std::size_t i,
                       std::uint64_t k, CrashSweepResult &result);
    void verify_recovered(World &w, const Golden &expect,
                          const std::string &label,
                          CrashSweepResult &result);
    void record_violation(CrashSweepResult &result, World *world,
                          const FaultPlan *plan, const std::string &what);
    void fold(CrashSweepResult &result, const std::string &line) const;

    CrashSweepConfig config_;
    telemetry::FlightRecorder flight_;
    /// The durable media: owned here (the "NVDIMM"), so they outlive
    /// every crashed world.  Reset before each injected run.
    kernel::Wal wal_;
    apps::PmoStore store_;
};

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
struct ChaosAppsResult {
    std::uint64_t completed = 0;        ///< Work items finished.
    std::uint64_t faults_injected = 0;  ///< Fault-site fires underneath.
    std::uint64_t invariant_checks = 0;
    std::uint64_t violations = 0;
    std::string first_violation;        ///< Empty when every check held.
    hw::Cycles elapsed = 0;

    bool ok() const { return violations == 0; }
};

/// Runs \p config's workload with the configured fault plan armed and
/// checks the DESIGN.md structural invariants over the final world.  The
/// app models drive the public API through apps::VdomStrategy, so armed
/// graceful sites exercise their retry/degradation paths at scale.
ChaosAppsResult run_chaos_apps(const ChaosAppsConfig &config);

}  // namespace vdom::sim
