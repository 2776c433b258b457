/// \file
/// The chaos op interpreter and the three harnesses that drive it.

#include "sim/chaos.h"

#include <algorithm>
#include <functional>
#include <map>

#include "apps/httpd.h"
#include "apps/mysql.h"
#include "apps/strategy.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"
#include "telemetry/postmortem.h"
#include "vdom/introspect.h"
#include "vdom/recovery.h"
#include "vdom/sandbox.h"
#include "vdom/secure_alloc.h"

namespace vdom::sim {

// --- the op interpreter ---------------------------------------------------

/// One public-API operation.  Domain/region fields index the World's
/// append-only `doms`/`regions` vectors, which replay identically in every
/// fresh world.  Every op commits at most one WAL transaction, which is
/// what keeps the power-loss oracle binary (the durable state is golden[i]
/// when op i committed, golden[i-1] otherwise — never anything in
/// between).
struct Op {
    enum class Kind : std::uint8_t {
        kInit,            ///< vdom_init
        kVdrAlloc,        ///< vdr_alloc(nas = pages)
        kVdrFree,         ///< vdr_free
        kMmap,            ///< mm.mmap(pages) under a WAL intent
        kAlloc,           ///< vdom_alloc(frequent) — appends a dom
        kMprotect,        ///< vdom_mprotect(regions[region], doms[dom])
        kWrvdr,           ///< wrvdr(doms[dom], perm)
        kAccess,          ///< access(regions[region], write) + oracle
        kFreeDom,         ///< vdom_free(doms[dom])
        kArena,           ///< DomainAllocator ctor (one vdom_alloc txn)
        kSecureAlloc,     ///< arena allocate forcing one pool growth
        kSandboxMprotect, ///< Sandbox::sandbox_mprotect
        kPmoAttach,       ///< apps::pmo_attach(pmo, pages, seed)
        kPmoDetach,       ///< apps::pmo_detach(pmo)
    };

    Kind kind = Kind::kInit;
    /// Acting thread of thread-scoped ops, which run on its core
    /// (task % cores).
    std::size_t task = 0;
    /// Acting core of kAlloc, kMprotect and kFreeDom: the sweeps charge
    /// them to core 0, the churn to the acting thread's core.
    std::size_t core = 0;
    std::size_t dom = 0;     ///< Index into World::doms.
    std::size_t region = 0;  ///< Index into World::regions.
    std::uint64_t pages = 0; ///< Page count / nas budget / PMO size.
    VPerm perm = VPerm::kFullAccess;
    bool write = false;
    /// kAccess: the churn's access to doms[dom]'s own region.  The verdict
    /// reads doms[dom]'s permission straight from the VDR (no VMA lookup,
    /// so the VMA cache sees only the accesses), and the page is touched
    /// twice: the second touch takes the TLB-hit path, where
    /// kTlbEntryDrop fires, and must reach the same verdict.
    bool repeat = false;
    bool frequent = false;
    /// kMprotect: one call covering regions[region] through
    /// regions[region+1] — the multi-VMA range whose mid-loop fault point
    /// the journal exists to make safe.
    bool span = false;
    int pmo = 0;             ///< PMO object id.
    std::uint64_t seed = 0;  ///< PMO content seed.

    static const char *name(Kind kind);
};

/// A simulated world.  The sweeps rebuild one for every injected run (and
/// every reboot) so earlier faults cannot leak state between runs.  The
/// durable media (WAL, PmoStore) live in the harness, not here.
struct World {
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<kernel::Process> proc;
    std::unique_ptr<VdomSystem> sys;
    std::vector<kernel::Task *> tasks;
    std::vector<VdomId> doms;
    std::vector<std::pair<hw::Vpn, std::uint64_t>> regions;
    std::unique_ptr<DomainAllocator> arena;
    std::unique_ptr<Sandbox> sandbox;
    std::map<int, VdomId> pmos;  ///< Attached PMO -> protecting vdom.
    apps::PmoStore *store = nullptr;  ///< What the PMO ops write through.
};

const char *
Op::name(Kind kind)
{
    switch (kind) {
      case Kind::kInit: return "vdom_init";
      case Kind::kVdrAlloc: return "vdr_alloc";
      case Kind::kVdrFree: return "vdr_free";
      case Kind::kMmap: return "mmap";
      case Kind::kAlloc: return "vdom_alloc";
      case Kind::kMprotect: return "vdom_mprotect";
      case Kind::kWrvdr: return "wrvdr";
      case Kind::kAccess: return "access";
      case Kind::kFreeDom: return "vdom_free";
      case Kind::kArena: return "arena_create";
      case Kind::kSecureAlloc: return "secure_alloc";
      case Kind::kSandboxMprotect: return "sandbox_mprotect";
      case Kind::kPmoAttach: return "pmo_attach";
      case Kind::kPmoDetach: return "pmo_detach";
    }
    return "?";
}

namespace {

/// The graceful-degradation statuses an armed run is allowed to surface.
bool
is_fault_status(VdomStatus st)
{
    return st == VdomStatus::kTransientFault ||
           st == VdomStatus::kRetriesExhausted ||
           st == VdomStatus::kResourceExhausted;
}

/// A world of \p threads tasks on \p cores cores of \p arch, not yet
/// initialised (kInit does that).  \p wal is attached to its mm, and the
/// PMO ops write through \p store.
std::unique_ptr<World>
build_world(hw::ArchKind arch, std::size_t cores, std::size_t threads,
            kernel::Wal *wal = nullptr, apps::PmoStore *store = nullptr)
{
    auto w = std::make_unique<World>();
    w->machine = std::make_unique<hw::Machine>(
        arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(cores)
                                   : hw::ArchParams::arm(cores));
    w->proc = std::make_unique<kernel::Process>(*w->machine);
    w->sys = std::make_unique<VdomSystem>(*w->proc);
    for (std::size_t t = 0; t < threads; ++t)
        w->tasks.push_back(w->proc->create_task());
    w->proc->mm().set_wal(wal);
    w->store = store;
    return w;
}

/// The core thread \p t runs on.
hw::Core &
core_of(World &w, std::size_t t)
{
    return w.machine->core(t % w.machine->num_cores());
}

/// Places thread \p t on its core (an uncharged context switch).
void
install(World &w, std::size_t t)
{
    w.proc->switch_to(core_of(w, t), *w.tasks[t], false);
}

/// Installs a thread-scoped op's thread.  The sweeps call this outside
/// the armed window: they target the API op, not the scheduler.
void
prepare(World &w, const Op &op)
{
    switch (op.kind) {
      case Op::Kind::kVdrAlloc:
      case Op::Kind::kVdrFree:
      case Op::Kind::kWrvdr:
      case Op::Kind::kAccess:
        install(w, op.task);
        break;
      default:
        break;
    }
}

/// DESIGN.md invariant 1: the verdict an access to a page of \p vdom must
/// reach under \p task's VDR.  Injected faults may slow an access down,
/// never change its verdict, and the common vdom is open to every thread.
bool
vdr_allows(const kernel::Task &task, VdomId vdom, bool write)
{
    const Vdr *vdr = task.vdr();
    VPerm held = vdr ? vdr->get(vdom) : VPerm::kAccessDisable;
    return vdom == kCommonVdom ||
           (write ? held == VPerm::kFullAccess : vperm_active(held));
}

/// What a kAccess op saw.
struct Verdict {
    bool granted = false;     ///< The (first) touch succeeded.
    bool policy_held = true;  ///< It matched vdr_allows, and so did a repeat.
};

/// Performs \p op on \p w and returns its status; a kAccess op reports
/// its verdict through \p verdict.
VdomStatus
perform(World &w, const Op &op, Verdict *verdict = nullptr)
{
    hw::Core &core0 = w.machine->core(0);
    hw::Core &acting = w.machine->core(op.core);
    switch (op.kind) {
      case Op::Kind::kInit:
        return w.sys->vdom_init(core0);
      case Op::Kind::kVdrAlloc:
        return w.sys->vdr_alloc(core_of(w, op.task), *w.tasks[op.task],
                                op.pages);
      case Op::Kind::kVdrFree:
        return w.sys->vdr_free(core_of(w, op.task), *w.tasks[op.task]);
      case Op::Kind::kMmap: {
        // MmStruct::mmap has no core to charge through, so the script
        // logs the mapping intent itself — the shape an allocating
        // runtime would use.  Without a WAL the intent is a no-op.
        kernel::OpTxn txn(w.proc->mm(), core0, kernel::WalOp::kMmap, 0,
                          op.pages, 0);
        hw::Vpn vpn = w.proc->mm().mmap(op.pages);
        w.regions.emplace_back(vpn, op.pages);
        txn.commit(vpn);
        return VdomStatus::kOk;
      }
      case Op::Kind::kAlloc: {
        VdomId v = w.sys->vdom_alloc(acting, op.frequent);
        w.doms.push_back(v);
        return v == kInvalidVdom ? VdomStatus::kResourceExhausted
                                 : VdomStatus::kOk;
      }
      case Op::Kind::kMprotect: {
        auto [vpn, pages] = w.regions[op.region];
        if (op.span) {
            auto [v2, p2] = w.regions[op.region + 1];
            pages = v2 + p2 - vpn;
        }
        return w.sys->vdom_mprotect(acting, vpn, pages, w.doms[op.dom]);
      }
      case Op::Kind::kWrvdr:
        return w.sys->wrvdr(core_of(w, op.task), *w.tasks[op.task],
                            w.doms[op.dom], op.perm);
      case Op::Kind::kAccess: {
        kernel::Task &task = *w.tasks[op.task];
        hw::Core &core = core_of(w, op.task);
        hw::Vpn vpn = w.regions[op.region].first;
        VdomId vdom =
            op.repeat ? w.doms[op.dom] : w.proc->mm().vdom_of(vpn);
        bool allowed = vdr_allows(task, vdom, op.write);
        VAccess res = w.sys->access(core, task, vpn, op.write);
        bool held = res.ok == allowed;
        if (op.repeat &&
            w.sys->access(core, task, vpn, op.write).ok != res.ok)
            held = false;
        if (verdict)
            *verdict = {res.ok, held};
        return VdomStatus::kOk;
      }
      case Op::Kind::kFreeDom:
        return w.sys->vdom_free(acting, w.doms[op.dom]);
      case Op::Kind::kArena: {
        w.arena =
            std::make_unique<DomainAllocator>(*w.sys, core0, false, 2);
        return w.arena->domain() == kInvalidVdom
                   ? VdomStatus::kResourceExhausted
                   : VdomStatus::kOk;
      }
      case Op::Kind::kSecureAlloc: {
        // First allocation after the ctor: the pool is empty, so this
        // always takes exactly one kSecureGrow transaction.
        SecureAllocation a = w.arena->allocate(core0, 64);
        return a.ok() ? VdomStatus::kOk : w.arena->last_status();
      }
      case Op::Kind::kSandboxMprotect: {
        if (!w.sandbox)
            w.sandbox = std::make_unique<Sandbox>(*w.sys);
        auto [vpn, pages] = w.regions[op.region];
        return w.sandbox->sandbox_mprotect(core0, vpn, pages,
                                           w.doms[op.dom]);
      }
      case Op::Kind::kPmoAttach: {
        apps::PmoAttachResult r = apps::pmo_attach(
            *w.sys, core0, *w.store, op.pmo, op.pages, op.seed);
        if (r.status == VdomStatus::kOk)
            w.pmos[op.pmo] = r.vdom;
        return r.status;
      }
      case Op::Kind::kPmoDetach: {
        auto it = w.pmos.find(op.pmo);
        if (it == w.pmos.end())
            return VdomStatus::kInvalidRange;
        VdomStatus st =
            apps::pmo_detach(*w.sys, core0, *w.store, op.pmo, it->second);
        if (st == VdomStatus::kOk)
            w.pmos.erase(it);
        return st;
      }
    }
    return VdomStatus::kOk;
}

/// The DESIGN.md structural invariants every harness enforces after every
/// op: each VDS domain map internally consistent (invariant 3), reserved
/// pdoms and the API vdom never mapped (invariant 7), freed vdoms gone
/// from every map.  Returns the first breach, empty when all hold;
/// \p tally counts one check per VDS examined.
std::string
check_design_invariants(World &w, CheckTally &tally)
{
    const kernel::MmStruct &mm = w.proc->mm();
    const hw::ArchParams &params = w.machine->params();
    for (const auto &vds : mm.vdses()) {
        ++tally.invariant_checks;
        if (!vds->check_consistency())
            return "vds " + std::to_string(vds->id()) +
                   " domain map inconsistent";
        std::string breach;
        vds->for_each_mapped([&](hw::Pdom pdom, VdomId vdomid) {
            if (pdom < params.num_reserved_pdoms || vdomid == kApiVdom)
                breach = "reserved domain mapped";
            else if (!mm.vdm().is_allocated(vdomid))
                breach = "freed vdom " + std::to_string(vdomid) +
                         " still mapped";
            return breach.empty();
        });
        if (!breach.empty())
            return breach;
    }
    return {};
}

/// The one post-mortem writer: dumps the bundle of world \p w — its
/// introspect snapshot, the flight ring, the attached metrics and \p plan
/// — to \p path, headed by \p reason, the run's arch, seed and cores, and
/// then \p extra.
bool
write_postmortem(const std::string &path, World &w, const std::string &reason,
                 std::uint64_t seed, const FaultPlan *plan,
                 const telemetry::FlightRecorder &flight,
                 const std::vector<std::pair<std::string, std::string>>
                     &extra = {})
{
    const hw::ArchParams &params = w.machine->params();
    telemetry::PostmortemInfo info;
    info.reason = reason;
    info.context = {{"arch", hw::arch_name(params.kind)},
                    {"seed", std::to_string(seed)},
                    {"cores", std::to_string(params.num_cores)}};
    info.context.insert(info.context.end(), extra.begin(), extra.end());
    info.flight = &flight;
    info.metrics = telemetry::metrics_sink();
    info.plan = plan;
    info.system = w.sys.get();
    return telemetry::export_postmortem(path, info);
}

/// The one violation path.  Counts a violation in \p tally; the first one
/// is kept as \p what and, when \p path is set, \p dump writes the
/// post-mortem bundle there (later violations are usually knock-on
/// effects of the same root cause).
void
record_violation(CheckTally &tally, const std::string &what,
                 const std::string &path,
                 const std::function<bool(const std::string &)> &dump)
{
    ++tally.violations;
    if (!tally.first_violation.empty())
        return;
    tally.first_violation = what;
    if (!path.empty())
        tally.postmortem_written = dump(path);
}

/// Flight-recorder budget per core ring: the chaos churn keeps a long
/// timeline, a sweep run needs only the one op it fires into.
constexpr std::size_t kChaosFlightPerCore = 1024;
constexpr std::size_t kSweepFlightPerCore = 256;

/// Sites worth replaying in sticky mode.  The two pure-delay sites are
/// exempt: kPteWriteDelay only adds latency, and a sticky kTlbEntryDrop
/// would drop every re-filled entry — unbounded re-walks with no new
/// architectural outcome.
bool
sticky_swept(FaultSite site)
{
    return site != FaultSite::kTlbEntryDrop &&
           site != FaultSite::kPteWriteDelay;
}

/// Order-dependent digest chain: xor in the line hash, then smear with the
/// FNV prime, so reordered runs cannot collide to the same digest.
void
fold(FaultPointTally &result, const std::string &line)
{
    result.digest ^= snapshot_hash(line);
    result.digest *= 1099511628211ULL;
}

}  // namespace

// --- randomized churn -----------------------------------------------------

ChaosHarness::ChaosHarness(const ChaosConfig &config)
    : config_(config),
      world_(build_world(config.arch, config.cores, config.threads)),
      plan_(config.seed),
      flight_(config.cores, kChaosFlightPerCore)
{
    for (const auto &[site, spec] : config_.faults)
        plan_.arm(site, spec);
    // World bring-up runs fault-free (the plan is attached to the machine
    // only inside run()): chaos targets steady-state behaviour, not
    // construction.
    World &w = *world_;
    perform(w, {.kind = Op::Kind::kInit});
    for (std::size_t t = 0; t < config_.threads; ++t) {
        install(w, t);
        perform(w, {.kind = Op::Kind::kVdrAlloc, .task = t,
                    .pages = 1 + t % 3});
    }
    for (std::size_t d = 0; d < config_.domains; ++d)
        create_domain(0, 1 + d % 3, d % 5 == 0);
}

ChaosHarness::~ChaosHarness() = default;

hw::Machine &ChaosHarness::machine() { return *world_->machine; }
kernel::Process &ChaosHarness::process() { return *world_->proc; }
VdomSystem &ChaosHarness::system() { return *world_->sys; }

VdomStatus
ChaosHarness::create_domain(std::size_t core, std::uint64_t pages,
                            bool frequent)
{
    World &w = *world_;
    std::size_t dom = w.doms.size();
    if (perform(w, {.kind = Op::Kind::kAlloc, .core = core,
                    .frequent = frequent}) != VdomStatus::kOk)
        return VdomStatus::kInvalidVdom;  // No id to protect.
    std::size_t region = w.regions.size();
    perform(w, {.kind = Op::Kind::kMmap, .pages = pages});
    VdomStatus st = perform(w, {.kind = Op::Kind::kMprotect, .core = core,
                                .dom = dom, .region = region});
    if (st == VdomStatus::kOk)
        live_.emplace_back(dom, region);
    else
        perform(w, {.kind = Op::Kind::kFreeDom, .core = core, .dom = dom});
    return st;
}

void
ChaosHarness::free_domain(ChaosResult &result, int op, std::size_t core,
                          std::size_t live)
{
    VdomStatus st = perform(*world_, {.kind = Op::Kind::kFreeDom,
                                      .core = core,
                                      .dom = live_[live].first});
    if (st != VdomStatus::kOk)
        report(result, op,
               std::string("unexpected vdom_free status ") + status_name(st));
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(live));
}

ChaosResult
ChaosHarness::run()
{
    ChaosResult result;
    World &w = *world_;
    Rng rng(config_.seed + 0x9e3779b97f4a7c15ULL);
    w.machine->set_faults(&plan_);
    // The flight recorder rides along for the whole churn (it observes,
    // never charges), so a violation bundle carries the causal timeline
    // that led to it.
    w.machine->set_flight(&flight_);

    for (int op = 0; op < config_.ops; ++op) {
        std::size_t ti = rng.below(w.tasks.size());
        std::size_t core = ti % config_.cores;
        // Keep the acting thread installed on its core (the switch runs
        // the ASID path, where kAsidExhaustion fires).
        install(w, ti);

        // Status rules: a graceful fault status is a transient failure;
        // anything else but kOk (and wrvdr's kNoVdr) is a violation,
        // except in VDR churn, where only fault statuses are counted.
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            // Weighted toward grants: mapping pressure is what drives the
            // interesting paths (eviction, VDS allocation, migration).
            static constexpr VPerm kPerms[4] = {VPerm::kFullAccess,
                                                VPerm::kFullAccess,
                                                VPerm::kAccessDisable,
                                                VPerm::kPinned};
            VPerm perm = kPerms[rng.below(4)];
            std::size_t dom = live_[rng.below(live_.size())].first;
            VdomStatus st = perform(w, {.kind = Op::Kind::kWrvdr, .task = ti,
                                        .dom = dom, .perm = perm});
            if (is_fault_status(st)) {
                ++result.transient_failures;
            } else if (st != VdomStatus::kOk &&
                       st != VdomStatus::kNoVdr) {
                report(result, op,
                       std::string("unexpected wrvdr status ") +
                           status_name(st));
            }
            break;
          }
          case 3:
          case 4:
          case 5: {
            auto [dom, region] = live_[rng.below(live_.size())];
            Verdict v;
            perform(w,
                    {.kind = Op::Kind::kAccess, .task = ti, .dom = dom,
                     .region = region, .write = rng.below(2) != 0,
                     .repeat = true},
                    &v);
            if (!v.policy_held) {
                report(result, op,
                       "access verdict diverged from VDR policy (vdom " +
                           std::to_string(w.doms[dom]) + ")");
            }
            ++(v.granted ? result.ok_accesses : result.denied_accesses);
            break;
          }
          case 6: {
            if (live_.size() < 2 * config_.domains) {
                // Drawn frequent-first: the seeded schedule, and every
                // pinned output, depends on the order.
                bool frequent = rng.below(5) == 0;
                std::uint64_t pages = 1 + rng.below(3);
                VdomStatus st = create_domain(core, pages, frequent);
                if (is_fault_status(st)) {
                    ++result.transient_failures;
                } else if (st != VdomStatus::kOk) {
                    report(result, op,
                           std::string("unexpected mprotect status ") +
                               status_name(st));
                }
            } else if (live_.size() > 4) {
                free_domain(result, op, core, rng.below(live_.size()));
            }
            break;
          }
          case 7: {
            if (live_.size() > 4 && rng.below(2) == 0) {
                free_domain(result, op, core, rng.below(live_.size()));
            } else if (!w.tasks[ti]->has_vdr()) {
                VdomStatus st = perform(w, {.kind = Op::Kind::kVdrAlloc,
                                            .task = ti, .pages = 1 + ti % 3});
                if (is_fault_status(st))
                    ++result.transient_failures;
            } else if (rng.below(4) == 0) {
                perform(w, {.kind = Op::Kind::kVdrFree, .task = ti});
            }
            break;
          }
        }
        ++result.ops;
        std::string bad = check_design_invariants(w, result);
        if (!bad.empty())
            report(result, op, bad);
    }
    w.machine->set_faults(nullptr);
    w.machine->set_flight(nullptr);

    result.faults_injected = plan_.total_fires();
    for (std::size_t s = 0; s < kNumFaultSites; ++s) {
        auto site = static_cast<FaultSite>(s);
        result.occurrences_by_site[s] = plan_.occurrences(site);
        result.fires_by_site[s] = plan_.fires(site);
    }
    result.breakdown = w.machine->total_breakdown();
    for (std::size_t c = 0; c < w.machine->num_cores(); ++c)
        result.max_clock = std::max(result.max_clock,
                                    w.machine->core(c).now());
    result.flight_records = flight_.total();
    result.flows = flight_.last_flow();
    return result;
}

bool
ChaosHarness::export_postmortem(const std::string &path,
                                const std::string &reason, int op) const
{
    std::vector<std::pair<std::string, std::string>> extra = {
        {"ops", std::to_string(config_.ops)}};
    if (op >= 0)
        extra.emplace_back("op", std::to_string(op));
    return write_postmortem(path, *world_, reason, config_.seed, &plan_,
                            flight_, extra);
}

void
ChaosHarness::report(ChaosResult &result, int op, const std::string &what)
{
    record_violation(
        result,
        "op " + std::to_string(op) + " (seed " + std::to_string(config_.seed) +
            ", " + hw::arch_name(config_.arch) + "): " + what,
        config_.postmortem_path, [&](const std::string &path) {
            return export_postmortem(path, "invariant violation: " + what, op);
        });
}

// --- scripted fault-point sweep ------------------------------------------

/// Power-loss probe state after each script op: the durable snapshot a
/// recovered world must reproduce (and its hash, which the verdict folds),
/// the WAL commit count that selects it, and the PMO objects the store
/// must hold intact.
template <FaultMode M>
struct FaultPointHarness<M>::Golden {
    std::string durable;
    std::uint64_t hash = 0;  ///< snapshot_hash(durable).
    std::uint64_t commits = 0;
    /// pmo -> (pages, seed) expected durable at this boundary.
    std::map<int, std::pair<std::uint64_t, std::uint64_t>> pmos;
};

template <FaultMode M>
FaultPointHarness<M>::FaultPointHarness(const Config &config)
    : config_(config), flight_(config.cores, kSweepFlightPerCore)
{
}

template <FaultMode M>
FaultPointHarness<M>::~FaultPointHarness() = default;

template <FaultMode M>
auto
FaultPointHarness<M>::make_script() const -> std::vector<Op>
{
    using Kind = Op::Kind;
    std::vector<Op> ops;
    const std::size_t d = config_.domains;

    // Seeded churn: grants, revokes, accesses, VDR recycling.  A freed VDR
    // is re-allocated at once, so wrvdr always has a register to write
    // (kNoVdr is a validation outcome, not a fault path).
    auto churn = [&](std::uint64_t salt, std::size_t ndoms,
                     std::size_t nregions) {
        Rng rng(config_.seed ^ salt);
        for (int i = 0; i < config_.churn_ops; ++i) {
            std::size_t t = rng.below(config_.threads);
            switch (rng.below(6)) {
              case 0:
              case 1:
                ops.push_back({.kind = Kind::kWrvdr, .task = t,
                               .dom = rng.below(ndoms),
                               .perm = VPerm::kFullAccess});
                break;
              case 2:
                ops.push_back({.kind = Kind::kWrvdr, .task = t,
                               .dom = rng.below(ndoms),
                               .perm = VPerm::kAccessDisable});
                break;
              case 3:
              case 4:
                ops.push_back({.kind = Kind::kAccess, .task = t,
                               .region = rng.below(nregions),
                               .write = rng.below(2) != 0});
                break;
              case 5:
                ops.push_back({.kind = Kind::kVdrFree, .task = t});
                ops.push_back({.kind = Kind::kVdrAlloc, .task = t,
                               .pages = 2});
                break;
            }
        }
    };

    ops.push_back({.kind = Kind::kInit});
    if constexpr (M == FaultMode::kGraceful) {
        // Prologue: bring-up plus the shapes the journal must protect —
        // per-domain single-VMA mprotects, then a spanning mprotect over
        // two *present* VMAs (its mid-range fault point must undo real
        // PTE retags), then a second area chained onto an existing vdom.
        for (std::size_t t = 0; t < config_.threads; ++t)
            ops.push_back({.kind = Kind::kVdrAlloc, .task = t,
                           .pages = 2 + t % 3});
        for (std::size_t i = 0; i < d; ++i)
            ops.push_back({.kind = Kind::kAlloc, .frequent = i % 3 == 0});
        for (std::size_t i = 0; i < d; ++i)
            ops.push_back({.kind = Kind::kMmap, .pages = 1 + i % 3});
        for (std::size_t i = 0; i < d; ++i)
            ops.push_back({.kind = Kind::kMprotect, .dom = i, .region = i});
        ops.push_back({.kind = Kind::kMmap, .pages = 2});  // regions[d]
        ops.push_back({.kind = Kind::kMmap, .pages = 3});  // regions[d + 1]
        // Fault the spanned pages in while still common, so the spanning
        // mprotect retags present PTEs.
        ops.push_back({.kind = Kind::kAccess, .task = 0, .region = d,
                       .write = true});
        ops.push_back({.kind = Kind::kAccess, .task = 1 % config_.threads,
                       .region = d + 1});
        ops.push_back({.kind = Kind::kAlloc});             // doms[d]
        ops.push_back({.kind = Kind::kMprotect, .dom = d, .region = d,
                       .span = true});
        ops.push_back({.kind = Kind::kMmap, .pages = 2});  // regions[d + 2]
        ops.push_back({.kind = Kind::kMprotect, .dom = 0, .region = d + 2});

        churn(0xc2b2ae3d27d4eb4fULL, d + 1, d + 3);

        // Epilogue: grant → revoke → free on a disposable domain, so the
        // sweep covers vdom_free of a domain that reached a VDS.
        ops.push_back({.kind = Kind::kAlloc});             // doms[d + 1]
        ops.push_back({.kind = Kind::kMmap, .pages = 1});  // regions[d + 3]
        ops.push_back({.kind = Kind::kMprotect, .dom = d + 1,
                       .region = d + 3});
        ops.push_back({.kind = Kind::kWrvdr, .task = 0, .dom = d + 1,
                       .perm = VPerm::kFullAccess});
        ops.push_back({.kind = Kind::kWrvdr, .task = 0, .dom = d + 1,
                       .perm = VPerm::kAccessDisable});
        ops.push_back({.kind = Kind::kFreeDom, .dom = d + 1});
    } else {
        // Prologue: bring-up, one protected region per domain, and
        // faulted-in pages so later retags cover present PTEs.
        for (std::size_t t = 0; t < config_.threads; ++t)
            ops.push_back({.kind = Kind::kVdrAlloc, .task = t,
                           .pages = 2 + t % 2});
        for (std::size_t i = 0; i < d; ++i)
            ops.push_back({.kind = Kind::kAlloc, .frequent = i % 3 == 0});
        for (std::size_t i = 0; i < d; ++i)
            ops.push_back({.kind = Kind::kMmap, .pages = 1 + i % 2});
        for (std::size_t i = 0; i < d; ++i)
            ops.push_back({.kind = Kind::kMprotect, .dom = i, .region = i});
        ops.push_back({.kind = Kind::kAccess, .task = 0, .write = true});
        ops.push_back({.kind = Kind::kAccess, .task = 1 % config_.threads,
                       .region = d > 1 ? 1u : 0u});
        // The other WAL-covered entry points: secure-pool growth (the
        // arena ctor allocates the vdom, the first allocate grows the
        // pool) and the sandbox mprotect facade over a fresh region.
        ops.push_back({.kind = Kind::kArena});
        ops.push_back({.kind = Kind::kSecureAlloc});
        ops.push_back({.kind = Kind::kMmap, .pages = 1});  // regions[d]
        ops.push_back({.kind = Kind::kSandboxMprotect, .dom = 0,
                       .region = d});

        churn(0xa0761d6478bd642fULL, d, d + 1);

        // Epilogue: the PMO attach/detach durability pair (attach writes
        // content before COMMIT, detach erases after), then free of a
        // domain that reached a VDS.
        ops.push_back({.kind = Kind::kPmoAttach, .pages = 2, .pmo = 1,
                       .seed = config_.seed + 0x11});
        ops.push_back({.kind = Kind::kPmoAttach, .pages = 3, .pmo = 2,
                       .seed = config_.seed + 0x23});
        ops.push_back({.kind = Kind::kPmoDetach, .pmo = 1});
        ops.push_back({.kind = Kind::kWrvdr, .task = 0, .dom = d - 1,
                       .perm = VPerm::kAccessDisable});
        ops.push_back({.kind = Kind::kFreeDom, .dom = d - 1});
    }
    return ops;
}

template <FaultMode M>
void
FaultPointHarness<M>::report(FaultPointTally &result, World &w,
                             const FaultPlan *plan, const std::string &what)
{
    const char *kind = M == FaultMode::kGraceful ? "sweep violation: "
                                                 : "crash sweep violation: ";
    record_violation(result, what, config_.postmortem_path,
                     [&](const std::string &path) {
                         return write_postmortem(path, w, kind + what,
                                                 config_.seed, plan, flight_);
                     });
}

template <FaultMode M>
auto
FaultPointHarness<M>::replay_prefix(const std::vector<Op> &script,
                                    std::size_t i, FaultPointTally &result)
    -> std::unique_ptr<World>
{
    // Fresh durable media and a fresh world (the WAL is attached in
    // power-loss mode only); the prefix replays fault-free.
    wal_.reset();
    store_.content.clear();
    auto w = build_world(config_.arch, config_.cores, config_.threads,
                         M == FaultMode::kCrash ? &wal_ : nullptr, &store_);
    for (std::size_t j = 0; j < i; ++j) {
        prepare(*w, script[j]);
        VdomStatus st = perform(*w, script[j]);
        if (st != VdomStatus::kOk) {
            report(result, *w, nullptr,
                   "prefix op " + std::to_string(j) + " failed: " +
                       status_name(st));
            return nullptr;
        }
    }
    return w;
}

template <FaultMode M>
void
FaultPointHarness<M>::verify_recovered(World &w,
                                       const apps::PmoStore &store,
                                       const Golden &expect,
                                       const std::string &label,
                                       CrashSweepResult &result)
{
    // Durable-snapshot oracle first (the verdict sweep below mutates
    // volatile state).
    ++result.snapshot_checks;
    const std::string after = snapshot_durable_state(*w.sys);
    if (after != expect.durable) {
        report(result, w, nullptr,
               label + ": recovered durable state diverged");
        return;
    }

    std::string bad = check_design_invariants(w, result);
    if (!bad.empty()) {
        report(result, w, nullptr, label + ": " + bad);
        return;
    }

    // PMO content integrity: exactly the golden object set, every page
    // matching its seed-derived pattern (torn attach content undone,
    // interrupted detach erase redone).
    ++result.pmo_checks;
    if (store.content.size() != expect.pmos.size()) {
        report(result, w, nullptr, label + ": PMO store object set diverged");
        return;
    }
    for (const auto &[pmo, shape] : expect.pmos) {
        if (!store.intact(pmo, shape.second, shape.first)) {
            report(result, w, nullptr,
                   label + ": PMO " + std::to_string(pmo) +
                       " content not intact");
            return;
        }
    }

    // Access-verdict oracle over the recovered world, from every thread,
    // over every user VMA.
    std::vector<hw::Vpn> starts;
    for (const auto &[start, vma] : w.proc->mm().vmas()) {
        if (vma.vdom != kApiVdom)
            starts.push_back(start);
    }
    for (std::size_t t = 0; t < w.tasks.size(); ++t) {
        kernel::Task &task = *w.tasks[t];
        install(w, t);
        for (hw::Vpn vpn : starts) {
            bool allowed =
                vdr_allows(task, w.proc->mm().vdom_of(vpn), false);
            if (w.sys->access(core_of(w, t), task, vpn, false).ok !=
                allowed) {
                report(result, w, nullptr,
                       label + ": recovered access verdict diverged (vpn " +
                           std::to_string(vpn) + ")");
                return;
            }
        }
    }

    // after == expect.durable, so the stored hash is the hash of after.
    fold(result, label + " recovered " + std::to_string(expect.hash));
}

template <FaultMode M>
std::string
FaultPointHarness<M>::injection_label(std::size_t i, const Op &op,
                                      FaultSite site, std::uint64_t k,
                                      bool sticky) const
{
    // Labels are folded into the digest, so their wording is fixed:
    // power-loss labels read "crash k=N", with no "site" word.
    return "op " + std::to_string(i) + " (" + Op::name(op.kind) + ") " +
           (M == FaultMode::kGraceful ? "site " : "") +
           fault_site_name(site) + " k=" + std::to_string(k) +
           (sticky ? " sticky" : "") + " (seed " +
           std::to_string(config_.seed) + ", " +
           hw::arch_name(config_.arch) + ")";
}

template <FaultMode M>
void
FaultPointHarness<M>::run_injection(const std::vector<Op> &script,
                                    std::size_t i, FaultSite site,
                                    std::uint64_t k, bool sticky,
                                    SweepResult &result)
{
    auto w = replay_prefix(script, i, result);
    if (w == nullptr)
        return;
    const Op &op = script[i];
    prepare(*w, op);
    const std::string label = injection_label(i, op, site, k, sticky);
    const std::string before = snapshot_state(*w->sys);
    const std::uint64_t rollbacks_before =
        w->proc->mm().journal().rollbacks();

    FaultPlan plan(config_.seed);
    plan.arm_exact(site, k, sticky);
    flight_.clear();
    Verdict verdict;
    w->machine->set_faults(&plan);
    w->machine->set_flight(&flight_);
    VdomStatus st = perform(*w, op, &verdict);
    w->machine->set_faults(nullptr);
    w->machine->set_flight(nullptr);
    ++result.injected_runs;

    result.rollbacks += w->proc->mm().journal().rollbacks() - rollbacks_before;
    const std::string after = snapshot_state(*w->sys);
    if (is_fault_status(st)) {
        // A graceful failure must be a perfect no-op architecturally.
        ++result.failed_ops;
        ++result.snapshot_checks;
        if (after != before)
            report(result, *w, &plan, label + ": failed op mutated state");
    } else if (st == VdomStatus::kOk) {
        if (plan.total_fires() > 0)
            ++result.degraded_ops;
        if (!verdict.policy_held)
            report(result, *w, &plan,
                   label + ": access verdict diverged from VDR policy");
    } else {
        report(result, *w, &plan,
               label + ": unexpected status " + status_name(st));
    }

    std::string bad = check_design_invariants(*w, result);
    if (!bad.empty())
        report(result, *w, &plan, label + ": " + bad);

    // Rolled-back ops must be cleanly retryable once the fault clears.
    if (is_fault_status(st)) {
        Verdict retried;
        VdomStatus retry = perform(*w, op, &retried);
        if (retry != VdomStatus::kOk || !retried.policy_held)
            report(result, *w, &plan,
                   label + ": retry after rollback failed: " +
                       status_name(retry));
    }

    fold(result, label + " -> " + status_name(st) + " " +
                     std::to_string(snapshot_hash(after)));
}

template <FaultMode M>
void
FaultPointHarness<M>::run_power_losses(const std::vector<Op> &script,
                                       const std::vector<Golden> &golden,
                                       std::size_t i, std::uint64_t n,
                                       CrashSweepResult &result)
{
    auto w = replay_prefix(script, i, result);
    if (w == nullptr)
        return;
    const Op &op = script[i];
    prepare(*w, op);

    // One run of the op with power failing at each of its n crossings.
    // A power loss leaves only the durable media, so the image of a
    // crossing is a copy of the WAL and the PMO store taken there.  The
    // op runs on past every tap, and what it does afterwards is never
    // seen by recovery.
    struct Image {
        kernel::Wal wal;
        apps::PmoStore store;
    };
    std::vector<Image> images;
    images.reserve(n);
    FaultPlan plan(config_.seed);
    plan.arm_crash(FaultSpec{.every = 1, .max_fires = n},
                   [&] { images.push_back({wal_, store_}); });
    flight_.clear();
    w->machine->set_faults(&plan);
    w->machine->set_flight(&flight_);
    (void)perform(*w, op);
    w->machine->set_faults(nullptr);
    w->machine->set_flight(nullptr);

    for (std::uint64_t k = 1; k <= n; ++k) {
        ++result.injected_runs;
        const std::string label =
            injection_label(i, op, FaultSite::kCrash, k, false);
        if (k > images.size()) {
            report(result, *w, &plan, label + ": armed crash never fired");
            continue;
        }

        // Reboot from image k: the crashed world is gone wholesale; only
        // the WAL and the PMO store survive, and recovery works on them
        // in place.  The recovered world runs with no WAL attached (redo
        // must not re-log) and no fault plan; the harness recorder sees
        // its replay.
        Image &image = images[k - 1];
        image.wal.reboot();
        auto fresh = build_world(config_.arch, config_.cores, config_.threads);
        fresh->machine->set_flight(&flight_);
        RecoveryStats stats =
            recover(*fresh->sys, fresh->machine->core(0), image.wal,
                    apps::pmo_recovery_hook(image.store));
        fresh->machine->set_flight(nullptr);
        result.replayed_ops += stats.replayed;
        result.torn_records += stats.torn;
        result.undone_ops += stats.undone;
        if (!stats.ok) {
            report(result, *fresh, &plan,
                   label + ": recovery failed: " + stats.error);
            continue;
        }
        ++result.recoveries;

        // Atomicity oracle: the WAL decides which golden boundary the
        // recovered world must sit on — after op i when its transaction
        // committed before the crash, after op i-1 otherwise.  Any other
        // committed count means an op leaked more than one transaction.
        const Golden *expect = nullptr;
        if (stats.committed == golden[i + 1].commits)
            expect = &golden[i + 1];
        else if (stats.committed == golden[i].commits)
            expect = &golden[i];
        if (expect == nullptr) {
            report(result, *fresh, &plan,
                   label + ": committed count " +
                       std::to_string(stats.committed) +
                       " matches no op boundary");
            continue;
        }

        verify_recovered(*fresh, image.store, *expect, label, result);
        fold(result, label + " committed=" +
                         std::to_string(stats.committed) + " replayed=" +
                         std::to_string(stats.replayed) +
                         " torn=" + std::to_string(stats.torn));
    }
}

template <FaultMode M>
auto
FaultPointHarness<M>::run() -> Result
{
    constexpr bool kGraceful = M == FaultMode::kGraceful;
    // The swept sites, as a [first, last) range: every graceful site, or
    // kCrash (which sits just past them) alone.
    constexpr std::size_t first = kGraceful ? 0 : kNumFaultSites;
    constexpr std::size_t last = kGraceful ? kNumFaultSites
                                           : kNumFaultSites + 1;
    Result result;
    const std::vector<Op> script = make_script();
    result.script_ops = script.size();

    // Probe pass: one clean world with the swept sites count-armed (a
    // probe tallies crossings, never fires), recording per-(op, site)
    // crossing counts — plus, in power-loss mode, the golden durable state
    // at every op boundary.  The script must run clean: the sweep's
    // promises are meaningless over a broken baseline.
    std::vector<std::array<std::uint64_t, kNumFaultSites + 1>> crossings(
        script.size());
    std::vector<Golden> golden(kGraceful ? 0 : script.size() + 1);
    {
        auto w = replay_prefix(script, 0, result);
        FaultPlan probe(config_.seed);
        for (std::size_t s = first; s < last; ++s)
            probe.arm_probe(static_cast<FaultSite>(s));
        w->machine->set_faults(&probe);
        if constexpr (!kGraceful) {
            golden[0].durable = snapshot_durable_state(*w->sys);
            golden[0].hash = snapshot_hash(golden[0].durable);
        }
        std::map<int, std::pair<std::uint64_t, std::uint64_t>> live;
        for (std::size_t i = 0; i < script.size(); ++i) {
            const Op &op = script[i];
            prepare(*w, op);
            std::array<std::uint64_t, kNumFaultSites + 1> before{};
            for (std::size_t s = first; s < last; ++s)
                before[s] = probe.occurrences(static_cast<FaultSite>(s));
            Verdict verdict;
            VdomStatus st = perform(*w, op, &verdict);
            for (std::size_t s = first; s < last; ++s)
                crossings[i][s] =
                    probe.occurrences(static_cast<FaultSite>(s)) -
                    before[s];
            std::string label = "clean op " + std::to_string(i) + " (" +
                                Op::name(op.kind) + ")";
            if (st != VdomStatus::kOk || !verdict.policy_held) {
                report(result, *w, &probe,
                       label + " failed: " + status_name(st));
                return result;
            }
            std::string bad = check_design_invariants(*w, result);
            if (!bad.empty()) {
                report(result, *w, &probe, label + ": " + bad);
                return result;
            }
            if constexpr (kGraceful) {
                fold(result, label + " " +
                                 std::to_string(snapshot_hash(
                                     snapshot_state(*w->sys))));
            } else {
                if (op.kind == Op::Kind::kPmoAttach)
                    live[op.pmo] = {op.pages, op.seed};
                else if (op.kind == Op::Kind::kPmoDetach)
                    live.erase(op.pmo);
                Golden &g = golden[i + 1];
                g.durable = snapshot_durable_state(*w->sys);
                g.hash = snapshot_hash(g.durable);
                g.commits = wal_.commits();
                g.pmos = live;
                fold(result, label + " " + std::to_string(g.hash) +
                                 " crossings=" +
                                 std::to_string(crossings[i][first]) +
                                 " commits=" + std::to_string(g.commits));
            }
        }
    }

    // Injection passes: one fresh world per (op, site, crossing), graceful
    // sites once more in sticky mode.  Power loss piggybacks on every
    // graceful site's crossing as well as every WAL ordering point and
    // PMO persist point.
    for (std::size_t i = 0; i < script.size(); ++i) {
        for (std::size_t s = first; s < last; ++s) {
            auto site = static_cast<FaultSite>(s);
            std::uint64_t n = crossings[i][s];
            if constexpr (kGraceful)
                result.fault_points += n;
            else
                result.crash_points += n;
            if constexpr (kGraceful) {
                for (std::uint64_t k = 1; k <= n; ++k) {
                    run_injection(script, i, site, k, false, result);
                    if (sticky_swept(site))
                        run_injection(script, i, site, k, true, result);
                }
            } else if (n > 0) {
                run_power_losses(script, golden, i, n, result);
            }
        }
    }
    return result;
}

template class FaultPointHarness<FaultMode::kGraceful>;
template class FaultPointHarness<FaultMode::kCrash>;

// --- application-workload chaos ------------------------------------------

ChaosAppsResult
run_chaos_apps(const ChaosAppsConfig &config)
{
    ChaosAppsResult result;
    // The app models create their own threads.
    auto w = build_world(config.arch, config.cores, 0);
    hw::Machine &machine = *w->machine;
    kernel::Process &proc = *w->proc;
    // Bring-up runs fault-free (mirrors ChaosHarness): chaos targets the
    // workload's steady state, not construction.
    perform(*w, {.kind = Op::Kind::kInit});

    FaultPlan plan(config.seed);
    for (const auto &[site, spec] : config.faults)
        plan.arm(site, spec);
    apps::VdomStrategy strat(*w->sys, 2);
    machine.set_faults(&plan);
    switch (config.workload) {
      case ChaosAppsConfig::Workload::kHttpd: {
        apps::HttpdConfig cfg =
            apps::HttpdConfig::for_arch(config.arch, config.clients, 1);
        cfg.total_requests = config.work_items;
        apps::HttpdResult r = apps::run_httpd(machine, proc, strat, cfg);
        result.completed = r.completed;
        result.elapsed = r.elapsed;
        break;
      }
      case ChaosAppsConfig::Workload::kMysql: {
        apps::MysqlConfig cfg =
            apps::MysqlConfig::for_arch(config.arch, config.clients);
        cfg.total_queries = config.work_items;
        apps::MysqlResult r = apps::run_mysql(machine, proc, strat, cfg);
        result.completed = r.completed;
        result.elapsed = r.elapsed;
        break;
      }
      case ChaosAppsConfig::Workload::kPmo: {
        apps::PmoConfig cfg =
            apps::PmoConfig::for_arch(config.arch, config.clients);
        cfg.ops_per_thread = config.work_items;
        cfg.pmos = 16;
        cfg.pmo_pages = 8;
        apps::PmoResult r = apps::run_pmo(machine, proc, strat, cfg);
        result.completed = r.completed;
        result.elapsed = r.elapsed;
        break;
      }
    }
    result.faults_injected = plan.total_fires();
    std::string bad = check_design_invariants(*w, result);
    if (!bad.empty()) {
        // No bundle: the config names no post-mortem path.
        record_violation(result,
                         hw::arch_name(config.arch) + std::string(" (seed ") +
                             std::to_string(config.seed) + "): " + bad,
                         {}, nullptr);
    }
    return result;
}

}  // namespace vdom::sim
