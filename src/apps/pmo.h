/// \file
/// PMO String Replace benchmark (§7.6 "protect many PMOs"; drives Fig. 7).
///
/// 64 persistent-memory objects of 2MB, each filled with 512-byte strings
/// and protected by its own domain (as in the hardware Domain
/// Virtualization work the paper cites).  Threads repeatedly pick a random
/// string, read it under WD permission, and replace a substring under full
/// access; each operation costs ~10k cycles of application work.  With 64
/// domains over <=14 usable pdoms per VDS, the random pattern exercises
/// the steady-state miss path of every strategy: VDS switches, VDom
/// evictions (2MB PMD fast path), libmpk mprotect storms (4KB or huge
/// pages), and EPK VMFUNC switches across 5 EPTs.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "apps/strategy.h"
#include "hw/machine.h"
#include "kernel/process.h"
#include "vdom/api.h"
#include "vdom/recovery.h"

namespace vdom::apps {

/// PMO workload parameters.
struct PmoConfig {
    std::size_t threads = 4;
    std::size_t pmos = 64;
    std::size_t pmo_pages = 512;        ///< 2MB PMOs.
    std::size_t ops_per_thread = 50'000;  ///< Scaled from the paper's 4M.
    hw::Cycles search_cycles = 7'000;   ///< Substring search.
    hw::Cycles replace_cycles = 3'000;  ///< Replacement write-back.
    bool huge_pages = false;            ///< Map PMOs with 2MB pages.

    static PmoConfig
    for_arch(hw::ArchKind kind, std::size_t threads)
    {
        PmoConfig c;
        c.threads = threads;
        if (kind == hw::ArchKind::kArm) {
            // The Pi's per-op cost is ~24k cycles (derived from the paper's
            // ARM lowerbound/switch/eviction overhead anchors).
            c.search_cycles = 17'000;
            c.replace_cycles = 7'000;
            c.ops_per_thread = 20'000;
        }
        return c;
    }
};

/// Benchmark outcome.
struct PmoResult {
    double ops_per_sec = 0;
    std::uint64_t completed = 0;
    hw::Cycles elapsed = 0;
    hw::CycleBreakdown breakdown;
    double cycles_per_op = 0;
};

/// Runs the PMO model under \p strategy.
PmoResult run_pmo(hw::Machine &machine, kernel::Process &proc,
                  Strategy &strategy, const PmoConfig &config);

// -- Crash-consistent PMO attach/detach -----------------------------------

/// Durable persistent-memory contents, one word per page.  Like the WAL
/// (kernel/wal.h) the store models the NVDIMM itself: it is owned by the
/// harness/test and survives a simulated reboot, while the mapping that
/// points at it does not.  Attach writes content *before* its WAL COMMIT
/// (so recovery must undo a torn attach); detach erases content *after*
/// its COMMIT (so recovery redoes an interrupted erase, idempotently).
struct PmoStore {
    std::map<int, std::vector<std::uint64_t>> content;

    bool has(int pmo) const { return content.count(pmo) != 0; }

    /// The seed-derived word persisted for \p page of \p pmo; integrity
    /// checks recompute it, so torn content is detectable per page.
    static std::uint64_t
    pattern(int pmo, std::uint64_t seed, std::size_t page)
    {
        std::uint64_t h =
            seed ^ (0x9e3779b97f4a7c15ULL *
                    static_cast<std::uint64_t>(pmo + 1));
        h ^= static_cast<std::uint64_t>(page) + 0x632be59bd9b4e019ULL;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return h;
    }

    /// True when \p pmo holds complete, untorn content for \p pages.
    bool
    intact(int pmo, std::uint64_t seed, std::size_t pages) const
    {
        auto it = content.find(pmo);
        if (it == content.end() || it->second.size() != pages)
            return false;
        for (std::size_t i = 0; i < pages; ++i) {
            if (it->second[i] != pattern(pmo, seed, i))
                return false;
        }
        return true;
    }
};

/// Outcome of pmo_attach.
struct PmoAttachResult {
    VdomStatus status = VdomStatus::kOk;
    VdomId vdom = kInvalidVdom;  ///< Domain protecting the PMO.
    hw::Vpn base = 0;            ///< First page of the mapping.
};

/// Maps a \p pages PMO, protects it under a fresh domain and persists its
/// seed-derived content into \p store — atomically across both graceful
/// faults (undo journal) and power loss (WAL intent + recovery undo).
PmoAttachResult pmo_attach(VdomSystem &sys, hw::Core &core, PmoStore &store,
                           int pmo, std::size_t pages, std::uint64_t seed);

/// Frees the PMO's domain and erases its durable content.  The erase is
/// ordered strictly after the WAL COMMIT so a crash in between is
/// finished by recovery instead of losing content of a live PMO.
VdomStatus pmo_detach(VdomSystem &sys, hw::Core &core, PmoStore &store,
                      int pmo, VdomId vdom);

/// Recovery's PMO half over the durable \p store: a committed attach is
/// rewritten from its logged seed, a committed detach's erase is redone,
/// and an uncommitted attach's torn content is undone.
RecoveryHook pmo_recovery_hook(PmoStore &store);

}  // namespace vdom::apps
