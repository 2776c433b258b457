/// \file
/// Introspection: human-readable reports of the live VDom state.
///
/// The vdomctl-style view a kernel developer would get from a debugfs
/// node: per-VDS domain maps (the Fig. 3 tables), per-thread VDR
/// summaries and VDT occupancy.  The virtualization-algorithm counters
/// are not repeated here: they live in the metrics registry (`virt.*`),
/// which every post-mortem bundle already carries.  Used by tests to
/// assert on global state and by examples for explanatory output.

#pragma once

#include <iosfwd>
#include <string>

#include "kernel/process.h"
#include "vdom/api.h"

namespace vdom {

/// Snapshot metrics of a live VDom process.
struct IntrospectSummary {
    std::size_t vdses = 0;
    std::size_t live_vdoms = 0;         ///< Allocated vdoms (incl. 0 and 1).
    std::size_t mapped_slots = 0;       ///< (pdom, vdom) pairs in all maps.
    std::size_t free_slots = 0;         ///< Free usable pdoms in all maps.
    std::size_t resident_threads = 0;   ///< Sum over VDSes.
    std::uint64_t protected_pages = 0;  ///< Pages under any non-zero vdom.
    std::size_t vdt_leaves = 0;         ///< Allocated VDT leaf tables.
};

/// Computes the snapshot metrics for \p sys's process.
IntrospectSummary summarize(VdomSystem &sys);

/// Writes the full report (domain maps, threads) to \p out.
void dump_state(VdomSystem &sys, std::ostream &out);

/// Renders one VDS's domain map in the Fig. 3 table format:
/// pdom | vdom | #thread rows.
std::string format_domain_map(const kernel::Vds &vds,
                              const hw::ArchParams &params);

/// Canonical architectural snapshot, the fault-sweep atomicity oracle
/// (sim/chaos.h): VDM table, VDT areas, VMA layout, per-VDS domain maps
/// and residency, per-thread VDRs and reference homes.  Deliberately
/// *excludes* caches and performance state — TLB generations, LRU ticks,
/// clocks, metrics, VDR memos — so that two states compare equal exactly
/// when they are architecturally indistinguishable.  An op that fails
/// with a documented error status must leave this string byte-identical.
std::string snapshot_state(VdomSystem &sys);

/// The *durable* subset of snapshot_state, the crash-sweep recovery
/// oracle (sim/chaos.h): init flag + API region, VDM table + VDT area
/// chains, VMA layout, and per-thread VDR policy (nas + permission
/// words).  Deliberately excludes everything a reboot legitimately
/// discards or recovery does not promise to reconstruct — VDS domain
/// maps, residency, CPU bitmaps, reference homes and VDS ownership all
/// depend on the access history, which the WAL does not log.  A
/// recovered world must match the pre-crash world's durable snapshot
/// exactly at the last committed operation boundary.
std::string snapshot_durable_state(VdomSystem &sys);

/// FNV-1a over \p data (stable 64-bit digest for sweep determinism).
std::uint64_t snapshot_hash(const std::string &data);

}  // namespace vdom
