/// \file
/// MySQL application model (§7.6 "separate many threads"; drives Fig. 6).
///
/// The paper hardens MySQL two ways: every connection-handler thread's
/// stack lives in a private vdom (so a compromised thread cannot read or
/// redirect peers' stacks), and the MEMORY storage engine's HP_PTRS
/// structures live in one shared vdom opened only inside engine code.
///
/// The sysbench OLTP read-write workload is modelled as transactions of
/// mixed point-select / range / update / insert queries; each query runs
/// on the connection's stack (own vdom, opened per query) and touches the
/// in-memory table data (shared HP_PTRS vdom, opened around engine
/// access).  With more than ~14 concurrent connections the per-thread
/// stack domains exceed the hardware keys — VDom groups threads into
/// VDSes, while libmpk degenerates into eviction/busy-wait thrash (the
/// paper: "libmpk cannot provide per-thread protection for MySQL when the
/// number of concurrent clients exceeds 14").

#pragma once

#include <cstdint>

#include "apps/strategy.h"
#include "hw/machine.h"
#include "kernel/process.h"

namespace vdom::apps {

/// MySQL workload parameters (sysbench OLTP read-write).
struct MysqlConfig {
    std::size_t connections = 16;    ///< Concurrent clients == threads.
    std::size_t total_queries = 4000;
    hw::Cycles duration = 0;         ///< When nonzero: fixed-duration run
                                     ///  (steady-state throughput, no
                                     ///  straggler tail) instead of a
                                     ///  fixed query count.
    std::size_t tables = 10;         ///< MEMORY tables (10 x 100k rows).
    std::size_t table_pages = 64;    ///< Modelled pages per table.
    std::size_t stack_pages = 16;    ///< Connection-handler stack.

    hw::Cycles parse_cycles = 0;     ///< Parse + optimize per query.
    hw::Cycles engine_cycles = 0;    ///< Parallel storage-engine work.
    hw::Cycles serial_cycles = 0;    ///< Serialized engine section (row
                                     ///  locks, log mutex): the saturation
                                     ///  cap before core count binds.
    hw::Cycles query_io = 0;         ///< Client round-trip + net IO.
    hw::Cycles client_delay = 0;     ///< Client turnaround between queries.
    std::size_t rows_touched = 8;    ///< Data-page touches per query.

    static MysqlConfig for_arch(hw::ArchKind kind, std::size_t connections);
};

/// Benchmark outcome.
struct MysqlResult {
    double queries_per_sec = 0;
    std::uint64_t completed = 0;
    hw::Cycles elapsed = 0;
    hw::CycleBreakdown breakdown;
    std::uint64_t engine_steps = 0;   ///< sim::Engine::steps() of the run.
    std::uint64_t engine_yields = 0;  ///< sim::Engine::yields(): idle polls.
};

/// Runs the MySQL model under \p strategy.
MysqlResult run_mysql(hw::Machine &machine, kernel::Process &proc,
                      Strategy &strategy, const MysqlConfig &config);

}  // namespace vdom::apps
