/// \file
/// Deterministic discrete-event multicore engine.
///
/// One host thread advances the runnable core with the minimum local
/// clock (threads pinned to cores, slice preemption through the kernel
/// Process).  Scheduling uses a lazy min-heap keyed by (clock, core id),
/// so large simulated machines do not pay an O(num_cores) scan per step.
/// An entry is refreshed only when it reaches the top; since a core's
/// clock only grows, the refresh is one sift-down of the top in place.
///
/// See docs/INTERNALS.md ("Serial engine").

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "hw/machine.h"
#include "kernel/process.h"
#include "sim/thread.h"

namespace vdom::sim {

/// Runs SimThreads over the simulated machine.
///
/// Scheduling model:
///  - threads are pinned to cores (§6.3: VDom binds threads to cores);
///    multiple threads per core time-share with a configurable slice and
///    pay context-switch costs through the kernel Process;
///  - the engine always advances the runnable core with the minimum local
///    clock (ties broken by core id), which yields a causally consistent,
///    fully deterministic interleaving.
class Engine {
  public:
    /// \param proc kernel process used for context-switch accounting; may
    ///        be null for bare microbenchmarks (no switch costs charged).
    /// \param time_slice preemption quantum in cycles.
    Engine(hw::Machine &machine, kernel::Process *proc = nullptr,
           hw::Cycles time_slice = 1'000'000);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /// Adds \p thread pinned to \p core (or round-robin when < 0).
    void add_thread(SimThread *thread, int core = -1);

    /// Runs until every thread finishes.
    void run();

    /// Runs until every thread finishes or the minimum runnable clock
    /// passes \p deadline.
    void run_until(hw::Cycles deadline);

    std::size_t live_threads() const { return live_threads_; }

    std::uint64_t context_switches() const { return context_switches_; }

    /// Total thread steps executed (diagnostics / livelock detection).
    std::uint64_t steps() const { return steps_; }

    /// Steps whose thread yielded (blocked waiting for work): the share of
    /// steps() that only polls an idle wait.
    std::uint64_t yields() const { return yields_; }

  private:
    /// Lazy min-heap entry: a (clock, core) snapshot.  Entries go stale
    /// when the core steps or its queue drains; pick_core() skips and
    /// refreshes them.
    struct HeapEntry {
        hw::Cycles clock;
        std::size_t core;
    };

    /// Heap order: true when \p a picks after \p b, by (clock, core id).
    static bool
    after(const HeapEntry &a, const HeapEntry &b)
    {
        return a.clock > b.clock || (a.clock == b.clock && a.core > b.core);
    }

    std::size_t pick_core();
    void rebuild_heap();
    /// Restores heap order after the top entry's clock rose.
    void sift_down_top();
    void step_core(std::size_t c);
    void switch_in(hw::Core &core, SimThread &thread);
    kernel::Process *process_for(SimThread &thread) const;
    void ensure_installed(hw::Core &core, SimThread &thread);

    hw::Machine *machine_;
    kernel::Process *proc_;
    hw::Cycles time_slice_;
    std::vector<std::deque<SimThread *>> queues_;
    std::vector<hw::Cycles> slice_start_;
    std::vector<SimThread *> installed_;
    std::size_t next_core_ = 0;
    std::size_t live_threads_ = 0;
    std::uint64_t context_switches_ = 0;
    std::uint64_t steps_ = 0;
    std::uint64_t yields_ = 0;

    std::vector<HeapEntry> heap_;
    bool heap_stale_ = true;
};

}  // namespace vdom::sim
