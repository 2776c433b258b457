/// \file
/// Engine implementation: the serial min-heap scheduler (see engine.h for
/// the model).

#include "sim/engine.h"

#include <algorithm>
#include <limits>

namespace vdom::sim {

Engine::Engine(hw::Machine &machine, kernel::Process *proc,
               hw::Cycles time_slice)
    : machine_(&machine),
      proc_(proc),
      time_slice_(time_slice),
      queues_(machine.num_cores()),
      slice_start_(machine.num_cores(), 0),
      installed_(machine.num_cores(), nullptr)
{
}

void
Engine::add_thread(SimThread *thread, int core)
{
    std::size_t c = core >= 0
        ? static_cast<std::size_t>(core) % machine_->num_cores()
        : next_core_++ % machine_->num_cores();
    queues_[c].push_back(thread);
    ++live_threads_;
    heap_stale_ = true;
}

void
Engine::run()
{
    run_until(std::numeric_limits<hw::Cycles>::max());
}

void
Engine::run_until(hw::Cycles deadline)
{
    while (live_threads_ > 0) {
        std::size_t c = pick_core();
        if (machine_->core(c).now() >= deadline)
            return;
        step_core(c);
    }
}

void
Engine::rebuild_heap()
{
    heap_.clear();
    for (std::size_t c = 0; c < queues_.size(); ++c)
        if (!queues_[c].empty())
            heap_.push_back({machine_->core(c).now(), c});
    auto after = [](const HeapEntry &a, const HeapEntry &b) {
        return a.clock > b.clock ||
               (a.clock == b.clock && a.core > b.core);
    };
    std::make_heap(heap_.begin(), heap_.end(), after);
    heap_stale_ = false;
}

std::size_t
Engine::pick_core()
{
    if (heap_stale_)
        rebuild_heap();
    auto after = [](const HeapEntry &a, const HeapEntry &b) {
        return a.clock > b.clock ||
               (a.clock == b.clock && a.core > b.core);
    };
    // Lazy refresh: clocks only move forward, so an entry can only
    // understate its core's clock.  Popping understated entries and
    // re-pushing the true clock converges on the true (clock, core)
    // minimum — the same core the old linear scan picked, including the
    // lowest-id tie-break.
    while (!heap_.empty()) {
        HeapEntry top = heap_.front();
        if (queues_[top.core].empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), after);
            heap_.pop_back();
            continue;
        }
        hw::Cycles now = machine_->core(top.core).now();
        if (now == top.clock)
            return top.core;
        std::pop_heap(heap_.begin(), heap_.end(), after);
        heap_.back().clock = now;
        std::push_heap(heap_.begin(), heap_.end(), after);
    }
    return 0;
}

void
Engine::step_core(std::size_t c)
{
    ++steps_;
    auto &queue = queues_[c];
    hw::Core &core = machine_->core(c);
    // Preempt when the slice expired and another thread waits.
    if (queue.size() > 1 && core.now() - slice_start_[c] >= time_slice_) {
        queue.push_back(queue.front());
        queue.pop_front();
        switch_in(core, *queue.front());
        slice_start_[c] = core.now();
    }
    SimThread *thread = queue.front();
    ensure_installed(core, *thread);
    if (!thread->step(core)) {
        queue.pop_front();
        --live_threads_;
        if (!queue.empty()) {
            switch_in(core, *queue.front());
            slice_start_[c] = core.now();
        }
        return;
    }
    // A yielding thread (blocked waiting for work) is descheduled in
    // favour of the next runnable thread on this core.
    if (!thread->take_yield())
        return;
    ++yields_;
    if (queue.size() > 1) {
        queue.push_back(queue.front());
        queue.pop_front();
        switch_in(core, *queue.front());
        slice_start_[c] = core.now();
    }
}

void
Engine::switch_in(hw::Core &core, SimThread &thread)
{
    ++context_switches_;
    kernel::Process *proc = process_for(thread);
    if (proc && thread.task())
        proc->switch_to(core, *thread.task());
    installed_[core.id()] = &thread;
}

kernel::Process *
Engine::process_for(SimThread &thread) const
{
    return thread.process() ? thread.process() : proc_;
}

void
Engine::ensure_installed(hw::Core &core, SimThread &thread)
{
    if (installed_[core.id()] == &thread)
        return;
    kernel::Process *proc = process_for(thread);
    if (proc && thread.task())
        proc->switch_to(core, *thread.task(),
                        installed_[core.id()] != nullptr);
    installed_[core.id()] = &thread;
}

}  // namespace vdom::sim
