/// \file
/// Shared test fixtures: a full simulated world in a few lines.

#pragma once

#include <gtest/gtest.h>

#include "hw/machine.h"
#include "kernel/process.h"
#include "telemetry/flightrec.h"
#include "vdom/api.h"

namespace vdom::testing {

/// A stand-in core for driving the flight-record emitters by hand: a
/// settable id and clock, and the recorder its events go to (none by
/// default).
struct FakeCore {
    telemetry::FlightRecorder *recorder = nullptr;
    std::size_t core_id = 0;
    hw::Cycles clock = 0;

    std::size_t id() const { return core_id; }
    hw::Cycles now() const { return clock; }
    telemetry::FlightRecorder *flight() const { return recorder; }
};

/// A machine + process + VDom instance, with helpers to spawn threads.
struct World {
    hw::Machine machine;
    kernel::Process proc;
    VdomSystem sys;

    explicit World(const hw::ArchParams &params)
        : machine(params), proc(machine), sys(proc)
    {
    }

    static World *
    x86(std::size_t cores = 4)
    {
        return new World(hw::ArchParams::x86(cores));
    }

    static World *
    arm(std::size_t cores = 4)
    {
        return new World(hw::ArchParams::arm(cores));
    }

    hw::Core &core(std::size_t i = 0) { return machine.core(i); }

    /// Creates a task and installs it on \p core_id without charging.
    kernel::Task *
    spawn(std::size_t core_id = 0)
    {
        kernel::Task *task = proc.create_task();
        proc.switch_to(machine.core(core_id), *task, false);
        return task;
    }

    /// Full VDom bring-up: init + a ready thread with a VDR.
    kernel::Task *
    ready_thread(std::size_t nas = 4, std::size_t core_id = 0)
    {
        sys.vdom_init(machine.core(core_id));
        kernel::Task *task = spawn(core_id);
        sys.vdr_alloc(machine.core(core_id), *task, nas);
        return task;
    }

    /// Allocates a vdom over a fresh region and returns (vdom, first vpn).
    std::pair<VdomId, hw::Vpn>
    make_domain(std::uint64_t pages, bool frequent = false,
                std::size_t core_id = 0)
    {
        hw::Core &c = machine.core(core_id);
        VdomId vdom = sys.vdom_alloc(c, frequent);
        hw::Vpn vpn = proc.mm().mmap(pages);
        sys.vdom_mprotect(c, vpn, pages, vdom);
        return {vdom, vpn};
    }
};

}  // namespace vdom::testing
