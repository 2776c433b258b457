/// \file
/// Debugging with the flight recorder and introspection.
///
/// Demonstrates the tooling a developer uses to understand *why* VDom did
/// what it did: attach a flight recorder, run a deliberately thrashy
/// workload, then query its typed events and read the vdomctl-style state
/// report to find the misconfiguration (nas=1 forcing evictions where
/// nas=4 would switch).  Exits 0 only if the nas=4 run is faster.
///
///   $ ./build/examples/trace_debugging

#include <cstdio>
#include <iostream>
#include <vector>

#include "hw/machine.h"
#include "kernel/process.h"
#include "telemetry/flightrec.h"
#include "vdom/introspect.h"

namespace {

using namespace vdom;

/// Cycles through twice as many domains as one address space holds.
double
churn(VdomSystem &sys, kernel::Process &proc, hw::Core &core,
      std::size_t nas)
{
    kernel::Task *thread = proc.create_task();
    proc.switch_to(core, *thread, false);
    sys.vdr_alloc(core, *thread, nas);
    std::size_t usable = proc.params().usable_pdoms();
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t i = 0; i < 2 * usable; ++i) {
        VdomId v = sys.vdom_alloc(core);
        hw::Vpn vpn = proc.mm().mmap(4);
        sys.vdom_mprotect(core, vpn, 4, v);
        doms.emplace_back(v, vpn);
    }
    hw::Cycles t0 = core.now();
    for (int round = 0; round < 5; ++round) {
        for (auto &[v, vpn] : doms) {
            sys.wrvdr(core, *thread, v, VPerm::kFullAccess);
            sys.access(core, *thread, vpn, true);
            sys.wrvdr(core, *thread, v, VPerm::kAccessDisable);
        }
    }
    return core.now() - t0;
}

/// Flight-record budget: enough for every record of one churn() run, so
/// the counts below cover the whole run, not a trailing window.
constexpr std::size_t kRecords = std::size_t{1} << 14;

}  // namespace

int
main()
{
    // --- The "slow" configuration -------------------------------------
    hw::Machine slow_machine(hw::ArchParams::x86(2));
    kernel::Process slow_proc(slow_machine);
    VdomSystem slow_sys(slow_proc);
    slow_sys.vdom_init(slow_machine.core(0));

    telemetry::FlightRecorder flight(1, kRecords);
    slow_machine.set_flight(&flight);
    double slow_cycles = churn(slow_sys, slow_proc, slow_machine.core(0),
                               /*nas=*/1);
    std::printf("nas=1 run: %.0f cycles\n", slow_cycles);
    std::printf("last evictions:\n");
    std::vector<telemetry::FlightRecord> evicts =
        flight.filter(telemetry::FlightEvent::kEvict);
    std::size_t first = evicts.size() > 6 ? evicts.size() - 6 : 0;
    for (std::size_t i = first; i < evicts.size(); ++i)
        std::printf("  %s\n",
                    telemetry::FlightRecorder::format(evicts[i]).c_str());
    std::printf("  ... (%llu flight records, %zu evictions, %zu VDS "
                "switches)\n\n",
                (unsigned long long)flight.total(), evicts.size(),
                flight.count(telemetry::FlightEvent::kVdsSwitch));

    // The events show a wall of `evict` records: the thread is limited to
    // one address space (nas=1), so every out-of-map domain evicts.
    std::printf("diagnosis: every miss evicts -> raise vdr_alloc's nas.\n\n");

    // --- The fixed configuration --------------------------------------
    hw::Machine fast_machine(hw::ArchParams::x86(2));
    kernel::Process fast_proc(fast_machine);
    VdomSystem fast_sys(fast_proc);
    fast_sys.vdom_init(fast_machine.core(0));
    telemetry::FlightRecorder fixed_flight(1, kRecords);
    fast_machine.set_flight(&fixed_flight);
    double fast_cycles = churn(fast_sys, fast_proc, fast_machine.core(0),
                               /*nas=*/4);
    std::printf("nas=4 run: %.0f cycles (%.2fx faster)\n", fast_cycles,
                slow_cycles / fast_cycles);
    std::printf("evictions: %zu, VDS switches: %zu (%llu records, %llu "
                "dropped)\n\n",
                fixed_flight.count(telemetry::FlightEvent::kEvict),
                fixed_flight.count(telemetry::FlightEvent::kVdsSwitch),
                (unsigned long long)fixed_flight.total(),
                (unsigned long long)fixed_flight.dropped());

    // Where did everything end up?  The Fig. 3-style state report:
    std::printf("state after the fixed run:\n");
    dump_state(fast_sys, std::cout);
    return fast_cycles < slow_cycles ? 0 : 1;
}
