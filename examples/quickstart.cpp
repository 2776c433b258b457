/// \file
/// Quickstart: the VDom API in ~60 lines.
///
/// Builds a simulated X86 machine, creates a process + thread, allocates
/// more virtual domains than the hardware has physical ones, and shows
/// the core guarantees: thread-local permissions, unlimited domains, and
/// SIGSEGV on unauthorized access.
///
///   $ ./build/examples/quickstart

#include <cstdio>

#include "hw/machine.h"
#include "kernel/process.h"
#include "telemetry/metrics.h"
#include "vdom/api.h"

int
main()
{
    using namespace vdom;
    using telemetry::Metric;

    // Event counts (evictions, VDS switches, ...) land in this registry.
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);

    // A 4-core Intel-like platform with MPK (16 pdoms, PKRU in user space).
    hw::Machine machine(hw::ArchParams::x86(4));
    kernel::Process proc(machine);
    VdomSystem vdom(proc);
    hw::Core &core = machine.core(0);

    // Bring up VDom for the process and one thread (Table 1 API).
    vdom.vdom_init(core);
    kernel::Task *thread = proc.create_task();
    proc.switch_to(core, *thread, false);
    vdom.vdr_alloc(core, *thread, /*nas=*/4);

    // Allocate 40 virtual domains — far more than the 16 hardware ones —
    // each protecting its own page. vdom_alloc can never fail (§5).
    std::printf("allocating 40 vdoms on hardware with 16 pdoms...\n");
    struct Secret {
        VdomId vdom;
        hw::Vpn page;
    };
    Secret secrets[40];
    for (auto &secret : secrets) {
        secret.vdom = vdom.vdom_alloc(core);
        secret.page = proc.mm().mmap(1);
        vdom.vdom_mprotect(core, secret.page, 1, secret.vdom);
    }

    // Without permission, access dies with SIGSEGV.
    VAccess denied = vdom.access(core, *thread, secrets[0].page, false);
    std::printf("read before wrvdr:        %s\n",
                denied.sigsegv ? "SIGSEGV (blocked)" : "allowed?!");

    // wrvdr grants this thread (and only this thread) access; the
    // virtualization algorithm maps the vdom to a pdom behind the scenes,
    // switching address spaces or evicting as needed.
    for (auto &secret : secrets) {
        vdom.wrvdr(core, *thread, secret.vdom, VPerm::kFullAccess);
        VAccess w = vdom.access(core, *thread, secret.page, true);
        if (!w.ok) {
            std::printf("unexpected failure on vdom %u\n", secret.vdom);
            return 1;
        }
        vdom.wrvdr(core, *thread, secret.vdom, VPerm::kAccessDisable);
    }
    std::printf("wrote all 40 protected pages with per-domain grants\n");

    // Write-disable gives read-only views.
    vdom.wrvdr(core, *thread, secrets[7].vdom, VPerm::kWriteDisable);
    std::printf("WD read:                  %s\n",
                vdom.access(core, *thread, secrets[7].page, false).ok
                    ? "ok"
                    : "blocked?!");
    std::printf("WD write:                 %s\n",
                vdom.access(core, *thread, secrets[7].page, true).sigsegv
                    ? "SIGSEGV (blocked)"
                    : "allowed?!");

    // A second thread has its own VDR: no access to the first's secrets.
    kernel::Task *other = proc.create_task();
    proc.switch_to(machine.core(1), *other, false);
    vdom.vdr_alloc(machine.core(1), *other, 2);
    VAccess cross =
        vdom.access(machine.core(1), *other, secrets[7].page, false);
    std::printf("other thread's read:      %s\n",
                cross.sigsegv ? "SIGSEGV (blocked)" : "allowed?!");

    std::printf("\nvirtualization activity: %llu free-maps, %llu "
                "evictions, %llu VDS switches, %llu migrations, "
                "%zu address spaces\n",
                (unsigned long long)metrics.value(Metric::kDomainMapFree),
                (unsigned long long)metrics.value(Metric::kHlruEvict),
                (unsigned long long)metrics.value(Metric::kVdsSwitch),
                (unsigned long long)metrics.value(Metric::kMigration),
                proc.mm().num_vdses());
    std::printf("simulated cycles on core 0: %.0f\n", core.now());
    return 0;
}
