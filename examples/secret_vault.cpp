/// \file
/// Secret vault: the httpd+OpenSSL scenario from §7.6 as a library user
/// would write it.
///
/// A TLS-terminating server allocates a fresh key domain per session
/// (thousands over its lifetime — the "unlimited domains" requirement),
/// opens a key only around the crypto operation that needs it, and keeps
/// every other session's key unreachable even from a fully compromised
/// worker.  Also demonstrates the frequently-accessed hint and pinning.
///
///   $ ./build/examples/secret_vault

#include <cstdio>
#include <vector>

#include "hw/machine.h"
#include "kernel/process.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"
#include "vdom/api.h"

namespace {

/// One TLS session's key material, isolated in its own domain.
struct SessionKey {
    vdom::VdomId domain;
    vdom::hw::Vpn page;
};

/// Allocates key material in a fresh domain (EVP_PKEY-style).
SessionKey
new_session_key(vdom::VdomSystem &sys, vdom::kernel::Process &proc,
                vdom::hw::Core &core)
{
    SessionKey key;
    key.domain = sys.vdom_alloc(core);
    key.page = proc.mm().mmap(1);
    sys.vdom_mprotect(core, key.page, 1, key.domain);
    return key;
}

/// Signs/encrypts under \p key: the only window where the key is readable.
bool
crypto_op(vdom::VdomSystem &sys, vdom::kernel::Task &worker,
          vdom::hw::Core &core, const SessionKey &key)
{
    sys.wrvdr(core, worker, key.domain, vdom::VPerm::kWriteDisable);
    bool ok = sys.access(core, worker, key.page, false).ok;
    core.charge(vdom::hw::CostKind::kCompute, 50'000);  // The crypto work.
    sys.wrvdr(core, worker, key.domain, vdom::VPerm::kAccessDisable);
    return ok;
}

}  // namespace

int
main()
{
    using namespace vdom;
    using telemetry::Metric;
    telemetry::MetricsRegistry metrics;  // Event counts for the summary.
    telemetry::ScopedMetrics attach(metrics);

    hw::Machine machine(hw::ArchParams::x86(4));
    kernel::Process proc(machine);
    VdomSystem sys(proc);
    hw::Core &core = machine.core(0);

    sys.vdom_init(core);
    kernel::Task *worker = proc.create_task();
    proc.switch_to(core, *worker, false);
    sys.vdr_alloc(core, *worker, /*nas=*/2);

    // The server's long-lived certificate key: frequently accessed (biases
    // the algorithm toward in-place eviction, §5.4) and pinned when idle
    // (survives HLRU pressure, §5.5).
    SessionKey cert_key = new_session_key(sys, proc, core);
    // Re-allocate with the frequent hint.
    VdomId cert_domain = sys.vdom_alloc(core, /*frequent=*/true);
    hw::Vpn cert_page = proc.mm().mmap(1);
    sys.vdom_mprotect(core, cert_page, 1, cert_domain);
    (void)cert_key;

    std::printf("serving 500 sessions, one fresh key domain each...\n");
    sim::Rng rng(42);
    std::vector<SessionKey> live;
    std::size_t crypto_ops = 0;
    for (int session = 0; session < 500; ++session) {
        SessionKey key = new_session_key(sys, proc, core);
        // Handshake: certificate key + session key used together.
        sys.wrvdr(core, *worker, cert_domain, VPerm::kWriteDisable);
        sys.access(core, *worker, cert_page, false);
        sys.wrvdr(core, *worker, cert_domain, VPerm::kPinned);  // Idle-pin.
        if (!crypto_op(sys, *worker, core, key)) {
            std::printf("crypto op failed!\n");
            return 1;
        }
        ++crypto_ops;
        live.push_back(key);
        // A few resumed sessions reuse old keys.
        for (int resume = 0; resume < 3 && !live.empty(); ++resume) {
            const SessionKey &old = live[rng.below(live.size())];
            if (!crypto_op(sys, *worker, core, old))
                return 1;
            ++crypto_ops;
        }
        // Sessions close: their keys are freed (and their domains become
        // unreachable forever).
        if (live.size() > 64) {
            sys.vdom_free(core, live.front().domain);
            live.erase(live.begin());
        }
    }

    // The vault property: a hijacked worker scanning memory hits SIGSEGV
    // on every key it has not been granted.
    std::size_t blocked = 0;
    for (const SessionKey &key : live) {
        if (sys.access(core, *worker, key.page, false).sigsegv)
            ++blocked;
    }
    std::printf("crypto ops completed:        %zu\n", crypto_ops);
    std::printf("live keys scanned by attacker: %zu, blocked: %zu\n",
                live.size(), blocked);
    std::printf("domains allocated in total:  %zu (hardware has 16)\n",
                proc.mm().vdm().high_water());
    std::printf("evictions %llu | VDS switches %llu | address spaces %zu\n",
                (unsigned long long)metrics.value(Metric::kHlruEvict),
                (unsigned long long)metrics.value(Metric::kVdsSwitch),
                proc.mm().num_vdses());
    return blocked == live.size() ? 0 : 1;
}
