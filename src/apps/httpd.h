/// \file
/// httpd + OpenSSL application model (§7.6 "isolate many in-library
/// secrets"; drives Figure 5, and Figure 1 under the libmpk strategy).
///
/// The model reproduces the protection-relevant event stream of the
/// paper's setup — one httpd worker pool serving HTTPS requests where
/// every OpenSSL private-key structure lives in its own 4KB domain:
///
///  - each request performs a TLS handshake whose private-key operations
///    (ECDHE-RSA signing) run *while holding the key's domain open* — the
///    long-hold behaviour that makes libmpk busy-wait once concurrent
///    holders exceed the 15 hardware keys;
///  - each request allocates fresh key domains (the paper observes >80,000
///    vdoms allocated per run) that are never recycled — the "unlimited
///    domains" requirement;
///  - the response transfer encrypts file_kb of data under the session
///    key's domain.
///
/// Compute/IO constants are calibrated so the *unprotected* throughput
/// matches Fig. 5's vanilla curves (~1.5e4 req/s on X86, ~250 req/s on
/// ARM); all protection overheads then emerge from event counts.

#pragma once

#include <cstdint>
#include <string>

#include "hw/cost_kind.h"
#include "hw/machine.h"
#include "kernel/process.h"
#include "apps/strategy.h"

namespace vdom::apps {

/// httpd workload parameters.
struct HttpdConfig {
    std::size_t workers = 40;        ///< Worker threads (Fig. 5 setup).
    std::size_t clients = 16;        ///< Concurrent closed-loop clients.
    std::size_t total_requests = 2000;
    std::size_t file_kb = 1;         ///< Response size (1 / 64 / 128 KB).
    std::size_t keys_per_request = 2;  ///< Fresh key domains per handshake.
    std::size_t ops_per_key = 4;     ///< Keyed crypto ops per key.

    hw::Cycles client_delay = 0;     ///< Client turnaround between a
                                     ///  response and its next request
                                     ///  (network RTT + client work).
    hw::Cycles accept_io = 0;        ///< Accept + request-parse IO time.
    hw::Cycles finish_io = 0;        ///< Response flush IO time.
    hw::Cycles handshake_setup = 0;  ///< Unkeyed handshake compute.
    hw::Cycles key_op_cycles = 0;    ///< Keyed private-key op compute.
    hw::Cycles per_kb_cycles = 0;    ///< Encryption + copy per KB.
    std::size_t chunk_kb = 16;       ///< Transfer chunk granularity.

    /// Calibrated defaults per architecture.
    static HttpdConfig for_arch(hw::ArchKind kind, std::size_t clients,
                                std::size_t file_kb);
};

/// One benchmark outcome.
struct HttpdResult {
    double requests_per_sec = 0;
    std::uint64_t completed = 0;
    hw::Cycles elapsed = 0;
    hw::CycleBreakdown breakdown;
    std::uint64_t busy_waits = 0;   ///< libmpk spin quanta (Fig. 1).
    std::uint64_t vdoms_allocated = 0;
};

/// Runs the httpd model on \p machine under \p strategy.
HttpdResult run_httpd(hw::Machine &machine, kernel::Process &proc,
                      Strategy &strategy, const HttpdConfig &config);

}  // namespace vdom::apps
