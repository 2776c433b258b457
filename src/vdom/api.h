/// \file
/// The VDom public API (Table 1) over one simulated process.
///
/// This is the library a user application links against.  Calls mirror the
/// paper's API exactly:
///
///   vdom_init()                initialize VDom for the process
///   vdom_alloc(freq)           allocate a vdom (frequently-accessed hint)
///   vdom_free(vdom)            release a vdom
///   vdom_mprotect(addr,len,v)  put pages under a vdom
///   vdr_alloc(nas)             give the calling thread a VDR; cap the
///                              address spaces it may own
///   vdr_free()                 release the thread's VDR
///   wrvdr(vdom, perm)          write the thread's permission on a vdom
///   rdvdr(vdom)                read it back
///
/// plus the memory-access entry point the workloads drive (`access`),
/// which runs the full hardware path: TLB -> page table -> domain check ->
/// fault handling -> virtualization algorithm.

#pragma once

#include <cstdint>
#include <optional>

#include "hw/core.h"
#include "hw/mmu.h"
#include "kernel/process.h"
#include "vdom/callgate.h"
#include "vdom/types.h"
#include "vdom/virt_algo.h"

namespace vdom {

/// How wrvdr/rdvdr enter the trusted library on Intel (§7.5): the secure
/// variant pays the pdom1 call gate; the fast variant relinquishes it.
/// On ARM both collapse to the syscall path (DACR writes are privileged).
enum class ApiMode : std::uint8_t { kSecure, kFast };

/// Result of an application memory access through VDom.
struct VAccess {
    bool ok = false;        ///< Access completed.
    bool sigsegv = false;   ///< Access violation: the process would die.
    hw::Pdom pdom = 0;      ///< Domain tag that served the access.
};

/// The per-process VDom instance.
class VdomSystem {
  public:
    explicit VdomSystem(kernel::Process &proc);

    kernel::Process &process() { return *proc_; }
    DomainVirtualizer &virtualizer() { return virt_; }
    const CallGate &gate() const { return gate_; }

    // --- Table 1 ----------------------------------------------------------

    /// Initializes VDom: allocates the pdom1-protected API region that
    /// holds VDRs and the secure sharing page (§6.3).
    VdomStatus vdom_init(hw::Core &core);

    /// Allocates a vdom.  \p frequent marks it frequently-accessed, which
    /// biases ❺ toward eviction (§5.4).
    /// \returns kInvalidVdom when the id space is exhausted.
    VdomId vdom_alloc(hw::Core &core, bool frequent = false);

    /// Frees \p vdom: drops its VDT chains and unmaps it from every VDS.
    VdomStatus vdom_free(hw::Core &core, VdomId vdom);

    /// Assigns pages [vpn, vpn+pages) to \p vdom.
    VdomStatus vdom_mprotect(hw::Core &core, hw::Vpn vpn,
                             std::uint64_t pages, VdomId vdom);

    /// Byte-addressed form, as in the paper's API: the pages containing
    /// any part of [addr, addr+len-1].  kInvalidRange when \p len is 0 or
    /// the range runs past the top of the address space.
    VdomStatus vdom_mprotect_bytes(hw::Core &core, hw::VAddr addr,
                                   std::uint64_t len, VdomId vdom);

    /// Gives \p task a VDR and caps its address spaces at \p nas.
    VdomStatus vdr_alloc(hw::Core &core, kernel::Task &task,
                         std::size_t nas);

    /// Releases the thread's VDR and VDS ownership records.
    VdomStatus vdr_free(hw::Core &core, kernel::Task &task);

    /// Writes the calling thread's permission on \p vdom, running the
    /// virtualization algorithm when the vdom is not mapped in the current
    /// VDS (Table 3's wrvdr rows measure exactly this path).
    VdomStatus wrvdr(hw::Core &core, kernel::Task &task, VdomId vdom,
                     VPerm perm, ApiMode mode = ApiMode::kSecure);

    /// Reads the calling thread's permission on \p vdom into \p out,
    /// reporting validation failures (kInvalidVdom for out-of-range or
    /// freed ids) instead of silently defaulting.
    VdomStatus rdvdr(hw::Core &core, kernel::Task &task, VdomId vdom,
                     VPerm *out, ApiMode mode = ApiMode::kSecure);

    /// Convenience form: returns the permission, kAccessDisable on any
    /// validation failure.  Routed through the status-returning overload,
    /// so both reject freed/out-of-range ids identically (tests/test_txn.cc
    /// pins the agreement).
    VPerm rdvdr(hw::Core &core, kernel::Task &task, VdomId vdom,
                ApiMode mode = ApiMode::kSecure);

    // --- memory access -----------------------------------------------------

    /// One application load/store at page \p vpn.
    ///
    /// Runs the hardware access path; on faults, runs the kernel handler
    /// (§6.2): SIGSEGV on true violations, VDS demand paging, or the
    /// virtualization algorithm for evicted/unmapped vdoms, then retries.
    VAccess access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                   bool write);

    // --- inspection ---------------------------------------------------------

    bool initialized() const { return initialized_; }

    /// First page of the pdom1-protected API region (penetration tests
    /// attack this).
    hw::Vpn api_region() const { return api_region_; }
    std::uint64_t api_region_pages() const { return kApiRegionPages; }

  private:
    static constexpr std::uint64_t kApiRegionPages = 16;

    /// Re-issue budget for injected permission-register write failures;
    /// past it wrvdr returns kRetriesExhausted with nothing mutated.
    static constexpr int kMaxPermRegRetries = 3;

    /// Charges the user-side cost of one API call and returns whether the
    /// exit check passed (always true for legitimate calls).
    void charge_api_entry(hw::Core &core, ApiMode mode);

    /// Applies the VDR value of \p vdom to the hardware slot \p pdom.
    void sync_hw_slot(hw::Core &core, kernel::Task &task, VdomId vdom,
                      hw::Pdom pdom);

    kernel::Process *proc_;
    DomainVirtualizer virt_;
    CallGate gate_;
    bool initialized_ = false;
    hw::Vpn api_region_ = 0;
};

}  // namespace vdom
