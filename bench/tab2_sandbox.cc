/// \file
/// Table 2 reproduction: compatibility with memory-domain sandbox defenses
/// (§7.1).
///
/// The paper ports one example of each defense class from state-of-the-art
/// MPK sandboxes (Cerberus et al.):
///   ❶ binary scan — watchpoint before making PKRU-writing code pages
///     executable;
///   ❷ call gate — check the (dynamically reconstructed) PKRU value at
///     domain switches;
///   ❸ syscall filter — block unchecked reads of protected memory through
///     process_vm_readv-style kernel paths (X86 + ARM).
///
/// This harness exercises each ported defense against an attack and
/// reports blocked/bypassed.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/table.h"
#include "vdom/sandbox.h"

namespace vdom::bench {
namespace {

bool
defense_binary_scan()
{
    BenchWorld world(hw::ArchParams::x86(1));
    world.sys.vdom_init(world.core(0));
    Sandbox sandbox(world.sys);
    // Benign page (inline wrvdr calls only, no raw wrpkru).
    std::vector<std::uint8_t> benign = {0x55, 0x48, 0x89, 0xE5, 0xE8,
                                        0x00, 0x00, 0x00, 0x00, 0xC3};
    // Attack page smuggling a wrpkru.
    std::vector<std::uint8_t> attack = {0x90, 0x0F, 0x01, 0xEF, 0xC3};
    return sandbox.allow_executable(world.core(0), benign) &&
           !sandbox.allow_executable(world.core(0), attack);
}

/// ❷ Call gate: the VDom gate reconstructs the expected PKRU from the
/// shared domain map (the paper: "the domain virtualization algorithm does
/// not generate fixed maps ... VDom can check the shared domain map again
/// after wrpkru").
bool
defense_call_gate()
{
    BenchWorld world(hw::ArchParams::x86(1));
    world.sys.vdom_init(world.core(0));
    Sandbox sandbox(world.sys);
    kernel::Task *task = world.spawn(0);
    world.sys.vdr_alloc(world.core(0), *task, 2);
    const CallGate &gate = world.sys.gate();

    // Legitimate switch passes both the inline check and the sandbox's
    // dynamically reconstructed one.
    GateFrame frame = gate.enter(world.core(0));
    bool legit_ok =
        gate.exit(world.core(0), frame, world.core(0).perm_reg().raw()) &&
        sandbox.check_gate_exit(world.core(0), *task);

    // Hijacked eax keeping pdom1 open is caught by both layers.
    bool attack_caught = !gate.exit_value_legal(0x0);
    world.core(0).perm_reg().set(1, hw::Perm::kFullAccess);
    attack_caught =
        attack_caught && !sandbox.check_gate_exit(world.core(0), *task);
    world.core(0).perm_reg().set(1, hw::Perm::kAccessDisable);

    // Dynamic reconstruction keeps matching across live remapping.
    VdomId v = world.sys.vdom_alloc(world.core(0));
    hw::Vpn vpn = world.proc.mm().mmap(1);
    world.sys.vdom_mprotect(world.core(0), vpn, 1, v);
    world.sys.wrvdr(world.core(0), *task, v, VPerm::kFullAccess);
    bool reconstructed = sandbox.check_gate_exit(world.core(0), *task);
    return legit_ok && attack_caught && reconstructed;
}

/// ❸ Syscall filter: a process_vm_readv-style kernel read must re-check
/// the caller's VDR before touching protected pages (the kernel would
/// otherwise act as a confused deputy, §4).
bool
defense_syscall_filter(hw::ArchKind arch)
{
    BenchWorld world(arch == hw::ArchKind::kX86 ? hw::ArchParams::x86(2)
                                                : hw::ArchParams::arm(2));
    world.sys.vdom_init(world.core(0));
    Sandbox sandbox(world.sys);
    kernel::Task *victim = world.spawn(0);
    world.sys.vdr_alloc(world.core(0), *victim, 2);
    VdomId v = world.sys.vdom_alloc(world.core(0));
    hw::Vpn secret = world.proc.mm().mmap(1);
    world.sys.vdom_mprotect(world.core(0), secret, 1, v);
    world.sys.wrvdr(world.core(0), *victim, v, VPerm::kFullAccess);
    world.sys.access(world.core(0), *victim, secret, true);
    world.sys.wrvdr(world.core(0), *victim, v, VPerm::kAccessDisable);

    // The filtered process_vm_readv consults the caller's VDR exactly
    // like a user-mode access would — the confused deputy is closed.
    kernel::Task *attacker = world.spawn(1);
    world.sys.vdr_alloc(world.core(1), *attacker, 2);
    VAccess filtered = sandbox.filtered_kernel_access(world.core(1),
                                                      *attacker, secret,
                                                      false);
    // And the trusted-library region is locked against re-protection.
    bool locked = !sandbox.mprotect_allowed(world.sys.api_region(), 1);
    return filtered.sigsegv && locked;
}

void
run(BenchReport &report)
{
    struct Row {
        const char *example;
        const char *type;
        const char *arch;
        bool blocked;
    };
    std::vector<Row> rows = {
        {"watchpoint before making PKRU-writing pages executable",
         "binary scan", "X86", defense_binary_scan()},
        {"check reconstructed PKRU before switch", "call gate", "X86",
         defense_call_gate()},
        {"block unchecked process_vm_readv on protected memory",
         "syscall filter", "X86",
         defense_syscall_filter(hw::ArchKind::kX86)},
        {"block unchecked process_vm_readv on protected memory",
         "syscall filter", "ARM",
         defense_syscall_filter(hw::ArchKind::kArm)},
    };
    sim::Table table("Table 2: ported sandbox defenses (one per class)");
    table.columns({"Example", "Type", "Arch", "Result"});
    for (const Row &r : rows) {
        table.row({r.example, r.type, r.arch,
                   r.blocked ? "attack blocked" : "BYPASSED"});
        if (report.enabled()) {
            report.add()
                .config("defense", r.type)
                .config("arch", r.arch)
                .metric("attack_blocked", r.blocked ? 1.0 : 0.0);
        }
    }
    table.print();
    std::printf("Paper (Tab. 2 + §7.1): sandbox-enhanced VDom correctly\n"
                "handles unsafe and hijacked PKRU updates and intercepts\n"
                "confused-deputy syscalls on both architectures.\n");
}

}  // namespace
}  // namespace vdom::bench

int
main(int argc, char **argv)
{
    if (!vdom::bench::args_ok("tab2_sandbox", argc, argv))
        return 2;
    vdom::bench::BenchReport report("tab2_sandbox", argc, argv);
    vdom::bench::run(report);
    report.write();
    return 0;
}
