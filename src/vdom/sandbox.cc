/// \file
/// Sandbox implementation.

#include "vdom/sandbox.h"

namespace vdom {

bool
Sandbox::code_is_safe(const std::vector<std::uint8_t> &code)
{
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
        // wrpkru: 0F 01 EF.
        if (code[i] == 0x0F && code[i + 1] == 0x01 && code[i + 2] == 0xEF)
            return false;
        // xrstor: 0F AE /5 (reg field of the modrm byte == 101).
        if (code[i] == 0x0F && code[i + 1] == 0xAE &&
            (code[i + 2] & 0x38) == 0x28) {
            return false;
        }
    }
    return true;
}

bool
Sandbox::allow_executable(hw::Core &core,
                          const std::vector<std::uint8_t> &image)
{
    // Scan cost: linear in the image (roughly one cycle per 8 bytes of a
    // vectorized scanner).
    core.charge(hw::CostKind::kSyscall,
                static_cast<hw::Cycles>(image.size()) / 8.0 +
                    core.costs().syscall);
    ++stats_.pages_scanned;
    if (code_is_safe(image))
        return true;
    ++stats_.scan_rejections;
    return false;
}

std::uint32_t
Sandbox::expected_pkru(const kernel::Task &task) const
{
    // A scratch image, not the core's register: composing it counts no
    // register writes.
    hw::PermRegister expected;
    const Vdr *vdr = task.vdr();
    if (vdr && task.vds())
        kernel::Process::compose_perm_reg(expected, *vdr, *task.vds());
    // pdom1 must read back access-disabled outside the gate.
    expected.set_unmetered(sys_->process().params().access_never_pdom,
                           hw::Perm::kAccessDisable);
    return expected.raw();
}

bool
Sandbox::check_gate_exit(hw::Core &core, const kernel::Task &task)
{
    ++stats_.gate_checks;
    core.charge(hw::CostKind::kApi, core.costs().perm_reg_read +
                                        core.costs().perm_compute);
    if (core.perm_reg().raw() == expected_pkru(task))
        return true;
    ++stats_.gate_violations;
    return false;
}

VAccess
Sandbox::filtered_kernel_access(hw::Core &core, kernel::Task &caller,
                                hw::Vpn vpn, bool write)
{
    ++stats_.filtered_syscalls;
    core.charge(hw::CostKind::kSyscall, core.costs().syscall);
    // The filter's whole point: the kernel evaluates the access with the
    // caller's credentials instead of its own omnipotence.
    VAccess res = sys_->access(core, caller, vpn, write);
    if (!res.ok)
        ++stats_.filter_denials;
    return res;
}

bool
Sandbox::mprotect_allowed(hw::Vpn vpn, std::uint64_t pages) const
{
    hw::Vpn api = sys_->api_region();
    hw::Vpn api_end = api + sys_->api_region_pages();
    // Any overlap with the locked trusted-library region is refused.
    return vpn + pages <= api || vpn >= api_end;
}

VdomStatus
Sandbox::sandbox_mprotect(hw::Core &core, hw::Vpn vpn, std::uint64_t pages,
                          VdomId vdom)
{
    ++stats_.filtered_syscalls;
    if (!mprotect_allowed(vpn, pages)) {
        ++stats_.filter_denials;
        return VdomStatus::kPermissionDenied;
    }
    kernel::MmStruct &mm = sys_->process().mm();
    kernel::OpTxn txn(mm, core, kernel::WalOp::kSandboxMprotect, 0, vpn,
                      pages, vdom);
    VdomStatus st = sys_->vdom_mprotect(core, vpn, pages, vdom);
    if (st != VdomStatus::kOk)
        return st;
    txn.commit();
    return st;
}

}  // namespace vdom
