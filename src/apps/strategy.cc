/// \file
/// Protection-strategy implementations.

#include "apps/strategy.h"

#include "hw/mmu.h"

namespace vdom::apps {

void
Strategy::plain_access(kernel::Process &proc, hw::Core &core,
                       kernel::Task &task, hw::Vpn vpn, bool write)
{
    for (int attempt = 0; attempt < 3; ++attempt) {
        hw::AccessResult res = hw::Mmu::access(core, vpn, write);
        if (res.outcome != hw::AccessOutcome::kPageFault)
            return;
        core.charge(hw::CostKind::kFault, core.costs().fault_entry);
        if (!proc.mm().fault_in(core, *task.vds(), vpn))
            return;
    }
}

// --- NoneStrategy ----------------------------------------------------------

int
NoneStrategy::register_object(hw::Core &, kernel::Task &, hw::Vpn,
                              std::uint64_t, bool)
{
    return 0;
}

// --- VdomStrategy ----------------------------------------------------------

void
VdomStrategy::thread_init(hw::Core &core, kernel::Task &task)
{
    if (!task.has_vdr())
        sys_->vdr_alloc(core, task, nas_);
}

int
VdomStrategy::register_object(hw::Core &core, kernel::Task &task,
                              hw::Vpn vpn, std::uint64_t pages,
                              bool frequent)
{
    (void)task;
    VdomId vdom = sys_->vdom_alloc(core, frequent);
    sys_->vdom_mprotect(core, vpn, pages, vdom);
    objects_.push_back(vdom);
    return static_cast<int>(objects_.size() - 1);
}

void
VdomStrategy::attach_pages(hw::Core &core, kernel::Task &task, int obj,
                           hw::Vpn vpn, std::uint64_t pages)
{
    (void)task;
    sys_->vdom_mprotect(core, vpn, pages,
                        objects_[static_cast<std::size_t>(obj)]);
}

bool
VdomStrategy::enable(hw::Core &core, kernel::Task &task, int obj,
                     VPerm perm)
{
    sys_->wrvdr(core, task, objects_[static_cast<std::size_t>(obj)], perm);
    return true;
}

void
VdomStrategy::disable(hw::Core &core, kernel::Task &task, int obj)
{
    sys_->wrvdr(core, task, objects_[static_cast<std::size_t>(obj)],
                VPerm::kAccessDisable);
}

// --- LowerboundStrategy ------------------------------------------------------

void
LowerboundStrategy::thread_init(hw::Core &core, kernel::Task &task)
{
    if (!task.has_vdr())
        sys_->vdr_alloc(core, task, 1);
}

int
LowerboundStrategy::register_object(hw::Core &core, kernel::Task &task,
                                    hw::Vpn vpn, std::uint64_t pages,
                                    bool frequent)
{
    (void)task;
    (void)frequent;
    if (shared_ == kInvalidVdom)
        shared_ = sys_->vdom_alloc(core, true);
    sys_->vdom_mprotect(core, vpn, pages, shared_);
    return objects_++;
}

void
LowerboundStrategy::attach_pages(hw::Core &core, kernel::Task &task,
                                 int obj, hw::Vpn vpn, std::uint64_t pages)
{
    (void)task;
    (void)obj;
    sys_->vdom_mprotect(core, vpn, pages, shared_);
}

bool
LowerboundStrategy::enable(hw::Core &core, kernel::Task &task, int obj,
                           VPerm perm)
{
    (void)obj;
    sys_->wrvdr(core, task, shared_, perm);
    return true;
}

void
LowerboundStrategy::disable(hw::Core &core, kernel::Task &task, int obj)
{
    (void)obj;
    sys_->wrvdr(core, task, shared_, VPerm::kAccessDisable);
}

// --- LibmpkStrategy ---------------------------------------------------------

int
LibmpkStrategy::register_object(hw::Core &core, kernel::Task &task,
                                hw::Vpn vpn, std::uint64_t pages,
                                bool frequent)
{
    (void)task;
    (void)frequent;
    int vkey = mpk_->pkey_alloc(core);
    mpk_->pkey_mprotect(core, vpn, pages, vkey);
    return vkey;
}

void
LibmpkStrategy::attach_pages(hw::Core &core, kernel::Task &task, int obj,
                             hw::Vpn vpn, std::uint64_t pages)
{
    (void)task;
    mpk_->pkey_mprotect(core, vpn, pages, obj);
}

bool
LibmpkStrategy::enable(hw::Core &core, kernel::Task &task, int obj,
                       VPerm perm)
{
    return mpk_->pkey_set(core, task, obj, perm) ==
           baselines::MpkResult::kOk;
}

void
LibmpkStrategy::disable(hw::Core &core, kernel::Task &task, int obj)
{
    mpk_->pkey_set(core, task, obj, VPerm::kAccessDisable);
}

// --- EpkStrategy ------------------------------------------------------------

int
EpkStrategy::register_object(hw::Core &core, kernel::Task &task,
                             hw::Vpn vpn, std::uint64_t pages, bool frequent)
{
    (void)task;
    (void)vpn;
    (void)pages;
    (void)frequent;
    return epk_->key_alloc(core);
}

bool
EpkStrategy::enable(hw::Core &core, kernel::Task &task, int obj, VPerm perm)
{
    epk_->key_set(core, task, obj, perm);
    return true;
}

void
EpkStrategy::disable(hw::Core &core, kernel::Task &task, int obj)
{
    epk_->key_set(core, task, obj, VPerm::kAccessDisable);
}

}  // namespace vdom::apps
