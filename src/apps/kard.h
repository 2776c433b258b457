/// \file
/// Kard-style data-race detection on top of VDom (the paper's §1 cites
/// "data race detection [12]" — Kard, ASPLOS'21 — as a memory-domain use).
///
/// The idea: every lock-protected shared object lives in its own domain,
/// and *ownership follows the lock*.  When a thread acquires the lock, the
/// detector revokes the previous owner's permission and grants the new
/// owner's; any access outside lock ownership hits a domain fault — a
/// deterministically caught data race, with no per-access instrumentation.
///
/// With VDom underneath, the number of watched objects is unlimited, where
/// raw MPK would cap Kard at 14 concurrently-watched objects.

#pragma once

#include <cstdint>
#include <vector>

#include "hw/core.h"
#include "vdom/api.h"

namespace vdom::apps {

/// One detected race.
struct RaceReport {
    std::uint32_t tid = 0;    ///< Offending thread.
    int object = -1;          ///< Watched object.
    hw::Vpn vpn = 0;          ///< Faulting page.
    bool write = false;
};

/// The detector: lock-acquire/release hooks plus an access wrapper.
class KardDetector {
  public:
    explicit KardDetector(VdomSystem &sys) : sys_(&sys) {}

    /// Gives \p task a VDR (call once per thread).
    void
    thread_init(hw::Core &core, kernel::Task &task)
    {
        if (!task.has_vdr())
            sys_->vdr_alloc(core, task, 2);
    }

    /// Registers a lock-protected object over existing pages.
    int
    register_object(hw::Core &core, hw::Vpn vpn, std::uint64_t pages)
    {
        Watched w;
        w.domain = sys_->vdom_alloc(core, /*frequent=*/true);
        w.vpn = vpn;
        w.pages = pages;
        sys_->vdom_mprotect(core, vpn, pages, w.domain);
        objects_.push_back(w);
        return static_cast<int>(objects_.size() - 1);
    }

    /// Lock-acquire hook: ownership moves to \p task.
    ///
    /// The previous owner's permission is revoked on its bound core (the
    /// kernel-side view update Kard performs at lock transfer), then the
    /// new owner is granted full access.
    void
    acquire(hw::Core &core, kernel::Task &task, int obj)
    {
        Watched &w = objects_[static_cast<std::size_t>(obj)];
        if (w.owner && w.owner != &task) {
            // Revoke on the core where the old owner currently runs (the
            // kernel IPIs that core); if it is scheduled out, the VDR
            // update suffices — the register is rebuilt at switch-in.
            hw::Machine &machine = sys_->process().machine();
            hw::Core *owner_core = &machine.core(w.owner->bound_core());
            for (std::size_t c = 0; c < machine.num_cores(); ++c) {
                if (sys_->process().running_on(c) == w.owner) {
                    owner_core = &machine.core(c);
                    break;
                }
            }
            sys_->wrvdr(*owner_core, *w.owner, w.domain,
                        VPerm::kAccessDisable);
        }
        sys_->wrvdr(core, task, w.domain, VPerm::kFullAccess);
        w.owner = &task;
    }

    /// Lock-release hook.  Kard keeps the releasing thread's view open
    /// until the *next* acquire (cheap consecutive re-acquires); pass
    /// \p strict to revoke immediately instead.
    void
    release(hw::Core &core, kernel::Task &task, int obj,
            bool strict = false)
    {
        Watched &w = objects_[static_cast<std::size_t>(obj)];
        if (strict && w.owner == &task) {
            sys_->wrvdr(core, task, w.domain, VPerm::kAccessDisable);
            w.owner = nullptr;
        }
    }

    /// One access to a watched object's page.  A domain fault here is a
    /// data race: recorded and denied.
    /// \returns true when the access was race-free.
    bool
    access(hw::Core &core, kernel::Task &task, int obj, hw::Vpn vpn,
           bool write)
    {
        VAccess res = sys_->access(core, task, vpn, write);
        if (res.ok)
            return true;
        races_.push_back(RaceReport{task.tid(), obj, vpn, write});
        return false;
    }

    const std::vector<RaceReport> &races() const { return races_; }
    std::size_t watched_objects() const { return objects_.size(); }

  private:
    struct Watched {
        VdomId domain = kInvalidVdom;
        hw::Vpn vpn = 0;
        std::uint64_t pages = 0;
        kernel::Task *owner = nullptr;
    };

    VdomSystem *sys_;
    std::vector<Watched> objects_;
    std::vector<RaceReport> races_;
};

}  // namespace vdom::apps
