/// \file
/// Protection strategies: how an application protects its objects.
///
/// The three application benchmarks (httpd+OpenSSL, MySQL, PMO string
/// replace) run identical workload logic under interchangeable protection
/// back-ends, exactly like the paper's comparison: original (none), VDom,
/// VDom-lowerbound (one pdom for everything), libmpk (4KB or 2MB pages),
/// and simulated EPK inside a VM.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/epk.h"
#include "baselines/libmpk.h"
#include "hw/core.h"
#include "kernel/process.h"
#include "kernel/task.h"
#include "vdom/api.h"
#include "vdom/types.h"

namespace vdom::apps {

/// A protection back-end an application drives.
class Strategy {
  public:
    virtual ~Strategy() = default;

    virtual const char *name() const = 0;

    /// Per-thread setup (VDR allocation etc.).
    virtual void
    thread_init(hw::Core &, kernel::Task &)
    {
    }

    /// Registers a protected object over existing pages.
    /// \returns an object handle for enable/disable.
    virtual int register_object(hw::Core &core, kernel::Task &task,
                                hw::Vpn vpn, std::uint64_t pages,
                                bool frequent) = 0;

    /// Attaches more pages to an already-registered object (e.g. all
    /// MEMORY-engine tables share one HP_PTRS domain).
    virtual void
    attach_pages(hw::Core &, kernel::Task &, int /*obj*/, hw::Vpn,
                 std::uint64_t /*pages*/)
    {
    }

    /// Grants the calling thread \p perm on \p obj.
    /// \returns false when the caller must spin and retry (libmpk busy
    /// wait); cycles for the spin quantum are already charged.
    virtual bool enable(hw::Core &core, kernel::Task &task, int obj,
                        VPerm perm) = 0;

    /// Revokes the calling thread's access to \p obj.
    virtual void disable(hw::Core &core, kernel::Task &task, int obj) = 0;

    /// One application access to a page of a registered object.
    virtual void access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                        bool write) = 0;

    /// Charges application CPU work (EPK applies the VM compute tax).
    virtual void
    work(hw::Core &core, hw::Cycles cycles)
    {
        core.charge(hw::CostKind::kCompute, cycles);
    }

    /// Charges IO service time (EPK applies the VM IO tax).
    virtual void
    io(hw::Core &core, hw::Cycles cycles)
    {
        core.charge(hw::CostKind::kIo, cycles);
    }

  protected:
    /// Access helper for strategies without their own fault handling:
    /// drives the MMU and demand-pages through the kernel on a miss.
    static void plain_access(kernel::Process &proc, hw::Core &core,
                             kernel::Task &task, hw::Vpn vpn, bool write);
};

/// Original, unprotected application.
class NoneStrategy final : public Strategy {
  public:
    explicit NoneStrategy(kernel::Process &proc) : proc_(&proc) {}
    const char *name() const override { return "original"; }
    int register_object(hw::Core &, kernel::Task &, hw::Vpn,
                        std::uint64_t, bool) override;
    bool
    enable(hw::Core &, kernel::Task &, int, VPerm) override
    {
        return true;
    }
    void disable(hw::Core &, kernel::Task &, int) override {}
    void
    access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
           bool write) override
    {
        plain_access(*proc_, core, task, vpn, write);
    }

  private:
    kernel::Process *proc_;
};

/// VDom: one vdom per object.
class VdomStrategy final : public Strategy {
  public:
    /// \param nas address spaces each thread may own (vdr_alloc);
    ///        1 forces the eviction flavour, >1 allows VDS switching.
    VdomStrategy(VdomSystem &sys, std::size_t nas) : sys_(&sys), nas_(nas)
    {
    }
    const char *name() const override { return "VDom"; }
    void thread_init(hw::Core &core, kernel::Task &task) override;
    int register_object(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                        std::uint64_t pages, bool frequent) override;
    void attach_pages(hw::Core &core, kernel::Task &task, int obj,
                      hw::Vpn vpn, std::uint64_t pages) override;
    bool enable(hw::Core &core, kernel::Task &task, int obj,
                VPerm perm) override;
    void disable(hw::Core &core, kernel::Task &task, int obj) override;
    void
    access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
           bool write) override
    {
        sys_->access(core, task, vpn, write);
    }

  private:
    VdomSystem *sys_;
    std::size_t nas_;
    std::vector<VdomId> objects_;
};

/// Lowerbound: every object in the same single vdom (Fig. 7's line).
class LowerboundStrategy final : public Strategy {
  public:
    explicit LowerboundStrategy(VdomSystem &sys) : sys_(&sys) {}
    const char *name() const override { return "lowerbound"; }
    void thread_init(hw::Core &core, kernel::Task &task) override;
    int register_object(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                        std::uint64_t pages, bool frequent) override;
    void attach_pages(hw::Core &core, kernel::Task &task, int obj,
                      hw::Vpn vpn, std::uint64_t pages) override;
    bool enable(hw::Core &core, kernel::Task &task, int obj,
                VPerm perm) override;
    void disable(hw::Core &core, kernel::Task &task, int obj) override;
    void
    access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
           bool write) override
    {
        sys_->access(core, task, vpn, write);
    }

  private:
    VdomSystem *sys_;
    VdomId shared_ = kInvalidVdom;
    int objects_ = 0;
};

/// libmpk: one virtual pkey per object.
class LibmpkStrategy final : public Strategy {
  public:
    LibmpkStrategy(kernel::Process &proc, baselines::LibMpk &mpk)
        : proc_(&proc), mpk_(&mpk)
    {
    }
    const char *name() const override { return "libmpk"; }
    int register_object(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                        std::uint64_t pages, bool frequent) override;
    void attach_pages(hw::Core &core, kernel::Task &task, int obj,
                      hw::Vpn vpn, std::uint64_t pages) override;
    bool enable(hw::Core &core, kernel::Task &task, int obj,
                VPerm perm) override;
    void disable(hw::Core &core, kernel::Task &task, int obj) override;
    void
    access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
           bool write) override
    {
        plain_access(*proc_, core, task, vpn, write);
    }

  private:
    kernel::Process *proc_;
    baselines::LibMpk *mpk_;
};

/// EPK: per-object key over EPT groups, application inside a VM.
class EpkStrategy final : public Strategy {
  public:
    EpkStrategy(kernel::Process &proc, baselines::Epk &epk)
        : proc_(&proc), epk_(&epk)
    {
    }
    const char *name() const override { return "EPK"; }
    int register_object(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
                        std::uint64_t pages, bool frequent) override;
    bool enable(hw::Core &core, kernel::Task &task, int obj,
                VPerm perm) override;
    void disable(hw::Core &core, kernel::Task &task, int obj) override;
    void
    access(hw::Core &core, kernel::Task &task, hw::Vpn vpn,
           bool write) override
    {
        plain_access(*proc_, core, task, vpn, write);
    }
    void
    work(hw::Core &core, hw::Cycles cycles) override
    {
        epk_->vm().charge_compute(core, cycles);
    }
    void
    io(hw::Core &core, hw::Cycles cycles) override
    {
        epk_->vm().charge_io(core, cycles);
    }

  private:
    kernel::Process *proc_;
    baselines::Epk *epk_;
};

}  // namespace vdom::apps
