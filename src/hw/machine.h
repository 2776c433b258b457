/// \file
/// The simulated multiprocessor: parameter block plus a set of cores.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "hw/arch.h"
#include "hw/core.h"

namespace vdom::hw {

/// Owns the cores of one simulated platform, numbers its TLB tags and
/// attaches the sinks its events go to: a fault plan and a flight
/// recorder, which every core carries (null by default).  The caller owns
/// them and keeps them alive while attached; events of another machine
/// never reach them.
class Machine {
  public:
    explicit Machine(const ArchParams &params) : params_(params)
    {
        cores_.reserve(params_.num_cores);
        for (std::size_t i = 0; i < params_.num_cores; ++i)
            cores_.push_back(std::make_unique<Core>(i, params_));
    }

    const ArchParams &params() const { return params_; }
    std::size_t num_cores() const { return cores_.size(); }

    Core &core(std::size_t id) { return *cores_[id]; }
    const Core &core(std::size_t id) const { return *cores_[id]; }

    /// Hands out TLB tags 1, 2, 3, ..., never recycled.  Every process on
    /// the machine draws from here, so processes sharing its TLBs never
    /// match each other's entries (real hardware gets this from flushes).
    /// Stops the run, in every build type, rather than hand out a tag past
    /// Tlb::kMaxAsid, which the TLB key would alias to a live one.
    Asid
    next_asid()
    {
        if (last_asid_ == Tlb::kMaxAsid) {
            std::fprintf(stderr, "hw::Machine: out of TLB tags (%u)\n",
                         last_asid_);
            std::abort();
        }
        return ++last_asid_;
    }

    /// The attached fault plan, or nullptr (the default).
    sim::FaultPlan *faults() const { return cores_.front()->faults(); }
    void
    set_faults(sim::FaultPlan *plan)
    {
        for (auto &c : cores_)
            c->faults_ = plan;
    }

    /// The attached flight recorder, or nullptr (the default).
    telemetry::FlightRecorder *
    flight() const
    {
        return cores_.front()->flight();
    }
    void
    set_flight(telemetry::FlightRecorder *recorder)
    {
        for (auto &c : cores_)
            c->flight_ = recorder;
    }

    /// Aggregate cycle breakdown across all cores.
    CycleBreakdown
    total_breakdown() const
    {
        CycleBreakdown sum;
        for (const auto &c : cores_)
            sum += c->breakdown();
        return sum;
    }

    /// Maximum core clock (the simulated wall-clock of a parallel phase).
    Cycles
    max_clock() const
    {
        Cycles max = 0;
        for (const auto &c : cores_)
            max = std::max(max, c->now());
        return max;
    }

    /// Resets every core (benchmark setup).
    void
    reset()
    {
        for (auto &c : cores_)
            c->reset();
    }

  private:
    ArchParams params_;
    std::vector<std::unique_ptr<Core>> cores_;
    Asid last_asid_ = 0;
};

}  // namespace vdom::hw
