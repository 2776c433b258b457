/// \file
/// Discrete-event engine tests: determinism, min-time ordering, slices.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace vdom::sim {
namespace {

using ::vdom::testing::World;

/// Thread charging a fixed cost per step for N steps, recording the global
/// completion order.
class FixedWork final : public SimThread {
  public:
    FixedWork(int id, int steps, hw::Cycles per_step,
              std::vector<int> *order)
        : id_(id), steps_(steps), per_step_(per_step), order_(order)
    {
    }

    bool
    step(hw::Core &core) override
    {
        core.charge(hw::CostKind::kCompute, per_step_);
        order_->push_back(id_);
        return --steps_ > 0;
    }

  private:
    int id_;
    int steps_;
    hw::Cycles per_step_;
    std::vector<int> *order_;
};

TEST(Engine, RunsAllThreadsToCompletion)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    Engine engine(machine);
    std::vector<int> order;
    FixedWork a(0, 5, 100, &order), b(1, 5, 100, &order);
    engine.add_thread(&a, 0);
    engine.add_thread(&b, 1);
    engine.run();
    EXPECT_EQ(order.size(), 10u);
    EXPECT_EQ(engine.live_threads(), 0u);
}

TEST(Engine, MinTimeOrderingInterleavesCausally)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    Engine engine(machine);
    std::vector<int> order;
    FixedWork slow(0, 3, 1000, &order);
    FixedWork fast(1, 3, 10, &order);
    engine.add_thread(&slow, 0);
    engine.add_thread(&fast, 1);
    engine.run();
    // The fast thread's 3 steps all complete before the slow thread's
    // second step (its core clock stays behind).
    std::vector<int> expected = {0, 1, 1, 1, 0, 0};
    EXPECT_EQ(order, expected);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto run_once = [] {
        hw::Machine machine(hw::ArchParams::x86(3));
        Engine engine(machine);
        std::vector<int> order;
        Rng rng(5);
        std::vector<std::unique_ptr<FixedWork>> threads;
        for (int i = 0; i < 6; ++i) {
            threads.push_back(std::make_unique<FixedWork>(
                i, 4, 50 + rng.below(400), &order));
            engine.add_thread(threads.back().get());
        }
        engine.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, TimeSharingChargesContextSwitches)
{
    auto world = std::unique_ptr<World>(World::x86(1));
    Engine engine(world->machine, &world->proc, /*time_slice=*/500);
    std::vector<int> order;
    FixedWork a(0, 10, 400, &order), b(1, 10, 400, &order);
    a.set_task(world->proc.create_task());
    b.set_task(world->proc.create_task());
    engine.add_thread(&a, 0);
    engine.add_thread(&b, 0);
    engine.run();
    EXPECT_GT(engine.context_switches(), 2u);
    EXPECT_GT(world->core(0).breakdown().get(hw::CostKind::kContextSwitch),
              0.0);
}

TEST(Engine, RunUntilStopsAtDeadline)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    Engine engine(machine);
    std::vector<int> order;
    FixedWork a(0, 1000, 100, &order);
    engine.add_thread(&a, 0);
    engine.run_until(5'000);
    EXPECT_LT(order.size(), 1000u);
    EXPECT_GE(machine.core(0).now(), 5'000.0);
    EXPECT_EQ(engine.live_threads(), 1u);
}

/// Thread that polls an idle wait (charge + yield) \p polls times, then
/// finishes on its next step.
class Poller final : public SimThread {
  public:
    explicit Poller(int polls) : polls_(polls) {}

    bool
    step(hw::Core &core) override
    {
        core.charge(hw::CostKind::kIdle, 100);
        if (polls_ == 0)
            return false;
        --polls_;
        yield();
        return true;
    }

  private:
    int polls_;
};

TEST(Engine, CountsYieldingSteps)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    Engine engine(machine);
    Poller a(3), b(5);
    engine.add_thread(&a, 0);
    engine.add_thread(&b, 0);
    engine.run();
    EXPECT_EQ(engine.steps(), 10u);
    EXPECT_EQ(engine.yields(), 8u);
    // Six yields switch to the waiting peer and one switch follows a's
    // exit; b's last two polls find no peer, so they count as yields
    // without switching.
    EXPECT_EQ(engine.context_switches(), 7u);
}

TEST(Engine, RoundRobinPlacement)
{
    hw::Machine machine(hw::ArchParams::x86(4));
    Engine engine(machine);
    std::vector<int> order;
    std::vector<std::unique_ptr<FixedWork>> threads;
    for (int i = 0; i < 4; ++i) {
        threads.push_back(std::make_unique<FixedWork>(i, 1, 100, &order));
        engine.add_thread(threads.back().get());  // No affinity.
    }
    engine.run();
    // Each landed on its own core: all four cores advanced.
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_GT(machine.core(c).now(), 0.0) << c;
}

TEST(Rng, DeterministicAndUniform)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
    }
    EXPECT_NE(a.next(), c.next());
    // below() stays in range.
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    // uniform() in [0,1).
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

}  // namespace
}  // namespace vdom::sim
