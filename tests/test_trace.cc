/// \file
/// Typed-event tests: the flight recorder's query side (count, filter,
/// format) and the virtualization algorithm's flight_event() emit sites.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common.h"
#include "telemetry/flightrec.h"
#include "telemetry/span.h"

namespace vdom::telemetry {
namespace {

using kernel::Task;
using ::vdom::testing::FakeCore;
using ::vdom::testing::World;

TEST(Tracer, RecordAndFilter)
{
    FlightRecorder rec(2, 16);
    flight_event(FakeCore{&rec, 1, 100}, FlightEvent::kEvict, 1, 5, 0, 0);
    flight_event(FakeCore{&rec, 0, 200}, FlightEvent::kVdsSwitch, 1, 6, 0, 1);
    flight_event(FakeCore{&rec, 0, 300}, FlightEvent::kEvict, 2, 7, 1, 1);
    EXPECT_EQ(rec.total(), 3u);
    EXPECT_EQ(rec.count(FlightEvent::kEvict), 2u);
    // Program order across cores: the core-1 record comes first.
    auto evicts = rec.filter(FlightEvent::kEvict);
    ASSERT_EQ(evicts.size(), 2u);
    EXPECT_EQ(evicts[0].a, 5u);
    EXPECT_EQ(evicts[0].core, 1u);
    EXPECT_EQ(evicts[1].tid, 2u);
    EXPECT_LT(evicts[0].seq, evicts[1].seq);
}

TEST(Tracer, RingBounds)
{
    FlightRecorder rec(1, 4);
    for (int i = 0; i < 10; ++i)
        flight_event(FakeCore{&rec, 0, static_cast<hw::Cycles>(i)},
                     FlightEvent::kFault, 0, 0, 0, 0);
    // Queries see only the retained window: the newest four records.
    EXPECT_EQ(rec.total(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    EXPECT_EQ(rec.count(FlightEvent::kFault), 4u);
    auto faults = rec.filter(FlightEvent::kFault);
    ASSERT_EQ(faults.size(), 4u);
    EXPECT_EQ(faults.front().ts, 6u);
    EXPECT_EQ(faults.back().ts, 9u);
}

TEST(Tracer, ZeroCapacityRetainsNothing)
{
    FlightRecorder rec(1, 0);
    for (int i = 0; i < 5; ++i)
        flight_event(FakeCore{&rec, 0, static_cast<hw::Cycles>(i)},
                     FlightEvent::kFault, 0, 0, 0, 0);
    EXPECT_EQ(rec.total(), 5u);  // Drops are still counted.
    EXPECT_EQ(rec.dropped(), 5u);
    EXPECT_EQ(rec.count(FlightEvent::kFault), 0u);
    EXPECT_TRUE(rec.filter(FlightEvent::kFault).empty());
}

TEST(Tracer, EventNameCoversEveryValue)
{
    const FlightEvent typed[] = {
        FlightEvent::kMapFree,   FlightEvent::kEvict,
        FlightEvent::kVdsSwitch, FlightEvent::kMigration,
        FlightEvent::kVdsCreate, FlightEvent::kFault,
        FlightEvent::kSigsegv,   FlightEvent::kShootdown,
    };
    for (FlightEvent e : typed) {
        std::string name = flight_event_name(e);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
        // format() leads with the event name after the timestamp.
        std::string line = FlightRecorder::format({e, 0, 0, 1});
        EXPECT_EQ(line.find("[1] " + name), 0u) << line;
        // vdom 0 is kCommonVdom: printed for every kind but kShootdown,
        // the only one emitted without a subject vdom.
        EXPECT_EQ(line.find("vdom=0") != std::string::npos,
                  e != FlightEvent::kShootdown)
            << line;
    }
    EXPECT_STREQ(flight_event_name(FlightEvent::kMapFree), "map_free");
    EXPECT_STREQ(flight_event_name(FlightEvent::kShootdown), "shootdown");
}

TEST(Tracer, FormatAndDump)
{
    FlightRecorder rec;
    flight_event(FakeCore{&rec, 0, 1234}, FlightEvent::kMigration, 7, 42, 0,
                 3);
    std::string line = FlightRecorder::format(rec.ring(0).front());
    EXPECT_NE(line.find("[1234] migration"), std::string::npos);
    EXPECT_NE(line.find("tid=7"), std::string::npos);
    EXPECT_NE(line.find("vdom=42"), std::string::npos);
    EXPECT_NE(line.find("0->3"), std::string::npos);
    // Same VDS on both sides prints one id.
    flight_event(FakeCore{&rec, 0, 1300}, FlightEvent::kEvict, 7, 42, 2, 2);
    EXPECT_EQ(FlightRecorder::format(rec.filter(FlightEvent::kEvict)[0]),
              "[1300] evict tid=7 vdom=42 vds=2");
}

/// Formatting every retained record dumps the whole timeline, span and
/// flow records included, in program order.
TEST(Tracer, DumpListsEveryRetainedRecord)
{
    FlightRecorder rec(2);
    flight_event(FakeCore{&rec, 1, 10}, FlightEvent::kMapFree, 1, 2, 0, 0);
    span_begin(FakeCore{&rec, 0, 20}, "wrvdr", 7);
    rec.record({FlightEvent::kShootdownIssue, 0, 0, 30, /*flow=*/9, 2});
    std::ostringstream out;
    for (const FlightRecord &r : rec.merged())
        out << FlightRecorder::format(r) << "\n";
    EXPECT_EQ(out.str(), "[10] map_free tid=1 vdom=2 vds=0\n"
                         "[20] span_begin wrvdr tid=7\n"
                         "[30] shootdown_issue flow=9 a=2\n");
}

TEST(Tracer, NoSinkNoCost)
{
    // Must not crash, and hands out no flow id.
    flight_event(FakeCore{}, FlightEvent::kFault, 0, 0, 0, 0);
    EXPECT_EQ(flight_new_flow(nullptr), 0u);
}

/// A machine is born detached; set_flight reaches every core, and
/// detaching leaves the recorder with what it saw.
TEST(Tracer, MachineAttachmentReachesEveryCore)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    EXPECT_EQ(world->machine.flight(), nullptr);
    FlightRecorder rec(2);
    world->machine.set_flight(&rec);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(world->core(c).flight(), &rec);
    world->spawn(0);
    world->spawn(1);
    world->proc.shootdown().shoot(world->core(0), 0b0010,
                                  kernel::FlushKind::kAll);
    std::uint64_t seen = rec.total();
    EXPECT_GT(seen, 0u);
    world->machine.set_flight(nullptr);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(world->core(c).flight(), nullptr);
    world->proc.shootdown().shoot(world->core(0), 0b0010,
                                  kernel::FlushKind::kAll);
    EXPECT_EQ(rec.total(), seen);
}

TEST(Tracer, CapturesAlgorithmEvents)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread(/*nas=*/1);
    FlightRecorder rec(2, 4096);
    world->machine.set_flight(&rec);
    std::size_t usable = world->machine.params().usable_pdoms();
    for (std::size_t i = 0; i < usable + 2; ++i) {
        auto [v, vpn] = world->make_domain(1);
        (void)vpn;
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    }
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_EQ(rec.count(FlightEvent::kMapFree), usable);
    EXPECT_EQ(rec.count(FlightEvent::kEvict), 2u);  // The two overflows.
    EXPECT_EQ(rec.count(FlightEvent::kMigration), 0u);
}

TEST(Tracer, CapturesSigsegv)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)v;
    FlightRecorder rec(2);
    world->machine.set_flight(&rec);
    world->sys.access(world->core(0), *task, vpn, true);
    EXPECT_EQ(rec.count(FlightEvent::kSigsegv), 1u);
    EXPECT_GE(rec.count(FlightEvent::kFault), 1u);
}

TEST(Tracer, CapturesShootdowns)
{
    auto world = std::unique_ptr<World>(World::x86(4));
    world->spawn(0);
    world->spawn(1);
    FlightRecorder rec(4);
    world->machine.set_flight(&rec);
    world->proc.shootdown().shoot(world->core(0), 0b0010,
                                  kernel::FlushKind::kAll);
    ASSERT_EQ(rec.count(FlightEvent::kShootdown), 1u);
    // No subject vdom: kInvalidVdom packs as a = 0.
    EXPECT_EQ(rec.filter(FlightEvent::kShootdown).front().a, 0u);
}

}  // namespace
}  // namespace vdom::telemetry
