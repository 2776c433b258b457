/// \file
/// Golden-replay equivalence test for the TLB rewrite.
///
/// The flat set-associative TLB replaced an `unordered_map` + `std::list`
/// global-LRU implementation.  This test replays a recorded 10k-operation
/// trace (seeded xorshift mix of lookups, inserts, ASID flushes, and range
/// flushes) through a faithful copy of the old policy and through the new
/// engine, asserting the per-operation outcomes (hit/miss, returned entry,
/// range-flush counts) and running statistics are identical at every step.
///
/// The default (fully associative) geometry must be bit-identical — that is
/// what the paper-reproduction results were produced with.  Real set-
/// associative geometries (ways > 0) intentionally differ: conflict misses
/// change the eviction sequence.  That difference is pinned, not hidden:
/// the set-assoc cases assert determinism, capacity bounds, and that the
/// divergence shows up as a nonzero assoc_conflict count.

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "hw/arch.h"
#include "hw/tlb.h"

namespace vdom::hw {
namespace {

/// Faithful copy of the pre-rewrite TLB replacement policy: one global
/// exact-LRU list over all entries, hash-map keyed by (asid << 48 | vpn).
class ReferenceTlb {
  public:
    explicit ReferenceTlb(std::size_t capacity) : capacity_(capacity) {}

    std::optional<TlbEntry>
    lookup(Asid asid, Vpn vpn)
    {
        auto it = map_.find(make_key(asid, vpn));
        if (it == map_.end()) {
            ++misses_;
            return std::nullopt;
        }
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->entry;
    }

    void
    insert(Asid asid, Vpn vpn, const TlbEntry &entry)
    {
        Key key = make_key(asid, vpn);
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second->entry = entry;
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (map_.size() >= capacity_ && !lru_.empty()) {
            map_.erase(lru_.back().key);
            lru_.pop_back();
            ++evictions_;
        }
        lru_.push_front(Node{key, entry});
        map_[key] = lru_.begin();
    }

    void
    flush_asid(Asid asid)
    {
        for (auto it = lru_.begin(); it != lru_.end();) {
            if ((it->key >> 48) == asid) {
                map_.erase(it->key);
                it = lru_.erase(it);
            } else {
                ++it;
            }
        }
    }

    std::uint64_t
    flush_range(Asid asid, Vpn vpn, std::uint64_t count)
    {
        std::uint64_t touched = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            auto it = map_.find(make_key(asid, vpn + i));
            if (it != map_.end()) {
                lru_.erase(it->second);
                map_.erase(it);
                ++touched;
            }
        }
        return touched;
    }

    void
    flush_all()
    {
        lru_.clear();
        map_.clear();
    }

    std::size_t size() const { return map_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    using Key = std::uint64_t;

    static Key
    make_key(Asid asid, Vpn vpn)
    {
        return (static_cast<std::uint64_t>(asid) << 48) |
               (vpn & 0xffffffffffffULL);
    }

    struct Node {
        Key key;
        TlbEntry entry;
    };

    std::size_t capacity_;
    std::list<Node> lru_;
    std::unordered_map<Key, std::list<Node>::iterator> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

/// One recorded trace operation.
struct Op {
    enum class Kind : std::uint8_t {
        kLookup,
        kInsert,
        kFlushAsid,
        kFlushRange,
        kFlushAll,
    };
    Kind kind;
    Asid asid;
    Vpn vpn;
    std::uint64_t count;  ///< kFlushRange page count.
    Pdom pdom;            ///< kInsert entry payload.
};

std::uint64_t
xorshift(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/// Records a deterministic 10k-op trace skewed towards the hot path
/// (lookups/inserts), with a working set ~2x the capacity so capacity
/// evictions fire, plus occasional ASID and range flushes.
std::vector<Op>
record_trace(std::size_t capacity, std::uint64_t seed)
{
    std::vector<Op> trace;
    trace.reserve(10000);
    std::uint64_t rng = seed;
    const std::uint64_t vpn_space = capacity * 2;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t r = xorshift(rng);
        Asid asid = static_cast<Asid>(1 + (r >> 8) % 4);
        Vpn vpn = 0x1000 + (r >> 16) % vpn_space;
        std::uint64_t pick = r % 100;
        if (pick < 55) {
            trace.push_back({Op::Kind::kLookup, asid, vpn, 0, 0});
        } else if (pick < 95) {
            trace.push_back({Op::Kind::kInsert, asid, vpn, 0,
                             static_cast<Pdom>(r % 16)});
        } else if (pick < 97) {
            trace.push_back({Op::Kind::kFlushAsid, asid, 0, 0, 0});
        } else if (pick < 99) {
            trace.push_back(
                {Op::Kind::kFlushRange, asid, vpn, 1 + r % 64, 0});
        } else {
            trace.push_back({Op::Kind::kFlushAll, 0, 0, 0, 0});
        }
    }
    return trace;
}

/// Replays \p trace through both models, asserting identical per-op
/// outcomes and running stats.
void
replay_against_reference(std::size_t capacity, std::uint64_t seed)
{
    ReferenceTlb ref(capacity);
    Tlb tlb(capacity);  // Default geometry: fully associative.
    ASSERT_EQ(tlb.num_sets(), 1u);
    ASSERT_EQ(tlb.ways(), capacity);

    std::vector<Op> trace = record_trace(capacity, seed);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Op &op = trace[i];
        switch (op.kind) {
          case Op::Kind::kLookup: {
            auto want = ref.lookup(op.asid, op.vpn);
            auto got = tlb.lookup(op.asid, op.vpn);
            ASSERT_EQ(want.has_value(), got.has_value()) << "op " << i;
            if (want) {
                ASSERT_EQ(want->pdom, got->pdom) << "op " << i;
                ASSERT_EQ(want->huge, got->huge) << "op " << i;
            }
            break;
          }
          case Op::Kind::kInsert:
            ref.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            tlb.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            break;
          case Op::Kind::kFlushAsid:
            ref.flush_asid(op.asid);
            tlb.flush_asid(op.asid);
            break;
          case Op::Kind::kFlushRange: {
            std::uint64_t want = ref.flush_range(op.asid, op.vpn, op.count);
            std::uint64_t got = tlb.flush_range(op.asid, op.vpn, op.count);
            ASSERT_EQ(want, got) << "op " << i;
            break;
          }
          case Op::Kind::kFlushAll:
            ref.flush_all();
            tlb.flush_all();
            break;
        }
        ASSERT_EQ(ref.size(), tlb.size()) << "op " << i;
        ASSERT_EQ(ref.hits(), tlb.stats().hits) << "op " << i;
        ASSERT_EQ(ref.misses(), tlb.stats().misses) << "op " << i;
        ASSERT_EQ(ref.evictions(), tlb.stats().evictions) << "op " << i;
    }
    // Fully associative mode must never report a conflict eviction.
    EXPECT_EQ(tlb.stats().assoc_conflicts, 0u);
}

TEST(TlbReplay, X86CapacityMatchesOldLruExactly)
{
    // 1536 entries: the x86 ArchParams TLB size.
    replay_against_reference(ArchParams::x86().tlb_entries,
                             0x9e3779b97f4a7c15ULL);
}

TEST(TlbReplay, ArmCapacityMatchesOldLruExactly)
{
    // 512 entries: the ARM ArchParams TLB size.
    replay_against_reference(ArchParams::arm().tlb_entries,
                             0xdeadbeefcafef00dULL);
}

TEST(TlbReplay, TinyCapacitiesMatchOldLruExactly)
{
    // Edge geometries: single entry, and capacity 0 (old code evicted the
    // sole resident entry on every insert; new code models it as one way).
    replay_against_reference(1, 12345);
    replay_against_reference(2, 999);
}

TEST(TlbReplay, WaysEqualCapacityIsTheSameAsDefault)
{
    // Explicit ways == capacity must pick the identical fully-associative
    // geometry (the degenerate set-assoc case).
    Tlb a(64);
    Tlb b(64, 64);
    EXPECT_EQ(b.num_sets(), 1u);
    EXPECT_EQ(b.ways(), 64u);
    std::uint64_t rng = 7;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t r = xorshift(rng);
        Asid asid = static_cast<Asid>(1 + r % 3);
        Vpn vpn = r % 128;
        if (r & 1) {
            a.insert(asid, vpn, TlbEntry{static_cast<Pdom>(r % 16), false});
            b.insert(asid, vpn, TlbEntry{static_cast<Pdom>(r % 16), false});
        } else {
            auto ra = a.lookup(asid, vpn);
            auto rb = b.lookup(asid, vpn);
            ASSERT_EQ(ra.has_value(), rb.has_value()) << "op " << i;
        }
    }
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
}

// --- Pinned intentional differences of set-associative geometries --------
//
// With ways < capacity the TLB partitions into sets and a hot set can
// evict while other sets still have room.  That is a deliberate,
// hardware-faithful policy change, opted into per-instance; these tests
// pin its contract instead of pretending it matches global LRU.

TEST(TlbReplay, SetAssocGeometryRoundsToPowerOfTwoSets)
{
    Tlb tlb(512, 8);
    EXPECT_EQ(tlb.num_sets(), 64u);
    EXPECT_EQ(tlb.ways(), 8u);

    // Non-power-of-two capacity/ways: sets round down to a power of two
    // and ways absorb the remainder, never exceeding capacity.
    Tlb odd(1536, 8);
    EXPECT_EQ(odd.num_sets(), 128u);
    EXPECT_EQ(odd.ways(), 12u);
    EXPECT_LE(odd.num_sets() * odd.ways(), 1536u);
}

TEST(TlbReplay, SetAssocIsDeterministic)
{
    // Two identically-configured instances replay the same trace to the
    // same stats: policy divergence from global LRU is fixed, not random.
    Tlb a(512, 8);
    Tlb b(512, 8);
    std::vector<Op> trace = record_trace(512, 42);
    for (const Op &op : trace) {
        switch (op.kind) {
          case Op::Kind::kLookup: {
            auto ra = a.lookup(op.asid, op.vpn);
            auto rb = b.lookup(op.asid, op.vpn);
            ASSERT_EQ(ra.has_value(), rb.has_value());
            break;
          }
          case Op::Kind::kInsert:
            a.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            b.insert(op.asid, op.vpn, TlbEntry{op.pdom, false});
            break;
          case Op::Kind::kFlushAsid:
            a.flush_asid(op.asid);
            b.flush_asid(op.asid);
            break;
          case Op::Kind::kFlushRange:
            ASSERT_EQ(a.flush_range(op.asid, op.vpn, op.count),
                      b.flush_range(op.asid, op.vpn, op.count));
            break;
          case Op::Kind::kFlushAll:
            a.flush_all();
            b.flush_all();
            break;
        }
        ASSERT_EQ(a.size(), b.size());
    }
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
    EXPECT_EQ(a.stats().assoc_conflicts, b.stats().assoc_conflicts);
}

TEST(TlbReplay, SetAssocConflictsAreCountedAndBounded)
{
    Tlb tlb(512, 8);
    // Build a conflict set: vpns that land in one specific set.  2x ways
    // of them round-robin must evict within the set while the TLB as a
    // whole stays nearly empty.
    std::size_t target = tlb.set_index(1, 0x1000);
    std::vector<Vpn> conflicting;
    for (Vpn v = 0x1000; conflicting.size() < 2 * tlb.ways(); ++v) {
        if (tlb.set_index(1, v) == target)
            conflicting.push_back(v);
    }
    for (int round = 0; round < 4; ++round) {
        for (Vpn v : conflicting)
            tlb.insert(1, v, TlbEntry{1, false});
    }
    EXPECT_GT(tlb.stats().evictions, 0u);
    EXPECT_GT(tlb.stats().assoc_conflicts, 0u);
    EXPECT_LE(tlb.size(), tlb.capacity());
    // Every entry currently resident is one of the conflicting vpns, and
    // at most `ways` of them fit.
    EXPECT_LE(tlb.size(), tlb.ways());
}

}  // namespace
}  // namespace vdom::hw
