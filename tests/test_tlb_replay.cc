/// \file
/// Golden-replay equivalence test for the TLB rewrite.
///
/// The flat TLB replaced an `unordered_map` + `std::list` global-LRU
/// implementation.  This test replays a recorded 10k-operation
/// trace (seeded xorshift mix of lookups, inserts, ASID flushes, and range
/// flushes) through a faithful copy of the old policy and through the new
/// engine, asserting the per-operation outcomes (hit/miss, returned entry,
/// range-flush counts) and running statistics are identical at every step:
/// the paper-reproduction results were produced with the old policy.

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "hw/arch.h"
#include "hw/tlb.h"
#include "telemetry/metrics.h"

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
    const std::uint64_t vpn_space = 2 * std::max<std::size_t>(capacity, 1);
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
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    ReferenceTlb ref(capacity);
    Tlb tlb(capacity);

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
        ASSERT_EQ(ref.hits(), metrics.value(telemetry::Metric::kTlbHit))
            << "op " << i;
        ASSERT_EQ(ref.misses(), metrics.value(telemetry::Metric::kTlbMiss))
            << "op " << i;
        ASSERT_EQ(ref.evictions(),
                  metrics.value(telemetry::Metric::kTlbEvict))
            << "op " << i;
    }
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
    // Edge capacities 0, 1 and 2.  Both models hold one entry at capacity
    // 0: each insert of a new key evicts the sole resident one.
    replay_against_reference(0, 4242);
    replay_against_reference(1, 12345);
    replay_against_reference(2, 999);
}

}  // namespace
}  // namespace vdom::hw
