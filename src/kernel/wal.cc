/// \file
/// Write-ahead log: durable append protocol and the recovery scan.

#include "kernel/wal.h"

#include "sim/fault.h"

namespace vdom::kernel {

void
Wal::append(hw::Core &core, WalRecord rec)
{
    // Crossing 1: power loss before the record reaches the medium — the
    // record is lost entirely, the log tail stays clean.
    (void)sim::fault_fires(core.faults(), sim::FaultSite::kCrash);
    rec.lsn = static_cast<std::uint64_t>(log_.size()) + 1;
    rec.checksum = 0;  // Torn until sealed.
    log_.push_back(rec);
    // Crossing 2: power loss between the data write and the seal — the
    // tail record is present but torn, and scan() must truncate it.
    (void)sim::fault_fires(core.faults(), sim::FaultSite::kCrash);
    log_.back().checksum = log_.back().expected_checksum();
    const hw::CostTable &costs = core.costs();
    // Do not merge: Cycles is double, accumulation order is part of the
    // reproducible output.
    core.charge(hw::CostKind::kWal, costs.wal_append);
    core.charge(hw::CostKind::kWal, costs.wal_flush);
    telemetry::metric_add(telemetry::Metric::kWalAppend);
}

WalScan
Wal::scan() const
{
    WalScan out;
    // Pass 1: find the sealed prefix.  The append protocol is strictly
    // serial, so a torn record can only be the tail; scanning stops at
    // the first bad checksum regardless, which also catches a corrupted
    // medium in tests.
    std::size_t sealed = log_.size();
    for (std::size_t i = 0; i < log_.size(); ++i) {
        if (log_[i].torn()) {
            sealed = i;
            break;
        }
    }
    out.torn = static_cast<std::uint64_t>(log_.size() - sealed);
    out.records = static_cast<std::uint64_t>(sealed);

    // Pass 2: resolve each transaction's outcome over the sealed prefix;
    // the last COMMIT or ABORT of a txn wins.  Txn ids are dense
    // (1..next_txn_), so flat vectors index them.  An outcome for an id
    // past next_txn_ names a txn that never began and resolves nothing.
    constexpr std::uint8_t kNoOutcome = 0xff;
    std::vector<std::uint8_t> outcome(next_txn_ + 1, kNoOutcome);
    for (std::size_t i = 0; i < sealed; ++i) {
        const WalRecord &rec = log_[i];
        if (rec.type != WalRecType::kBegin && rec.txn <= next_txn_)
            outcome[rec.txn] = static_cast<std::uint8_t>(rec.type);
    }

    // Pass 3: emit committed intents in log order (= original program
    // order, which replay must preserve for allocator determinism).
    constexpr std::size_t kNotCommitted = ~std::size_t{0};
    std::vector<std::size_t> committed_at(next_txn_ + 1, kNotCommitted);
    for (std::size_t i = 0; i < sealed; ++i) {
        const WalRecord &rec = log_[i];
        if (rec.type != WalRecType::kBegin)
            continue;
        std::uint8_t result = outcome[rec.txn];
        if (result == kNoOutcome) {
            out.uncommitted.push_back(rec);
        } else if (result == static_cast<std::uint8_t>(WalRecType::kAbort)) {
            ++out.aborted;
        } else {
            committed_at[rec.txn] = out.committed.size();
            WalCommitted entry;
            entry.begin = rec;
            out.committed.push_back(entry);
        }
    }
    for (std::size_t i = 0; i < sealed; ++i) {
        const WalRecord &rec = log_[i];
        if (rec.type != WalRecType::kCommit || rec.txn > next_txn_)
            continue;
        std::size_t at = committed_at[rec.txn];
        if (at != kNotCommitted) {
            out.committed[at].result_a = rec.a;
            out.committed[at].result_b = rec.b;
        }
    }
    return out;
}

}  // namespace vdom::kernel
