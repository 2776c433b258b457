/// \file
/// Write-ahead redo/undo log for crash-consistent domain state.
///
/// The undo journal (kernel/journal.h) survives *graceful* failures: a
/// failed op rolls back inside a live process.  This log closes the
/// remaining gap — simulated power loss (sim::FaultSite::kCrash) mid-op
/// — by persisting a logical intent record before each multi-step domain
/// op mutates state, and a matching COMMIT/ABORT afterwards.  On
/// "reboot" the recovery path (vdom/recovery.h) scans the log, truncates
/// the torn tail, redoes committed ops and undoes uncommitted durable
/// side effects (PMO contents).  Ops reach both logs through one guard,
/// kernel::OpTxn (kernel/mm.h), which opens the WAL transaction before
/// the journal scope and seals COMMIT or ABORT after it.
///
/// Durability model: the log itself is the durable medium, so a `Wal`
/// is owned by the harness/test ("the NVDIMM") and *outlives* the world
/// it is attached to.  Attachment follows the telemetry null-hook
/// pattern: MmStruct holds a `Wal *` that is null by default, every
/// logging site is a no-op pointer test when detached, and an unattached
/// run stays cycle-identical (pinned by tests/test_recovery.cc).  A
/// `Wal` is a plain value: the crash image of a power loss is a copy of
/// it taken at the crossing (sim::FaultPlan::arm_crash), rebooted and
/// recovered from in place.
///
/// Torn-write protocol: each append is two ordering points.  The record
/// is first pushed with checksum 0 (torn), then sealed with its
/// checksum and charged wal_append + wal_flush through the CostTable.
/// A crash between the two leaves a detectably torn tail record; a crash
/// before the push loses the record entirely.  Both crossings call
/// `fault_fires(kCrash)` directly, so the crash sweep enumerates every
/// lost/torn/sealed outcome.

#pragma once

#include <cstdint>
#include <vector>

#include "hw/core.h"
#include "telemetry/metrics.h"

namespace vdom::kernel {

/// Logical operation a WAL transaction describes.  BEGIN payloads carry
/// the architectural arguments needed to redo the op through the public
/// API on a fresh world; COMMIT payloads carry results (allocated ids,
/// placed addresses) so replay can verify it reconverged.
enum class WalOp : std::uint8_t {
    kNone,            ///< Placeholder (never logged).
    kVdomInit,        ///< vdom_init(); commit a = api-region vpn.
    kVdomAlloc,       ///< vdom_alloc(frequent=a); commit a = id.
    kVdomFree,        ///< vdom_free(vdom=a).
    kVdrAlloc,        ///< vdr_alloc(task=tid, nas=a).
    kVdrFree,         ///< vdr_free(task=tid).
    kMmap,            ///< mmap(pages=a, huge=b); commit a = vpn.
    kMprotect,        ///< vdom_mprotect(vpn=a, pages=b, vdom=c).
    kWrvdr,           ///< wrvdr(task=tid, vdom=a, perm=b).
    kSecureGrow,      ///< secure-pool grow(vdom=a, pages=b); commit a = vpn.
    kSandboxMprotect, ///< sandbox_mprotect(vpn=a, pages=b, vdom=c).
    kPmoAttach,       ///< pmo_attach(pmo=a, pages=b, seed=c);
                      ///< commit a = vdom, b = vpn.
    kPmoDetach,       ///< pmo_detach(pmo=a, vdom=b).
    kNumOps,
};

/// Returns a short label for \p op (logs, flight records, postmortems).
constexpr const char *
wal_op_name(WalOp op)
{
    switch (op) {
      case WalOp::kNone: return "none";
      case WalOp::kVdomInit: return "vdom_init";
      case WalOp::kVdomAlloc: return "vdom_alloc";
      case WalOp::kVdomFree: return "vdom_free";
      case WalOp::kVdrAlloc: return "vdr_alloc";
      case WalOp::kVdrFree: return "vdr_free";
      case WalOp::kMmap: return "mmap";
      case WalOp::kMprotect: return "mprotect";
      case WalOp::kWrvdr: return "wrvdr";
      case WalOp::kSecureGrow: return "secure_grow";
      case WalOp::kSandboxMprotect: return "sandbox_mprotect";
      case WalOp::kPmoAttach: return "pmo_attach";
      case WalOp::kPmoDetach: return "pmo_detach";
      case WalOp::kNumOps: break;
    }
    return "?";
}

/// Record type within a transaction.
enum class WalRecType : std::uint8_t {
    kBegin,   ///< Intent: op + architectural args, persisted pre-mutation.
    kCommit,  ///< The op's durable effects are complete; payload = results.
    kAbort,   ///< The op failed gracefully and was undone in place.
};

/// One log record.  `checksum == 0` marks a torn (unsealed) record.
struct WalRecord {
    std::uint64_t lsn = 0;     ///< Log sequence number (1-based).
    std::uint64_t txn = 0;     ///< Transaction id (1-based, per Wal).
    WalRecType type = WalRecType::kBegin;
    WalOp op = WalOp::kNone;   ///< Meaningful on kBegin.
    std::uint32_t tid = 0;     ///< Issuing task, when the op is per-task.
    std::uint64_t a = 0, b = 0, c = 0, d = 0;  ///< Payload words.
    std::uint64_t checksum = 0;

    /// Hash of every field except the checksum itself, one 64-bit word
    /// per field.  Each step is a bijection of the running hash and of
    /// the field, so changing any single field changes the result (up to
    /// the final fold of 0 onto 1).  Never 0 for a sealed record (0 is
    /// reserved as the torn marker).
    std::uint64_t
    expected_checksum() const
    {
        std::uint64_t h = 1469598103934665603ULL;
        auto mix = [&h](std::uint64_t v) {
            h = (h ^ v) * 0x9e3779b97f4a7c15ULL;  // Odd multiplier.
            h ^= h >> 32;
        };
        mix(lsn);
        mix(txn);
        mix(static_cast<std::uint64_t>(type));
        mix(static_cast<std::uint64_t>(op));
        mix(tid);
        mix(a);
        mix(b);
        mix(c);
        mix(d);
        return h == 0 ? 1 : h;
    }

    bool torn() const { return checksum != expected_checksum(); }
};

/// One committed transaction as reconstructed by Wal::scan(): the BEGIN
/// intent plus the COMMIT's result payload.
struct WalCommitted {
    WalRecord begin;
    std::uint64_t result_a = 0;  ///< COMMIT payload word a.
    std::uint64_t result_b = 0;  ///< COMMIT payload word b.
};

/// Result of scanning the log on reboot.
struct WalScan {
    std::vector<WalCommitted> committed;   ///< In log (= program) order.
    std::vector<WalRecord> uncommitted;    ///< BEGIN with no sealed outcome.
    std::uint64_t records = 0;             ///< Sealed records scanned.
    std::uint64_t torn = 0;                ///< Torn records truncated.
    std::uint64_t aborted = 0;             ///< Aborted transactions.
};

/// The durable log.  Appends are cheap in-memory pushes plus simulated
/// persist costs; the two-phase push/seal protocol is what gives the
/// crash sweep its lost-record and torn-record crossings.
class Wal {
  public:
    /// Opens a transaction: persists a sealed BEGIN record and returns
    /// the transaction id.
    std::uint64_t
    begin(hw::Core &core, WalOp op, std::uint32_t tid, std::uint64_t a = 0,
          std::uint64_t b = 0, std::uint64_t c = 0, std::uint64_t d = 0)
    {
        std::uint64_t txn = ++next_txn_;
        WalRecord rec;
        rec.txn = txn;
        rec.type = WalRecType::kBegin;
        rec.op = op;
        rec.tid = tid;
        rec.a = a;
        rec.b = b;
        rec.c = c;
        rec.d = d;
        append(core, rec);
        open_ = true;
        return txn;
    }

    /// Seals \p txn as committed; payload words may carry results.
    void
    commit(hw::Core &core, std::uint64_t txn, std::uint64_t a = 0,
           std::uint64_t b = 0)
    {
        WalRecord rec;
        rec.txn = txn;
        rec.type = WalRecType::kCommit;
        rec.a = a;
        rec.b = b;
        append(core, rec);
        open_ = false;
        ++commits_;
        telemetry::metric_add(telemetry::Metric::kWalCommit);
    }

    /// Seals \p txn as aborted (graceful in-place undo already ran).
    void
    abort(hw::Core &core, std::uint64_t txn)
    {
        WalRecord rec;
        rec.txn = txn;
        rec.type = WalRecType::kAbort;
        append(core, rec);
        open_ = false;
        telemetry::metric_add(telemetry::Metric::kWalAbort);
    }

    /// True while a transaction is open.  OpTxn uses this to make a
    /// nested guard's WAL half a no-op: the outer op's BEGIN subsumes
    /// every inner op, and replaying the outer op re-executes them.
    bool in_txn() const { return open_; }

    std::uint64_t commits() const { return commits_; }
    std::size_t size() const { return log_.size(); }
    const std::vector<WalRecord> &records() const { return log_; }

    /// Recovery scan: truncates the torn tail, then resolves every
    /// transaction into committed (BEGIN + COMMIT payload, log order),
    /// aborted, or uncommitted.  Const — scanning must not disturb the
    /// durable medium, so two scans of the same log agree byte-for-byte.
    WalScan scan() const;

    /// Clears volatile controller state after a crash (the durable log
    /// is untouched).  A crash mid-transaction leaves `open_` stuck, and
    /// without this a WAL re-attached to a recovered world would treat
    /// every later op as nested and stop logging.
    void reboot() { open_ = false; }

    /// Clears the log (a fresh medium, not part of recovery).
    void
    reset()
    {
        log_.clear();
        next_txn_ = 0;
        commits_ = 0;
        open_ = false;
    }

  private:
    /// Two-phase durable append; both crossings are crash points.
    void append(hw::Core &core, WalRecord rec);

    std::vector<WalRecord> log_;
    std::uint64_t next_txn_ = 0;
    std::uint64_t commits_ = 0;
    bool open_ = false;
};

}  // namespace vdom::kernel
