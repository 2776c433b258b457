/// \file
/// Crash-recovery replay implementation.

#include "vdom/recovery.h"

#include <sstream>

#include "telemetry/flightrec.h"
#include "telemetry/metrics.h"

namespace vdom {

namespace tm = ::vdom::telemetry;

namespace {

kernel::Task *
find_task(kernel::Process &proc, std::uint32_t tid)
{
    for (const auto &task : proc.tasks()) {
        if (task->tid() == tid)
            return task.get();
    }
    return nullptr;
}

void
record_replay(hw::Core &core, const kernel::WalRecord &begin)
{
    tm::flight_record(core, tm::FlightEvent::kRecoveryReplay, begin.tid, 0,
                      static_cast<std::uint64_t>(begin.op), begin.txn,
                      kernel::wal_op_name(begin.op));
}

void
fail(RecoveryStats &stats, const kernel::WalRecord &begin,
     const std::string &what)
{
    if (!stats.ok)
        return;
    stats.ok = false;
    std::ostringstream out;
    out << "txn " << begin.txn << " (" << kernel::wal_op_name(begin.op)
        << "): " << what;
    stats.error = out.str();
}

}  // namespace

RecoveryStats
recover(VdomSystem &sys, hw::Core &core, const kernel::Wal &wal,
        const RecoveryHook &hook)
{
    RecoveryStats stats;
    kernel::WalScan scan = wal.scan();
    stats.records = scan.records;
    stats.torn = scan.torn;
    stats.committed = static_cast<std::uint64_t>(scan.committed.size());
    stats.uncommitted = static_cast<std::uint64_t>(scan.uncommitted.size());
    stats.aborted = scan.aborted;
    tm::metric_add(tm::Metric::kRecoveryTorn, scan.torn);

    kernel::Process &proc = sys.process();
    kernel::MmStruct &mm = proc.mm();

    // Redo pass: committed transactions in log (= original program)
    // order.  Replay goes through the public API so the recovered state
    // obeys every invariant the live path does; the COMMIT payloads
    // double-check that the deterministic allocators reconverged.
    for (const kernel::WalCommitted &entry : scan.committed) {
        if (!stats.ok)
            break;
        const kernel::WalRecord &begin = entry.begin;
        switch (begin.op) {
          case kernel::WalOp::kVdomInit: {
            if (sys.vdom_init(core) != VdomStatus::kOk)
                fail(stats, begin, "vdom_init failed");
            else if (sys.api_region() != entry.result_a)
                fail(stats, begin, "api region diverged");
            break;
          }
          case kernel::WalOp::kVdomAlloc: {
            VdomId id = sys.vdom_alloc(core, begin.a != 0);
            if (id == kInvalidVdom)
                fail(stats, begin, "vdom_alloc failed");
            else if (id != entry.result_a)
                fail(stats, begin, "allocated id diverged");
            break;
          }
          case kernel::WalOp::kVdomFree: {
            if (sys.vdom_free(core, begin.a) != VdomStatus::kOk)
                fail(stats, begin, "vdom_free failed");
            break;
          }
          case kernel::WalOp::kVdrAlloc: {
            kernel::Task *task = find_task(proc, begin.tid);
            if (!task)
                fail(stats, begin, "no such task");
            else if (sys.vdr_alloc(core, *task, begin.a) != VdomStatus::kOk)
                fail(stats, begin, "vdr_alloc failed");
            break;
          }
          case kernel::WalOp::kVdrFree: {
            kernel::Task *task = find_task(proc, begin.tid);
            if (!task)
                fail(stats, begin, "no such task");
            else if (sys.vdr_free(core, *task) != VdomStatus::kOk)
                fail(stats, begin, "vdr_free failed");
            break;
          }
          case kernel::WalOp::kMmap: {
            hw::Vpn vpn = mm.mmap(begin.a, begin.b != 0);
            if (vpn != entry.result_a)
                fail(stats, begin, "mmap address diverged");
            break;
          }
          case kernel::WalOp::kMprotect:
          case kernel::WalOp::kSandboxMprotect: {
            if (sys.vdom_mprotect(core, begin.a, begin.b, begin.c) !=
                VdomStatus::kOk) {
                fail(stats, begin, "mprotect failed");
            }
            break;
          }
          case kernel::WalOp::kWrvdr: {
            kernel::Task *task = find_task(proc, begin.tid);
            if (!task)
                fail(stats, begin, "no such task");
            else if (sys.wrvdr(core, *task, begin.a,
                               static_cast<VPerm>(begin.b)) !=
                     VdomStatus::kOk) {
                fail(stats, begin, "wrvdr failed");
            }
            break;
          }
          case kernel::WalOp::kSecureGrow: {
            hw::Vpn vpn = mm.mmap(begin.b);
            if (sys.vdom_mprotect(core, vpn, begin.b, begin.a) !=
                VdomStatus::kOk) {
                fail(stats, begin, "secure grow mprotect failed");
            } else if (vpn != entry.result_a) {
                fail(stats, begin, "secure grow address diverged");
            }
            break;
          }
          case kernel::WalOp::kPmoAttach: {
            // Mapping redo is generic; the content redo (verify the
            // store entry survived intact) belongs to the hook.
            hw::Vpn vpn = mm.mmap(begin.b);
            VdomId id = sys.vdom_alloc(core, false);
            if (id == kInvalidVdom ||
                sys.vdom_mprotect(core, vpn, begin.b, id) !=
                    VdomStatus::kOk) {
                fail(stats, begin, "pmo attach replay failed");
            } else if (id != entry.result_a || vpn != entry.result_b) {
                fail(stats, begin, "pmo attach diverged");
            } else if (hook && !hook(entry, true)) {
                fail(stats, begin, "pmo content redo failed");
            }
            break;
          }
          case kernel::WalOp::kPmoDetach: {
            if (sys.vdom_free(core, begin.b) != VdomStatus::kOk)
                fail(stats, begin, "pmo detach vdom_free failed");
            else if (hook && !hook(entry, true))
                fail(stats, begin, "pmo content erase redo failed");
            break;
          }
          case kernel::WalOp::kNone:
          case kernel::WalOp::kNumOps: {
            fail(stats, begin, "unknown op");
            break;
          }
        }
        if (stats.ok) {
            ++stats.replayed;
            tm::metric_add(tm::Metric::kRecoveryReplayed);
            record_replay(core, begin);
        }
    }

    // Undo pass: transactions that never committed had no durable effect
    // in the kernel (the in-memory world is gone), but may have written
    // app durable state — a torn PMO attach left partial content that
    // must be erased.
    for (const kernel::WalRecord &begin : scan.uncommitted) {
        if (!stats.ok)
            break;
        if (begin.op != kernel::WalOp::kPmoAttach)
            continue;
        kernel::WalCommitted entry;
        entry.begin = begin;
        if (hook && !hook(entry, false)) {
            fail(stats, begin, "pmo content undo failed");
            continue;
        }
        ++stats.undone;
        record_replay(core, begin);
    }
    return stats;
}

}  // namespace vdom
