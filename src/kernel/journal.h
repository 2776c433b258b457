/// \file
/// Op-level undo journal: the in-memory log behind kernel::OpTxn.
///
/// The API contract (vdom/types.h) promises that every documented error
/// status leaves "nothing mutated", but the multi-step ops — a
/// vdom_mprotect spanning several VMAs, wrvdr's VDR write + mapping +
/// reference bookkeeping, secure-allocator growth — mutate state in many
/// small steps, and an injected fault can fire between any two of them.
/// Rather than hand-roll compensation code on every error path, each op
/// opens a kernel::OpTxn (kernel/mm.h) and records an inverse closure
/// here right after each forward mutation; the guard commits on success
/// and unwinds the log in reverse order on any other exit.
///
/// Cost contract: the journal is pure host-side bookkeeping.  Recording
/// and committing charge zero simulated cycles (the cycle-identity test in
/// tests/test_txn.cc pins this down); only a *rollback* charges, and only
/// because the undo closures re-issue real work (page-table writes,
/// shootdowns) at the normal CostTable rates.
///
/// Nesting: guards nest (vdom_init wraps assign_vdom, which opens its
/// own).  An inner commit keeps its entries on the log so an outer
/// rollback still unwinds them; the log is discarded only when the
/// outermost guard commits.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace vdom::kernel {

/// The per-process undo log.  Owned by MmStruct; ops reach it via
/// mm.journal() and open, commit and unwind it through OpTxn.
class Journal {
  public:
    /// True while any transaction is open: mutations must be recorded.
    bool active() const { return depth_ > 0; }

    /// Open transaction nesting depth.
    std::size_t depth() const { return depth_; }

    /// Undo entries currently on the log.
    std::size_t entries() const { return entries_.size(); }

    /// Rollbacks that undid at least one entry, since construction.
    std::uint64_t rollbacks() const { return rollbacks_; }

    /// Appends an inverse action.  A no-op when no transaction is open
    /// (un-transacted callers pay nothing) and while a rollback is running
    /// (undo closures must not journal their own effects).
    template <typename Fn>
    void
    record(Fn &&fn)
    {
        if (depth_ > 0 && !rolling_back_)
            entries_.emplace_back(std::forward<Fn>(fn));
    }

  private:
    friend class OpTxn;

    std::vector<std::function<void()>> entries_;
    std::size_t depth_ = 0;
    bool rolling_back_ = false;
    std::uint64_t rollbacks_ = 0;
};

}  // namespace vdom::kernel
