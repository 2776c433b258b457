/// \file
/// Op-level undo journal: the in-memory log behind kernel::OpTxn.
///
/// The API contract (vdom/types.h) promises that every documented error
/// status leaves "nothing mutated", but the multi-step ops — a
/// vdom_mprotect spanning several VMAs, wrvdr's VDR write + mapping +
/// reference bookkeeping, secure-allocator growth — mutate state in many
/// small steps, and an injected fault can fire between any two of them.
/// Rather than hand-roll compensation code on every error path, each op
/// opens a kernel::OpTxn (kernel/mm.h) and records an undo step here
/// right after each forward mutation; the guard commits on success and
/// unwinds the log in reverse order on any other exit.
///
/// Cost contract: the journal is pure host-side bookkeeping.  Recording
/// and committing charge zero simulated cycles (the cycle-identity test in
/// tests/test_txn.cc pins this down); only a *rollback* charges, and only
/// because the undo steps re-issue real work (page-table writes,
/// shootdowns) at the normal CostTable rates.  Undo steps are stored
/// inline, so recording allocates only when the log outgrows its capacity.
///
/// Nesting: guards nest (vdom_init wraps assign_vdom, which opens its
/// own).  An inner commit keeps its entries on the log so an outer
/// rollback still unwinds them; the log is discarded only when the
/// outermost guard commits.

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace vdom::kernel {

/// One move-only undo step: the callable lives in a fixed inline buffer,
/// reached through a per-type call/move/destroy table.  A capture larger
/// than the buffer fails to compile rather than fall back to the heap.
class UndoStep {
  public:
    template <typename Fn, typename F = std::decay_t<Fn>>
    explicit UndoStep(Fn &&fn) : ops_(&kOps<F>)
    {
        static_assert(sizeof(F) <= sizeof(buf_) &&
                          alignof(F) <= alignof(std::max_align_t) &&
                          std::is_nothrow_move_constructible_v<F>,
                      "undo step does not fit UndoStep's inline buffer");
        ::new (static_cast<void *>(buf_)) F(std::forward<Fn>(fn));
    }

    /// The moved-from husk is still destroyed, by `other`'s destructor.
    UndoStep(UndoStep &&other) noexcept : ops_(other.ops_)
    {
        ops_->move(buf_, other.buf_);
    }
    ~UndoStep() { ops_->destroy(buf_); }

    void operator()() { ops_->call(buf_); }

  private:
    struct Ops {
        void (*call)(void *);
        void (*move)(void *dst, void *src);
        void (*destroy)(void *);
    };

    /// The F that placement-new built in the buffer at \p p.
    template <typename F>
    static F &as(void *p) { return *std::launder(static_cast<F *>(p)); }

    template <typename F>
    static constexpr Ops kOps = {
        [](void *p) { as<F>(p)(); },
        [](void *d, void *s) { ::new (d) F(std::move(as<F>(s))); },
        [](void *p) { as<F>(p).~F(); },
    };

    alignas(std::max_align_t) unsigned char buf_[56];
    const Ops *ops_;
};

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

    /// Appends an undo step.  A no-op when no transaction is open
    /// (un-transacted callers pay nothing) and while a rollback is running
    /// (undo steps must not journal their own effects).
    template <typename Fn>
    void
    record(Fn &&fn)
    {
        if (depth_ > 0 && !rolling_back_)
            entries_.emplace_back(std::forward<Fn>(fn));
    }

    /// The reflush mark: set by an undo step that rewrote live PTEs, read
    /// and cleared by the step MmStruct::assign_vdom records before its
    /// retags.  Undo runs newest first, so that step sees only its own
    /// scope's marks.
    void mark_reflush() { reflush_ = true; }
    bool take_reflush() { return std::exchange(reflush_, false); }

  private:
    friend class OpTxn;

    std::vector<UndoStep> entries_;
    std::size_t depth_ = 0;
    bool rolling_back_ = false;
    bool reflush_ = false;
    std::uint64_t rollbacks_ = 0;
};

}  // namespace vdom::kernel
