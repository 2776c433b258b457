/// \file
/// Fixed-capacity flat ring buffer.
///
/// The flat data-layout convention for bounded histories: one contiguous
/// array, a head index, and modular wrap — no per-element allocation, no
/// pointer chasing on the record path.  The causal flight recorder
/// (telemetry/flightrec.h) keeps one per core, so each retains "the last
/// N things that happened" on that core at a fixed memory budget.
///
/// Semantics: capacity 0 retains nothing (push still counts as seen);
/// pushing past capacity overwrites the oldest element.  Storage grows
/// lazily up to the capacity, so an idle ring costs only the header.

#pragma once

#include <cstddef>
#include <vector>

namespace vdom::telemetry {

template <typename T>
class FlatRing {
  public:
    explicit FlatRing(std::size_t capacity = 0) : capacity_(capacity) {}

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return slots_.size(); }
    bool empty() const { return slots_.empty(); }

    /// Appends \p value; returns false when an old element was dropped to
    /// make room (or when capacity is 0 and nothing was retained).
    bool
    push(const T &value)
    {
        if (capacity_ == 0)
            return false;
        if (slots_.size() < capacity_) {
            slots_.push_back(value);
            return true;
        }
        slots_[head_] = value;
        head_ = (head_ + 1) % capacity_;
        return false;
    }

    /// Element \p i in age order: 0 is the oldest retained element.
    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) % slots_.size()];
    }

    const T &front() const { return (*this)[0]; }
    const T &back() const { return (*this)[slots_.size() - 1]; }

    void
    clear()
    {
        slots_.clear();
        head_ = 0;
    }

    /// Forward iterator in age order (oldest first), for range-for.
    class const_iterator {
      public:
        const_iterator(const FlatRing *ring, std::size_t i)
            : ring_(ring), i_(i)
        {
        }
        const T &operator*() const { return (*ring_)[i_]; }
        const T *operator->() const { return &(*ring_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator!=(const const_iterator &other) const
        {
            return i_ != other.i_;
        }
        bool
        operator==(const const_iterator &other) const
        {
            return i_ == other.i_;
        }

      private:
        const FlatRing *ring_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, slots_.size()}; }

  private:
    std::size_t capacity_;
    std::size_t head_ = 0;  ///< Index of the oldest element once full.
    std::vector<T> slots_;
};

}  // namespace vdom::telemetry
