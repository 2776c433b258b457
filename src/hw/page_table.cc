/// \file
/// Domain-tagged page-table model implementation (two-level radix: a dense
/// PMD directory of leaves, each leaf three byte planes of PTE state).

#include "hw/page_table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vdom::hw {

namespace {

/// Sum of a 0/1 plane over [lo, hi).
std::uint64_t
plane_sum(const std::uint8_t *plane, std::size_t lo, std::size_t hi)
{
    std::uint64_t sum = 0;
    for (std::size_t i = lo; i < hi; ++i)
        sum += plane[i];
    return sum;
}

/// tag[i] = pdom wherever present[i], over [lo, hi).
void
retag_present(const std::uint8_t *present, std::uint8_t *tag, Pdom pdom,
              std::size_t lo, std::size_t hi)
{
    for (std::size_t i = lo; i < hi; ++i)
        tag[i] = present[i] ? pdom : tag[i];
}

}  // namespace

PageTable::Leaf &
PageTable::leaf_grow(Vpn idx)
{
    if (idx >= kDenseLimit) {
        std::fprintf(stderr,
                     "hw::PageTable: PMD index %llu past the directory "
                     "(%llu spans)\n",
                     static_cast<unsigned long long>(idx),
                     static_cast<unsigned long long>(kDenseLimit));
        std::abort();
    }
    if (idx >= dense_.size()) {
        std::size_t grown = std::max<std::size_t>(idx + 1, dense_.size() * 2);
        dense_.resize(std::min<std::size_t>(grown, kDenseLimit));
    }
    if (!dense_[idx])
        dense_[idx] = std::make_unique<Leaf>(pmd_span_);
    return *dense_[idx];
}

void
PageTable::leaf_drop(Vpn idx)
{
    if (idx < dense_.size())
        dense_[idx].reset();
}

PtOps
PageTable::protect_none_range(Vpn vpn, std::uint64_t count)
{
    PtOps ops;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx * pmd_span_;
        Vpn span_end = span_start + pmd_span_;
        Leaf *leaf = leaf_at(idx);
        if (leaf && leaf->kind == PmdKind::kHuge && v == span_start &&
            end >= span_end) {
            leaf->kind = PmdKind::kDisabled;
            leaf->was_huge = true;
            ++ops.pmd_writes;
            v = span_end;
            continue;
        }
        Vpn chunk_end = std::min(end, span_end);
        if (leaf) {
            // prot_none implies present, so present ^ prot marks exactly
            // the entries this pass protects.
            auto pl = planes(*leaf);
            for (std::size_t i = v - span_start; i < chunk_end - span_start;
                 ++i) {
                ops.pte_writes += pl.present[i] ^ pl.prot[i];
                pl.prot[i] = pl.present[i];
            }
        }
        v = chunk_end;
    }
    return ops;
}

PtOps
PageTable::map_page_slow(Vpn vpn, Pdom pdom)
{
    PtOps ops;
    Vpn idx = pmd_index(vpn);
    Leaf &leaf = leaf_grow(idx);
    std::size_t off = vpn - idx * pmd_span_;
    if (leaf.kind != PmdKind::kTable) {
        // Re-enable the span as a PTE table before installing the page.
        // Sibling PTEs under a disabled PMD still carry their pre-eviction
        // tags; neutralize them so re-enabling one page cannot resurrect
        // the whole evicted span.  (A huge leaf's planes are all zero.)
        if (leaf.kind == PmdKind::kDisabled) {
            auto pl = planes(leaf);
            ops.pte_writes += leaf.present - pl.present[off];
            retag_present(pl.present, pl.tag, access_never_, 0, pmd_span_);
        }
        leaf.kind = PmdKind::kTable;
        leaf.was_huge = false;
        ++ops.pmd_writes;
    }
    write_pte(leaf, off, pdom);
    ++ops.pte_writes;
    return ops;
}

PtOps
PageTable::unmap_page(Vpn vpn)
{
    PtOps ops;
    Vpn idx = pmd_index(vpn);
    Leaf *leaf = leaf_at(idx);
    if (!leaf || leaf->kind == PmdKind::kHuge)
        return ops;
    auto pl = planes(*leaf);
    std::size_t off = vpn - idx * pmd_span_;
    if (!pl.present[off])
        return ops;
    pl.present[off] = 0;
    pl.prot[off] = 0;
    pl.tag[off] = 0;
    ++ops.pte_writes;
    --leaf->present;
    return ops;
}

PtOps
PageTable::unmap_huge(Vpn vpn)
{
    PtOps ops;
    Vpn idx = pmd_index(vpn);
    Leaf *leaf = leaf_at(idx);
    if (!leaf)
        return ops;
    if (leaf->kind == PmdKind::kHuge ||
        (leaf->kind == PmdKind::kDisabled && leaf->was_huge)) {
        leaf_drop(idx);
        ++ops.pmd_writes;
    }
    return ops;
}

PtOps
PageTable::map_huge(Vpn vpn, Pdom pdom)
{
    PtOps ops;
    Leaf &leaf = leaf_grow(pmd_index(vpn));
    leaf.kind = PmdKind::kHuge;
    leaf.pdom = pdom;
    leaf.present = 0;
    ++ops.pmd_writes;
    // Drop any stale PTEs shadowed by the huge entry.
    std::fill(leaf.bytes.begin(), leaf.bytes.end(), 0);
    return ops;
}

bool
PageTable::span_uniform(const Leaf *leaf, Pdom *pdom_out) const
{
    if (!leaf || leaf->kind != PmdKind::kTable ||
        leaf->present != pmd_span_) {
        return false;
    }
    // Every entry is present (the count says so); one pass ORs together
    // every prot bit and every tag's difference from the first.
    auto pl = planes(*leaf);
    Pdom pdom = pl.tag[0];
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < pmd_span_; ++i)
        diff |= pl.prot[i] | (pl.tag[i] ^ pdom);
    if (diff != 0)
        return false;
    if (pdom_out)
        *pdom_out = pdom;
    return true;
}

PtOps
PageTable::set_pdom_range(Vpn vpn, std::uint64_t count, Pdom pdom,
                          bool allow_pmd_fast_path)
{
    PtOps ops;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx * pmd_span_;
        Vpn span_end = span_start + pmd_span_;
        bool covers_span = (v == span_start && end >= span_end);
        Leaf *leaf = leaf_at(idx);
        if (covers_span && leaf) {
            if (leaf->kind == PmdKind::kHuge) {
                leaf->pdom = pdom;
                ++ops.pmd_writes;
                v = span_end;
                continue;
            }
            if (leaf->kind == PmdKind::kDisabled) {
                if (leaf->was_huge) {
                    // Restore the huge mapping with the new tag: the PMD is
                    // the only entry either way.
                    leaf->kind = PmdKind::kHuge;
                    leaf->pdom = pdom;
                    leaf->was_huge = false;
                    ++ops.pmd_writes;
                    v = span_end;
                    continue;
                }
                // §5.5 HLRU remap: when the vdom returns to the same pdom it
                // last occupied, the (uniform) PTE tags below the disabled
                // PMD are still valid and one PMD write restores the whole
                // span.  A different pdom re-enables the span and falls
                // through to the per-PTE retag below.
                leaf->kind = PmdKind::kTable;
                ++ops.pmd_writes;
                if (allow_pmd_fast_path && leaf->pdom == pdom) {
                    v = span_end;
                    continue;
                }
            }
        }
        Vpn chunk_end = std::min(end, span_end);
        if (leaf && leaf->kind == PmdKind::kTable) {
            // Every present entry is written: its tag becomes pdom and its
            // prot bit clears (prot implies present, so clear them all).
            // A range with nothing present, such as eager revocation of
            // fresh pages, stays a read-only pass.
            auto pl = planes(*leaf);
            std::size_t lo = v - span_start;
            std::size_t hi = chunk_end - span_start;
            std::uint64_t writes = hi - lo == pmd_span_
                                       ? leaf->present
                                       : plane_sum(pl.present, lo, hi);
            if (writes > 0) {
                retag_present(pl.present, pl.tag, pdom, lo, hi);
                std::memset(pl.prot + lo, 0, hi - lo);
                ops.pte_writes += writes;
            }
        }
        v = chunk_end;
    }
    return ops;
}

PtOps
PageTable::disable_range(Vpn vpn, std::uint64_t count, Pdom access_never,
                         bool allow_pmd_fast_path)
{
    PtOps ops;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx * pmd_span_;
        Vpn span_end = span_start + pmd_span_;
        bool covers_span = (v == span_start && end >= span_end);
        Leaf *leaf = leaf_at(idx);
        if (covers_span && leaf) {
            if (leaf->kind == PmdKind::kHuge) {
                leaf->kind = PmdKind::kDisabled;
                leaf->was_huge = true;
                ++ops.pmd_writes;
                v = span_end;
                continue;
            }
            Pdom uniform_pdom = 0;
            if (allow_pmd_fast_path &&
                span_uniform(leaf, &uniform_pdom)) {
                leaf->kind = PmdKind::kDisabled;
                leaf->pdom = uniform_pdom;
                ++ops.pmd_writes;
                v = span_end;
                continue;
            }
        }
        Vpn chunk_end = std::min(end, span_end);
        if (leaf && leaf->kind == PmdKind::kTable) {
            // Present entries not already access-never are written.
            auto pl = planes(*leaf);
            for (std::size_t i = v - span_start; i < chunk_end - span_start;
                 ++i) {
                ops.pte_writes += pl.present[i] & (pl.tag[i] != access_never);
                pl.tag[i] = pl.present[i] ? access_never : pl.tag[i];
            }
        }
        v = chunk_end;
    }
    return ops;
}

PtOps
PageTable::install_from(const PageTable &src, Vpn vpn, std::uint64_t count,
                        Pdom pdom, bool allow_pmd_fast_path)
{
    assert(src.pmd_span_ == pmd_span_);
    PtOps ops;
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx * pmd_span_;
        Vpn chunk_end = std::min(end, span_start + pmd_span_);
        std::size_t lo = v - span_start;
        std::size_t hi = chunk_end - span_start;
        Leaf *leaf = leaf_at(idx);
        // The first page this table already translates (present and not
        // prot_none), or the span start under a huge or disabled PMD,
        // ends the install: from there on the range is retagged.
        std::size_t stop = hi;
        if (leaf && leaf->kind != PmdKind::kTable) {
            stop = lo;
        } else if (leaf) {
            auto pl = planes(*leaf);
            for (std::size_t i = lo; i < hi; ++i) {
                if (pl.present[i] & (pl.prot[i] ^ 1)) {
                    stop = i;
                    break;
                }
            }
        }
        const Leaf *from = src.leaf_at(idx);
        if (from && from->kind != PmdKind::kDisabled && stop > lo) {
            bool huge = from->kind == PmdKind::kHuge;
            auto in = src.planes(*from);
            std::uint64_t maps =
                huge ? stop - lo
                     : plane_sum(in.present, lo, stop) -
                           plane_sum(in.prot, lo, stop);
            if (maps > 0) {
                if (!leaf)
                    leaf = &leaf_grow(idx);
                auto pl = planes(*leaf);
                for (std::size_t i = lo; i < stop; ++i) {
                    std::uint8_t m =
                        huge ? 1 : in.present[i] & (in.prot[i] ^ 1);
                    leaf->present += m & (pl.present[i] ^ 1);
                    pl.present[i] |= m;
                    pl.tag[i] = m ? pdom : pl.tag[i];
                }
                ops.pte_writes += maps;
            }
        }
        if (stop < hi) {
            ops += set_pdom_range(span_start + stop,
                                  end - (span_start + stop), pdom,
                                  allow_pmd_fast_path);
            return ops;
        }
        v = chunk_end;
    }
    return ops;
}

bool
PageTable::any_present(Vpn vpn, std::uint64_t count) const
{
    Vpn v = vpn;
    Vpn end = vpn + count;
    while (v < end) {
        Vpn idx = pmd_index(v);
        Vpn span_start = idx * pmd_span_;
        Vpn chunk_end = std::min(end, span_start + pmd_span_);
        if (const Leaf *leaf = leaf_at(idx)) {
            if (leaf->kind == PmdKind::kHuge ||
                (leaf->kind == PmdKind::kDisabled && leaf->was_huge))
                return true;
            std::size_t lo = v - span_start;
            std::size_t hi = chunk_end - span_start;
            if (hi - lo == pmd_span_ ? leaf->present > 0
                                     : plane_sum(planes(*leaf).present, lo,
                                                 hi) > 0)
                return true;
        }
        v = chunk_end;
    }
    return false;
}

std::uint64_t
PageTable::present_pages() const
{
    std::uint64_t count = 0;
    for (const auto &leaf : dense_) {
        if (!leaf)
            continue;
        count += leaf->kind == PmdKind::kHuge
                     ? pmd_span_
                     : plane_sum(planes(*leaf).present, 0, pmd_span_);
    }
    return count;
}

}  // namespace vdom::hw
