/// \file
/// Domain-tagged hierarchical page-table model.
///
/// Each VDS owns one of these (its private pgd); the kernel additionally
/// keeps a shadow instance as the master copy of the process layout (§6.2).
/// The model keeps two levels explicit: PTEs (one per 4KB page) and PMDs
/// (one per 2MB span).  That is enough to express the paper's §5.5
/// optimization: evicting a vdom whose pages cover whole 2MB spans disables
/// the PMD in O(1) instead of rewriting 512 PTEs, and huge-page mappings
/// (used by the libmpk 2MB-page baseline in Fig. 7) are single PMD entries.
///
/// A leaf stores its PTEs as three byte planes (present, prot_none, tag)
/// rather than an array of structs, so range mutations are branch-free
/// passes: write counts are plane sums and entry writes are selects.
///
/// The hardware layer is cost-agnostic: every mutator returns the number of
/// PTE/PMD writes it performed so the caller can charge cycles from the
/// architecture's CostTable.
///
/// `translate` and the common case of `map_page` (the span's leaf exists
/// and is a PTE table) are defined inline at the end of this header, so
/// `MmStruct::fault_in`, which runs two translations and one or two
/// `map_page`s per page it installs, folds them into its body.  A missing
/// leaf or a huge or disabled PMD takes `map_page_slow` in page_table.cc.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hw/arch.h"

namespace vdom::hw {

/// Counts of entry writes performed by a page-table mutation.
struct PtOps {
    std::uint64_t pte_writes = 0;
    std::uint64_t pmd_writes = 0;

    PtOps &
    operator+=(const PtOps &other)
    {
        pte_writes += other.pte_writes;
        pmd_writes += other.pmd_writes;
        return *this;
    }
};

/// Result of a hardware translation through one page table.
struct Translation {
    bool present = false;   ///< False: page fault (not mapped or PMD off).
    bool pmd_disabled = false;  ///< True when the miss came from a disabled
                                ///  PMD (evicted large region, §5.5).
    bool prot_none = false;  ///< Miss came from a PROT_NONE page.
    bool huge = false;       ///< Mapped by a 2MB PMD entry.
    Pdom pdom = 0;           ///< Domain tag checked against PKRU/DACR.
};

/// A single address space's page table (one pgd).
class PageTable {
  public:
    /// \param pmd_span_pages pages covered by one PMD entry (512 for 2MB).
    /// \param access_never pdom used to neutralize stale sibling PTEs when
    ///        a disabled PMD span must be partially re-enabled.
    explicit PageTable(std::size_t pmd_span_pages = 512,
                       Pdom access_never = 1)
        : pmd_span_(pmd_span_pages), access_never_(access_never) {}

    /// Translates \p vpn.  Never mutates; no cost implied (the TLB model
    /// charges walk cycles).
    Translation translate(Vpn vpn) const;

    /// Maps one 4KB page with domain tag \p pdom.
    PtOps map_page(Vpn vpn, Pdom pdom);

    /// Unmaps one 4KB page.
    PtOps unmap_page(Vpn vpn);

    /// Removes the huge (or disabled-was-huge) PMD entry covering \p vpn.
    /// No-op when the span is a normal PTE table.
    PtOps unmap_huge(Vpn vpn);

    /// Maps a 2MB span as a single huge entry tagged \p pdom.
    /// \p vpn must be PMD-aligned.
    PtOps map_huge(Vpn vpn, Pdom pdom);

    /// Retags [vpn, vpn+count) with \p pdom.
    ///
    /// When \p allow_pmd_fast_path is set and a whole PMD span is disabled
    /// or uniformly mapped, the retag costs one PMD write for that span
    /// (the "remap a large domain to the same pdom" HLRU optimization).
    PtOps set_pdom_range(Vpn vpn, std::uint64_t count, Pdom pdom,
                         bool allow_pmd_fast_path);

    /// Disables [vpn, vpn+count): future accesses fault.
    ///
    /// Per the paper, evicted pages are retagged with the predefined
    /// access-never pdom (\p access_never), so a later remap only rewrites
    /// domain tags.  With \p allow_pmd_fast_path, spans of continuous
    /// non-huge pages that cover a full PMD are disabled by one PMD write
    /// instead (§5.5); the prior pdom is remembered for the HLRU
    /// remap-to-same-pdom optimization.
    PtOps disable_range(Vpn vpn, std::uint64_t count, Pdom access_never,
                        bool allow_pmd_fast_path);

    /// mprotect(PROT_NONE) over [vpn, vpn+count): present pages fault until
    /// a later set_pdom_range restores them.  Per-PTE (no §5.5 fast path —
    /// this is the baseline mechanism); huge mappings disable their PMD.
    PtOps protect_none_range(Vpn vpn, std::uint64_t count);

    /// Installs the pages of [vpn, vpn+count) that \p src translates as
    /// present, tagged \p pdom — the VDS demand-population step (§6.2).
    ///
    /// Equivalent to, per page in order: if this table translates the page
    /// as present or it sits under a huge or disabled PMD, retag the rest
    /// of the range with set_pdom_range(..., \p allow_pmd_fast_path) and
    /// stop; otherwise map_page it when \p src has it present.  Runs one
    /// leaf at a time; a leaf is created only when a page maps into it and
    /// prot_none bits are kept, as map_page keeps them.  \p src must have
    /// the same PMD span.
    PtOps install_from(const PageTable &src, Vpn vpn, std::uint64_t count,
                       Pdom pdom, bool allow_pmd_fast_path);

    /// True when any page of [vpn, vpn+count) has a populated PTE (even
    /// one that is prot_none or sits under a disabled PMD) or is covered
    /// by a huge PMD, enabled or disabled.  Reads leaf present counts for
    /// whole spans and sums the present plane for partial ones.
    bool any_present(Vpn vpn, std::uint64_t count) const;

    /// Returns the number of present 4KB-equivalent pages (huge counts as
    /// pmd_span).  Debug/test helper.
    std::uint64_t present_pages() const;

    std::size_t pmd_span_pages() const { return pmd_span_; }

    /// PMD-span index containing \p vpn.
    Vpn pmd_index(Vpn vpn) const { return vpn / pmd_span_; }

    /// The directory is a flat pointer array over PMD indices [0, this):
    /// 2^16 spans, 128 GB of 4 KB pages.  mmap allocates VPNs bottom-up,
    /// so real address spaces stay far below it (the largest shipped world
    /// reaches index 502); mapping a page past it stops the run.
    static constexpr Vpn kDenseLimit = Vpn{1} << 16;

  private:
    enum class PmdKind : std::uint8_t {
        kTable,     ///< Points to a PTE table (the leaf's flat PTE block).
        kDisabled,  ///< §5.5: whole span faults; saved pdom for remap.
        kHuge,      ///< 2MB mapping with a single domain tag.
    };

    /// One radix leaf: the PMD entry plus its PTE block, one zeroed
    /// block of three pmd_span-byte planes (see Planes): present
    /// (0/1), prot_none (0/1; mprotect(PROT_NONE), the libmpk eviction
    /// mechanism, §3.2) and the pdom tag.  Same 3 bytes per PTE as a
    /// struct array, but range ops become vectorizable plane passes.
    ///
    /// Invariants the passes rely on: prot_none is only ever set on a
    /// present entry (so clearing it over a range needs no present test),
    /// `present` equals the present plane's sum, and a kHuge or
    /// was_huge-disabled leaf has all-zero planes.
    struct Leaf {
        PmdKind kind = PmdKind::kTable;
        Pdom pdom = 0;           ///< For kHuge; for kDisabled: prior pdom.
        bool was_huge = false;   ///< Disabled entry had a huge backing.
        std::uint32_t present = 0;  ///< Present PTEs under this PMD.
        std::vector<std::uint8_t> bytes;  ///< 3 * pmd_span, zeroed.

        explicit Leaf(std::size_t span) : bytes(3 * span) {}
    };

    /// The three planes of one leaf, each indexed by vpn - span start.
    template <typename Byte>
    struct Planes {
        Byte *present;
        Byte *prot;
        Byte *tag;
    };

    Planes<std::uint8_t>
    planes(Leaf &leaf) const
    {
        std::uint8_t *b = leaf.bytes.data();
        return {b, b + pmd_span_, b + 2 * pmd_span_};
    }

    Planes<const std::uint8_t>
    planes(const Leaf &leaf) const
    {
        const std::uint8_t *b = leaf.bytes.data();
        return {b, b + pmd_span_, b + 2 * pmd_span_};
    }

    /// Leaf covering PMD index \p idx, or nullptr.
    Leaf *
    leaf_at(Vpn idx) const
    {
        return idx < dense_.size() ? dense_[idx].get() : nullptr;
    }

    /// Leaf covering PMD index \p idx, created on demand.  Aborts, in
    /// every build type, when \p idx is at or past kDenseLimit.
    Leaf &leaf_grow(Vpn idx);

    /// map_page for a span with no leaf yet, or under a huge or disabled
    /// PMD: creates the leaf or re-enables the span as a PTE table first.
    PtOps map_page_slow(Vpn vpn, Pdom pdom);

    /// Makes PTE \p off of table leaf \p leaf present, tagged \p pdom
    /// (prot_none is kept); one PTE write.
    void
    write_pte(Leaf &leaf, std::size_t off, Pdom pdom) const
    {
        auto pl = planes(leaf);
        leaf.present += 1 - pl.present[off];
        pl.present[off] = 1;
        pl.tag[off] = pdom;
    }

    /// Drops the leaf at \p idx entirely (PMD entry + PTE block).
    void leaf_drop(Vpn idx);

    /// True when \p leaf is a table whose every PTE is present, not
    /// prot_none and carries the same pdom (one pass over the planes).
    bool span_uniform(const Leaf *leaf, Pdom *pdom_out) const;

    std::size_t pmd_span_;
    Pdom access_never_;
    std::vector<std::unique_ptr<Leaf>> dense_;
};

inline Translation
PageTable::translate(Vpn vpn) const
{
    Translation t;
    Vpn idx = pmd_index(vpn);
    const Leaf *leaf = leaf_at(idx);
    if (!leaf)
        return t;
    if (leaf->kind == PmdKind::kDisabled) {
        t.pmd_disabled = true;
        return t;
    }
    if (leaf->kind == PmdKind::kHuge) {
        t.present = true;
        t.huge = true;
        t.pdom = leaf->pdom;
        return t;
    }
    auto pl = planes(*leaf);
    std::size_t i = vpn - idx * pmd_span_;
    if (!pl.present[i])
        return t;
    if (pl.prot[i]) {
        t.prot_none = true;
        return t;
    }
    t.present = true;
    t.pdom = pl.tag[i];
    return t;
}

inline PtOps
PageTable::map_page(Vpn vpn, Pdom pdom)
{
    Vpn idx = pmd_index(vpn);
    Leaf *leaf = leaf_at(idx);
    if (!leaf || leaf->kind != PmdKind::kTable)
        return map_page_slow(vpn, pdom);
    write_pte(*leaf, vpn - idx * pmd_span_, pdom);
    return PtOps{1, 0};
}

}  // namespace vdom::hw
