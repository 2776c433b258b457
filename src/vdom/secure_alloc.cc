/// \file
/// Domain-aware arena allocator implementation.

#include "vdom/secure_alloc.h"

namespace vdom {

DomainAllocator::DomainAllocator(VdomSystem &sys, hw::Core &core,
                                 bool frequent, std::uint64_t chunk_pages)
    : sys_(&sys),
      vdom_(sys.vdom_alloc(core, frequent)),
      chunk_pages_(chunk_pages == 0 ? 1 : chunk_pages),
      page_size_(sys.process().params().page_size)
{
}

DomainAllocator::DomainAllocator(VdomSystem &sys, hw::Core &core,
                                 VdomId vdom, std::uint64_t chunk_pages)
    : sys_(&sys),
      vdom_(vdom),
      chunk_pages_(chunk_pages == 0 ? 1 : chunk_pages),
      page_size_(sys.process().params().page_size)
{
    (void)core;
}

DomainAllocator::Chunk *
DomainAllocator::grow(hw::Core &core, std::uint64_t pages)
{
    kernel::MmStruct &mm = sys_->process().mm();
    // Transactional growth: the arena's whole guarantee is that every
    // byte it hands out is domain-protected, so the mmap and the
    // protection commit together — a faulted vdom_mprotect unwinds the
    // mapping instead of leaking an unprotected chunk into the pool.
    // The WAL intent makes the same pair atomic across power loss (the
    // inner vdom_mprotect's own logging nests away under this record).
    kernel::OpTxn txn(mm, core, kernel::WalOp::kSecureGrow, 0, vdom_,
                      pages);
    Chunk chunk;
    chunk.start = mm.mmap(pages);
    chunk.pages = pages;
    last_status_ = sys_->vdom_mprotect(core, chunk.start, pages, vdom_);
    if (last_status_ != VdomStatus::kOk)
        return nullptr;  // Rollback unwinds the mmap.
    txn.commit(chunk.start);
    total_pages_ += pages;
    chunks_.push_back(chunk);
    return &chunks_.back();
}

SecureAllocation
DomainAllocator::allocate(hw::Core &core, std::uint64_t bytes,
                          std::uint64_t align)
{
    if (bytes == 0)
        bytes = 1;
    if (align == 0 || (align & (align - 1)) != 0)
        align = 8;

    std::uint64_t chunk_bytes = chunk_pages_ * page_size_;
    // Large allocations get a dedicated page run.
    if (bytes > chunk_bytes) {
        std::uint64_t pages = (bytes + page_size_ - 1) / page_size_;
        Chunk *chunk = grow(core, pages);
        if (!chunk)
            return {};
        chunk->used_bytes = bytes;
        bytes_in_use_ += bytes;
        return {chunk->start * page_size_, bytes};
    }
    // Bump-allocate from the most recent chunk with room.
    for (auto it = chunks_.rbegin(); it != chunks_.rend(); ++it) {
        Chunk &chunk = *it;
        if (chunk.pages * page_size_ < bytes)
            continue;
        std::uint64_t offset =
            (chunk.used_bytes + align - 1) / align * align;
        if (offset + bytes <= chunk.pages * page_size_) {
            chunk.used_bytes = offset + bytes;
            bytes_in_use_ += bytes;
            return {chunk.start * page_size_ + offset, bytes};
        }
    }
    Chunk *chunk = grow(core, chunk_pages_);
    if (!chunk)
        return {};
    chunk->used_bytes = bytes;
    bytes_in_use_ += bytes;
    return {chunk->start * page_size_, bytes};
}

void
DomainAllocator::reset()
{
    for (Chunk &chunk : chunks_)
        chunk.used_bytes = 0;
    bytes_in_use_ = 0;
}

}  // namespace vdom
