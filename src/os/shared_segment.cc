#include "os/shared_segment.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::os
{

namespace
{
/** Buddy order of a 2 MiB huge page (512 x 4 KiB frames). */
constexpr unsigned hugeOrder = hugePageShift - pageShift;
} // namespace

SharedSegment::SharedSegment(BuddyAllocator &allocator,
                             std::uint64_t length, bool huge_pages)
    : allocator_(&allocator), hugePages_(huge_pages)
{
    if (length == 0)
        fatal("SharedSegment of zero length");
    const Addr unit = huge_pages ? hugePageSize : pageSize;
    length_ = alignUp(length, unit);
    const std::uint64_t units = length_ / unit;
    frames_.reserve(units);
    const unsigned order = huge_pages ? hugeOrder : 0;
    for (std::uint64_t i = 0; i < units; ++i) {
        const auto pfn = allocator.allocate(order);
        if (!pfn) {
            fatal("SharedSegment: out of ",
                  huge_pages ? "2MiB blocks" : "frames", " after ",
                  i, "/", units, " units");
        }
        frames_.push_back(*pfn);
    }
}

SharedSegment::~SharedSegment()
{
    if (allocator_ == nullptr)
        return;
    const unsigned order = hugePages_ ? hugeOrder : 0;
    for (const Pfn pfn : frames_)
        allocator_->free(pfn, order);
}

Pfn
SharedSegment::pagePfn(std::uint64_t page_index) const
{
    SIPT_ASSERT(page_index < pages(), "page index out of segment");
    if (!hugePages_)
        return frames_[page_index];
    return frames_[page_index / pagesPerHugePage] +
           page_index % pagesPerHugePage;
}

Pfn
SharedSegment::chunkPfn(std::uint64_t chunk_index) const
{
    SIPT_ASSERT(hugePages_, "chunkPfn on a 4KiB segment");
    SIPT_ASSERT(chunk_index < frames_.size(),
                "chunk index out of segment");
    return frames_[chunk_index];
}

} // namespace sipt::os
