/**
 * @file
 * A System-V-style shared memory segment: physical frames owned
 * outside any single address space, so several mappings — in one
 * process or across the cores of a multiprogrammed run — can name
 * the same memory.
 *
 * This is the substrate for the synonym scenario pack: SIPT's
 * safety argument (paper Sec. II) is that physically tagged lines
 * make all names of a frame behave as one line, and a shared
 * segment mapped at several skewed virtual bases is exactly the
 * workload that a virtually indexed cache would need reverse-map
 * bookkeeping for. Segments come in 4 KiB and 2 MiB flavours; the
 * 2 MiB flavour models the VESPA-style superpage case where the
 * speculative index bits cannot change across the alias set.
 */

#ifndef SIPT_OS_SHARED_SEGMENT_HH
#define SIPT_OS_SHARED_SEGMENT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "os/buddy_allocator.hh"

namespace sipt::os
{

/**
 * Physical frames for a shared mapping, allocated eagerly (shmget
 * semantics: the segment exists before any process attaches) and
 * returned to the allocator on destruction.
 */
class SharedSegment
{
  public:
    /**
     * Allocate the segment's frames.
     *
     * @param allocator physical allocator the frames come from
     * @param length segment size in bytes (rounded up to whole
     *        4 KiB pages, or whole 2 MiB chunks when @p huge_pages)
     * @param huge_pages back the segment with 2 MiB blocks; every
     *        attach then maps it with huge pages
     */
    SharedSegment(BuddyAllocator &allocator, std::uint64_t length,
                  bool huge_pages);

    ~SharedSegment();

    SharedSegment(const SharedSegment &) = delete;
    SharedSegment &operator=(const SharedSegment &) = delete;

    /** Segment size in bytes (page-rounded). */
    std::uint64_t length() const { return length_; }

    /** True when backed by 2 MiB blocks. */
    bool hugePages() const { return hugePages_; }

    /** Number of 4 KiB pages the segment spans. */
    std::uint64_t pages() const { return length_ / pageSize; }

    /**
     * Frame of the @p page_index'th 4 KiB page of the segment.
     * Valid for huge segments too (the page's frame inside its
     * 2 MiB block).
     */
    Pfn pagePfn(std::uint64_t page_index) const;

    /** Base frame of the @p chunk_index'th 2 MiB chunk.
     *  @pre hugePages() */
    Pfn chunkPfn(std::uint64_t chunk_index) const;

    /** Keep the frames at destruction instead of returning them,
     *  so the allocator may be destroyed first (see
     *  AddressSpace::forgetFrames()). */
    void forgetFrames() { allocator_ = nullptr; }

  private:
    /** Null once forgetFrames() has run. */
    BuddyAllocator *allocator_;
    std::uint64_t length_;
    bool hugePages_;
    /** Base PFN per allocation unit (page, or 2 MiB chunk). */
    std::vector<Pfn> frames_;
};

} // namespace sipt::os

#endif // SIPT_OS_SHARED_SEGMENT_HH
