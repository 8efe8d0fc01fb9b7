/**
 * @file
 * A per-process page table mapping virtual pages to physical frames
 * at 4 KiB and 2 MiB granularity.
 *
 * The table is the authoritative VA->PA mapping; the TLB caches its
 * entries and the MMU walks it on TLB misses.
 *
 * Storage is indexed by 2 MiB virtual chunk: one hash map from chunk
 * number to a record holding either the chunk's huge frame or its
 * 512-slot array of 4 KiB frames (allocated on the chunk's first
 * 4 KiB mapping). A translation is one chunk probe plus, for small
 * pages, one array index; the per-chunk small count that THP
 * promotion checks lives in the same record.
 */

#ifndef SIPT_VM_PAGE_TABLE_HH
#define SIPT_VM_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace sipt::vm
{

/** Result of a successful translation. */
struct Translation
{
    /** Full physical byte address. */
    Addr paddr = 0;
    /** True when the mapping is a 2 MiB transparent huge page. */
    bool hugePage = false;
};

/**
 * Chunk-indexed page table with 4 KiB and 2 MiB mappings.
 */
class PageTable
{
  public:
    /**
     * Map the 4 KiB virtual page containing @p vaddr to frame
     * @p pfn. The page must not already be mapped (at either size).
     */
    void mapPage(Addr vaddr, Pfn pfn);

    /**
     * Map the 2 MiB virtual chunk containing @p vaddr to the huge
     * frame whose first 4 KiB frame is @p base_pfn (which must be
     * 512-frame aligned). No 4 KiB mapping may exist inside the
     * chunk.
     */
    void mapHugePage(Addr vaddr, Pfn base_pfn);

    /** Remove the 4 KiB mapping containing @p vaddr, if present. */
    void unmapPage(Addr vaddr);

    /** Remove the 2 MiB mapping containing @p vaddr, if present. */
    void unmapHugePage(Addr vaddr);

    /** Translate @p vaddr, or nullopt when unmapped. */
    std::optional<Translation> translate(Addr vaddr) const;

    /** True iff @p vaddr is mapped (at either granularity). */
    bool isMapped(Addr vaddr) const;

    /** True iff @p vaddr lies in a huge-page mapping. */
    bool isHugeMapped(Addr vaddr) const;

    /** True iff any 4 KiB page inside the 2 MiB chunk containing
     *  @p vaddr is mapped (blocks THP promotion). */
    bool chunkHasSmallMappings(Addr vaddr) const;

    /** Number of 4 KiB mappings. */
    std::uint64_t smallPageCount() const { return smallPages_; }

    /** Number of 2 MiB mappings. */
    std::uint64_t hugePageCount() const { return hugePages_; }

    /** Visit every 4 KiB mapping as (vpn, pfn), unordered. */
    void forEachSmall(
        const std::function<void(Vpn, Pfn)> &visit) const;

    /** Visit every 2 MiB mapping as (chunk vpn = vaddr >> 21,
     *  base pfn in 4 KiB units), unordered. */
    void forEachHuge(
        const std::function<void(Vpn, Pfn)> &visit) const;

    /** Drop every mapping. */
    void clear();

  private:
    /** Frame value marking an unmapped slot. */
    static constexpr Pfn noFrame = ~Pfn{0};

    /**
     * The mappings inside one 2 MiB virtual chunk. A chunk is
     * either huge-mapped (@c huge set, no small slots in use) or
     * holds at least one 4 KiB mapping; a chunk that becomes
     * neither is erased.
     */
    struct Chunk
    {
        /** Base PFN (4 KiB units) of the huge mapping, or noFrame.*/
        Pfn huge = noFrame;
        /** Number of mapped slots in @c small. */
        std::uint32_t smallCount = 0;
        /** PFN per 4 KiB slot (noFrame = unmapped); empty until the
         *  chunk's first 4 KiB mapping. */
        std::vector<Pfn> small;
    };

    /** Chunk record for @p vaddr, or nullptr when it has none. */
    const Chunk *findChunk(Addr vaddr) const;

    /** 2 MiB chunk number (vaddr >> 21) -> its mappings. */
    std::unordered_map<Vpn, Chunk> chunks_;
    /** Number of 4 KiB mappings across all chunks. */
    std::uint64_t smallPages_ = 0;
    /** Number of huge-mapped chunks. */
    std::uint64_t hugePages_ = 0;
};

} // namespace sipt::vm

#endif // SIPT_VM_PAGE_TABLE_HH
