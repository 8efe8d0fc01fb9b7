/**
 * @file
 * A Linux-style binary buddy allocator over physical page frames.
 *
 * Free frames are grouped into blocks of 2^order pages
 * (order 0..maxOrder, default 10 like Linux) and kept on per-order
 * free lists. Allocation splits the smallest sufficient block;
 * freeing coalesces with the buddy when possible.
 *
 * The allocator is the substrate that generates the VA->PA
 * contiguity the SIPT paper's predictors rely on (Section VI of the
 * paper): bursts of page faults are served from one split block, so
 * consecutive virtual pages receive consecutive physical frames.
 *
 * Free lists are LIFO (most-recently-freed block is reused first),
 * which mirrors the cache-warm reuse preference of real allocators
 * and reproduces the sequential-PFN behaviour of burst demand
 * faults. A random-selection mode supports the paper's Fig. 18
 * "no >4KiB contiguity" sensitivity study.
 *
 * The order of blocks inside each free list is part of every
 * simulated result: allocate() pops the last block,
 * allocateRandom() picks a block by its position, and
 * allocateColored() scans in list order. So the list is a plain
 * vector whose order only push, pop and swap-with-last erase
 * change, and the lookup that coalescing needs ("is my buddy
 * free?") lives in a separate index that never reorders it: a
 * flat open-addressed table per order, rebuilt when it grows or
 * is copied, with no per-block heap node.
 */

#ifndef SIPT_OS_BUDDY_ALLOCATOR_HH
#define SIPT_OS_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace sipt::os
{

/**
 * Binary buddy allocator over a contiguous range of physical frames.
 */
class BuddyAllocator
{
  public:
    /** Default maximum block order (1024 pages = 4 MiB), as Linux. */
    static constexpr unsigned defaultMaxOrder = 10;

    /**
     * Create an allocator over @p total_frames frames, all free.
     *
     * @param total_frames number of 4 KiB frames managed
     * @param max_order largest block order kept on free lists
     */
    explicit BuddyAllocator(std::uint64_t total_frames,
                            unsigned max_order = defaultMaxOrder);

    /**
     * Allocate a block of 2^order frames, naturally aligned.
     *
     * @return base PFN of the block, or nullopt if no block of the
     *         requested or larger order is free.
     */
    std::optional<Pfn> allocate(unsigned order);

    /**
     * Allocate like allocate(), but pick a uniformly random free
     * block (splitting a random larger block when necessary). Used
     * to model fully scattered placement.
     */
    std::optional<Pfn> allocateRandom(unsigned order, Rng &rng);

    /**
     * Allocate a block of 2^order frames whose base PFN is congruent
     * to @p vpn modulo 2^color_bits (page-coloring allocation).
     *
     * @return a matching block, or nullopt when none exists (the
     *         caller may then fall back to plain allocate()).
     */
    std::optional<Pfn> allocateColored(unsigned order, Vpn vpn,
                                       unsigned color_bits);

    /**
     * Return a block of 2^order frames starting at @p base to the
     * free lists, coalescing with free buddies.
     *
     * @pre the block is currently allocated; direct double frees
     *      are detected and panic.
     */
    void free(Pfn base, unsigned order);

    /** True iff an allocate(order) would currently succeed. */
    bool canAllocate(unsigned order) const;

    /** Number of free frames (pages). */
    std::uint64_t freeFrames() const { return freeFrames_; }

    /** Total frames managed. */
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** Number of free blocks of exactly @p order. */
    std::uint64_t freeBlocks(unsigned order) const;

    /** Largest order with at least one free block; -1 if none. */
    int largestFreeOrder() const;

    /**
     * Gorman & Whitcroft's unusable free space index Fu(j): the
     * fraction of free memory that cannot satisfy an allocation of
     * order @p j. 0 = perfectly usable, 1 = no block of order >= j.
     */
    double unusableFreeSpaceIndex(unsigned j) const;

    unsigned maxOrder() const { return maxOrder_; }

  private:
    /**
     * One order's free blocks with O(1) insert/erase/pick.
     *
     * @c blocks is the list: push appends, popBack takes the last
     * block, and erase moves the last block into the hole. That
     * order decides which frames later allocations get, so it
     * must not depend on the index below.
     *
     * @c slots indexes @c blocks by base PFN. It is a
     * power-of-two linear-probing table of positions in @c blocks
     * plus one (0 marks an empty slot), hashed on the PFN the
     * position names, so the index owns no heap node per block
     * and a lookup compares against @c blocks itself. Deletion
     * shifts later entries of the probe run back instead of
     * leaving tombstones.
     *
     * Sizing trades memory for probe length, which is most of
     * the cost of a push, pop or erase. The table doubles
     * when its load would pass 1/2 and never shrinks in place:
     * every run drains lists in its allocation phase and refills
     * them at teardown, and halving on the way down made that
     * teardown about twice as slow. A copy rebuilds the table at
     * load 1/8 or less for the list's current size, so a
     * conditioned-memory image and each run's copy of it carry
     * no slots for blocks that left during aging, and a run
     * starts with short probe runs.
     */
    struct FreeList
    {
        std::vector<Pfn> blocks;
        std::vector<std::uint32_t> slots;
        /** 64 - log2(slots.size()): the multiplicative hash
         *  keeps this many bits fewer than 64. */
        unsigned shift = 64;

        FreeList() = default;
        FreeList(const FreeList &other);
        FreeList &operator=(const FreeList &other);
        FreeList(FreeList &&) = default;
        FreeList &operator=(FreeList &&) = default;

        void push(Pfn base);
        bool erase(Pfn base);
        Pfn popBack();
        Pfn popAt(std::size_t idx);
        bool empty() const { return blocks.empty(); }
        std::size_t size() const { return blocks.size(); }

      private:
        static constexpr std::size_t npos = ~std::size_t{0};

        std::size_t home(Pfn base) const;
        /** Slot holding @p base, or npos. */
        std::size_t find(Pfn base) const;
        /** Empty @p hole, shifting its probe run back over it. */
        void removeSlot(std::size_t hole);
        /** Rebuild the index with @p capacity slots. */
        void rehash(std::size_t capacity);
        /** Rebuild the index at the smallest size that holds
         *  @c blocks at load 1/8 or less (none when empty). */
        void reindex();
    };

    /** Buddy of block @p base at @p order. */
    static Pfn
    buddyOf(Pfn base, unsigned order)
    {
        return base ^ (Pfn{1} << order);
    }

    /** Split @p base (a block of @p from) down to @p to, freeing the
     *  upper halves; returns the retained base. */
    Pfn splitTo(Pfn base, unsigned from, unsigned to);

    std::uint64_t totalFrames_;
    unsigned maxOrder_;
    std::uint64_t freeFrames_ = 0;
    std::vector<FreeList> freeLists_;
};

} // namespace sipt::os

#endif // SIPT_OS_BUDDY_ALLOCATOR_HH
