#include "os/buddy_allocator.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::os
{

namespace
{

/** Smallest index table; an empty list allocates none. */
constexpr std::size_t minSlots = 16;

} // namespace

std::size_t
BuddyAllocator::FreeList::home(Pfn base) const
{
    // Fibonacci hashing: the top bits of the product mix every
    // PFN bit, including the high ones that differ between the
    // naturally aligned blocks of one order.
    return static_cast<std::size_t>(
        (base * 0x9e3779b97f4a7c15ull) >> shift);
}

std::size_t
BuddyAllocator::FreeList::find(Pfn base) const
{
    if (slots.empty())
        return npos;
    const std::size_t m = slots.size() - 1;
    for (std::size_t i = home(base);; i = (i + 1) & m) {
        const std::uint32_t pos = slots[i];
        if (pos == 0)
            return npos;
        if (blocks[pos - 1] == base)
            return i;
    }
}

void
BuddyAllocator::FreeList::removeSlot(std::size_t hole)
{
    const std::size_t m = slots.size() - 1;
    for (std::size_t i = (hole + 1) & m; slots[i] != 0;
         i = (i + 1) & m) {
        // The entry at i may fill the hole iff its home slot is
        // not cyclically inside (hole, i].
        const std::size_t h = home(blocks[slots[i] - 1]);
        if (((i - h) & m) >= ((i - hole) & m)) {
            slots[hole] = slots[i];
            hole = i;
        }
    }
    slots[hole] = 0;
}

void
BuddyAllocator::FreeList::rehash(std::size_t capacity)
{
    slots.assign(capacity, 0);
    shift = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    const std::size_t m = capacity - 1;
    for (std::size_t p = 0; p < blocks.size(); ++p) {
        std::size_t i = home(blocks[p]);
        while (slots[i] != 0)
            i = (i + 1) & m;
        slots[i] = static_cast<std::uint32_t>(p + 1);
    }
}

void
BuddyAllocator::FreeList::reindex()
{
    if (blocks.empty()) {
        slots = {};
        shift = 64;
        return;
    }
    rehash(std::max(minSlots, std::bit_ceil(8 * blocks.size())));
}

BuddyAllocator::FreeList::FreeList(const FreeList &other)
    : blocks(other.blocks)
{
    reindex();
}

BuddyAllocator::FreeList &
BuddyAllocator::FreeList::operator=(const FreeList &other)
{
    blocks = other.blocks;
    reindex();
    return *this;
}

void
BuddyAllocator::FreeList::push(Pfn base)
{
    if (2 * (blocks.size() + 1) > slots.size())
        rehash(std::max(minSlots, 2 * slots.size()));
    const std::size_t m = slots.size() - 1;
    std::size_t i = home(base);
    for (; slots[i] != 0; i = (i + 1) & m) {
        SIPT_ASSERT(blocks[slots[i] - 1] != base,
                    "double free of block ", base);
    }
    blocks.push_back(base);
    slots[i] = static_cast<std::uint32_t>(blocks.size());
}

bool
BuddyAllocator::FreeList::erase(Pfn base)
{
    const std::size_t slot = find(base);
    if (slot == npos)
        return false;
    const std::uint32_t pos = slots[slot];
    const Pfn last = blocks.back();
    if (pos != blocks.size()) {
        // Swap the last block into the hole, as a list without an
        // index would: the list order is part of the result.
        slots[find(last)] = pos;
        blocks[pos - 1] = last;
    }
    blocks.pop_back();
    removeSlot(slot);
    return true;
}

Pfn
BuddyAllocator::FreeList::popBack()
{
    SIPT_ASSERT(!blocks.empty(), "pop from empty free list");
    const Pfn base = blocks.back();
    erase(base);
    return base;
}

Pfn
BuddyAllocator::FreeList::popAt(std::size_t idx)
{
    SIPT_ASSERT(idx < blocks.size(), "popAt out of range");
    const Pfn base = blocks[idx];
    erase(base);
    return base;
}

BuddyAllocator::BuddyAllocator(std::uint64_t total_frames,
                               unsigned max_order)
    : totalFrames_(total_frames), maxOrder_(max_order),
      freeLists_(max_order + 1)
{
    if (total_frames == 0)
        fatal("BuddyAllocator: zero frames");
    if (max_order > 20)
        fatal("BuddyAllocator: max_order ", max_order, " too large");

    // Seed the free lists with naturally aligned blocks of the
    // largest possible order, exactly as a fresh zone would look.
    Pfn base = 0;
    std::uint64_t remaining = total_frames;
    while (remaining > 0) {
        unsigned order = maxOrder_;
        while (order > 0 &&
               ((base & mask(order)) != 0 ||
                (std::uint64_t{1} << order) > remaining)) {
            --order;
        }
        freeLists_[order].push(base);
        const std::uint64_t sz = std::uint64_t{1} << order;
        base += sz;
        remaining -= sz;
        freeFrames_ += sz;
    }
}

Pfn
BuddyAllocator::splitTo(Pfn base, unsigned from, unsigned to)
{
    while (from > to) {
        --from;
        freeLists_[from].push(base + (Pfn{1} << from));
    }
    return base;
}

std::optional<Pfn>
BuddyAllocator::allocate(unsigned order)
{
    if (order > maxOrder_)
        return std::nullopt;

    unsigned o = order;
    while (o <= maxOrder_ && freeLists_[o].empty())
        ++o;
    if (o > maxOrder_)
        return std::nullopt;

    const Pfn base = splitTo(freeLists_[o].popBack(), o, order);
    freeFrames_ -= std::uint64_t{1} << order;
    return base;
}

std::optional<Pfn>
BuddyAllocator::allocateRandom(unsigned order, Rng &rng)
{
    if (order > maxOrder_)
        return std::nullopt;

    // Pick a random free block among all blocks of order >= order,
    // weighting every block equally (which is enough to destroy
    // contiguity between consecutive faults).
    std::uint64_t candidates = 0;
    for (unsigned o = order; o <= maxOrder_; ++o)
        candidates += freeLists_[o].size();
    if (candidates == 0)
        return std::nullopt;

    std::uint64_t pick = rng.below(candidates);
    unsigned o = order;
    while (pick >= freeLists_[o].size()) {
        pick -= freeLists_[o].size();
        ++o;
    }
    const Pfn block =
        freeLists_[o].popAt(static_cast<std::size_t>(pick));
    // Retain a random aligned sub-block instead of always the
    // lowest so even splits of big blocks are scattered.
    const std::uint64_t sub_count = std::uint64_t{1} << (o - order);
    const std::uint64_t sub = rng.below(sub_count);
    const Pfn keep = block + (sub << order);
    // Free everything around the kept sub-block.
    freeFrames_ -= std::uint64_t{1} << o; // temporarily all gone
    Pfn lo = block;
    while (lo < keep) {
        unsigned fo = 0;
        while (fo < maxOrder_ && (lo & mask(fo + 1)) == 0 &&
               lo + (std::uint64_t{1} << (fo + 1)) <= keep) {
            ++fo;
        }
        free(lo, fo);
        lo += std::uint64_t{1} << fo;
    }
    Pfn hi = keep + (std::uint64_t{1} << order);
    const Pfn end = block + (std::uint64_t{1} << o);
    while (hi < end) {
        unsigned fo = 0;
        while (fo < maxOrder_ && (hi & mask(fo + 1)) == 0 &&
               hi + (std::uint64_t{1} << (fo + 1)) <= end) {
            ++fo;
        }
        free(hi, fo);
        hi += std::uint64_t{1} << fo;
    }
    return keep;
}

std::optional<Pfn>
BuddyAllocator::allocateColored(unsigned order, Vpn vpn,
                                unsigned color_bits)
{
    if (color_bits == 0 ||
        order >= color_bits) {
        // Alignment already guarantees the color (or no coloring).
        return allocate(order);
    }
    if (order > maxOrder_)
        return std::nullopt;

    const std::uint64_t color = vpn & mask(color_bits);

    // Any block of order >= color_bits contains every color;
    // smaller blocks must match exactly.
    for (unsigned o = order; o <= maxOrder_; ++o) {
        for (std::size_t i = 0; i < freeLists_[o].size(); ++i) {
            const Pfn base = freeLists_[o].blocks[i];
            Pfn cand;
            if (o >= color_bits) {
                cand = base | (color & ~mask(order));
            } else {
                if ((base & mask(color_bits) & ~mask(order)) !=
                    (color & ~mask(order))) {
                    continue;
                }
                cand = base;
            }
            // Carve cand out of [base, base + 2^o).
            freeLists_[o].popAt(i);
            freeFrames_ -= std::uint64_t{1} << o;
            Pfn lo = base;
            while (lo < cand) {
                unsigned fo = 0;
                while (fo < maxOrder_ && (lo & mask(fo + 1)) == 0 &&
                       lo + (std::uint64_t{1} << (fo + 1)) <= cand) {
                    ++fo;
                }
                free(lo, fo);
                lo += std::uint64_t{1} << fo;
            }
            Pfn hi = cand + (std::uint64_t{1} << order);
            const Pfn end = base + (std::uint64_t{1} << o);
            while (hi < end) {
                unsigned fo = 0;
                while (fo < maxOrder_ && (hi & mask(fo + 1)) == 0 &&
                       hi + (std::uint64_t{1} << (fo + 1)) <= end) {
                    ++fo;
                }
                free(hi, fo);
                hi += std::uint64_t{1} << fo;
            }
            return cand;
        }
    }
    return std::nullopt;
}

void
BuddyAllocator::free(Pfn base, unsigned order)
{
    SIPT_ASSERT(order <= maxOrder_, "free order out of range");
    SIPT_ASSERT((base & mask(order)) == 0,
                "free of unaligned block");
    SIPT_ASSERT(base + (std::uint64_t{1} << order) <= totalFrames_,
                "free beyond memory end");

    freeFrames_ += std::uint64_t{1} << order;
    while (order < maxOrder_) {
        const Pfn buddy = buddyOf(base, order);
        if (buddy + (std::uint64_t{1} << order) > totalFrames_)
            break;
        if (!freeLists_[order].erase(buddy))
            break;
        base &= ~(Pfn{1} << order);
        ++order;
    }
    freeLists_[order].push(base);
}

bool
BuddyAllocator::canAllocate(unsigned order) const
{
    if (order > maxOrder_)
        return false;
    for (unsigned o = order; o <= maxOrder_; ++o) {
        if (!freeLists_[o].empty())
            return true;
    }
    return false;
}

std::uint64_t
BuddyAllocator::freeBlocks(unsigned order) const
{
    SIPT_ASSERT(order <= maxOrder_, "order out of range");
    return freeLists_[order].size();
}

int
BuddyAllocator::largestFreeOrder() const
{
    for (int o = static_cast<int>(maxOrder_); o >= 0; --o) {
        if (!freeLists_[static_cast<unsigned>(o)].empty())
            return o;
    }
    return -1;
}

double
BuddyAllocator::unusableFreeSpaceIndex(unsigned j) const
{
    if (freeFrames_ == 0)
        return 0.0;
    std::uint64_t usable = 0;
    for (unsigned i = j; i <= maxOrder_; ++i)
        usable += (std::uint64_t{1} << i) * freeLists_[i].size();
    return static_cast<double>(freeFrames_ - usable) /
           static_cast<double>(freeFrames_);
}

} // namespace sipt::os
