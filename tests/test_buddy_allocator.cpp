/**
 * @file
 * Unit and property tests for the buddy allocator: alignment,
 * splitting, coalescing, coloring, the unusable-free-space index,
 * a randomised invariant-checking stress test, and a lockstep
 * comparison against a reference allocator whose free lists use a
 * node-based hash map index.
 */

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "os/buddy_allocator.hh"

namespace sipt::os
{
namespace
{

/**
 * Reference model: the buddy algorithm with each free list indexed
 * by a std::unordered_map from base PFN to position. Block order in
 * the lists decides which frames every later allocation returns,
 * so BuddyAllocator must follow this model PFN for PFN.
 */
class ReferenceBuddy
{
  public:
    ReferenceBuddy(std::uint64_t total_frames, unsigned max_order)
        : total_(total_frames), maxOrder_(max_order),
          lists_(max_order + 1)
    {
        Pfn base = 0;
        std::uint64_t remaining = total_frames;
        while (remaining > 0) {
            unsigned order = maxOrder_;
            while (order > 0 &&
                   ((base & mask(order)) != 0 ||
                    (std::uint64_t{1} << order) > remaining)) {
                --order;
            }
            lists_[order].push(base);
            base += std::uint64_t{1} << order;
            remaining -= std::uint64_t{1} << order;
        }
    }

    std::optional<Pfn>
    allocate(unsigned order)
    {
        unsigned o = order;
        while (o <= maxOrder_ && lists_[o].blocks.empty())
            ++o;
        if (o > maxOrder_)
            return std::nullopt;
        const Pfn base = lists_[o].popAt(lists_[o].blocks.size() - 1);
        while (o > order) {
            --o;
            lists_[o].push(base + (Pfn{1} << o));
        }
        return base;
    }

    std::optional<Pfn>
    allocateRandom(unsigned order, Rng &rng)
    {
        std::uint64_t candidates = 0;
        for (unsigned o = order; o <= maxOrder_; ++o)
            candidates += lists_[o].blocks.size();
        if (candidates == 0)
            return std::nullopt;
        std::uint64_t pick = rng.below(candidates);
        unsigned o = order;
        while (pick >= lists_[o].blocks.size()) {
            pick -= lists_[o].blocks.size();
            ++o;
        }
        const Pfn block = lists_[o].popAt(pick);
        const Pfn keep =
            block + (rng.below(std::uint64_t{1} << (o - order))
                     << order);
        carve(block, o, keep, order);
        return keep;
    }

    std::optional<Pfn>
    allocateColored(unsigned order, Vpn vpn, unsigned color_bits)
    {
        if (color_bits == 0 || order >= color_bits)
            return allocate(order);
        const std::uint64_t color = vpn & mask(color_bits);
        for (unsigned o = order; o <= maxOrder_; ++o) {
            for (std::size_t i = 0; i < lists_[o].blocks.size(); ++i) {
                const Pfn base = lists_[o].blocks[i];
                Pfn cand = base;
                if (o >= color_bits) {
                    cand = base | (color & ~mask(order));
                } else if ((base & mask(color_bits) & ~mask(order)) !=
                           (color & ~mask(order))) {
                    continue;
                }
                lists_[o].popAt(i);
                carve(base, o, cand, order);
                return cand;
            }
        }
        return std::nullopt;
    }

    void
    free(Pfn base, unsigned order)
    {
        while (order < maxOrder_) {
            const Pfn buddy = base ^ (Pfn{1} << order);
            if (buddy + (std::uint64_t{1} << order) > total_ ||
                !lists_[order].erase(buddy)) {
                break;
            }
            base &= ~(Pfn{1} << order);
            ++order;
        }
        lists_[order].push(base);
    }

    std::uint64_t
    freeBlocks(unsigned order) const
    {
        return lists_[order].blocks.size();
    }

  private:
    struct List
    {
        std::vector<Pfn> blocks;
        std::unordered_map<Pfn, std::uint32_t> pos;

        void
        push(Pfn base)
        {
            ASSERT_TRUE(
                pos.emplace(base, static_cast<std::uint32_t>(
                                      blocks.size()))
                    .second);
            blocks.push_back(base);
        }

        bool
        erase(Pfn base)
        {
            const auto it = pos.find(base);
            if (it == pos.end())
                return false;
            const std::uint32_t idx = it->second;
            pos.erase(it);
            const Pfn last = blocks.back();
            blocks.pop_back();
            if (idx < blocks.size()) {
                blocks[idx] = last;
                pos[last] = idx;
            }
            return true;
        }

        Pfn
        popAt(std::size_t idx)
        {
            const Pfn base = blocks[idx];
            erase(base);
            return base;
        }
    };

    /** Free every part of block [base, base + 2^from) around the
     *  kept sub-block [keep, keep + 2^order), low side first. */
    void
    carve(Pfn base, unsigned from, Pfn keep, unsigned order)
    {
        const auto release = [&](Pfn lo, Pfn end) {
            while (lo < end) {
                unsigned fo = 0;
                while (fo < maxOrder_ && (lo & mask(fo + 1)) == 0 &&
                       lo + (std::uint64_t{1} << (fo + 1)) <= end) {
                    ++fo;
                }
                free(lo, fo);
                lo += std::uint64_t{1} << fo;
            }
        };
        release(base, keep);
        release(keep + (std::uint64_t{1} << order),
                base + (std::uint64_t{1} << from));
    }

    std::uint64_t total_;
    unsigned maxOrder_;
    std::vector<List> lists_;
};

/** A BuddyAllocator and its reference model driven in lockstep. */
class Lockstep
{
  public:
    Lockstep(std::uint64_t total_frames, unsigned max_order)
        : buddy_(total_frames, max_order),
          model_(total_frames, max_order)
    {
    }

    /** Apply @p steps seeded random operations, checking every
     *  returned PFN and every order's free-block count against
     *  the model after each one. */
    void
    run(std::uint64_t seed, int steps)
    {
        Rng ops(seed);
        const unsigned max_order = buddy_.maxOrder();
        for (int step = 0; step < steps; ++step) {
            const auto what = ops.below(8);
            if (what < 3 && !live_.empty()) {
                const std::size_t idx = ops.below(live_.size());
                const Block blk = live_[idx];
                live_[idx] = live_.back();
                live_.pop_back();
                buddy_.free(blk.base, blk.order);
                model_.free(blk.base, blk.order);
            } else {
                // Mostly small orders, as demand faults are.
                const unsigned order =
                    ops.chance(0.7)
                        ? 0
                        : static_cast<unsigned>(
                              ops.below(max_order + 1));
                std::optional<Pfn> got;
                std::optional<Pfn> want;
                if (what < 5) {
                    got = buddy_.allocate(order);
                    want = model_.allocate(order);
                } else if (what == 5) {
                    const std::uint64_t rseed = ops();
                    Rng r1(rseed);
                    Rng r2(rseed);
                    got = buddy_.allocateRandom(order, r1);
                    want = model_.allocateRandom(order, r2);
                } else {
                    const Vpn vpn = ops.below(1 << 16);
                    const auto bits =
                        static_cast<unsigned>(ops.below(5));
                    got = buddy_.allocateColored(order, vpn, bits);
                    want = model_.allocateColored(order, vpn, bits);
                }
                ASSERT_EQ(got, want) << "step " << step;
                if (got)
                    live_.push_back({*got, order});
            }
            for (unsigned o = 0; o <= max_order; ++o) {
                ASSERT_EQ(buddy_.freeBlocks(o), model_.freeBlocks(o))
                    << "step " << step << " order " << o;
            }
        }
    }

    /** Return every live block, checking the model still agrees. */
    void
    drain()
    {
        for (const Block &blk : live_) {
            buddy_.free(blk.base, blk.order);
            model_.free(blk.base, blk.order);
        }
        live_.clear();
        for (unsigned o = 0; o <= buddy_.maxOrder(); ++o)
            ASSERT_EQ(buddy_.freeBlocks(o), model_.freeBlocks(o));
        ASSERT_EQ(buddy_.freeFrames(), buddy_.totalFrames());
    }

  private:
    struct Block
    {
        Pfn base;
        unsigned order;
    };

    BuddyAllocator buddy_;
    ReferenceBuddy model_;
    std::vector<Block> live_;
};

TEST(BuddyModel, InterleavedOperationsMatchReference)
{
    // Non-power-of-two memory leaves a ragged top block whose
    // buddy lies past the end; max order 6 exhausts and coalesces
    // often.
    Lockstep small(3000, 6);
    small.run(11, 20000);
    small.drain();
    Lockstep linux_like(1 << 14, BuddyAllocator::defaultMaxOrder);
    linux_like.run(12, 20000);
    linux_like.drain();
}

TEST(BuddyModel, CopyAndOriginalDivergeIndependently)
{
    // A conditioned image is copied into every run; each copy and
    // the image must evolve on their own.
    Lockstep original(1 << 12, 8);
    original.run(21, 5000);
    Lockstep copy = original;
    original.run(22, 5000);
    copy.run(23, 5000);
    original.drain();
    copy.drain();
}

TEST(Buddy, FreshAllocatorIsFullyFree)
{
    BuddyAllocator b(4096);
    EXPECT_EQ(b.freeFrames(), 4096u);
    EXPECT_EQ(b.totalFrames(), 4096u);
    EXPECT_EQ(b.largestFreeOrder(), 10);
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(9), 0.0);
}

TEST(Buddy, AllocateReturnsAlignedBlocks)
{
    BuddyAllocator b(1 << 16);
    for (unsigned order = 0; order <= 10; ++order) {
        const auto pfn = b.allocate(order);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(*pfn & mask(order), 0u)
            << "order " << order << " misaligned";
    }
}

TEST(Buddy, SequentialSingleAllocationsAreContiguous)
{
    // The contiguity property the SIPT IDB depends on: burst
    // demand faults get consecutive frames.
    BuddyAllocator b(4096);
    const auto first = b.allocate(0);
    ASSERT_TRUE(first);
    for (std::uint64_t i = 1; i < 1024; ++i) {
        const auto pfn = b.allocate(0);
        ASSERT_TRUE(pfn);
        EXPECT_EQ(*pfn, *first + i);
    }
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator b(16, 4);
    EXPECT_TRUE(b.allocate(4).has_value());
    EXPECT_FALSE(b.allocate(0).has_value());
    EXPECT_FALSE(b.canAllocate(0));
}

TEST(Buddy, FreeCoalescesBackToFull)
{
    BuddyAllocator b(1024);
    std::vector<Pfn> pages;
    while (auto pfn = b.allocate(0))
        pages.push_back(*pfn);
    EXPECT_EQ(b.freeFrames(), 0u);
    for (Pfn pfn : pages)
        b.free(pfn, 0);
    EXPECT_EQ(b.freeFrames(), 1024u);
    EXPECT_EQ(b.largestFreeOrder(), 10);
    EXPECT_EQ(b.freeBlocks(10), 1u);
}

TEST(Buddy, PartialFreeDoesNotOvercoalesce)
{
    BuddyAllocator b(4);
    const auto a0 = b.allocate(0);
    const auto a1 = b.allocate(0);
    ASSERT_TRUE(a0 && a1);
    b.free(*a0, 0);
    // a1 still allocated: no order-1 block containing it may
    // appear; the freed page stays order 0.
    EXPECT_EQ(b.freeFrames(), 3u);
    EXPECT_EQ(b.freeBlocks(0), 1u);
    EXPECT_EQ(b.freeBlocks(1), 1u);
    EXPECT_EQ(b.freeBlocks(2), 0u);
}

TEST(Buddy, DoubleFreePanics)
{
    BuddyAllocator b(64);
    // Keep the buddy allocated so the double free cannot be
    // masked by coalescing.
    const auto a0 = b.allocate(0);
    const auto a1 = b.allocate(0);
    ASSERT_TRUE(a0 && a1);
    b.free(*a0, 0);
    EXPECT_DEATH(b.free(*a0, 0), "double free");
}

TEST(Buddy, DoubleFreePanicsInACopiedLongList)
{
    // The check must hold after the index has grown and after the
    // rebuild a copy makes: free every other frame so order 0
    // holds a long list, copy, then free one of them again.
    BuddyAllocator b(4096);
    std::vector<Pfn> pages;
    while (auto pfn = b.allocate(0))
        pages.push_back(*pfn);
    for (std::size_t i = 0; i < pages.size(); i += 2)
        b.free(pages[i], 0);
    ASSERT_EQ(b.freeBlocks(0), 2048u);
    BuddyAllocator copy = b;
    EXPECT_DEATH(copy.free(pages[1000], 0), "double free");
}

TEST(Buddy, NonPowerOfTwoTotalFrames)
{
    BuddyAllocator b(1000);
    EXPECT_EQ(b.freeFrames(), 1000u);
    std::uint64_t got = 0;
    while (b.allocate(0))
        ++got;
    EXPECT_EQ(got, 1000u);
}

TEST(Buddy, UnusableFreeSpaceIndex)
{
    BuddyAllocator b(2048);
    // Fully free: one order-10 block x2 -> Fu(9) = 0.
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(9), 0.0);

    // Allocate everything then free alternating singles: no
    // order-9 blocks remain free.
    std::vector<Pfn> pages;
    while (auto pfn = b.allocate(0))
        pages.push_back(*pfn);
    for (std::size_t i = 0; i < pages.size(); i += 2)
        b.free(pages[i], 0);
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(9), 1.0);
    EXPECT_GT(b.unusableFreeSpaceIndex(1), 0.99);
    EXPECT_DOUBLE_EQ(b.unusableFreeSpaceIndex(0), 0.0);
}

TEST(Buddy, ColoredAllocationMatchesColor)
{
    BuddyAllocator b(1 << 15);
    for (Vpn vpn = 0; vpn < 64; ++vpn) {
        const auto pfn = b.allocateColored(0, vpn, 3);
        ASSERT_TRUE(pfn);
        EXPECT_EQ(*pfn & mask(3), vpn & mask(3))
            << "vpn " << vpn;
    }
}

TEST(Buddy, ColoredAllocationRespectsAlignment)
{
    BuddyAllocator b(1 << 15);
    const auto pfn = b.allocateColored(2, 4, 3);
    ASSERT_TRUE(pfn);
    EXPECT_EQ(*pfn & mask(2), 0u);
    EXPECT_EQ(*pfn & mask(3), 4u);
}

TEST(Buddy, RandomAllocationStaysValid)
{
    BuddyAllocator b(1 << 14);
    Rng rng(5);
    std::set<Pfn> live;
    for (int i = 0; i < 2000; ++i) {
        const auto pfn = b.allocateRandom(0, rng);
        ASSERT_TRUE(pfn);
        EXPECT_LT(*pfn, b.totalFrames());
        EXPECT_TRUE(live.insert(*pfn).second)
            << "duplicate frame " << *pfn;
    }
    for (Pfn pfn : live)
        b.free(pfn, 0);
    EXPECT_EQ(b.freeFrames(), b.totalFrames());
}

TEST(Buddy, RandomAllocationScatters)
{
    BuddyAllocator b(1 << 16);
    Rng rng(6);
    // Consecutive random allocations should rarely be adjacent.
    auto prev = b.allocateRandom(0, rng);
    ASSERT_TRUE(prev);
    int adjacent = 0;
    for (int i = 0; i < 500; ++i) {
        const auto pfn = b.allocateRandom(0, rng);
        ASSERT_TRUE(pfn);
        adjacent += (*pfn == *prev + 1);
        prev = pfn;
    }
    EXPECT_LT(adjacent, 25);
}

/** Randomised stress: allocate/free a churn and check accounting
 *  invariants hold throughout, parameterised by max order. */
class BuddyStress : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BuddyStress, AccountingInvariants)
{
    const unsigned max_order = GetParam();
    BuddyAllocator b(1 << 13, max_order);
    Rng rng(max_order * 7 + 1);
    struct Block
    {
        Pfn base;
        unsigned order;
    };
    std::vector<Block> live;
    std::uint64_t live_frames = 0;

    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            unsigned order = static_cast<unsigned>(
                rng.below(max_order + 1));
            if (auto base = b.allocate(order)) {
                EXPECT_EQ(*base & mask(order), 0u);
                live.push_back({*base, order});
                live_frames += std::uint64_t{1} << order;
            }
        } else {
            const std::size_t idx = rng.below(live.size());
            const Block blk = live[idx];
            live[idx] = live.back();
            live.pop_back();
            b.free(blk.base, blk.order);
            live_frames -= std::uint64_t{1} << blk.order;
        }
        ASSERT_EQ(b.freeFrames() + live_frames, b.totalFrames());
    }
    for (const auto &blk : live)
        b.free(blk.base, blk.order);
    EXPECT_EQ(b.freeFrames(), b.totalFrames());
    EXPECT_EQ(b.largestFreeOrder(),
              static_cast<int>(max_order));
}

INSTANTIATE_TEST_SUITE_P(Orders, BuddyStress,
                         ::testing::Values(0u, 1u, 4u, 10u));

} // namespace
} // namespace sipt::os
