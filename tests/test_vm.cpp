/**
 * @file
 * Tests for the page table, TLB, and MMU.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace sipt::vm
{
namespace
{

TEST(PageTable, MapAndTranslate)
{
    PageTable pt;
    pt.mapPage(0x1000, 42);
    const auto xlat = pt.translate(0x1abc);
    ASSERT_TRUE(xlat);
    EXPECT_EQ(xlat->paddr, (42ull << pageShift) | 0xabc);
    EXPECT_FALSE(xlat->hugePage);
    EXPECT_FALSE(pt.translate(0x2000).has_value());
}

TEST(PageTable, HugeMapCoversChunk)
{
    PageTable pt;
    pt.mapHugePage(hugePageSize, 512);
    for (Addr off : {Addr{0}, Addr{pageSize},
                     Addr{hugePageSize - 1}}) {
        const auto xlat = pt.translate(hugePageSize + off);
        ASSERT_TRUE(xlat);
        EXPECT_TRUE(xlat->hugePage);
        EXPECT_EQ(xlat->paddr, (512ull << pageShift) + off);
    }
    EXPECT_FALSE(pt.translate(2 * hugePageSize).has_value());
}

TEST(PageTable, HugeMapRequiresAlignedFrame)
{
    PageTable pt;
    EXPECT_DEATH(pt.mapHugePage(0, 5), "aligned");
}

TEST(PageTable, SmallBlocksHugeAndViceVersa)
{
    PageTable pt;
    pt.mapPage(0, 1);
    EXPECT_TRUE(pt.chunkHasSmallMappings(100));
    EXPECT_DEATH(pt.mapHugePage(100, 512), "over 4K");

    PageTable pt2;
    pt2.mapHugePage(0, 0);
    EXPECT_DEATH(pt2.mapPage(0x3000, 7), "inside huge");
}

TEST(PageTable, UnmapPage)
{
    PageTable pt;
    pt.mapPage(0x5000, 9);
    EXPECT_TRUE(pt.isMapped(0x5000));
    pt.unmapPage(0x5000);
    EXPECT_FALSE(pt.isMapped(0x5000));
    EXPECT_FALSE(pt.chunkHasSmallMappings(0x5000));
    // Unmapping again is harmless.
    pt.unmapPage(0x5000);
}

TEST(PageTable, UnmapHugePage)
{
    PageTable pt;
    pt.mapHugePage(0, 512);
    pt.unmapHugePage(pageSize);
    EXPECT_FALSE(pt.isMapped(0));
    EXPECT_EQ(pt.hugePageCount(), 0u);
}

TEST(PageTable, CountsAndClear)
{
    PageTable pt;
    pt.mapPage(0x1000, 1);
    pt.mapPage(0x2000, 2);
    pt.mapHugePage(1ull << 30, 1024);
    EXPECT_EQ(pt.smallPageCount(), 2u);
    EXPECT_EQ(pt.hugePageCount(), 1u);
    pt.clear();
    EXPECT_EQ(pt.smallPageCount(), 0u);
    EXPECT_FALSE(pt.isMapped(0x1000));
}

TEST(PageTable, RemapOfSmallPageDies)
{
    PageTable pt;
    pt.mapPage(0x7000, 3);
    EXPECT_DEATH(pt.mapPage(0x7abc, 4), "re-map");
}

TEST(PageTable, HugeMapAfterLastSmallUnmap)
{
    PageTable pt;
    pt.mapPage(hugePageSize + 0x1000, 10);
    pt.mapPage(hugePageSize + 0x5000, 11);
    pt.unmapPage(hugePageSize + 0x1000);
    EXPECT_TRUE(pt.chunkHasSmallMappings(hugePageSize));
    pt.unmapPage(hugePageSize + 0x5000);
    EXPECT_FALSE(pt.chunkHasSmallMappings(hugePageSize));

    pt.mapHugePage(hugePageSize, 1024);
    const auto xlat = pt.translate(hugePageSize + 0x5123);
    ASSERT_TRUE(xlat);
    EXPECT_TRUE(xlat->hugePage);
    EXPECT_EQ(xlat->paddr, (1024ull << pageShift) + 0x5123);
    EXPECT_EQ(pt.smallPageCount(), 0u);
    EXPECT_EQ(pt.hugePageCount(), 1u);
}

TEST(PageTable, UnmapHugeOfUnmappedChunkKeepsCounts)
{
    PageTable pt;
    pt.mapPage(0x3000, 1);
    pt.mapHugePage(4 * hugePageSize, 2048);
    // A chunk with no mapping at all, and one with 4 KiB mappings.
    pt.unmapHugePage(8 * hugePageSize);
    pt.unmapHugePage(0x3000);
    EXPECT_EQ(pt.smallPageCount(), 1u);
    EXPECT_EQ(pt.hugePageCount(), 1u);
    EXPECT_TRUE(pt.isMapped(0x3000));
    EXPECT_TRUE(pt.isHugeMapped(4 * hugePageSize));
}

TEST(PageTable, ForEachVisitsExactlyTheMappedSet)
{
    PageTable pt;
    std::set<std::pair<Vpn, Pfn>> small;
    for (Vpn vpn : {Vpn{1}, Vpn{2}, Vpn{511}, Vpn{512}, Vpn{4000}}) {
        pt.mapPage(pageBase(vpn), vpn + 100);
        small.emplace(vpn, vpn + 100);
    }
    pt.unmapPage(pageBase(2));
    small.erase({2, 102});
    pt.mapHugePage(3 * hugePageSize, 512);
    pt.mapHugePage(9 * hugePageSize, 0);
    pt.mapHugePage(10 * hugePageSize, 1536);
    pt.unmapHugePage(10 * hugePageSize);

    std::set<std::pair<Vpn, Pfn>> seen_small;
    pt.forEachSmall([&](Vpn vpn, Pfn pfn) {
        EXPECT_TRUE(seen_small.emplace(vpn, pfn).second);
    });
    std::set<std::pair<Vpn, Pfn>> seen_huge;
    pt.forEachHuge([&](Vpn chunk, Pfn pfn) {
        EXPECT_TRUE(seen_huge.emplace(chunk, pfn).second);
    });
    EXPECT_EQ(seen_small, small);
    EXPECT_EQ(seen_huge,
              (std::set<std::pair<Vpn, Pfn>>{{3, 512}, {9, 0}}));
}

TEST(PageTable, RandomInterleavingMatchesMapModel)
{
    // Eight 2 MiB chunks with 4 KiB maps confined to each chunk's
    // first four pages, so chunks often empty out, take a huge
    // mapping, and refill with small pages afterwards.
    constexpr Vpn chunks = 8;
    constexpr Vpn window = 4;
    PageTable pt;
    std::map<Vpn, Pfn> small;
    std::map<Vpn, Pfn> huge;
    auto chunk_has_small = [&](Vpn chunk) {
        const auto it = small.lower_bound(
            pageNumber(blockBase(chunk, hugePageShift)));
        return it != small.end() &&
               hugePageNumber(pageBase(it->first)) == chunk;
    };
    auto expect_matches = [&](Addr va) {
        const Vpn chunk = hugePageNumber(va);
        const auto xlat = pt.translate(va);
        if (const auto h = huge.find(chunk); h != huge.end()) {
            ASSERT_TRUE(xlat);
            EXPECT_TRUE(xlat->hugePage);
            EXPECT_EQ(xlat->paddr, pageBase(h->second) |
                                       (va & mask(hugePageShift)));
        } else if (const auto s = small.find(pageNumber(va));
                   s != small.end()) {
            ASSERT_TRUE(xlat);
            EXPECT_FALSE(xlat->hugePage);
            EXPECT_EQ(xlat->paddr,
                      pageBase(s->second) | pageOffset(va));
        } else {
            EXPECT_FALSE(xlat.has_value());
        }
        EXPECT_EQ(pt.isMapped(va), xlat.has_value());
        EXPECT_EQ(pt.isHugeMapped(va), huge.contains(chunk));
        EXPECT_EQ(pt.chunkHasSmallMappings(va),
                  chunk_has_small(chunk));
    };

    Rng rng(20180224);
    std::uint64_t huge_maps = 0;
    for (int step = 0; step < 10'000; ++step) {
        const Vpn chunk = rng.below(chunks);
        const Addr va = blockBase(chunk, hugePageShift) +
                        pageBase(rng.below(window)) +
                        rng.below(pageSize);
        const Vpn vpn = pageNumber(va);
        switch (rng.below(6)) {
          case 0:
            if (!small.contains(vpn) && !huge.contains(chunk)) {
                const Pfn pfn = rng.below(Pfn{1} << 20);
                pt.mapPage(va, pfn);
                small.emplace(vpn, pfn);
            }
            break;
          case 1:
            if (!huge.contains(chunk) && !chunk_has_small(chunk)) {
                const Pfn base =
                    rng.below(Pfn{1} << 11) * pagesPerHugePage;
                pt.mapHugePage(va, base);
                huge.emplace(chunk, base);
                ++huge_maps;
            }
            break;
          case 2:
          case 3:
            pt.unmapPage(va);
            small.erase(vpn);
            break;
          case 4:
            pt.unmapHugePage(va);
            huge.erase(chunk);
            break;
          default:
            break;
        }
        expect_matches(va);
        expect_matches(rng.below(blockBase(chunks, hugePageShift)));
        ASSERT_EQ(pt.smallPageCount(), small.size());
        ASSERT_EQ(pt.hugePageCount(), huge.size());
    }
    EXPECT_GT(huge_maps, 100u);

    std::map<Vpn, Pfn> seen_small;
    pt.forEachSmall([&](Vpn v, Pfn p) { seen_small.emplace(v, p); });
    std::map<Vpn, Pfn> seen_huge;
    pt.forEachHuge([&](Vpn c, Pfn p) { seen_huge.emplace(c, p); });
    EXPECT_EQ(seen_small, small);
    EXPECT_EQ(seen_huge, huge);
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(TlbParams{64, 4});
    EXPECT_FALSE(tlb.lookup(5));
    tlb.insert(5);
    EXPECT_TRUE(tlb.lookup(5));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(Tlb, SizeClassesAreDistinct)
{
    Tlb tlb(TlbParams{64, 4});
    tlb.insert(7, false);
    EXPECT_FALSE(tlb.lookup(7, true));
    EXPECT_TRUE(tlb.lookup(7, false));
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(TlbParams{8, 2}); // 4 sets, 2 ways
    // These VPNs all map to set 0.
    tlb.insert(0);
    tlb.insert(4);
    tlb.lookup(0);     // make 4 the LRU
    tlb.insert(8);     // evicts 4
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_TRUE(tlb.lookup(8));
    EXPECT_FALSE(tlb.lookup(4));
}

TEST(Tlb, FlushInvalidatesEverything)
{
    Tlb tlb(TlbParams{64, 4});
    for (Vpn v = 0; v < 32; ++v)
        tlb.insert(v);
    tlb.flush();
    for (Vpn v = 0; v < 32; ++v)
        EXPECT_FALSE(tlb.lookup(v));
}

TEST(Tlb, CapacityIsRespected)
{
    Tlb tlb(TlbParams{64, 4});
    for (Vpn v = 0; v < 64; ++v)
        tlb.insert(v);
    int present = 0;
    for (Vpn v = 0; v < 64; ++v)
        present += tlb.lookup(v);
    EXPECT_EQ(present, 64); // exactly fits
    for (Vpn v = 64; v < 128; ++v)
        tlb.insert(v);
    int old_present = 0;
    for (Vpn v = 0; v < 64; ++v)
        old_present += tlb.lookup(v);
    EXPECT_EQ(old_present, 0); // fully displaced
}

TEST(Mmu, LatenciesFollowHierarchy)
{
    PageTable pt;
    pt.mapPage(0x1000, 99);
    Mmu mmu;
    // First access: L1 and L2 miss -> walk.
    const auto r1 = mmu.translate(0x1000, pt);
    EXPECT_EQ(r1.latency, mmu.params().l2Latency +
                              mmu.params().walkLatency);
    EXPECT_FALSE(r1.l1Hit);
    EXPECT_EQ(mmu.walks(), 1u);
    // Second access: L1 hit.
    const auto r2 = mmu.translate(0x1000, pt);
    EXPECT_EQ(r2.latency, mmu.params().l1Latency);
    EXPECT_TRUE(r2.l1Hit);
    EXPECT_EQ(r2.paddr, (99ull << pageShift));
}

TEST(Mmu, L2CatchesL1Evictions)
{
    PageTable pt;
    Mmu mmu;
    // Fill far more than L1 (64 entries) but less than L2.
    for (Vpn v = 0; v < 512; ++v) {
        pt.mapPage(v << pageShift, v + 1);
        mmu.translate(v << pageShift, pt);
    }
    // Re-walk the early pages: L1 misses, L2 hits, no new walk.
    const auto walks_before = mmu.walks();
    const auto r = mmu.translate(0, pt);
    EXPECT_EQ(r.latency, mmu.params().l2Latency);
    EXPECT_EQ(mmu.walks(), walks_before);
}

TEST(Mmu, HugePagesUseHugeTlb)
{
    PageTable pt;
    pt.mapHugePage(0, 512);
    Mmu mmu;
    mmu.translate(123, pt);
    const auto r = mmu.translate(hugePageSize - 1, pt);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_TRUE(r.hugePage);
    EXPECT_EQ(mmu.l1Huge().hits(), 1u);
    EXPECT_EQ(mmu.l1Small().hits() + mmu.l1Small().misses(), 0u);
}

TEST(Mmu, FlushAllForcesRewalk)
{
    PageTable pt;
    pt.mapPage(0, 1);
    Mmu mmu;
    mmu.translate(0, pt);
    mmu.flushAll();
    const auto r = mmu.translate(0, pt);
    EXPECT_EQ(r.latency, mmu.params().l2Latency +
                             mmu.params().walkLatency);
}

TEST(Mmu, UnmappedPanics)
{
    PageTable pt;
    Mmu mmu;
    EXPECT_DEATH(mmu.translate(0x1234, pt), "unmapped");
}

} // namespace
} // namespace sipt::vm
