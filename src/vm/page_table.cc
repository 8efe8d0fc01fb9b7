#include "vm/page_table.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::vm
{

namespace
{

/** Slot of @p vaddr's 4 KiB page within its 2 MiB chunk. */
constexpr std::size_t
slotOf(Addr vaddr)
{
    return static_cast<std::size_t>(
        pageNumber(vaddr) & mask(hugePageShift - pageShift));
}

/** First 4 KiB VPN of 2 MiB chunk number @p chunk. */
constexpr Vpn
firstVpnOf(Vpn chunk)
{
    return pageNumber(blockBase(chunk, hugePageShift));
}

} // namespace

const PageTable::Chunk *
PageTable::findChunk(Addr vaddr) const
{
    const auto it = chunks_.find(hugePageNumber(vaddr));
    return it == chunks_.end() ? nullptr : &it->second;
}

void
PageTable::mapPage(Addr vaddr, Pfn pfn)
{
    Chunk &chunk = chunks_[hugePageNumber(vaddr)];
    SIPT_ASSERT(chunk.huge == noFrame,
                "4K map inside huge mapping, va=", vaddr);
    if (chunk.small.empty())
        chunk.small.assign(pagesPerHugePage, noFrame);
    Pfn &slot = chunk.small[slotOf(vaddr)];
    SIPT_ASSERT(slot == noFrame, "re-map of mapped page, va=", vaddr);
    slot = pfn;
    ++chunk.smallCount;
    ++smallPages_;
}

void
PageTable::mapHugePage(Addr vaddr, Pfn base_pfn)
{
    SIPT_ASSERT((base_pfn & mask(hugePageShift - pageShift)) == 0,
                "huge frame not aligned, pfn=", base_pfn);
    SIPT_ASSERT(!chunkHasSmallMappings(vaddr),
                "huge map over 4K mappings, va=", vaddr);
    Chunk &chunk = chunks_[hugePageNumber(vaddr)];
    SIPT_ASSERT(chunk.huge == noFrame,
                "re-map of huge page, va=", vaddr);
    chunk.huge = base_pfn;
    ++hugePages_;
}

void
PageTable::unmapPage(Addr vaddr)
{
    const auto it = chunks_.find(hugePageNumber(vaddr));
    if (it == chunks_.end() || it->second.small.empty())
        return;
    Pfn &slot = it->second.small[slotOf(vaddr)];
    if (slot == noFrame)
        return;
    slot = noFrame;
    --smallPages_;
    if (--it->second.smallCount == 0)
        chunks_.erase(it);
}

void
PageTable::unmapHugePage(Addr vaddr)
{
    const auto it = chunks_.find(hugePageNumber(vaddr));
    if (it == chunks_.end() || it->second.huge == noFrame)
        return;
    chunks_.erase(it);
    --hugePages_;
}

std::optional<Translation>
PageTable::translate(Addr vaddr) const
{
    const Chunk *chunk = findChunk(vaddr);
    if (chunk == nullptr)
        return std::nullopt;
    if (chunk->huge != noFrame) {
        return Translation{
            pageBase(chunk->huge) | (vaddr & mask(hugePageShift)),
            true};
    }
    const Pfn pfn = chunk->small[slotOf(vaddr)];
    if (pfn == noFrame)
        return std::nullopt;
    return Translation{pageBase(pfn) | pageOffset(vaddr), false};
}

bool
PageTable::isMapped(Addr vaddr) const
{
    const Chunk *chunk = findChunk(vaddr);
    return chunk != nullptr &&
           (chunk->huge != noFrame ||
            chunk->small[slotOf(vaddr)] != noFrame);
}

bool
PageTable::isHugeMapped(Addr vaddr) const
{
    const Chunk *chunk = findChunk(vaddr);
    return chunk != nullptr && chunk->huge != noFrame;
}

bool
PageTable::chunkHasSmallMappings(Addr vaddr) const
{
    const Chunk *chunk = findChunk(vaddr);
    return chunk != nullptr && chunk->smallCount > 0;
}

void
PageTable::forEachSmall(
    const std::function<void(Vpn, Pfn)> &visit) const
{
    for (const auto &[number, chunk] : chunks_) {
        if (chunk.smallCount == 0)
            continue;
        const Vpn first = firstVpnOf(number);
        for (std::size_t s = 0; s < chunk.small.size(); ++s) {
            if (chunk.small[s] != noFrame)
                visit(first + s, chunk.small[s]);
        }
    }
}

void
PageTable::forEachHuge(
    const std::function<void(Vpn, Pfn)> &visit) const
{
    for (const auto &[number, chunk] : chunks_) {
        if (chunk.huge != noFrame)
            visit(number, chunk.huge);
    }
}

void
PageTable::clear()
{
    chunks_.clear();
    smallPages_ = 0;
    hugePages_ = 0;
}

} // namespace sipt::vm
