#include "os/address_space.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::os
{

namespace
{
/** Buddy order of a 2 MiB huge page (512 x 4 KiB frames). */
constexpr unsigned hugeOrder = hugePageShift - pageShift;
} // namespace

AddressSpace::AddressSpace(BuddyAllocator &allocator,
                           PagingPolicy policy, std::uint64_t seed,
                           Addr va_base)
    : allocator_(&allocator), policy_(policy), rng_(seed),
      nextVa_(va_base)
{
    if (policy_.coloringBits > hugeOrder)
        fatal("coloringBits > ", hugeOrder, " unsupported");
}

AddressSpace::~AddressSpace()
{
    for (const auto &a : allocations_)
        allocator_->free(a.base, a.order);
}

BuddyAllocator &
AddressSpace::allocator()
{
    SIPT_ASSERT(allocator_ != nullptr,
                "address space detached from its allocator");
    return *allocator_;
}

void
AddressSpace::forgetFrames()
{
    allocator_ = nullptr;
    allocations_ = {};
}

Addr
AddressSpace::mmap(std::uint64_t length, unsigned align_log2,
                   std::uint64_t skew_pages)
{
    if (length == 0)
        fatal("mmap of zero length");
    if (align_log2 < pageShift)
        fatal("mmap alignment below page size");

    length = alignUp(length, pageSize);
    const Addr base =
        alignUp(nextVa_, Addr{1} << align_log2) +
        skew_pages * pageSize;
    // Leave an unmapped guard page between regions so that adjacent
    // regions never share a huge-page chunk by accident.
    nextVa_ = base + length + pageSize;
    regions_.push_back({base, length});
    return base;
}

Addr
AddressSpace::mmapAlias(Addr existing_va, std::uint64_t length,
                        unsigned align_log2,
                        std::uint64_t skew_pages)
{
    if (length == 0)
        fatal("mmapAlias of zero length");
    length = alignUp(length, pageSize);
    const Addr base = mmap(length, align_log2, skew_pages);
    // Map each alias page onto the existing page's frame. The
    // source pages must be 4 KiB mappings (sharing part of a
    // huge page is not modelled).
    for (Addr off = 0; off < length; off += pageSize) {
        const Addr src = existing_va + off;
        const auto xlat = pageTable_.translate(src);
        if (!xlat)
            fatal("mmapAlias: source va ", src, " not mapped");
        if (xlat->hugePage)
            fatal("mmapAlias: source va ", src,
                  " is huge-page mapped");
        pageTable_.mapPage(base + off, pageNumber(xlat->paddr));
        // No allocation record: the frames belong to the original
        // mapping and are freed through it.
    }
    return base;
}

Addr
AddressSpace::mmapShared(const SharedSegment &segment,
                         unsigned align_log2,
                         std::uint64_t skew_pages)
{
    if (segment.hugePages()) {
        if (align_log2 < hugePageShift)
            fatal("mmapShared: huge segment needs >= 2MiB "
                  "alignment");
        if (skew_pages % pagesPerHugePage != 0)
            fatal("mmapShared: huge segment skew must be whole "
                  "2MiB chunks, got ", skew_pages, " pages");
    }
    const Addr base = mmap(segment.length(), align_log2,
                           skew_pages);
    if (segment.hugePages()) {
        const std::uint64_t chunks =
            segment.length() / hugePageSize;
        for (std::uint64_t c = 0; c < chunks; ++c) {
            pageTable_.mapHugePage(base + c * hugePageSize,
                                   segment.chunkPfn(c));
        }
    } else {
        const std::uint64_t pages = segment.pages();
        for (std::uint64_t p = 0; p < pages; ++p) {
            pageTable_.mapPage(base + p * pageSize,
                               segment.pagePfn(p));
        }
    }
    // No allocation record: the frames belong to the segment and
    // outlive any one attachment.
    return base;
}

Addr
AddressSpace::mmapCow(Addr existing_va, std::uint64_t length,
                      unsigned align_log2,
                      std::uint64_t skew_pages)
{
    if (length == 0)
        fatal("mmapCow of zero length");
    length = alignUp(length, pageSize);
    const Addr base = mmap(length, align_log2, skew_pages);
    for (Addr off = 0; off < length; off += pageSize) {
        const Addr src = existing_va + off;
        const auto xlat = pageTable_.translate(src);
        if (!xlat)
            fatal("mmapCow: source va ", src, " not mapped");
        if (xlat->hugePage)
            fatal("mmapCow: source va ", src,
                  " is huge-page mapped");
        pageTable_.mapPage(base + off, pageNumber(xlat->paddr));
        cowShares_.emplace(pageNumber(base + off),
                           CowShare{src});
    }
    return base;
}

bool
AddressSpace::storeTouch(Addr vaddr)
{
    touch(vaddr);
    const auto it = cowShares_.find(pageNumber(vaddr));
    if (it == cowShares_.end())
        return false;
    // First store through a shared clone page: give it a private
    // frame (the fork child's copy) and stop tracking the share.
    const Addr page_va = alignDown(vaddr, pageSize);
    pageTable_.unmapPage(page_va);
    mapSmall(page_va);
    cowShares_.erase(it);
    ++cowBreaks_;
    return true;
}

void
AddressSpace::unmapPage(Addr vaddr)
{
    if (pageTable_.isHugeMapped(vaddr))
        fatal("unmapPage: va ", vaddr, " is huge-page mapped");
    pageTable_.unmapPage(vaddr);
    cowShares_.erase(pageNumber(vaddr));
}

std::uint64_t
AddressSpace::cowSharedPages() const
{
    return cowShares_.size();
}

std::vector<std::pair<Addr, std::uint64_t>>
AddressSpace::regionSpans() const
{
    std::vector<std::pair<Addr, std::uint64_t>> spans;
    spans.reserve(regions_.size());
    for (const auto &r : regions_)
        spans.emplace_back(r.base, r.length);
    return spans;
}

void
AddressSpace::adoptRegion(Addr base, std::uint64_t length)
{
    if (length == 0)
        fatal("adoptRegion of zero length");
    if (pageOffset(base) != 0 || length % pageSize != 0)
        fatal("adoptRegion: span not page-aligned");
    regions_.push_back({base, length});
    // Keep the guard-page invariant for any later mmap().
    nextVa_ = std::max(nextVa_, base + length + pageSize);
}

void
AddressSpace::installMapping(Addr vaddr, Pfn pfn, bool huge)
{
    if (huge) {
        if (alignDown(vaddr, hugePageSize) != vaddr)
            fatal("installMapping: unaligned huge va ", vaddr);
        pageTable_.mapHugePage(vaddr, pfn);
        ++hugeFaults_;
    } else {
        pageTable_.mapPage(vaddr, pfn);
        ++smallFaults_;
    }
    // No allocation record: replayed frames belong to the
    // recording run's allocator, not this address space.
}

const AddressSpace::Region *
AddressSpace::findRegion(Addr vaddr) const
{
    for (const auto &r : regions_) {
        if (vaddr >= r.base && vaddr < r.base + r.length)
            return &r;
    }
    return nullptr;
}

bool
AddressSpace::touch(Addr vaddr)
{
    if (pageTable_.isMapped(vaddr))
        return false;
    fault(vaddr);
    return true;
}

vm::Translation
AddressSpace::translateTouch(Addr vaddr)
{
    touch(vaddr);
    const auto xlat = pageTable_.translate(vaddr);
    SIPT_ASSERT(xlat.has_value(), "fault did not map page");
    return *xlat;
}

void
AddressSpace::fault(Addr vaddr)
{
    const Region *region = findRegion(vaddr);
    if (region == nullptr)
        fatal("segfault: access to unmapped va ", vaddr);

    // THP: promote when the full 2 MiB chunk lies inside the region,
    // no 4 KiB page of the chunk is already mapped, and a 2 MiB
    // physical block is available.
    if (policy_.thpEnabled && !policy_.randomPlacement) {
        const Addr chunk_base = alignDown(vaddr, hugePageSize);
        const bool inside =
            chunk_base >= region->base &&
            chunk_base + hugePageSize <=
                region->base + region->length;
        if (inside && !pageTable_.chunkHasSmallMappings(vaddr) &&
            (policy_.thpChance >= 1.0 ||
             rng_.chance(policy_.thpChance))) {
            if (auto pfn = allocator().allocate(hugeOrder)) {
                pageTable_.mapHugePage(vaddr, *pfn);
                allocations_.push_back({*pfn, hugeOrder});
                ++hugeFaults_;
                return;
            }
        }
    }
    mapSmall(vaddr);
}

void
AddressSpace::mapSmall(Addr vaddr)
{
    BuddyAllocator &buddy = allocator();
    std::optional<Pfn> pfn;
    if (policy_.randomPlacement) {
        pfn = buddy.allocateRandom(0, rng_);
    } else if (policy_.coloringBits > 0) {
        pfn = buddy.allocateColored(0, pageNumber(vaddr),
                                    policy_.coloringBits);
        if (!pfn)
            pfn = buddy.allocate(0);
    } else {
        pfn = buddy.allocate(0);
    }
    if (!pfn)
        fatal("out of physical memory");
    pageTable_.mapPage(vaddr, *pfn);
    allocations_.push_back({*pfn, 0});
    ++smallFaults_;
}

double
AddressSpace::hugeCoverage() const
{
    const double huge_bytes =
        static_cast<double>(pageTable_.hugePageCount()) *
        static_cast<double>(hugePageSize);
    const double small_bytes =
        static_cast<double>(pageTable_.smallPageCount()) *
        static_cast<double>(pageSize);
    const double total = huge_bytes + small_bytes;
    return total > 0.0 ? huge_bytes / total : 0.0;
}

} // namespace sipt::os
