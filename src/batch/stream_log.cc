#include "batch/stream_log.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/prefetch.hh"

namespace sipt::batch
{

namespace
{

/** Upper bound on flat-map array slots (8 B each): covers a 64 GiB
 *  contiguous VA span of 4 KiB pages before falling back to direct
 *  page-table lookups. */
constexpr std::uint64_t maxFlatSlots = 1ull << 24;

/**
 * Host-prefetch lookahead of the translate stage, in references:
 * the batch already holds the whole reference window, so the stage
 * can start loading the page-map slots that references a few
 * iterations ahead will read.
 */
constexpr std::size_t xlatPrefetchDist = 8;

} // namespace

FlatPageMap::FlatPageMap(const vm::PageTable &table)
{
    Vpn small_lo = ~Vpn{0};
    Vpn small_hi = 0;
    Vpn huge_lo = ~Vpn{0};
    Vpn huge_hi = 0;
    std::uint64_t smalls = 0;
    std::uint64_t huges = 0;
    table.forEachSmall([&](Vpn vpn, Pfn) {
        small_lo = std::min(small_lo, vpn);
        small_hi = std::max(small_hi, vpn);
        ++smalls;
    });
    table.forEachHuge([&](Vpn chunk, Pfn) {
        huge_lo = std::min(huge_lo, chunk);
        huge_hi = std::max(huge_hi, chunk);
        ++huges;
    });

    const std::uint64_t small_span =
        smalls ? small_hi - small_lo + 1 : 0;
    const std::uint64_t huge_span =
        huges ? huge_hi - huge_lo + 1 : 0;
    if (small_span + huge_span > maxFlatSlots)
        return; // pathologically sparse VA layout: stay unflattened

    smallBase_ = smalls ? small_lo : 0;
    smallFrame_.assign(static_cast<std::size_t>(small_span),
                       unmapped);
    hugeBase_ = huges ? huge_lo : 0;
    hugeFrame_.assign(static_cast<std::size_t>(huge_span),
                      unmapped);
    table.forEachSmall([&](Vpn vpn, Pfn pfn) {
        smallFrame_[vpn - smallBase_] = pageBase(pfn);
    });
    table.forEachHuge([&](Vpn chunk, Pfn base_pfn) {
        hugeFrame_[chunk - hugeBase_] = pageBase(base_pfn);
    });
    valid_ = true;
}

vm::Translation
FlatPageMap::translate(Addr vaddr) const
{
    // Huge mappings first, mirroring PageTable::translate().
    const Vpn chunk = hugePageNumber(vaddr);
    if (chunk - hugeBase_ < hugeFrame_.size()) {
        const Addr base = hugeFrame_[chunk - hugeBase_];
        if (base != unmapped) {
            return vm::Translation{
                base | (vaddr & mask(hugePageShift)), true};
        }
    }
    const Vpn vpn = pageNumber(vaddr);
    if (vpn - smallBase_ < smallFrame_.size()) {
        const Addr base = smallFrame_[vpn - smallBase_];
        if (base != unmapped)
            return vm::Translation{base | pageOffset(vaddr), false};
    }
    panic("MMU translate of unmapped va ", vaddr);
}

void
FlatPageMap::prefetch(Addr vaddr) const
{
    const Vpn chunk = hugePageNumber(vaddr);
    if (chunk - hugeBase_ < hugeFrame_.size())
        prefetchRead(&hugeFrame_[chunk - hugeBase_]);
    const Vpn vpn = pageNumber(vaddr);
    if (vpn - smallBase_ < smallFrame_.size())
        prefetchRead(&smallFrame_[vpn - smallBase_]);
}

StreamProducer::StreamProducer(
    std::unique_ptr<cpu::TraceSource> source,
    const vm::MmuParams &mmu, const vm::PageTable &page_table,
    std::shared_ptr<const FlatPageMap> flat,
    std::atomic<std::uint64_t> *produced)
    : ownedSource_(std::move(source)),
      ownedMmu_(std::make_unique<vm::Mmu>(mmu)),
      source_(*ownedSource_), mmu_(*ownedMmu_),
      pageTable_(page_table), flat_(std::move(flat)),
      produced_(produced)
{
    SIPT_ASSERT(flat_ != nullptr, "batched engine needs a page map");
    SIPT_ASSERT(mmu.walkLatency > 0,
                "a page walk must cost more than an L2 TLB hit");
}

StreamProducer::StreamProducer(cpu::TraceSource &source,
                               vm::Mmu &mmu,
                               const vm::PageTable &page_table)
    : source_(source), mmu_(mmu), pageTable_(page_table),
      flat_(std::make_shared<const FlatPageMap>(page_table)),
      produced_(nullptr)
{
    SIPT_ASSERT(!mmu.hasWalker(),
                "batched engine cannot time radix page walks");
}

std::size_t
StreamProducer::produce(cpu::RefBatch &batch, std::size_t max_refs)
{
    const std::size_t got = source_.nextBatch(batch, max_refs);
    translate(batch);
    if (produced_ != nullptr)
        produced_->fetch_add(got, std::memory_order_relaxed);
    return got;
}

void
StreamProducer::translate(cpu::RefBatch &batch)
{
    // The flat snapshot supplies the pure VA->PA function without
    // the page table's hash probes; the TLB hierarchy still sees
    // every reference, in order, through translateEntry().
    const FlatPageMap &map = *flat_;
    const bool flat = map.valid();
    for (std::size_t i = 0; i < batch.size; ++i) {
        if (flat && i + xlatPrefetchDist < batch.size)
            map.prefetch(batch.vaddr[i + xlatPrefetchDist]);
        const Addr va = batch.vaddr[i];
        vm::Translation entry;
        if (flat) {
            entry = map.translate(va);
        } else {
            const auto xlat = pageTable_.translate(va);
            if (!xlat)
                panic("MMU translate of unmapped va ", va);
            entry = *xlat;
        }
        const vm::MmuResult res = mmu_.translateEntry(va, entry);
        batch.paddr[i] = res.paddr;
        batch.xlatLatency[i] = res.latency;
        batch.l1TlbHit[i] = res.l1Hit ? 1 : 0;
        batch.hugePage[i] = res.hugePage ? 1 : 0;
    }
}

bool
StreamLog::serves(std::uint64_t refs, std::size_t cores)
{
    const std::uint64_t chunks = (refs + chunkRefs - 1) / chunkRefs;
    return refs >= chunkRefs &&
           chunks <= budgetBytes / sizeof(Chunk) / cores;
}

StreamLog::StreamLog(
    std::function<std::unique_ptr<cpu::TraceSource>()> new_cursor,
    const vm::MmuParams &mmu, const vm::PageTable &page_table,
    std::shared_ptr<const FlatPageMap> flat,
    std::atomic<std::uint64_t> *produced)
    : newCursor_(std::move(new_cursor)), mmu_(mmu),
      pageTable_(page_table), flat_(std::move(flat)),
      producedCounter_(produced), chunks_(maxRefs / chunkRefs)
{
}

std::size_t
StreamLog::read(std::uint64_t pos, cpu::RefBatch &batch,
                std::size_t max_refs)
{
    max_refs = std::min(max_refs, cpu::RefBatch::capacity);
    SIPT_ASSERT(pos + max_refs <= maxRefs,
                "read beyond the stream log's budget");
    std::uint64_t have = published_.load(std::memory_order_acquire);
    if (have < pos + max_refs)
        have = produceTo(pos + max_refs);
    const std::size_t n =
        have > pos ? static_cast<std::size_t>(std::min<std::uint64_t>(
                         max_refs, have - pos))
                   : 0;
    for (std::size_t done = 0; done < n;) {
        const std::uint64_t at = pos + done;
        const std::size_t from =
            static_cast<std::size_t>(at % chunkRefs);
        const std::size_t take = std::min(n - done, chunkRefs - from);
        cpu::copyStreamLanes(
            batch, done,
            *chunks_[static_cast<std::size_t>(at / chunkRefs)], from,
            take);
        done += take;
    }
    batch.size = n;
    return n;
}

std::uint64_t
StreamLog::produceTo(std::uint64_t end)
{
    std::lock_guard lock(mu_);
    std::uint64_t have = published_.load(std::memory_order_relaxed);
    if (!producer_ && have < end && !ended_) {
        producer_ = std::make_unique<StreamProducer>(
            newCursor_(), mmu_, pageTable_, flat_, producedCounter_);
        scratch_ = std::make_unique<cpu::RefBatch>();
    }
    while (have < end && !ended_) {
        // Chunks fill whole, so a chunk is complete once published
        // unless the stream ended inside it.
        SIPT_ASSERT(have % chunkRefs == 0, "partial chunk");
        auto chunk = std::make_unique<Chunk>();
        std::size_t filled = 0;
        while (filled < chunkRefs) {
            const std::size_t want =
                std::min(chunkRefs - filled, cpu::RefBatch::capacity);
            const std::size_t got = producer_->produce(*scratch_, want);
            cpu::copyStreamLanes(*chunk, filled, *scratch_, 0, got);
            filled += got;
            if (got < want) {
                ended_ = true;
                break;
            }
        }
        chunks_[static_cast<std::size_t>(have / chunkRefs)] =
            std::move(chunk);
        have += filled;
        published_.store(have, std::memory_order_release);
    }
    return have;
}

} // namespace sipt::batch
