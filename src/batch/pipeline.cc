#include "batch/pipeline.hh"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/prefetch.hh"

namespace sipt::batch
{

BatchOptions
BatchOptions::fromEnv()
{
    BatchOptions opts;
    if (const char *env = std::getenv("SIPT_BATCH_MUTATE")) {
        const std::string_view value(env);
        if (value == "probe")
            opts.mutateProbe = true;
        else if (!value.empty())
            fatal("SIPT_BATCH_MUTATE: unknown mutation '", env,
                  "' (expected \"probe\")");
    }
    return opts;
}

namespace
{

/** Upper bound on flat-map array slots (8 B each): covers a 64 GiB
 *  contiguous VA span of 4 KiB pages before falling back to direct
 *  page-table lookups. */
constexpr std::uint64_t maxFlatSlots = 1ull << 24;

/**
 * Host-prefetch lookahead distances, in references. The batch
 * already holds the whole reference window, so each stage can ask
 * the host CPU to start loading the simulator structures (page-map
 * slots, tag sets) that references a few iterations ahead will
 * touch — latency the scalar engine, which learns each reference's
 * address only as it processes it, cannot hide.
 */
constexpr std::size_t xlatPrefetchDist = 8;
constexpr std::size_t accountPrefetchDist = 4;

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

BatchPipeline::BatchPipeline(cpu::TraceSource &source,
                             vm::Mmu &mmu,
                             const vm::PageTable &page_table,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : BatchPipeline(source, mmu, page_table,
                    std::make_shared<const FlatPageMap>(page_table),
                    l1, core)
{
}

BatchPipeline::BatchPipeline(cpu::TraceSource &source,
                             vm::Mmu &mmu,
                             const vm::PageTable &page_table,
                             std::shared_ptr<const FlatPageMap> flat,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : source_(source), mmu_(mmu), pageTable_(page_table),
      flat_(std::move(flat)), l1_(l1), core_(core),
      check_(l1.params().check), options_(BatchOptions::fromEnv())
{
    SIPT_ASSERT(!mmu.hasWalker(),
                "batched engine cannot time radix page walks");
    SIPT_ASSERT(flat_ != nullptr, "batched engine needs a page map");
}

cpu::CoreResult
BatchPipeline::run(std::uint64_t max_refs)
{
    const cpu::TraceCore::RunCursor cursor = core_.beginRun();
    std::uint64_t remaining = max_refs;
    while (remaining > 0) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining,
                                    cpu::RefBatch::capacity));
        const std::size_t got = source_.nextBatch(batch_, want);
        if (got == 0)
            break;
        translateBatch(batch_);
        predictBatch(batch_);
        accountBatch(batch_);
        remaining -= got;
        if (got < want)
            break; // source exhausted mid-batch
    }
    return core_.endRun(cursor);
}

void
BatchPipeline::translateBatch(cpu::RefBatch &batch)
{
    // The flat snapshot supplies the pure VA->PA function without
    // the page table's hash probes; the TLB hierarchy still sees
    // every reference, in order, through translateEntry().
    const bool check = check_.enabled;
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
        if (check)
            checkTranslation(va, res.paddr);
        batch.paddr[i] = res.paddr;
        batch.xlatLatency[i] = res.latency;
        batch.l1TlbHit[i] = res.l1Hit ? 1 : 0;
        batch.hugePage[i] = res.hugePage ? 1 : 0;
    }
    if (options_.mutateProbe &&
        l1_.params().policy == IndexingPolicy::SiptNaive) {
        // Self-test corruption: a flipped physical index bit after
        // the golden-TLB check, exactly what a broken probe stage
        // would feed the array. Restricted to one policy so the
        // cross-policy digest comparison must diverge.
        for (std::size_t i = 0; i < batch.size; ++i)
            batch.paddr[i] ^= pageBase(1);
    }
}

void
BatchPipeline::predictBatch(cpu::RefBatch &batch)
{
    // Predict stage: sole owner of the predictor tables (IDB,
    // perceptron, translation tables, counters). They advance once
    // per reference, in order, exactly as the scalar loop trains
    // them. The huge-page lane feeds the superpage-aware policies.
    l1_.decideBatch(batch.size, batch.pc.data(),
                    batch.vaddr.data(), batch.paddr.data(),
                    batch.hugePage.data(),
                    batch.decision.data());
}

void
BatchPipeline::accountBatch(cpu::RefBatch &batch)
{
    // Tracer check hoisted: one branch per batch, not per access.
    if (!l1_.traceEnabled()) {
        for (std::size_t i = 0; i < batch.size; ++i) {
            if (i + accountPrefetchDist < batch.size)
                l1_.prefetchAccess(
                    batch.paddr[i + accountPrefetchDist]);
            const MemRef ref = batch.refAt(i);
            const double disp = core_.dispatchRef(ref);
            vm::MmuResult xlat;
            xlat.paddr = batch.paddr[i];
            xlat.hugePage = batch.hugePage[i] != 0;
            xlat.latency = batch.xlatLatency[i];
            xlat.l1Hit = batch.l1TlbHit[i] != 0;
            const L1AccessResult res = l1_.accessDecidedUntraced(
                ref, xlat, static_cast<Cycles>(disp),
                static_cast<SpecDecision>(batch.decision[i]));
            core_.completeRef(ref, disp, res.latency, !res.hit);
            batch.latency[i] = res.latency;
            batch.outcome[i] = (res.hit ? 1u : 0u) |
                               (res.fast ? 2u : 0u);
        }
        return;
    }
    for (std::size_t i = 0; i < batch.size; ++i) {
        const MemRef ref = batch.refAt(i);
        const double disp = core_.dispatchRef(ref);
        vm::MmuResult xlat;
        xlat.paddr = batch.paddr[i];
        xlat.hugePage = batch.hugePage[i] != 0;
        xlat.latency = batch.xlatLatency[i];
        xlat.l1Hit = batch.l1TlbHit[i] != 0;
        const L1AccessResult res = l1_.accessDecided(
            ref, xlat, static_cast<Cycles>(disp),
            static_cast<SpecDecision>(batch.decision[i]));
        core_.completeRef(ref, disp, res.latency, !res.hit);
        batch.latency[i] = res.latency;
        batch.outcome[i] = (res.hit ? 1u : 0u) |
                           (res.fast ? 2u : 0u);
    }
}

void
BatchPipeline::checkTranslation(Addr vaddr, Addr paddr)
{
    // Golden-TLB check, identical to the scalar SystemPort's: the
    // timed translation must equal an untimed page-table walk
    // (this also guards the VPN memo above).
    const auto golden = pageTable_.translate(vaddr);
    std::string error;
    if (!golden) {
        error = detail::formatMessage(
            "MMU translated unmapped va 0x", std::hex, vaddr);
    } else if (golden->paddr != paddr) {
        error = detail::formatMessage(
            "TLB divergence at va 0x", std::hex, vaddr,
            ": MMU pa 0x", paddr, ", page table pa 0x",
            golden->paddr);
    }
    if (error.empty())
        return;
    if (check_.abortOnDivergence)
        panic("SIPT_CHECK: ", error);
    if (failure_.empty())
        failure_ = error;
}

} // namespace sipt::batch
