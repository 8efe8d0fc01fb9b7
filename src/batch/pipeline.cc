#include "batch/pipeline.hh"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/bitops.hh"
#include "common/logging.hh"

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

/**
 * Host-prefetch lookahead of the account stage, in references. The
 * batch already holds the whole reference window, so the stage can
 * ask the host CPU to start loading the tag sets that references a
 * few iterations ahead will touch — latency the scalar engine,
 * which learns each reference's address only as it processes it,
 * cannot hide.
 */
constexpr std::size_t accountPrefetchDist = 4;

} // namespace

BatchPipeline::BatchPipeline(cpu::TraceSource &source,
                             vm::Mmu &mmu,
                             const vm::PageTable &page_table,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : BatchPipeline(
          std::make_unique<StreamProducer>(source, mmu, page_table),
          l1, core)
{
}

BatchPipeline::BatchPipeline(std::unique_ptr<StreamProducer> producer,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : BatchPipeline(std::move(producer), nullptr,
                    producer->pageTable(), producer->mmuParams(), l1,
                    core)
{
}

BatchPipeline::BatchPipeline(StreamLog &log, SiptL1Cache &l1,
                             cpu::TraceCore &core)
    : BatchPipeline(nullptr, &log, log.pageTable(), log.mmuParams(),
                    l1, core)
{
}

BatchPipeline::BatchPipeline(std::unique_ptr<StreamProducer> &&producer,
                             StreamLog *log,
                             const vm::PageTable &page_table,
                             const vm::MmuParams &mmu,
                             SiptL1Cache &l1, cpu::TraceCore &core)
    : producer_(std::move(producer)), log_(log),
      pageTable_(page_table), l2TlbLatency_(mmu.l2Latency), l1_(l1),
      core_(core), check_(l1.params().check),
      options_(BatchOptions::fromEnv())
{
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
        const std::size_t got = fetchBatch(batch_, want);
        if (got == 0)
            break;
        predictBatch(batch_);
        accountBatch(batch_);
        remaining -= got;
        if (got < want)
            break; // source exhausted mid-batch
    }
    return core_.endRun(cursor);
}

std::size_t
BatchPipeline::fetchBatch(cpu::RefBatch &batch, std::size_t want)
{
    // Generate + translate: this run's next references, from the
    // shared log or its own producer; identical either way.
    std::size_t got = 0;
    if (log_ != nullptr) {
        got = log_->read(logPos_, batch, want);
        logPos_ += got;
    } else {
        got = producer_->produce(batch, want);
    }

    // What the run's own MMU would have counted: one L1 TLB lookup
    // per reference, and a walk wherever both levels missed.
    std::uint64_t hits = 0;
    std::uint64_t walks = 0;
    for (std::size_t i = 0; i < got; ++i) {
        hits += batch.l1TlbHit[i];
        walks += batch.l1TlbHit[i] == 0 &&
                 batch.xlatLatency[i] > l2TlbLatency_;
    }
    tlb_.lookups += got;
    tlb_.l1Hits += hits;
    tlb_.walks += walks;

    if (check_.enabled) {
        for (std::size_t i = 0; i < got; ++i)
            checkTranslation(batch.vaddr[i], batch.paddr[i]);
    }
    if (options_.mutateProbe &&
        l1_.params().policy == IndexingPolicy::SiptNaive) {
        // Self-test corruption: a flipped physical index bit after
        // the golden-TLB check, exactly what a broken probe stage
        // would feed the array. Restricted to one policy so the
        // cross-policy digest comparison must diverge.
        for (std::size_t i = 0; i < got; ++i)
            batch.paddr[i] ^= pageBase(1);
    }
    return got;
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
    // (this also guards the producer's flat page map).
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
