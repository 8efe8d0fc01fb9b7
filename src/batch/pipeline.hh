/**
 * @file
 * The batched access engine: runs the simulation loop over
 * RefBatch-sized groups of references in fixed stages —
 * generate-N, translate-N, predict-N, account-N — instead of
 * threading one reference at a time through every layer.
 *
 * The stage split follows the state-dependency structure of the
 * scalar loop. Each simulated component's state is touched by
 * exactly one stage, in reference order, so every component sees
 * the same state-transition sequence as under the scalar engine:
 *
 *  - generate: workload RNG / cursors  (TraceSource::nextBatch)
 *  - translate: TLB hierarchy          (Mmu::translateEntry)
 *  - predict:  bypass/combined/xlat tables
 *              (SiptL1Cache::decideBatch)
 *  - account:  L1 array + hierarchy + core timing
 *              (dispatchRef / accessDecided / completeRef)
 *
 * Generate and translate belong to a StreamProducer
 * (batch/stream_log.hh). Their output depends only on the stream,
 * never on the run, so a run either replays it from a StreamLog
 * that every run of the same process image shares, or, when the
 * log does not serve the run (StreamLog::serves), drives a private
 * producer.
 * Either way the run's fetch step then applies what is per run:
 * the golden-TLB check, the TLB statistics and the probe
 * self-test corruption.
 *
 * The one observable coupling between stages is the per-access
 * invariant checker, which snapshots the L1 *counters* at every
 * access — so all counter mutation stays in the account stage
 * (decide/decideBatch touch predictor state only). Predictor
 * state legitimately runs a batch ahead of the counters: nothing
 * observes predictor internals between accesses.
 *
 * Translation latency must not depend on simulated time for the
 * stages to commute with the scalar loop; the engine therefore
 * refuses an MMU with an attached radix walker (the system layer
 * falls back to the scalar engine for those configs).
 *
 * Equivalence with the scalar engine is bit-for-bit — same stats,
 * energy, metrics, and SIPT_CHECK functional digest — and is
 * enforced by tests/test_batch.cpp and the sipt-fuzz campaigns,
 * which flip engines per sample.
 */

#ifndef SIPT_BATCH_PIPELINE_HH
#define SIPT_BATCH_PIPELINE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "batch/stream_log.hh"
#include "check/options.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "cpu/trace_source.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

namespace sipt::batch
{

/** Batched-engine knobs, normally environment-derived. */
struct BatchOptions
{
    /**
     * Harness self-test corruption (SIPT_BATCH_MUTATE=probe):
     * feeds the probe stage a physical address with a flipped
     * index bit — after the golden-TLB check, and only under the
     * SIPT-naive policy, so the corruption surfaces as a
     * functional-digest divergence between policies that the
     * policy-invariance fuzzer must catch.
     */
    bool mutateProbe = false;

    /** Read the SIPT_BATCH_MUTATE environment variable. */
    static BatchOptions fromEnv();
};

/** TLB statistics of the references a pipeline ran. */
struct TlbStats
{
    /** L1 TLB lookups: one per reference. */
    std::uint64_t lookups = 0;
    /** Lookups that hit the L1 TLB. */
    std::uint64_t l1Hits = 0;
    /** Lookups that missed both TLB levels. */
    std::uint64_t walks = 0;
};

/**
 * Drives one core's warmup/measure episodes through the staged
 * batch loop. Construct once per core; run() may be called
 * repeatedly (timing state carries over, like TraceCore::run).
 */
class BatchPipeline
{
  public:
    /**
     * Generate from @p source and translate through @p mmu, over a
     * private FlatPageMap snapshot of @p page_table.
     *
     * @pre @p mmu has no radix walker attached (walk latency
     *      depends on the issue cycle, which the translate stage
     *      does not know yet).
     */
    BatchPipeline(cpu::TraceSource &source, vm::Mmu &mmu,
                  const vm::PageTable &page_table, SiptL1Cache &l1,
                  cpu::TraceCore &core);

    /** Generate and translate through this run's own
     *  @p producer. */
    BatchPipeline(std::unique_ptr<StreamProducer> producer,
                  SiptL1Cache &l1, cpu::TraceCore &core);

    /** Replay @p log from its first reference. */
    BatchPipeline(StreamLog &log, SiptL1Cache &l1,
                  cpu::TraceCore &core);

    /**
     * Run up to @p max_refs references. Stream-equivalent to
     * TraceCore::run() over a SystemPort wrapping the same
     * components.
     */
    cpu::CoreResult run(std::uint64_t max_refs);

    /** First golden-TLB mismatch, or empty (sticky, like
     *  SystemPort::checkFailure). */
    const std::string &checkFailure() const { return failure_; }

    /** TLB statistics since construction or resetStats(); equal
     *  to the producer MMU's counters over the same references. */
    const TlbStats &tlbStats() const { return tlb_; }

    /** Zero tlbStats() (warmup). */
    void resetStats() { tlb_ = TlbStats{}; }

  private:
    BatchPipeline(std::unique_ptr<StreamProducer> &&producer,
                  StreamLog *log, const vm::PageTable &page_table,
                  const vm::MmuParams &mmu, SiptL1Cache &l1,
                  cpu::TraceCore &core);

    std::size_t fetchBatch(cpu::RefBatch &batch, std::size_t want);
    void predictBatch(cpu::RefBatch &batch);
    void accountBatch(cpu::RefBatch &batch);
    void checkTranslation(Addr vaddr, Addr paddr);

    /** This run's producer, or null when replaying log_. */
    std::unique_ptr<StreamProducer> producer_;
    /** Shared log, or null when producer_ is set. */
    StreamLog *log_;
    /** Next log position to read. */
    std::uint64_t logPos_ = 0;
    const vm::PageTable &pageTable_;
    /** Latency of a translation served by the L2 TLB: anything
     *  slower that missed the L1 TLB walked. */
    Cycles l2TlbLatency_;
    SiptL1Cache &l1_;
    cpu::TraceCore &core_;
    check::Options check_;
    BatchOptions options_;
    TlbStats tlb_;
    cpu::RefBatch batch_;
    std::string failure_;
};

} // namespace sipt::batch

#endif // SIPT_BATCH_PIPELINE_HH
