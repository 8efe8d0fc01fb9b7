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
#include <string>
#include <vector>

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

/**
 * Drives one core's warmup/measure episodes through the staged
 * batch loop. Construct once per core; run() may be called
 * repeatedly (timing state carries over, like TraceCore::run).
 */
class BatchPipeline
{
  public:
    /**
     * @pre @p mmu has no radix walker attached (walk latency
     *      depends on the issue cycle, which the translate stage
     *      does not know yet).
     */
    BatchPipeline(cpu::TraceSource &source, vm::Mmu &mmu,
                  const vm::PageTable &page_table, SiptL1Cache &l1,
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

  private:
    /**
     * Flat, pointer-free snapshot of the page table, taken at
     * construction. The table is immutable during a run (the
     * allocation phase touched every page before the first
     * reference), so the VA->PA function can be arrays indexed by
     * page number, saving the page table's per-reference chunk
     * probe (a hash lookup on the 2 MiB chunk number) — the
     * golden-TLB check compares every translation against the live
     * page table whenever SIPT_CHECK is on, guarding the snapshot.
     * Huge mappings are consulted before small ones, mirroring
     * PageTable::translate().
     */
    struct FlatPageMap
    {
        /** Sentinel frame value for unmapped slots. */
        static constexpr Addr unmapped = ~Addr{0};
        /** First 4 KiB VPN covered by smallFrame. */
        Vpn smallBase = 0;
        /** Page-aligned physical base per 4 KiB VPN. */
        std::vector<Addr> smallFrame;
        /** First 2 MiB chunk number covered by hugeFrame. */
        Vpn hugeBase = 0;
        /** 2 MiB-aligned physical base per chunk number. */
        std::vector<Addr> hugeFrame;
        /** False when the VA span was too sparse to flatten (the
         *  translate stage then queries the page table directly).*/
        bool valid = false;
    };

    /** Build the snapshot (capped at maxFlatSlots array slots). */
    void buildFlatMap();

    /** Resolve @p vaddr through the snapshot. @pre flat_.valid. */
    vm::Translation flatTranslate(Addr vaddr) const;

    void translateBatch(cpu::RefBatch &batch);
    void predictBatch(cpu::RefBatch &batch);
    void accountBatch(cpu::RefBatch &batch);
    void checkTranslation(Addr vaddr, Addr paddr);

    cpu::TraceSource &source_;
    vm::Mmu &mmu_;
    const vm::PageTable &pageTable_;
    SiptL1Cache &l1_;
    cpu::TraceCore &core_;
    check::Options check_;
    BatchOptions options_;
    FlatPageMap flat_;
    cpu::RefBatch batch_;
    std::string failure_;
};

} // namespace sipt::batch

#endif // SIPT_BATCH_PIPELINE_HH
