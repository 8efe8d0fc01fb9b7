/**
 * @file
 * The generate and translate stages of the batched engine, and the
 * translated-stream log that lets runs share them.
 *
 * A StreamProducer is the generate + translate half of the staged
 * loop: a workload cursor fills a RefBatch's reference lanes
 * (TraceSource::nextBatch), and a TLB hierarchy fills its
 * translation lanes (Mmu::translateEntry over a FlatPageMap). Both
 * stages see every reference once, in order, so what they write is
 * a pure function of the cursor's start position, the page table
 * and the MMU parameters; no run's predictors, caches or timing can
 * influence it.
 *
 * A StreamLog keeps what one producer wrote, so every run that
 * starts from the same cursor position under the same page table
 * and MMU replays those lanes instead of generating and
 * translating them again. It is filled lazily, one chunk at a
 * time, by whichever reader first reaches its end; readers of
 * published chunks take no lock.
 */

#ifndef SIPT_BATCH_STREAM_LOG_HH
#define SIPT_BATCH_STREAM_LOG_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hh"
#include "cpu/ref_batch.hh"
#include "cpu/trace_source.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

namespace sipt::batch
{

/**
 * Flat, pointer-free snapshot of a page table: the VA->PA function
 * as arrays indexed by page number, saving the page table's
 * per-reference chunk probe (a hash lookup on the 2 MiB chunk
 * number). Valid only while the table is unchanged, which holds for
 * a whole run: the allocation phase touched every page before the
 * first reference. The golden-TLB check compares every translation
 * against the live page table whenever SIPT_CHECK is on, guarding
 * the snapshot. Huge mappings are consulted before small ones,
 * mirroring PageTable::translate().
 */
class FlatPageMap
{
  public:
    /** Snapshot @p table (capped at a fixed number of slots). */
    explicit FlatPageMap(const vm::PageTable &table);

    /** False when the VA span was too sparse to flatten (the
     *  translate stage then queries the page table directly). */
    bool valid() const { return valid_; }

    /** Resolve @p vaddr. @pre valid(); panics when unmapped. */
    vm::Translation translate(Addr vaddr) const;

    /** Start loading the slots translate(@p vaddr) will read. */
    void prefetch(Addr vaddr) const;

  private:
    /** Sentinel frame value for unmapped slots. */
    static constexpr Addr unmapped = ~Addr{0};

    /** First 4 KiB VPN covered by smallFrame_. */
    Vpn smallBase_ = 0;
    /** Page-aligned physical base per 4 KiB VPN. */
    std::vector<Addr> smallFrame_;
    /** First 2 MiB chunk number covered by hugeFrame_. */
    Vpn hugeBase_ = 0;
    /** 2 MiB-aligned physical base per chunk number. */
    std::vector<Addr> hugeFrame_;
    bool valid_ = false;
};

/**
 * Generate + translate: fills a RefBatch's reference and
 * translation lanes from one workload cursor and one TLB
 * hierarchy. The sole caller of the cursor's nextBatch and the
 * MMU's translateEntry in the batched engine.
 */
class StreamProducer
{
  public:
    /**
     * Own @p source and a fresh MMU built from @p mmu.
     *
     * @param flat snapshot of @p page_table (shared per image)
     * @param produced when non-null, every produced reference is
     *        added to it
     * @pre @p mmu's walk latency is positive, so a page walk is
     *      told apart from an L2 TLB hit by its latency alone
     */
    StreamProducer(std::unique_ptr<cpu::TraceSource> source,
                   const vm::MmuParams &mmu,
                   const vm::PageTable &page_table,
                   std::shared_ptr<const FlatPageMap> flat,
                   std::atomic<std::uint64_t> *produced = nullptr);

    /**
     * Borrow @p source and @p mmu, translating through a private
     * snapshot of @p page_table.
     *
     * @pre @p mmu has no radix walker attached (walk latency
     *      depends on the issue cycle, which the translate stage
     *      does not know yet).
     */
    StreamProducer(cpu::TraceSource &source, vm::Mmu &mmu,
                   const vm::PageTable &page_table);

    StreamProducer(const StreamProducer &) = delete;
    StreamProducer &operator=(const StreamProducer &) = delete;

    /**
     * Replace @p batch with the next up to @p max_refs references,
     * translated. Stream-equivalent to the cursor's next() followed
     * by Mmu::translate() per reference.
     *
     * @return batch.size; less than @p max_refs only on exhaustion
     */
    std::size_t produce(cpu::RefBatch &batch, std::size_t max_refs);

    /** The table the translations come from. */
    const vm::PageTable &pageTable() const { return pageTable_; }

    /** The TLB hierarchy's parameters. */
    const vm::MmuParams &mmuParams() const { return mmu_.params(); }

  private:
    void translate(cpu::RefBatch &batch);

    std::unique_ptr<cpu::TraceSource> ownedSource_;
    std::unique_ptr<vm::Mmu> ownedMmu_;
    cpu::TraceSource &source_;
    vm::Mmu &mmu_;
    const vm::PageTable &pageTable_;
    std::shared_ptr<const FlatPageMap> flat_;
    std::atomic<std::uint64_t> *produced_;
};

/**
 * An append-only log of one producer's output, shared by every run
 * that reads the same stream. Chunks are produced on demand under
 * the log's lock by the first reader to need them and published
 * with a release store; a reader of published chunks never locks.
 * The log holds at most maxRefs references; a caller that might
 * read further must run its own producer instead.
 */
class StreamLog
{
  public:
    /** References per produced chunk. */
    static constexpr std::size_t chunkRefs =
        4 * cpu::RefBatch::capacity;

    /** One chunk: the stream lanes of chunkRefs references. */
    using Chunk = cpu::StreamLanes<chunkRefs>;

    /** Log bytes per reference (42 on LP64). */
    static constexpr std::uint64_t bytesPerRef =
        sizeof(Chunk) / chunkRefs;

    /**
     * Bytes of log a process image may keep, over all its cores. A
     * run whose cores would together need more (rounded up to whole
     * chunks) does not use the logs.
     */
    static constexpr std::uint64_t budgetBytes = 32ull << 20;

    /** The most references one log holds. */
    static constexpr std::uint64_t maxRefs =
        budgetBytes / sizeof(Chunk) * chunkRefs;

    /**
     * True when a run of @p refs references on each of @p cores
     * should read its image's logs: @p cores logs of that length
     * fit budgetBytes, counting whole chunks, and the run reads at
     * least one whole chunk (a shorter one, such as a set-up probe,
     * would make the log produce and keep a chunk nobody may read).
     */
    static bool serves(std::uint64_t refs, std::size_t cores);

    /**
     * A log whose producer, built on first demand, reads a cursor
     * from @p new_cursor and translates through @p page_table and
     * @p flat with a fresh MMU built from @p mmu.
     *
     * @param produced passed on to the producer
     */
    StreamLog(
        std::function<std::unique_ptr<cpu::TraceSource>()> new_cursor,
        const vm::MmuParams &mmu, const vm::PageTable &page_table,
        std::shared_ptr<const FlatPageMap> flat,
        std::atomic<std::uint64_t> *produced = nullptr);

    StreamLog(const StreamLog &) = delete;
    StreamLog &operator=(const StreamLog &) = delete;

    /**
     * Copy references [@p pos, @p pos + @p max_refs) into @p batch
     * (replacing its contents), producing any of them not yet in
     * the log. Thread-safe.
     *
     * @pre @p pos + @p max_refs <= maxRefs
     * @return batch.size; less than @p max_refs only when the
     *         stream ended
     */
    std::size_t read(std::uint64_t pos, cpu::RefBatch &batch,
                     std::size_t max_refs);

    /** The table the translations come from. */
    const vm::PageTable &pageTable() const { return pageTable_; }

    /** The producer's TLB hierarchy parameters. */
    const vm::MmuParams &mmuParams() const { return mmu_; }

  private:
    /** Produce chunks until @p end references are published or
     *  the stream ends; the references published afterwards. */
    std::uint64_t produceTo(std::uint64_t end);

    std::function<std::unique_ptr<cpu::TraceSource>()> newCursor_;
    vm::MmuParams mmu_;
    const vm::PageTable &pageTable_;
    std::shared_ptr<const FlatPageMap> flat_;
    std::atomic<std::uint64_t> *producedCounter_;

    /** Guards producer_, scratch_, ended_ and the chunk slots at
     *  or beyond published_. */
    std::mutex mu_;
    std::unique_ptr<StreamProducer> producer_;
    std::unique_ptr<cpu::RefBatch> scratch_;
    bool ended_ = false;
    /** Fixed slots (never reallocated), so readers index published
     *  chunks without the lock. */
    std::vector<std::unique_ptr<const Chunk>> chunks_;
    /** References readable without the lock. */
    std::atomic<std::uint64_t> published_{0};
};

} // namespace sipt::batch

#endif // SIPT_BATCH_STREAM_LOG_HH
