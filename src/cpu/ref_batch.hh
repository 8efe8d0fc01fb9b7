/**
 * @file
 * The struct-of-arrays reference batch that the batched engine
 * pipelines through its generate/translate/predict/account stages.
 *
 * Each lane is a flat fixed-capacity array; lane i across all
 * arrays describes the i-th reference of the batch. The layout
 * keeps every stage a tight loop over contiguous same-typed data:
 * the generator fills the MemRef lanes, the translate stage fills
 * the paddr/latency lanes, the predict stage fills the decision
 * lane, and the account stage consumes all of them in order while
 * writing the outcome lanes. No stage allocates; a pipeline owns
 * exactly one RefBatch and recycles it.
 */

#ifndef SIPT_CPU_REF_BATCH_HH
#define SIPT_CPU_REF_BATCH_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace sipt::cpu
{

/**
 * The generate and translate lanes of @p N references: everything
 * a workload cursor and a TLB hierarchy produce for a reference,
 * and nothing a run's predictors, caches or core write. The one
 * definition of that lane set, shared by RefBatch and by the
 * translated-stream log's chunks (batch::StreamLog), which copy
 * between each other through copyStreamLanes().
 */
template <std::size_t N>
struct StreamLanes
{
    // --- Generator-filled lanes (SoA mirror of MemRef) ----------
    std::array<Addr, N> pc;
    std::array<Addr, N> vaddr;
    std::array<MemOp, N> op;
    std::array<std::uint32_t, N> nonMemBefore;
    std::array<std::uint8_t, N> dependsOnPrev;
    std::array<std::uint8_t, N> chainId;
    std::array<std::uint8_t, N> chainTail;

    // --- Translate-stage lanes ----------------------------------
    /** Full physical address (vm::MmuResult::paddr). */
    std::array<Addr, N> paddr;
    /** Translation latency in cycles. */
    std::array<Cycles, N> xlatLatency;
    /** vm::MmuResult::l1Hit / hugePage as 0/1 flags. */
    std::array<std::uint8_t, N> l1TlbHit;
    std::array<std::uint8_t, N> hugePage;

    /** Store @p ref's fields in the generator lanes of slot @p i. */
    void
    setRef(std::size_t i, const MemRef &ref)
    {
        pc[i] = ref.pc;
        vaddr[i] = ref.vaddr;
        op[i] = ref.op;
        nonMemBefore[i] = ref.nonMemBefore;
        dependsOnPrev[i] = ref.dependsOnPrev ? 1 : 0;
        chainId[i] = ref.chainId;
        chainTail[i] = ref.chainTail;
    }

    /** Reassemble slot @p i into AoS form for per-ref consumers. */
    MemRef
    refAt(std::size_t i) const
    {
        MemRef ref;
        ref.pc = pc[i];
        ref.vaddr = vaddr[i];
        ref.op = op[i];
        ref.nonMemBefore = nonMemBefore[i];
        ref.dependsOnPrev = dependsOnPrev[i] != 0;
        ref.chainId = chainId[i];
        ref.chainTail = chainTail[i];
        return ref;
    }
};

/** Copy slots [@p from, @p from + @p n) of every lane in @p src to
 *  slots [@p to, @p to + @p n) of @p dst. */
template <std::size_t D, std::size_t S>
void
copyStreamLanes(StreamLanes<D> &dst, std::size_t to,
                const StreamLanes<S> &src, std::size_t from,
                std::size_t n)
{
    const auto lane = [&](auto &d, const auto &s) {
        std::copy_n(s.begin() + static_cast<std::ptrdiff_t>(from), n,
                    d.begin() + static_cast<std::ptrdiff_t>(to));
    };
    lane(dst.pc, src.pc);
    lane(dst.vaddr, src.vaddr);
    lane(dst.op, src.op);
    lane(dst.nonMemBefore, src.nonMemBefore);
    lane(dst.dependsOnPrev, src.dependsOnPrev);
    lane(dst.chainId, src.chainId);
    lane(dst.chainTail, src.chainTail);
    lane(dst.paddr, src.paddr);
    lane(dst.xlatLatency, src.xlatLatency);
    lane(dst.l1TlbHit, src.l1TlbHit);
    lane(dst.hugePage, src.hugePage);
}

/** References per full RefBatch. Large enough to amortise the
 *  per-batch virtual dispatch and stage-switch overhead, small
 *  enough that all lanes stay cache-resident (~7 KiB total). */
inline constexpr std::size_t refBatchCapacity = 256;

/**
 * One batch of memory references in struct-of-arrays form: the
 * stream lanes plus the lanes the predict and account stages write.
 */
struct RefBatch : StreamLanes<refBatchCapacity>
{
    /** References per full batch. */
    static constexpr std::size_t capacity = refBatchCapacity;

    /** Valid lanes: indices [0, size) hold references. */
    std::size_t size = 0;

    // --- Predict-stage lane -------------------------------------
    /** Speculation outcome codes (sipt::SpecDecision values). */
    std::array<std::uint8_t, capacity> decision;

    // --- Account-stage lanes ------------------------------------
    /** Load-to-use latency charged for each reference. */
    std::array<Cycles, capacity> latency;
    /** Outcome flags: bit 0 = L1 hit, bit 1 = fast access. */
    std::array<std::uint8_t, capacity> outcome;

    /** Discard all lanes. */
    void clear() { size = 0; }

    /** Append one reference from AoS form. @pre size < capacity */
    void push(const MemRef &ref) { setRef(size++, ref); }
};

} // namespace sipt::cpu

#endif // SIPT_CPU_REF_BATCH_HH
