/**
 * @file
 * The synthetic trace generator: turns an AppProfile into a stream
 * of memory references over a demand-paged address space.
 *
 * Construction runs the application's *allocation phase*: regions
 * are mmap'd and every page is first-touched in the profile's
 * order, which is when the buddy allocator fixes the VA->PA deltas
 * (the paper's traces are SimPoints taken after initialisation, so
 * the mapping is likewise fixed before measurement).
 *
 * next() then produces the steady-state access stream: a mix of
 * streaming, dependent pointer-chase, and hot-working-set
 * references with geometric non-memory gaps.
 *
 * A copy is an independent cursor over the same address space: it
 * resumes the stream where the original stood and never touches
 * the address space again, so copies of one post-allocation
 * workload may run side by side over a shared, frozen image.
 */

#ifndef SIPT_WORKLOAD_SYNTHETIC_HH
#define SIPT_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/trace_source.hh"
#include "os/address_space.hh"
#include "workload/profile.hh"

namespace sipt::workload
{

/**
 * Synthetic application over a simulated address space.
 */
class SyntheticWorkload : public cpu::TraceSource
{
  public:
    /**
     * Create the workload and run its allocation phase.
     *
     * @param profile the application description
     * @param address_space the process address space (its paging
     *        policy supplies THP enable/affinity etc.)
     * @param seed RNG seed for this instance
     */
    SyntheticWorkload(const AppProfile &profile,
                      os::AddressSpace &address_space,
                      std::uint64_t seed);

    /** Generate the next steady-state reference (never ends). */
    bool next(MemRef &ref) override;

    /** Generate a whole batch directly into the SoA lanes. */
    std::size_t nextBatch(cpu::RefBatch &batch,
                          std::size_t max_refs) override;

    const AppProfile &profile() const { return profile_; }

    /** Fraction of this workload's memory that is THP-backed. */
    double hugeCoverage() const;

  private:
    struct Region
    {
        Addr base;
        std::uint64_t bytes;
    };

    void allocatePhase(os::AddressSpace &as);

    /** Produce one reference (next() wraps this and remembers
     *  the address for same-object bursts). */
    bool generate(MemRef &ref);

    Addr pickChaseAddr();
    Addr pickHotAddr();
    Addr pickStreamAddr(std::uint32_t &region_out);

    std::uint32_t sampleGap();

    AppProfile profile_;
    const os::AddressSpace *as_;
    Rng rng_;
    std::vector<Region> regions_;
    /** Cumulative byte sizes for weighted region picks. */
    std::vector<std::uint64_t> cumBytes_;
    std::vector<std::uint64_t> streamCursor_;
    std::uint32_t nextStreamRegion_ = 0;
    std::vector<Addr> chasePcs_;
    std::vector<Addr> hotPcs_;
    std::vector<Addr> streamPcs_;
    /** streamPcs_[r % streamPcs_.size()] per region, precomputed
     *  so the steady-state path carries no modulo. */
    std::vector<Addr> streamPcForRegion_;
    /** log(1 - memRatio), hoisted out of sampleGap(). */
    double logOneMinusP_ = 0.0;
    /** Previous reference, for same-object burst generation. */
    Addr lastVaddr_ = 0;
    Addr lastPc_ = 0;
};

} // namespace sipt::workload

#endif // SIPT_WORKLOAD_SYNTHETIC_HH
