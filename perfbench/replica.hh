/**
 * @file
 * Stage-timed replicas of sim::runSingleCore() and
 * sim::runMulticore() for the benchmark's traced run.
 *
 * The replicas assemble the same components in the same order as
 * src/sim/system.cc and drive them through the batch engine's stage
 * order (generate, translate, predict, account), reading the clock
 * around each call into a layer. They must reproduce the library's
 * results byte for byte; the harness compares the digests
 * of both and counts any difference as a failed operation. A library
 * change that moves time without changing results leaves the digests
 * equal, so run.py also hashes the mirrored sources against
 * expected/replica-sources.json and reports trace.replica_current.
 */

#ifndef PERFBENCH_REPLICA_HH
#define PERFBENCH_REPLICA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench
{

/** Host time per layer, summed over every core of a run. */
struct StageTimes
{
    /** BuddyAllocator + SystemAger::age. */
    double ageNs = 0.0;
    /** Address space + workload constructor (allocation phase). */
    double allocNs = 0.0;
    /** BatchPipeline constructor (flat page map). */
    double buildNs = 0.0;
    /** TraceSource::nextBatch. */
    double generateNs = 0.0;
    /** VA->PA lookup + Mmu::translateEntry. */
    double translateNs = 0.0;
    /** SiptL1Cache::decideBatch. */
    double decideNs = 0.0;
    /** SiptL1Cache::accessDecidedUntraced (with L2/LLC/DRAM). */
    double accessNs = 0.0;
    /** TraceCore::dispatchRef + completeRef. */
    double coreNs = 0.0;
    /** References simulated (warm-up plus measured). */
    std::uint64_t refs = 0;

    StageTimes &operator+=(const StageTimes &other);
    /** Sum of every stage's time. */
    double totalNs() const;
};

/** Measured-phase event counts, summed over every core. */
struct LayerCounts
{
    std::uint64_t measuredRefs = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbLookups = 0;
    std::uint64_t pageWalks = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t fastAccesses = 0;
    std::uint64_t replays = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t dramAccesses = 0;

    LayerCounts &operator+=(const LayerCounts &other);
};

/** runSingleCore() with stage timers and layer counts. */
sipt::sim::RunResult
tracedSingleCore(const std::string &app,
                 const sipt::sim::SystemConfig &config,
                 StageTimes &times, LayerCounts &counts);

/** runMulticore() with stage timers and layer counts. */
sipt::sim::MulticoreResult
tracedMulticore(const std::vector<std::string> &mix,
                const sipt::sim::SystemConfig &config,
                StageTimes &times, LayerCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_HH
