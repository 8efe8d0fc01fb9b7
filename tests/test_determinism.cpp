/**
 * @file
 * The invariant the SweepRunner memo cache depends on: a run's
 * Stats are a pure function of (app, SystemConfig). Two fresh
 * back-to-back runs of the same key must produce bit-identical
 * results — directly, through fresh runners at several thread
 * counts, and across single/multicore entry points. If any of
 * these fail, every memoized figure downstream is suspect.
 *
 * Runs share one process-wide memo of conditioned physical memory
 * (sim::conditionedMemory), so the ConditionedMemory tests check
 * that a memoized image is exactly what fresh conditioning gives:
 * keyed on every input that shapes it, private to each caller, and
 * unchanged by eviction. Runs of one (app, seed, memory) stream
 * also share a read-only process image (sim::singleCoreImage), so
 * no run may leave a trace in it for the next: a policy run after
 * others on one image must equal the same run on a fresh image.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

SystemConfig
quick(IndexingPolicy policy, std::uint64_t seed = 42)
{
    SystemConfig cfg;
    cfg.l1Config = policy == IndexingPolicy::Vipt
                       ? L1Config::Baseline32K8
                       : L1Config::Sipt32K2;
    cfg.policy = policy;
    cfg.warmupRefs = 2'000;
    cfg.measureRefs = 5'000;
    cfg.seed = seed;
    return cfg;
}

/** Bit-identical, not just close: EXPECT_DOUBLE_EQ on every
 *  floating field, EXPECT_EQ on every counter. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.loads, b.l1.loads);
    EXPECT_EQ(a.l1.stores, b.l1.stores);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.writebacks, b.l1.writebacks);
    EXPECT_EQ(a.l1.fastAccesses, b.l1.fastAccesses);
    EXPECT_EQ(a.l1.slowAccesses, b.l1.slowAccesses);
    EXPECT_EQ(a.l1.extraArrayAccesses, b.l1.extraArrayAccesses);
    EXPECT_EQ(a.l1.arrayAccesses, b.l1.arrayAccesses);
    EXPECT_DOUBLE_EQ(a.l1.weightedArrayAccesses,
                     b.l1.weightedArrayAccesses);
    EXPECT_EQ(a.l1.spec.correctSpeculation,
              b.l1.spec.correctSpeculation);
    EXPECT_EQ(a.l1.spec.correctBypass, b.l1.spec.correctBypass);
    EXPECT_EQ(a.l1.spec.opportunityLoss,
              b.l1.spec.opportunityLoss);
    EXPECT_EQ(a.l1.spec.extraAccess, b.l1.spec.extraAccess);
    EXPECT_EQ(a.l1.spec.idbHit, b.l1.spec.idbHit);
    EXPECT_DOUBLE_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_DOUBLE_EQ(a.fastFraction, b.fastFraction);
    EXPECT_DOUBLE_EQ(a.energy.l1Dynamic, b.energy.l1Dynamic);
    EXPECT_DOUBLE_EQ(a.energy.l2Dynamic, b.energy.l2Dynamic);
    EXPECT_DOUBLE_EQ(a.energy.llcDynamic, b.energy.llcDynamic);
    EXPECT_DOUBLE_EQ(a.energy.l1Static, b.energy.l1Static);
    EXPECT_DOUBLE_EQ(a.energy.l2Static, b.energy.l2Static);
    EXPECT_DOUBLE_EQ(a.energy.llcStatic, b.energy.llcStatic);
    EXPECT_DOUBLE_EQ(a.hugeCoverage, b.hugeCoverage);
    EXPECT_DOUBLE_EQ(a.wayPredAccuracy, b.wayPredAccuracy);
    EXPECT_DOUBLE_EQ(a.dtlbHitRate, b.dtlbHitRate);
    EXPECT_EQ(a.pageWalks, b.pageWalks);
    EXPECT_DOUBLE_EQ(a.l1Mpki, b.l1Mpki);
}

std::vector<SweepJob>
probeJobs()
{
    return {
        {"mcf", quick(IndexingPolicy::Vipt)},
        {"gcc", quick(IndexingPolicy::SiptCombined)},
        {"lbm", quick(IndexingPolicy::SiptNaive, 7)},
        {"sjeng", quick(IndexingPolicy::SiptBypass)},
    };
}

TEST(Determinism, BackToBackRunsAreBitIdentical)
{
    for (const auto &job : probeJobs()) {
        const RunResult first =
            runSingleCore(job.app, job.config);
        const RunResult second =
            runSingleCore(job.app, job.config);
        expectIdentical(first, second);
    }
}

TEST(Determinism, FreshRunnersAgreeAcrossThreadCounts)
{
    const auto jobs = probeJobs();
    // Reference: a fresh sequential runner with no disk cache.
    SweepRunner reference(SweepOptions{1, "-"});
    const auto expected = reference.runBatch(jobs);

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        // Fresh runner per thread count: nothing memoized, every
        // job actually re-simulates.
        SweepRunner runner(SweepOptions{threads, "-"});
        const auto got = runner.runBatch(jobs);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(jobs[i].app);
            expectIdentical(expected[i], got[i]);
        }
        EXPECT_EQ(runner.stats().executed, jobs.size());
    }
}

TEST(Determinism, MulticoreBackToBackRunsAreBitIdentical)
{
    auto cfg = quick(IndexingPolicy::SiptCombined);
    cfg.footprintScale = 0.5;
    const std::vector<std::string> mix = {"mcf", "gcc", "mcf",
                                          "gcc"};
    const MulticoreResult first = runMulticore(mix, cfg);
    const MulticoreResult second = runMulticore(mix, cfg);

    EXPECT_DOUBLE_EQ(first.sumIpc, second.sumIpc);
    ASSERT_EQ(first.perCore.size(), second.perCore.size());
    for (std::size_t i = 0; i < first.perCore.size(); ++i)
        expectIdentical(first.perCore[i], second.perCore[i]);
}

TEST(Determinism, SeedChangesResults)
{
    // Guard against the degenerate way to pass the tests above:
    // the seed must actually steer the simulation.
    const auto base = quick(IndexingPolicy::SiptCombined, 42);
    auto reseeded = base;
    reseeded.seed = 43;
    const RunResult a = runSingleCore("mcf", base);
    const RunResult b = runSingleCore("mcf", reseeded);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Determinism, FirstRunOnNewMemoryKeyMatchesRepeat)
{
    // A seed no other test uses: the first run conditions memory
    // and fills the memo, the second is served from it.
    const auto cfg = quick(IndexingPolicy::SiptCombined, 0x5eed1);
    const RunResult first = runSingleCore("gcc", cfg);
    const RunResult repeat = runSingleCore("gcc", cfg);
    EXPECT_EQ(runResultToJson(first).dump(),
              runResultToJson(repeat).dump());
}

TEST(Determinism, RunsSharingAnImageMatchARunOnAFreshOne)
{
    // Several policies advance cursors over one image first; the
    // last run must not see any of it.
    const std::uint64_t seed = 0x5eed8;
    for (const IndexingPolicy policy :
         {IndexingPolicy::Vipt, IndexingPolicy::SiptNaive,
          IndexingPolicy::SiptRevelator})
        (void)runSingleCore("lbm", quick(policy, seed));
    const auto cfg = quick(IndexingPolicy::SiptCombined, seed);
    const RunResult shared = runSingleCore("lbm", cfg);

    // Evict the image (the evictors share its memory key), then
    // run the same job first on a fresh build.
    for (std::size_t k = 1; k <= processImageEntries; ++k) {
        SystemConfig other = cfg;
        other.footprintScale = 0.1 * static_cast<double>(k);
        (void)singleCoreImage("lbm", other);
    }
    const std::uint64_t builds = processImageBuilds();
    const RunResult fresh = runSingleCore("lbm", cfg);
    EXPECT_EQ(processImageBuilds(), builds + 1);
    EXPECT_EQ(runResultToJson(shared).dump(),
              runResultToJson(fresh).dump());
}

/**
 * What an allocator image looks like to a run: free frames, the
 * free-block count per order, and the frames the next demand
 * faults would receive. Takes a copy; allocating from it leaves
 * the caller's image alone.
 */
std::vector<std::uint64_t>
imageSignature(os::BuddyAllocator image)
{
    std::vector<std::uint64_t> sig{image.freeFrames()};
    for (unsigned order = 0; order <= image.maxOrder(); ++order)
        sig.push_back(image.freeBlocks(order));
    for (int i = 0; i < 64; ++i)
        sig.push_back(image.allocate(0).value_or(~Pfn{0}));
    for (int i = 0; i < 8; ++i)
        sig.push_back(image.allocate(9).value_or(~Pfn{0}));
    return sig;
}

SystemConfig
smallMachine(std::uint64_t seed,
             MemCondition condition = MemCondition::Normal)
{
    SystemConfig cfg = quick(IndexingPolicy::SiptCombined, seed);
    cfg.physMemBytes = 256ull << 20;
    cfg.footprintScale = 0.05;
    cfg.condition = condition;
    return cfg;
}

TEST(ConditionedMemory, EveryKeyFieldShapesTheImage)
{
    const auto base = imageSignature(
        conditionedMemory(smallMachine(0x5eed2)));
    EXPECT_NE(base,
              imageSignature(conditionedMemory(smallMachine(
                  0x5eed2, MemCondition::Fragmented))));
    EXPECT_NE(base, imageSignature(
                        conditionedMemory(smallMachine(0x5eed3))));
    SystemConfig bigger = smallMachine(0x5eed2);
    bigger.physMemBytes = 512ull << 20;
    EXPECT_NE(base, imageSignature(conditionedMemory(bigger)));

    // Only Fragmented conditions memory differently; THP-off and
    // no-contiguity change the paging policy, not the image.
    EXPECT_EQ(base,
              imageSignature(conditionedMemory(smallMachine(
                  0x5eed2, MemCondition::ThpOff))));
    EXPECT_EQ(base,
              imageSignature(conditionedMemory(smallMachine(
                  0x5eed2, MemCondition::NoContiguity))));
}

TEST(ConditionedMemory, CallersGetPrivateCopies)
{
    const SystemConfig cfg = smallMachine(0x5eed4);
    os::BuddyAllocator mine = conditionedMemory(cfg);
    const auto before = imageSignature(mine);
    while (mine.allocate(0)) {
    }
    EXPECT_EQ(mine.freeFrames(), 0u);
    EXPECT_EQ(before, imageSignature(conditionedMemory(cfg)));
}

TEST(ConditionedMemory, RunMatchesAfterItsImageIsEvicted)
{
    const SystemConfig cfg = smallMachine(0x5eed5);
    const RunResult before = runSingleCore("mcf", cfg);
    const auto image = imageSignature(conditionedMemory(cfg));
    for (std::uint64_t k = 1; k <= conditionedMemoryEntries + 1;
         ++k) {
        (void)conditionedMemory(smallMachine(0x5eed5 + 100 * k));
    }
    EXPECT_EQ(image, imageSignature(conditionedMemory(cfg)));
    const RunResult after = runSingleCore("mcf", cfg);
    EXPECT_EQ(runResultToJson(before).dump(),
              runResultToJson(after).dump());
}

} // namespace
} // namespace sipt::sim
