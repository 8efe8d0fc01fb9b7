/**
 * @file
 * The parallel sweep engine: submission-order results from
 * runBatch(), memo/disk cache hit accounting, in-flight
 * deduplication of identical concurrent jobs, generic async()
 * tasks, and bit-identical results across thread counts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "sim/sweep.hh"

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

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1.accesses, b.l1.accesses);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.spec.correctSpeculation,
              b.l1.spec.correctSpeculation);
    EXPECT_DOUBLE_EQ(a.fastFraction, b.fastFraction);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
    EXPECT_DOUBLE_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.pageWalks, b.pageWalks);
}

std::vector<SweepJob>
mixedBatch()
{
    return {
        {"mcf", quick(IndexingPolicy::Vipt)},
        {"gcc", quick(IndexingPolicy::SiptCombined)},
        {"mcf", quick(IndexingPolicy::SiptNaive)},
        {"lbm", quick(IndexingPolicy::Ideal)},
        {"gcc", quick(IndexingPolicy::SiptCombined, 7)},
    };
}

TEST(Sweep, RunBatchPreservesSubmissionOrder)
{
    SweepRunner runner(SweepOptions{4, "-"});
    const auto jobs = mixedBatch();
    const auto results = runner.runBatch(jobs);

    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].app, jobs[i].app)
            << "row " << i << " out of submission order";
        expectSameResult(results[i],
                         runSingleCore(jobs[i].app,
                                       jobs[i].config));
    }
}

TEST(Sweep, ThreadCountDoesNotChangeResults)
{
    SweepRunner sequential(SweepOptions{1, "-"});
    SweepRunner parallel(SweepOptions{4, "-"});
    const auto jobs = mixedBatch();
    const auto seq = sequential.runBatch(jobs);
    const auto par = parallel.runBatch(jobs);

    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        expectSameResult(seq[i], par[i]);
}

TEST(Sweep, MemoHitsServeRepeatedKeys)
{
    SweepRunner runner(SweepOptions{1, "-"});
    const auto cfg = quick(IndexingPolicy::SiptCombined);

    auto first = runner.enqueue("mcf", cfg);
    auto again = runner.enqueue("mcf", cfg);
    auto other = runner.enqueue("gcc", cfg);

    expectSameResult(first.get(), again.get());
    (void)other.get();

    const auto s = runner.stats();
    EXPECT_EQ(s.submitted, 3u);
    EXPECT_EQ(s.executed, 2u);
    EXPECT_EQ(s.memoHits, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 1.0 / 3.0);
}

TEST(Sweep, InflightSubmissionsShareOneSimulation)
{
    SweepRunner runner(SweepOptions{4, "-"});
    const auto cfg = quick(IndexingPolicy::SiptCombined);

    // All ten submissions land before any worker can finish the
    // first (a job takes milliseconds); nine must attach to the
    // in-flight run rather than re-simulate.
    std::vector<std::shared_future<RunResult>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(runner.enqueue("mcf", cfg));
    for (auto &f : futures)
        expectSameResult(f.get(), futures.front().get());

    const auto s = runner.stats();
    EXPECT_EQ(s.submitted, 10u);
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.memoHits + s.inflightShares, 9u);
}

TEST(Sweep, DiskCacheSurvivesRunnerRestart)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_run_cache";
    std::filesystem::remove_all(dir);

    const auto cfg = quick(IndexingPolicy::SiptCombined);
    RunResult cold;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        cold = runner.enqueue("mcf", cfg).get();
        EXPECT_EQ(runner.stats().executed, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
    }

    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        const auto warm = runner.enqueue("mcf", cfg).get();
        expectSameResult(cold, warm);
        const auto s = runner.stats();
        EXPECT_EQ(s.executed, 0u);
        EXPECT_EQ(s.diskHits, 1u);
        EXPECT_DOUBLE_EQ(s.hitRate(), 1.0);

        // A different key is a miss, not a collision.
        const auto miss =
            runner.enqueue("mcf",
                           quick(IndexingPolicy::SiptCombined,
                                 7));
        (void)miss.get();
        EXPECT_EQ(runner.stats().executed, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sweep, TruncatedDiskEntryIsDiscardedNotFatal)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_torn_cache";
    std::filesystem::remove_all(dir);

    const auto cfg = quick(IndexingPolicy::SiptCombined);
    RunResult cold;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        cold = runner.enqueue("mcf", cfg).get();
    }

    std::filesystem::path entry;
    for (const auto &file :
         std::filesystem::directory_iterator(dir))
        entry = file.path();
    ASSERT_FALSE(entry.empty());
    std::string good;
    {
        std::ifstream in(entry);
        std::getline(in, good);
    }
    const auto parsed = Json::parse(good);
    ASSERT_TRUE(parsed.has_value());
    const std::string key = parsed->get("key").dump();
    const std::string result = parsed->get("result").dump();
    Json mistyped = parsed->get("result");
    mistyped.set("ipc", "fast");

    const std::string defects[] = {
        // A torn write: the entry chopped mid-JSON, the state a
        // crash inside an unsynced write() could leave.
        // (storeToDisk's write-tmp + fsync + rename makes this
        // impossible going forward; old caches may still hold one.)
        good.substr(0, good.size() / 2),
        // Valid JSON of the wrong shape.
        "[1,2]",
        // The right key, but a result missing every member but one.
        R"({"version":5,"key":)" + key +
            R"(,"result":{"app":"mcf"}})",
        // A result member of the wrong type.
        R"({"version":5,"key":)" + key + R"(,"result":)" +
            mistyped.dump() + "}",
        // A version that is not an integer.
        R"({"version":"5","key":)" + key + R"(,"result":)" +
            result + "}",
    };
    for (const std::string &defect : defects) {
        {
            std::ofstream out(entry, std::ios::trunc);
            out << defect;
        }
        SweepRunner runner(SweepOptions{1, dir.string()});
        const auto rerun = runner.enqueue("mcf", cfg).get();
        // The defective entry must degrade to a miss
        // (re-execution), never a parse abort or a half-read
        // result.
        const auto s = runner.stats();
        EXPECT_EQ(s.diskHits, 0u) << defect;
        EXPECT_EQ(s.executed, 1u) << defect;
        expectSameResult(cold, rerun);
    }

    // The re-run republished the entry; a third runner hits it.
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue("mcf", cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sweep, CanonicalJsonBytesArePinned)
{
    // The run key, the disk-cache file names, serve's job ids and
    // wire results all hash or echo these bytes, so member order
    // and number formatting are a format: a reordered field table
    // fails here. Every field holds a non-default value.
    SystemConfig c;
    c.outOfOrder = false;
    c.l1Config = L1Config::Sipt64K4;
    c.l1SizeBytes = 65536;
    c.l1Assoc = 4;
    c.l1HitLatency = 3;
    c.policy = IndexingPolicy::SiptPcax;
    c.xlatPredEntries = 256;
    c.wayPrediction = true;
    c.radixWalker = true;
    c.condition = MemCondition::NoContiguity;
    c.physMemBytes = 1ull << 30;
    c.warmupRefs = 1234;
    c.measureRefs = 5678;
    c.seed = 7;
    c.footprintScale = 0.1;
    c.check = true;
    EXPECT_EQ(configToJson(c).dump(),
              R"({"outOfOrder":false,"l1Config":4,"l1SizeBytes":65536,)"
              R"("l1Assoc":4,"l1HitLatency":3,"policy":7,)"
              R"("xlatPredEntries":256,"wayPrediction":true,)"
              R"("radixWalker":true,"condition":3,)"
              R"("physMemBytes":1073741824,"warmupRefs":1234,)"
              R"("measureRefs":5678,"seed":7,)"
              R"("footprintScale":0.10000000000000001,"check":true})");

    RunResult r;
    r.app = "mcf";
    r.ipc = 1.5;
    r.cycles = 12345.0;
    r.instructions = 20000;
    r.l1.accesses = 1;
    r.l1.loads = 2;
    r.l1.stores = 3;
    r.l1.hits = 4;
    r.l1.misses = 5;
    r.l1.writebacks = 6;
    r.l1.fastAccesses = 7;
    r.l1.slowAccesses = 8;
    r.l1.extraArrayAccesses = 9;
    r.l1.arrayAccesses = 10;
    r.l1.weightedArrayAccesses = 10.25;
    r.l1.hugeAccesses = 11;
    r.l1.hugeReplays = 12;
    r.l1.hugeBypassLosses = 13;
    r.l1.spec.correctSpeculation = 14;
    r.l1.spec.correctBypass = 15;
    r.l1.spec.opportunityLoss = 16;
    r.l1.spec.extraAccess = 17;
    r.l1.spec.idbHit = 18;
    r.l1HitRate = 0.75;
    r.fastFraction = 0.1;
    r.energy.l1Dynamic = 1.0;
    r.energy.l2Dynamic = 2.5;
    r.energy.llcDynamic = 3.0;
    r.energy.l1Static = 4.0;
    r.energy.l2Static = 5.0;
    r.energy.llcStatic = 6.0;
    r.hugeCoverage = 0.5;
    r.wayPredAccuracy = 0.875;
    r.dtlbHitRate = 0.99;
    r.pageWalks = 19;
    r.l1Mpki = 2.25;
    r.checkDigest = 0xfedcba9876543210ull;
    r.checkEvents = 20;
    r.checkFailure = "none";
    r.vivtReverseProbes = 21;
    r.vivtInvalidations = 22;
    r.vivtDirtyForwards = 23;
    EXPECT_EQ(
        runResultToJson(r).dump(),
        R"({"app":"mcf","ipc":1.5,"cycles":12345.0,)"
        R"("instructions":20000,"l1":{"accesses":1,"loads":2,)"
        R"("stores":3,"hits":4,"misses":5,"writebacks":6,)"
        R"("fastAccesses":7,"slowAccesses":8,)"
        R"("extraArrayAccesses":9,"arrayAccesses":10,)"
        R"("weightedArrayAccesses":10.25,"hugeAccesses":11,)"
        R"("hugeReplays":12,"hugeBypassLosses":13,)"
        R"("correctSpeculation":14,"correctBypass":15,)"
        R"("opportunityLoss":16,"extraAccess":17,"idbHit":18},)"
        R"("l1HitRate":0.75,"fastFraction":0.10000000000000001,)"
        R"("energy":{"l1Dynamic":1.0,"l2Dynamic":2.5,)"
        R"("llcDynamic":3.0,"l1Static":4.0,"l2Static":5.0,)"
        R"("llcStatic":6.0},"hugeCoverage":0.5,)"
        R"("wayPredAccuracy":0.875,)"
        R"("dtlbHitRate":0.98999999999999999,"pageWalks":19,)"
        R"("l1Mpki":2.25,"checkDigest":18364758544493064720,)"
        R"("checkEvents":20,"checkFailure":"none",)"
        R"("vivtReverseProbes":21,"vivtInvalidations":22,)"
        R"("vivtDirtyForwards":23})");
}

TEST(Sweep, DiskCacheRoundTripsMulticore)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_multi_cache";
    std::filesystem::remove_all(dir);

    auto cfg = quick(IndexingPolicy::SiptCombined);
    cfg.footprintScale = 0.5;
    const std::vector<std::string> mix = {"mcf", "gcc", "mcf",
                                          "gcc"};
    MulticoreResult cold;
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        cold = runner.enqueueMulticore(mix, cfg).get();
    }
    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        const auto warm =
            runner.enqueueMulticore(mix, cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 1u);
        EXPECT_DOUBLE_EQ(cold.sumIpc, warm.sumIpc);
        EXPECT_DOUBLE_EQ(cold.energy.total(),
                         warm.energy.total());
        ASSERT_EQ(cold.perCore.size(), warm.perCore.size());
        for (std::size_t i = 0; i < cold.perCore.size(); ++i)
            expectSameResult(cold.perCore[i], warm.perCore[i]);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sweep, TraceRunsReplayThroughTheCache)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "sipt_test_sweep_trace.sipttrace";
    const auto cfg = quick(IndexingPolicy::SiptCombined);
    recordTrace("mcf", cfg, path.string());
    const std::string app = "trace:" + path.string();

    SweepRunner runner(SweepOptions{1, "-"});
    auto first = runner.enqueue(app, cfg);
    auto again = runner.enqueue(app, cfg);
    expectSameResult(first.get(), again.get());
    expectSameResult(first.get(), runSingleCore(app, cfg));

    const auto s = runner.stats();
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.memoHits, 1u);
    std::filesystem::remove(path);
}

TEST(Sweep, EditedTraceInvalidatesMemoAndDiskCache)
{
    // Re-recording a trace at the same path with a different
    // seed changes nothing the config key can see — only the
    // file's bytes. The cache must key on content, not path.
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_trace_cache";
    std::filesystem::remove_all(dir);
    const auto path = std::filesystem::temp_directory_path() /
                      "sipt_test_sweep_edited.sipttrace";

    const auto cfg = quick(IndexingPolicy::SiptCombined);
    auto recording = cfg;
    recordTrace("mcf", recording, path.string());
    const std::string app = "trace:" + path.string();

    {
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().executed, 1u);

        // In-place edit under a live runner: the memo entry for
        // the old content must not serve the new file.
        recording.seed = cfg.seed + 1;
        recordTrace("mcf", recording, path.string());
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().executed, 2u);
        EXPECT_EQ(runner.stats().memoHits, 0u);
    }

    {
        // Unchanged content is a disk hit across restarts...
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 1u);
        EXPECT_EQ(runner.stats().executed, 0u);
    }
    recording.seed = cfg.seed + 2;
    recordTrace("mcf", recording, path.string());
    {
        // ...but another edit misses the disk cache too.
        SweepRunner runner(SweepOptions{1, dir.string()});
        (void)runner.enqueue(app, cfg).get();
        EXPECT_EQ(runner.stats().diskHits, 0u);
        EXPECT_EQ(runner.stats().executed, 1u);
    }
    std::filesystem::remove_all(dir);
    std::filesystem::remove(path);
}

TEST(Sweep, AsyncRunsGenericTasks)
{
    SweepRunner runner(SweepOptions{4, "-"});
    std::vector<std::shared_future<int>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(runner.async([i] { return i * i; }));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(futures[i].get(), i * i);

    const auto s = runner.stats();
    EXPECT_EQ(s.genericTasks, 8u);
    EXPECT_EQ(s.submitted, 0u);
}

TEST(Sweep, StatsRates)
{
    SweepStats s;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.jobsPerSec(), 0.0);

    s.submitted = 4;
    s.memoHits = 1;
    s.diskHits = 1;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

} // namespace
} // namespace sipt::sim
