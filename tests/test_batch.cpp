/**
 * @file
 * Batched-vs-scalar engine equivalence. The batch pipeline is the
 * default engine; the scalar per-reference loop is the reference
 * implementation. The contract is bit-for-bit identity of every
 * result a run produces — statistics, energy, derived metrics
 * JSON, and the SIPT_CHECK functional digest — across indexing
 * policies, speculative-bit counts, trace replay, partial final
 * batches, and multicore mixes. The engine selector must also be
 * invisible to the run-cache key.
 *
 * A batch run either replays its image's shared stream log or, when
 * longer than the log budget, drives a private producer; both must
 * match the scalar engine, for every claim-sweep policy, warm-up
 * splits that end inside a log chunk, a 4-core mix, and a golden-TLB
 * divergence, which every reader of a log must report as a private
 * run would.
 */

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "batch/pipeline.hh"
#include "cache/hierarchy.hh"
#include "cache/timing_cache.hh"
#include "common/metrics.hh"
#include "dram/dram.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

/** Scratch directory for the trace round-trip test. */
std::string
scratchFile(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_batch";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
}

/** Small but non-trivial run sizes: several full batches plus a
 *  partial tail (batch capacity is 256). */
SystemConfig
smallConfig()
{
    SystemConfig config;
    config.warmupRefs = 3'000;
    config.measureRefs = 12'500;
    config.check = true; // populate the functional digest
    return config;
}

/** Serialised derived-metrics JSON for one run result. */
std::string
metricsJson(const RunResult &result)
{
    MetricsRegistry metrics;
    fillRunMetrics(metrics, "run", result);
    return metrics.toJson().dump();
}

/** Assert bit-for-bit identity of two run results. */
void
expectIdentical(const RunResult &scalar, const RunResult &batch,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(scalar.ipc, batch.ipc);
    EXPECT_EQ(scalar.cycles, batch.cycles);
    EXPECT_EQ(scalar.instructions, batch.instructions);

    EXPECT_EQ(scalar.l1.accesses, batch.l1.accesses);
    EXPECT_EQ(scalar.l1.loads, batch.l1.loads);
    EXPECT_EQ(scalar.l1.stores, batch.l1.stores);
    EXPECT_EQ(scalar.l1.hits, batch.l1.hits);
    EXPECT_EQ(scalar.l1.misses, batch.l1.misses);
    EXPECT_EQ(scalar.l1.writebacks, batch.l1.writebacks);
    EXPECT_EQ(scalar.l1.fastAccesses, batch.l1.fastAccesses);
    EXPECT_EQ(scalar.l1.slowAccesses, batch.l1.slowAccesses);
    EXPECT_EQ(scalar.l1.extraArrayAccesses,
              batch.l1.extraArrayAccesses);
    EXPECT_EQ(scalar.l1.arrayAccesses, batch.l1.arrayAccesses);
    EXPECT_EQ(scalar.l1.weightedArrayAccesses,
              batch.l1.weightedArrayAccesses);
    EXPECT_EQ(scalar.l1.spec.correctSpeculation,
              batch.l1.spec.correctSpeculation);
    EXPECT_EQ(scalar.l1.spec.correctBypass,
              batch.l1.spec.correctBypass);
    EXPECT_EQ(scalar.l1.spec.opportunityLoss,
              batch.l1.spec.opportunityLoss);
    EXPECT_EQ(scalar.l1.spec.extraAccess,
              batch.l1.spec.extraAccess);
    EXPECT_EQ(scalar.l1.spec.idbHit, batch.l1.spec.idbHit);

    EXPECT_EQ(scalar.energy.l1Dynamic, batch.energy.l1Dynamic);
    EXPECT_EQ(scalar.energy.l2Dynamic, batch.energy.l2Dynamic);
    EXPECT_EQ(scalar.energy.llcDynamic, batch.energy.llcDynamic);
    EXPECT_EQ(scalar.energy.l1Static, batch.energy.l1Static);
    EXPECT_EQ(scalar.energy.l2Static, batch.energy.l2Static);
    EXPECT_EQ(scalar.energy.llcStatic, batch.energy.llcStatic);

    EXPECT_EQ(scalar.l1HitRate, batch.l1HitRate);
    EXPECT_EQ(scalar.fastFraction, batch.fastFraction);
    EXPECT_EQ(scalar.wayPredAccuracy, batch.wayPredAccuracy);
    EXPECT_EQ(scalar.dtlbHitRate, batch.dtlbHitRate);
    EXPECT_EQ(scalar.pageWalks, batch.pageWalks);
    EXPECT_EQ(scalar.l1Mpki, batch.l1Mpki);
    EXPECT_EQ(scalar.hugeCoverage, batch.hugeCoverage);

    EXPECT_EQ(scalar.checkDigest, batch.checkDigest);
    EXPECT_EQ(scalar.checkEvents, batch.checkEvents);
    EXPECT_EQ(scalar.checkFailure, batch.checkFailure);
    EXPECT_TRUE(scalar.checkFailure.empty())
        << scalar.checkFailure;

    EXPECT_EQ(metricsJson(scalar), metricsJson(batch));
}

/** Run @p config under both engines and assert identity. */
void
compareEngines(const std::string &app, SystemConfig config,
               const std::string &label)
{
    config.engine = EngineSelect::Scalar;
    const RunResult scalar = runSingleCore(app, config);
    config.engine = EngineSelect::Batch;
    const RunResult batch = runSingleCore(app, config);
    expectIdentical(scalar, batch, label);
}

TEST(BatchEngine, BitIdenticalAcrossPoliciesAndSpecBits)
{
    // L1 geometries spanning 0..3 speculative index bits at 2-way
    // (32 KiB / 2-way = 2 bits above the 4 KiB page offset, etc.).
    struct Geometry
    {
        std::uint64_t sizeBytes;
        unsigned specBits;
    };
    const Geometry geometries[] = {
        {8 * 1024, 0},
        {16 * 1024, 1},
        {32 * 1024, 2},
        {64 * 1024, 3},
    };
    for (const Geometry &geom : geometries) {
        std::vector<IndexingPolicy> policies;
        if (geom.specBits == 0) {
            // VIPT-feasible geometry: no bits to speculate on.
            policies = {IndexingPolicy::Vipt,
                        IndexingPolicy::Ideal};
        } else {
            policies = {IndexingPolicy::Ideal,
                        IndexingPolicy::SiptNaive,
                        IndexingPolicy::SiptBypass,
                        IndexingPolicy::SiptCombined,
                        IndexingPolicy::SiptVespa,
                        IndexingPolicy::SiptRevelator,
                        IndexingPolicy::SiptPcax};
        }
        for (const IndexingPolicy policy : policies) {
            SystemConfig config = smallConfig();
            config.l1Config = L1Config::Sipt32K2;
            config.l1SizeBytes = geom.sizeBytes;
            config.l1Assoc = 2;
            config.policy = policy;
            compareEngines(
                "gcc", config,
                "size=" + std::to_string(geom.sizeBytes) +
                    " policy=" +
                    std::to_string(static_cast<int>(policy)));
        }
    }
}

TEST(BatchEngine, BitIdenticalWithWayPredictionAndInOrder)
{
    SystemConfig config = smallConfig();
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;
    config.wayPrediction = true;
    compareEngines("hmmer", config, "way-prediction");

    SystemConfig inorder = smallConfig();
    inorder.outOfOrder = false;
    inorder.l1Config = L1Config::Sipt32K2;
    inorder.policy = IndexingPolicy::SiptBypass;
    compareEngines("mcf", inorder, "in-order core");
}

TEST(BatchEngine, BitIdenticalUnderMemoryConditions)
{
    // Fragmented physical memory and THP-off change the page-table
    // shape (small-page heavy, scattered frames), exercising both
    // the flat page-map snapshot and its sparse fallback.
    for (const MemCondition condition :
         {MemCondition::Fragmented, MemCondition::ThpOff}) {
        SystemConfig config = smallConfig();
        config.l1Config = L1Config::Sipt32K2;
        config.policy = IndexingPolicy::SiptCombined;
        config.condition = condition;
        compareEngines("astar", config,
                       std::string("condition=") +
                           conditionName(condition));
    }
}

TEST(BatchEngine, BitIdenticalOnHugePageSynonyms)
{
    // A 2 MiB-backed shared-synonym stream drives the batch
    // pipeline's huge-page lane: the VESPA gate fires on every
    // reference, and the translation predictors see huge frames.
    for (const IndexingPolicy policy :
         {IndexingPolicy::SiptCombined, IndexingPolicy::SiptVespa,
          IndexingPolicy::SiptRevelator,
          IndexingPolicy::SiptPcax}) {
        SystemConfig config = smallConfig();
        config.l1Config = L1Config::Sipt32K2;
        config.policy = policy;
        compareEngines("synonym:shared-huge", config,
                       "huge synonyms policy=" +
                           std::to_string(
                               static_cast<int>(policy)));
    }
}

TEST(BatchEngine, PartialFinalBatchSizes)
{
    // Batch capacity is 256: cover a run smaller than one batch, a
    // prime-size run, and a multiple-plus-tail run.
    for (const std::uint64_t measure : {100ull, 257ull, 1000ull}) {
        SystemConfig config = smallConfig();
        config.warmupRefs = 100;
        config.measureRefs = measure;
        config.l1Config = L1Config::Sipt32K2;
        config.policy = IndexingPolicy::SiptCombined;
        compareEngines("libquantum", config,
                       "measure=" + std::to_string(measure));
    }
}

TEST(BatchEngine, TraceReplayRoundTripBitIdentical)
{
    SystemConfig config = smallConfig();
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;

    const std::string path = scratchFile("replay.sipttrace");
    recordTrace("milc", config, path);
    const std::string app = "trace:" + path;

    // Replay under both engines, and against the live run.
    config.engine = EngineSelect::Scalar;
    const RunResult live = runSingleCore("milc", config);
    const RunResult scalar = runSingleCore(app, config);
    config.engine = EngineSelect::Batch;
    const RunResult batch = runSingleCore(app, config);
    expectIdentical(scalar, batch, "trace replay");
    EXPECT_EQ(live.checkDigest, batch.checkDigest);
    EXPECT_EQ(live.ipc, batch.ipc);
    std::filesystem::remove(path);
}

TEST(BatchEngine, RadixWalkerFallsBackToScalar)
{
    // Radix-walker translation latency depends on the issue cycle,
    // so the batch engine must fall back; requesting Batch still
    // has to produce the scalar result.
    SystemConfig config = smallConfig();
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;
    config.radixWalker = true;
    compareEngines("gcc", config, "radix walker");
}

TEST(BatchEngine, MulticoreBitIdentical)
{
    SystemConfig config = smallConfig();
    config.warmupRefs = 1'000;
    config.measureRefs = 4'000;
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;
    const std::vector<std::string> mix = {"mcf", "hmmer", "gcc",
                                          "astar"};

    config.engine = EngineSelect::Scalar;
    const MulticoreResult scalar = runMulticore(mix, config);
    config.engine = EngineSelect::Batch;
    const MulticoreResult batch = runMulticore(mix, config);

    ASSERT_EQ(scalar.perCore.size(), batch.perCore.size());
    for (std::size_t i = 0; i < scalar.perCore.size(); ++i) {
        expectIdentical(scalar.perCore[i], batch.perCore[i],
                        "core " + std::to_string(i));
    }
    EXPECT_EQ(scalar.sumIpc, batch.sumIpc);
    EXPECT_EQ(scalar.energy.dynamicTotal(),
              batch.energy.dynamicTotal());
    EXPECT_EQ(scalar.energy.staticTotal(),
              batch.energy.staticTotal());
}

TEST(BatchEngine, EngineExcludedFromRunCacheKey)
{
    SystemConfig a;
    SystemConfig b = a;
    b.engine = EngineSelect::Batch;
    a.engine = EngineSelect::Scalar;
    // Bit-identical engines: the selector must be invisible to the
    // run cache, or a sweep could return different-engine results
    // for the same key (fine) while missing its memo (not fine).
    EXPECT_TRUE(a == b);
    EXPECT_EQ(hashValue(a), hashValue(b));

    // A result-influencing field must still break equality.
    b.measureRefs += 1;
    EXPECT_FALSE(a == b);
}


/** The 8 (L1, policy) pairs of the claim-sweep benchmark. */
const std::vector<std::pair<L1Config, IndexingPolicy>> &
claimSweepPolicies()
{
    static const std::vector<std::pair<L1Config, IndexingPolicy>>
        policies = {
            {L1Config::Baseline32K8, IndexingPolicy::Vipt},
            {L1Config::Sipt32K2, IndexingPolicy::Ideal},
            {L1Config::Sipt32K2, IndexingPolicy::SiptNaive},
            {L1Config::Sipt32K2, IndexingPolicy::SiptBypass},
            {L1Config::Sipt32K2, IndexingPolicy::SiptCombined},
            {L1Config::Sipt32K2, IndexingPolicy::SiptVespa},
            {L1Config::Sipt32K2, IndexingPolicy::SiptRevelator},
            {L1Config::Sipt32K2, IndexingPolicy::SiptPcax},
        };
    return policies;
}

/** runResultToJson() of @p r plus its SIPT_CHECK digest. */
std::string
resultDigest(const RunResult &r)
{
    EXPECT_NE(r.checkDigest, 0u) << r.app;
    return runResultToJson(r).dump() +
           " digest=" + std::to_string(r.checkDigest);
}

/** References a log holds after runs of up to @p refs each. */
std::uint64_t
loggedRefs(std::uint64_t refs)
{
    const std::uint64_t chunk = batch::StreamLog::chunkRefs;
    return (refs + chunk - 1) / chunk * chunk;
}

TEST(StreamLog, EveryClaimSweepPolicyMatchesScalarOnASharedLog)
{
    SystemConfig config = smallConfig();
    config.seed = 0x5e1001;
    ASSERT_TRUE(batch::StreamLog::serves(
        config.warmupRefs + config.measureRefs, 1));
    const std::uint64_t made = translatedRefs();
    for (const auto &[l1, policy] : claimSweepPolicies()) {
        config.l1Config = l1;
        config.policy = policy;
        const std::string label =
            "policy=" + std::to_string(static_cast<int>(policy));
        config.engine = EngineSelect::Scalar;
        const RunResult scalar = runSingleCore("mcf", config);
        config.engine = EngineSelect::Batch;
        const RunResult batch = runSingleCore("mcf", config);
        expectIdentical(scalar, batch, label);
        EXPECT_EQ(resultDigest(scalar), resultDigest(batch)) << label;
    }
    // All eight replayed one log, produced once.
    EXPECT_EQ(translatedRefs() - made,
              loggedRefs(config.warmupRefs + config.measureRefs));
}

TEST(StreamLog, RunsLongerThanTheBudgetMatchScalar)
{
    // One core over the budget, and a quad mix over a quarter of
    // it: each run drives its own producer and keeps no log.
    SystemConfig config = smallConfig();
    config.seed = 0x5e1002;
    config.physMemBytes = 256ull << 20;
    config.footprintScale = 0.05;
    config.warmupRefs = batch::StreamLog::maxRefs;
    config.measureRefs = 2'000;
    ASSERT_FALSE(batch::StreamLog::serves(
        config.warmupRefs + config.measureRefs, 1));
    for (const IndexingPolicy policy :
         {IndexingPolicy::SiptNaive, IndexingPolicy::SiptCombined}) {
        config.l1Config = L1Config::Sipt32K2;
        config.policy = policy;
        const std::string label =
            "policy=" + std::to_string(static_cast<int>(policy));
        config.engine = EngineSelect::Scalar;
        const RunResult scalar = runSingleCore("mcf", config);
        config.engine = EngineSelect::Batch;
        const std::uint64_t made = translatedRefs();
        const RunResult batch = runSingleCore("mcf", config);
        EXPECT_EQ(translatedRefs() - made,
                  config.warmupRefs + config.measureRefs);
        expectIdentical(scalar, batch, label);
        EXPECT_EQ(resultDigest(scalar), resultDigest(batch)) << label;
    }
}

TEST(StreamLog, WarmupEndingMidChunkSharesTheLog)
{
    // Different warm-up splits of one image's stream, none on a
    // chunk boundary, all replaying the log the first one filled.
    SystemConfig config = smallConfig();
    config.seed = 0x5e1003;
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;
    const std::uint64_t chunk = batch::StreamLog::chunkRefs;
    const std::uint64_t total = 8 * chunk - 100;
    const std::uint64_t made = translatedRefs();
    for (const std::uint64_t warmup :
         {3 * chunk - 72, chunk / 2 + 1, 5 * chunk + 3}) {
        ASSERT_NE(warmup % chunk, 0u);
        config.warmupRefs = warmup;
        config.measureRefs = total - warmup;
        compareEngines("gcc", config,
                       "warmup=" + std::to_string(warmup));
    }
    // A shorter run of the same stream reads a prefix of the log.
    config.warmupRefs = chunk + 5;
    config.measureRefs = 700;
    compareEngines("gcc", config, "shorter run");
    EXPECT_EQ(translatedRefs() - made, loggedRefs(total));
}

TEST(StreamLog, RunsShorterThanAChunkKeepNoLog)
{
    // A set-up probe of a few references drives its own producer:
    // it neither fills a chunk of the image's log nor reads one.
    SystemConfig config = smallConfig();
    config.seed = 0x5e1007;
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;
    for (const std::uint64_t refs :
         {std::uint64_t{1}, batch::StreamLog::chunkRefs - 1}) {
        config.warmupRefs = 0;
        config.measureRefs = refs;
        ASSERT_FALSE(batch::StreamLog::serves(refs, 1));
        const std::uint64_t made = translatedRefs();
        compareEngines("gcc", config, "refs=" + std::to_string(refs));
        EXPECT_EQ(translatedRefs() - made, refs);
    }
    // The first run of a chunk or more fills the log from its start.
    config.measureRefs = batch::StreamLog::chunkRefs;
    ASSERT_TRUE(batch::StreamLog::serves(config.measureRefs, 1));
    const std::uint64_t made = translatedRefs();
    compareEngines("gcc", config, "one chunk");
    EXPECT_EQ(translatedRefs() - made, batch::StreamLog::chunkRefs);
}

TEST(StreamLog, QuadMixWithTraceCoreAndSharedSegmentMatchesScalar)
{
    SystemConfig config = smallConfig();
    config.seed = 0x5e1004;
    config.l1Config = L1Config::Sipt32K2;
    config.policy = IndexingPolicy::SiptCombined;
    config.physMemBytes = 512ull << 20;
    config.footprintScale = 0.1;
    const std::string path = scratchFile("quad-log.sipttrace");
    recordTrace("gcc", config, path);
    const std::vector<std::string> mix = {
        "mcf", "synonym:shared-a4-k1", "trace:" + path,
        "synonym:shared-a4-k1"};

    auto compare = [&](const SystemConfig &cfg,
                       const std::string &label) {
        SystemConfig scalar_cfg = cfg;
        scalar_cfg.engine = EngineSelect::Scalar;
        SystemConfig batch_cfg = cfg;
        batch_cfg.engine = EngineSelect::Batch;
        const MulticoreResult scalar = runMulticore(mix, scalar_cfg);
        const MulticoreResult batch = runMulticore(mix, batch_cfg);
        ASSERT_EQ(scalar.perCore.size(), 4u);
        ASSERT_EQ(batch.perCore.size(), 4u);
        for (std::size_t c = 0; c < 4; ++c) {
            const std::string core =
                label + " core " + std::to_string(c);
            expectIdentical(scalar.perCore[c], batch.perCore[c], core);
            EXPECT_EQ(resultDigest(scalar.perCore[c]),
                      resultDigest(batch.perCore[c]))
                << core;
        }
        EXPECT_EQ(scalar.sumIpc, batch.sumIpc) << label;
    };

    // Within the budget: every core replays its process's log.
    const std::uint64_t made = translatedRefs();
    compare(config, "shared logs");
    EXPECT_EQ(translatedRefs() - made,
              4 * loggedRefs(config.warmupRefs + config.measureRefs));

    // Over a quarter of the budget per core: private producers.
    config.warmupRefs = batch::StreamLog::maxRefs / 4;
    config.measureRefs = 1'000;
    ASSERT_FALSE(batch::StreamLog::serves(
        config.warmupRefs + config.measureRefs, 4));
    compare(config, "private producers");
    std::filesystem::remove(path);
}

/** One core's caches and timing model, checker on, recording
 *  divergences instead of aborting. */
struct CheckedCore
{
    dram::Dram dram;
    cache::TimingCache llc{llcPreset(true, 1)};
    cache::TimingCacheParams l2 = l2Preset();
    cache::BelowL1 below{&l2, llc, dram};
    SiptL1Cache l1{[] {
                       L1Params params = l1Preset(
                           L1Config::Sipt32K2,
                           IndexingPolicy::SiptCombined, false);
                       params.check.enabled = true;
                       params.check.abortOnDivergence = false;
                       return params;
                   }(),
                   below};
    cpu::TraceCore core{cpu::outOfOrderCoreParams()};
};

/** What @p pipeline reports after a warm-up and a measured run. */
std::string
runChecked(batch::BatchPipeline &pipeline, CheckedCore &machine)
{
    pipeline.run(1'500);
    const cpu::CoreResult measured = pipeline.run(2'500);
    return pipeline.checkFailure() + " digest=" +
           std::to_string(machine.l1.checkDigest()) +
           " cycles=" + std::to_string(measured.cycles);
}

TEST(StreamLog, CheckRunsReportTheFirstTlbDivergenceAsAPrivateRunWould)
{
    // A translated stream whose flat page map disagrees with the
    // page table on the first reference's page: the golden-TLB
    // check of every run must report that reference, whether the
    // run drives its own producer, fills the log, or replays it.
    SystemConfig config = smallConfig();
    config.seed = 0x5e1005;
    config.condition = MemCondition::ThpOff; // 4 KiB pages only
    config.physMemBytes = 256ull << 20;
    config.footprintScale = 0.05;
    const auto image = singleCoreImage("mcf", config);
    const ProcessImage::Process &proc = image->processes.front();
    const vm::PageTable &table = proc.as->pageTable();

    MemRef first;
    ASSERT_TRUE(proc.newCursor()->next(first));
    const auto golden = table.translate(first.vaddr);
    ASSERT_TRUE(golden.has_value());
    ASSERT_FALSE(golden->hugePage);
    vm::PageTable remapped = table;
    remapped.unmapPage(first.vaddr);
    remapped.mapPage(first.vaddr, pageNumber(golden->paddr) + 1);
    const auto wrong =
        std::make_shared<const batch::FlatPageMap>(remapped);

    std::ostringstream expected;
    expected << "TLB divergence at va 0x" << std::hex << first.vaddr
             << ": MMU pa 0x" << (golden->paddr + pageSize)
             << ", page table pa 0x" << golden->paddr;

    CheckedCore own;
    batch::BatchPipeline private_run(
        std::make_unique<batch::StreamProducer>(
            proc.newCursor(), mmuPreset(), table, wrong),
        own.l1, own.core);
    const std::string reference = runChecked(private_run, own);
    EXPECT_EQ(private_run.checkFailure(), expected.str());

    batch::StreamLog log([&] { return proc.newCursor(); }, mmuPreset(),
                         table, wrong);
    for (const char *reader : {"filling", "replaying"}) {
        CheckedCore shared;
        batch::BatchPipeline run(log, shared.l1, shared.core);
        EXPECT_EQ(runChecked(run, shared), reference) << reader;
    }
}

} // namespace
} // namespace sipt::sim
