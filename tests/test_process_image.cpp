/**
 * @file
 * Process images: the immutable post-allocation state every run of
 * an (app, seed, memory) stream shares.
 *
 * A memoized image must be exactly what a fresh build gives. For
 * every kind of app (synthetic, each synonym mode, trace replay, a
 * 4-core mix with a shared segment) a run on a fresh image, on a
 * memo hit and after eviction must agree byte for byte in the
 * metrics JSON and the SIPT_CHECK digest. The image key must cover
 * every input the build reads: each key field changes the image,
 * and no other SystemConfig field can. The memo itself must build a
 * missing key once however many callers race on it, and a failed
 * build must reach every waiter and stay unmemoized.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "sim/lru_memo.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

/** A small machine, checker on: images build in milliseconds. */
SystemConfig
small(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.l1Config = L1Config::Sipt32K2;
    cfg.policy = IndexingPolicy::SiptCombined;
    cfg.warmupRefs = 2'000;
    cfg.measureRefs = 4'000;
    cfg.seed = seed;
    cfg.physMemBytes = 256ull << 20;
    cfg.footprintScale = 0.05;
    cfg.check = true;
    return cfg;
}

/** Push processImageEntries other images through the memo, so the
 *  next request for any earlier key builds afresh. The evictors
 *  share @p cfg's conditioned memory and differ only in footprint
 *  scale, which no test here uses. */
void
evictImages(const SystemConfig &cfg)
{
    for (std::size_t k = 1; k <= processImageEntries; ++k) {
        SystemConfig other = cfg;
        other.footprintScale = 0.01 + 0.001 * static_cast<double>(k);
        (void)singleCoreImage("mcf", other);
    }
}

std::string
resultJson(const RunResult &r)
{
    EXPECT_TRUE(r.checkFailure.empty()) << r.checkFailure;
    EXPECT_NE(r.checkDigest, 0u) << r.app;
    return runResultToJson(r).dump() + " digest=" +
           std::to_string(r.checkDigest);
}

std::string
resultJson(const MulticoreResult &r)
{
    std::string out;
    for (const RunResult &core : r.perCore)
        out += resultJson(core) + "\n";
    return out + std::to_string(r.sumIpc);
}

/**
 * Run @p run three times: on a fresh image, on a memo hit and after
 * the image was evicted. All three must agree, and the memo must
 * build exactly when expected.
 */
template <typename Run>
void
expectSameOnFreshHitAndEvicted(const SystemConfig &cfg, Run run)
{
    const std::uint64_t before = processImageBuilds();
    const std::string fresh = resultJson(run());
    EXPECT_EQ(processImageBuilds(), before + 1) << "not a fresh image";
    const std::string hit = resultJson(run());
    EXPECT_EQ(processImageBuilds(), before + 1) << "memo missed";
    evictImages(cfg);
    const std::uint64_t evicted_at = processImageBuilds();
    const std::string evicted = resultJson(run());
    EXPECT_EQ(processImageBuilds(), evicted_at + 1)
        << "image was not evicted";
    EXPECT_EQ(fresh, hit);
    EXPECT_EQ(fresh, evicted);
}

void
expectSingleCoreStable(const std::string &app, std::uint64_t seed)
{
    SCOPED_TRACE(app);
    const SystemConfig cfg = small(seed);
    expectSameOnFreshHitAndEvicted(
        cfg, [&] { return runSingleCore(app, cfg); });
}

TEST(ProcessImage, SyntheticRunIsStableAcrossImageLifecycle)
{
    expectSingleCoreStable("mcf", 0x1a6e01);
    expectSingleCoreStable("libquantum", 0x1a6e01);
}

TEST(ProcessImage, SynonymRunsAreStableAcrossImageLifecycle)
{
    for (const char *app :
         {"synonym:alias-a3-k2", "synonym:cow-a2-k1",
          "synonym:shared-a4-k1", "synonym:shared-a2-k1-huge"})
        expectSingleCoreStable(app, 0x1a6e02);
}

/** A trace file under the test temp dir, removed at scope exit. */
class ScratchTrace
{
  public:
    explicit ScratchTrace(const std::string &name)
        : path_(testing::TempDir() + "/process-image-" + name +
                ".sipttrace")
    {
    }
    ~ScratchTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }
    std::string app() const { return "trace:" + path_; }

  private:
    std::string path_;
};

TEST(ProcessImage, TraceReplayIsStableAcrossImageLifecycle)
{
    const ScratchTrace trace("replay");
    const SystemConfig cfg = small(0x1a6e03);
    recordTrace("gcc", cfg, trace.path());
    expectSameOnFreshHitAndEvicted(
        cfg, [&] { return runSingleCore(trace.app(), cfg); });
}

/** resultJson() of @p r under a neutral app name, so a replay
 *  compares with the run it recorded. */
std::string
resultJsonAnyApp(RunResult r)
{
    r.app.clear();
    return resultJson(r);
}

TEST(ProcessImage, RecordedTraceReplaysTheLiveRun)
{
    // recordTrace tees a cursor copied from the live run's image,
    // so replaying the file reproduces the live run.
    const ScratchTrace trace("live");
    const SystemConfig cfg = small(0x1a6e04);
    recordTrace("mcf", cfg, trace.path());
    EXPECT_EQ(resultJsonAnyApp(runSingleCore("mcf", cfg)),
              resultJsonAnyApp(runSingleCore(trace.app(), cfg)));
}

TEST(ProcessImage, MulticoreMixWithSharedSegmentIsStable)
{
    const ScratchTrace trace("quad");
    SystemConfig cfg = small(0x1a6e05);
    cfg.warmupRefs = 1'000;
    cfg.measureRefs = 2'000;
    recordTrace("gcc", cfg, trace.path());
    const std::vector<std::string> mix = {
        "mcf", "synonym:shared-a4-k1", trace.app(),
        "synonym:shared-a4-k1"};
    expectSameOnFreshHitAndEvicted(
        cfg, [&] { return runMulticore(mix, cfg); });
    const auto image = multicoreImage(mix, cfg);
    ASSERT_EQ(image->processes.size(), 4u);
    // Both shared-mode cores attach the one segment.
    EXPECT_EQ(image->segments.size(), 1u);
}

TEST(ProcessImage, TraceRecordedAgainInPlaceKeysANewImage)
{
    const ScratchTrace trace("rerecord");
    const ScratchTrace second("rerecord-copy");
    const SystemConfig cfg = small(0x1a6e06);
    SystemConfig other_seed = cfg;
    other_seed.seed += 1;

    recordTrace("gcc", cfg, trace.path());
    const auto first_image = singleCoreImage(trace.app(), cfg);
    const std::string first =
        resultJsonAnyApp(runSingleCore(trace.app(), cfg));

    recordTrace("gcc", other_seed, trace.path());
    recordTrace("gcc", other_seed, second.path());
    const std::uint64_t builds = processImageBuilds();
    const auto again = singleCoreImage(trace.app(), cfg);
    EXPECT_EQ(processImageBuilds(), builds + 1);
    EXPECT_NE(again.get(), first_image.get());
    const std::string rerun =
        resultJsonAnyApp(runSingleCore(trace.app(), cfg));
    EXPECT_NE(first, rerun);
    // The new image is the new file's: identical to replaying a
    // copy of it under another path.
    EXPECT_EQ(rerun,
              resultJsonAnyApp(runSingleCore(second.app(), cfg)));
}

/**
 * What an image looks like to a run: every core's mappings, its
 * huge-page coverage, and the first references a fresh cursor
 * yields.
 */
std::vector<std::uint64_t>
imageSignature(const ProcessImage &image)
{
    std::vector<std::uint64_t> sig;
    for (const ProcessImage::Process &proc : image.processes) {
        const vm::PageTable &table = proc.as->pageTable();
        table.forEachSmall([&](Vpn vpn, Pfn pfn) {
            sig.push_back(vpn);
            sig.push_back(pfn);
        });
        table.forEachHuge([&](Vpn chunk, Pfn pfn) {
            sig.push_back(chunk);
            sig.push_back(pfn);
        });
        sig.push_back(static_cast<std::uint64_t>(
            proc.as->hugeCoverage() * 1e9));
        const auto cursor = proc.newCursor();
        MemRef ref;
        for (int i = 0; i < 256 && cursor->next(ref); ++i) {
            sig.push_back(ref.vaddr);
            sig.push_back(ref.pc);
            sig.push_back(ref.nonMemBefore);
            sig.push_back(static_cast<std::uint64_t>(ref.op));
        }
    }
    return sig;
}

/** A fresh build under @p cfg (nothing memoized for its key). */
std::vector<std::uint64_t>
freshSignature(const SystemConfig &cfg)
{
    evictImages(cfg);
    const std::uint64_t builds = processImageBuilds();
    const auto sig = imageSignature(*singleCoreImage("mcf", cfg));
    EXPECT_EQ(processImageBuilds(), builds + 1);
    return sig;
}

/** Mutate one field outside the image key: a fresh build must
 *  give the same image. */
template <typename Mutate>
void
expectFieldCannotChangeImage(const char *field, Mutate mutate)
{
    const SystemConfig base = small(0x1a6e07);
    SystemConfig changed = base;
    mutate(changed);
    EXPECT_EQ(freshSignature(base), freshSignature(changed))
        << field << " changes the process image";
}

TEST(ProcessImage, FieldsOutsideTheKeyCannotChangeTheImage)
{
    expectFieldCannotChangeImage("outOfOrder", [](SystemConfig &c) {
        c.outOfOrder = !c.outOfOrder;
    });
    expectFieldCannotChangeImage("l1Config", [](SystemConfig &c) {
        c.l1Config = L1Config::Baseline32K8;
    });
    expectFieldCannotChangeImage("l1SizeBytes", [](SystemConfig &c) {
        c.l1SizeBytes = 8 * 1024;
    });
    expectFieldCannotChangeImage("l1Assoc", [](SystemConfig &c) {
        c.l1Assoc = 4;
    });
    expectFieldCannotChangeImage("l1HitLatency", [](SystemConfig &c) {
        c.l1HitLatency = 3;
    });
    expectFieldCannotChangeImage("policy", [](SystemConfig &c) {
        c.policy = IndexingPolicy::SiptPcax;
    });
    expectFieldCannotChangeImage("xlatPredEntries",
                                 [](SystemConfig &c) {
                                     c.xlatPredEntries = 64;
                                 });
    expectFieldCannotChangeImage("wayPrediction", [](SystemConfig &c) {
        c.wayPrediction = !c.wayPrediction;
    });
    expectFieldCannotChangeImage("radixWalker", [](SystemConfig &c) {
        c.radixWalker = !c.radixWalker;
    });
    expectFieldCannotChangeImage("warmupRefs", [](SystemConfig &c) {
        c.warmupRefs += 1;
    });
    expectFieldCannotChangeImage("measureRefs", [](SystemConfig &c) {
        c.measureRefs += 1;
    });
    expectFieldCannotChangeImage("check", [](SystemConfig &c) {
        c.check = !c.check;
    });
    expectFieldCannotChangeImage("engine", [](SystemConfig &c) {
        c.engine = EngineSelect::Scalar;
    });
}

TEST(ProcessImage, EveryKeyFieldShapesTheImage)
{
    const SystemConfig base = small(0x1a6e08);
    const auto sig = imageSignature(*singleCoreImage("mcf", base));
    for (const MemCondition condition :
         {MemCondition::Fragmented, MemCondition::ThpOff,
          MemCondition::NoContiguity}) {
        SystemConfig c = base;
        c.condition = condition;
        EXPECT_NE(sig, imageSignature(*singleCoreImage("mcf", c)))
            << conditionName(condition);
    }
    SystemConfig c = base;
    c.physMemBytes *= 2;
    EXPECT_NE(sig, imageSignature(*singleCoreImage("mcf", c)));
    c = base;
    c.seed += 1;
    EXPECT_NE(sig, imageSignature(*singleCoreImage("mcf", c)));
    c = base;
    c.footprintScale *= 2;
    EXPECT_NE(sig, imageSignature(*singleCoreImage("mcf", c)));
    // The app, and single-core versus multicore seeding.
    EXPECT_NE(sig, imageSignature(*singleCoreImage("gcc", base)));
    EXPECT_NE(sig, imageSignature(*multicoreImage({"mcf"}, base)));
}

TEST(ProcessImage, CursorsAreIndependent)
{
    const auto image = singleCoreImage("mcf", small(0x1a6e09));
    const ProcessImage::Process &proc = image->processes.front();
    const auto a = proc.newCursor();
    MemRef ref;
    std::vector<Addr> first;
    for (int i = 0; i < 64 && a->next(ref); ++i)
        first.push_back(ref.vaddr);
    // Advancing one cursor moves neither the prototype nor a
    // later copy.
    const auto b = proc.newCursor();
    std::vector<Addr> second;
    for (int i = 0; i < 64 && b->next(ref); ++i)
        second.push_back(ref.vaddr);
    EXPECT_EQ(first, second);
}

TEST(LruMemo, BuildsEachKeyOnceAndEvictsLeastRecentlyUsed)
{
    LruMemo<int, int> memo(2);
    int calls = 0;
    auto build = [&](int v) {
        return [&calls, v] {
            ++calls;
            return v * 10;
        };
    };
    EXPECT_EQ(*memo.get(1, build(1)), 10);
    EXPECT_EQ(*memo.get(1, build(1)), 10);
    EXPECT_EQ(calls, 1);
    (void)memo.get(2, build(2));
    (void)memo.get(1, build(1)); // 1 is now most recent
    (void)memo.get(3, build(3)); // evicts 2
    EXPECT_EQ(calls, 3);
    (void)memo.get(1, build(1));
    EXPECT_EQ(calls, 3);
    (void)memo.get(2, build(2));
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(memo.builds(), 4u);
}

TEST(LruMemo, FailedBuildReachesEveryWaiterAndIsNotMemoized)
{
    LruMemo<int, int> memo(4);
    constexpr unsigned waiters = 4;
    std::atomic<unsigned> ready{0};
    std::atomic<unsigned> threw{0};
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < waiters; ++w) {
        threads.emplace_back([&] {
            ++ready;
            while (ready.load() < waiters) {
            }
            try {
                (void)memo.get(7, [] {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("no image");
                    return 0;
                });
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "no image")
                    ++threw;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(threw.load(), waiters);
    EXPECT_GE(memo.builds(), 1u);
    EXPECT_LE(memo.builds(), waiters);
    // Nothing was memoized: the next caller builds afresh.
    const std::uint64_t builds = memo.builds();
    EXPECT_EQ(*memo.get(7, [] { return 70; }), 70);
    EXPECT_EQ(memo.builds(), builds + 1);
}

TEST(ProcessImage, FailedBuildOnWorkerRethrowsFromGet)
{
    // fatal() on a pool worker must reach the caller through the
    // job's future; the runner must then shut down cleanly.
    const std::string missing = "trace:" + testing::TempDir() +
                                "/no-such-dir/missing.sipttrace";
    const std::uint64_t builds = processImageBuilds();
    {
        SweepRunner runner(SweepOptions{2, "-"});
        SystemConfig a = small(0x1a6e0b);
        SystemConfig b = a;
        b.policy = IndexingPolicy::Vipt;
        b.l1Config = L1Config::Baseline32K8;
        auto fa = runner.enqueue(missing, a);
        auto fb = runner.enqueue(missing, b);
        try {
            fa.get();
            ADD_FAILURE() << "a failed image build returned a result";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("missing.sipttrace"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(fb.get(), FatalError);
    }
    // Each failed job built (and did not memoize) the image.
    EXPECT_GE(processImageBuilds(), builds + 1);
    EXPECT_LE(processImageBuilds(), builds + 2);
}

} // namespace
} // namespace sipt::sim
