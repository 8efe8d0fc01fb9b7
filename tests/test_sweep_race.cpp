/**
 * @file
 * Race audit for the SweepRunner: many producer threads hammer one
 * runner with colliding and distinct (app, SystemConfig) keys
 * while the disk cache loads/persists concurrently. Functionally
 * the tests assert value consistency and exact dedup accounting;
 * under -DSIPT_SANITIZE=thread they are the designated surface for
 * TSan to observe every lock in the engine under real contention
 * (pool queue, memo map, stats, in-flight futures, cache files).
 *
 * Raw std::thread is deliberate here — the producers must be
 * *outside* the runner's own pool to create cross-thread
 * submission races (sipt-lint scopes its raw-thread rule to src/,
 * so tests may do this).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hh"
#include "sim/sweep.hh"

namespace sipt::sim
{
namespace
{

SystemConfig
tiny(IndexingPolicy policy, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.l1Config = policy == IndexingPolicy::Vipt
                       ? L1Config::Baseline32K8
                       : L1Config::Sipt32K2;
    cfg.policy = policy;
    // Small on purpose: more submissions per second means more
    // scheduler interleavings for TSan to explore.
    cfg.warmupRefs = 500;
    cfg.measureRefs = 1'000;
    cfg.seed = seed;
    return cfg;
}

/** The shared key set: producers collide on these. */
std::vector<SweepJob>
collidingJobs()
{
    return {
        {"mcf", tiny(IndexingPolicy::SiptCombined, 1)},
        {"gcc", tiny(IndexingPolicy::SiptCombined, 1)},
        {"mcf", tiny(IndexingPolicy::Vipt, 1)},
        {"lbm", tiny(IndexingPolicy::SiptNaive, 1)},
    };
}

TEST(SweepRace, ManyProducersCollidingAndDistinctKeys)
{
    SweepRunner runner(SweepOptions{4, "-"});
    constexpr unsigned producers = 8;
    constexpr unsigned rounds = 6;
    const auto shared = collidingJobs();

    std::vector<std::vector<std::shared_future<RunResult>>>
        perProducer(producers);
    std::vector<std::shared_future<RunResult>> distinct(producers);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (unsigned r = 0; r < rounds; ++r) {
                for (const auto &job : shared) {
                    perProducer[p].push_back(
                        runner.enqueue(job.app, job.config));
                }
            }
            // One key unique to this producer, interleaved with
            // the colliding traffic.
            distinct[p] = runner.enqueue(
                "sjeng",
                tiny(IndexingPolicy::SiptCombined, 100 + p));
        });
    }
    for (auto &t : threads)
        t.join();

    // Every future for the same key must carry the same result.
    const auto reference = runner.runBatch(collidingJobs());
    for (unsigned p = 0; p < producers; ++p) {
        ASSERT_EQ(perProducer[p].size(),
                  rounds * shared.size());
        for (unsigned r = 0; r < rounds; ++r) {
            for (std::size_t k = 0; k < shared.size(); ++k) {
                const auto &got =
                    perProducer[p][r * shared.size() + k].get();
                EXPECT_EQ(got.instructions,
                          reference[k].instructions);
                EXPECT_DOUBLE_EQ(got.ipc, reference[k].ipc);
                EXPECT_DOUBLE_EQ(got.cycles,
                                 reference[k].cycles);
            }
        }
        EXPECT_DOUBLE_EQ(distinct[p].get().ipc,
                         distinct[p].get().ipc);
    }

    // Dedup accounting must be exact even under contention: only
    // one execution per distinct key ever happens.
    const auto s = runner.stats();
    const std::uint64_t distinctKeys = shared.size() + producers;
    EXPECT_EQ(s.executed, distinctKeys);
    EXPECT_EQ(s.submitted,
              producers * rounds * shared.size() + producers +
                  shared.size());
    EXPECT_EQ(s.memoHits + s.inflightShares,
              s.submitted - s.executed);
}

TEST(SweepRace, ConcurrentDiskCacheLoadAndPersist)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_race_cache";
    std::filesystem::remove_all(dir);

    const auto jobs = collidingJobs();

    // Phase 1: two runners share the directory while both are
    // still populating it — concurrent storeToDisk() of the same
    // entries exercises the write-to-temp + rename path.
    {
        SweepRunner a(SweepOptions{2, dir.string()});
        SweepRunner b(SweepOptions{2, dir.string()});
        std::vector<std::thread> threads;
        std::atomic<bool> mismatch{false};
        for (SweepRunner *r : {&a, &b}) {
            threads.emplace_back([&, r] {
                const auto ref = r->runBatch(jobs);
                const auto again = r->runBatch(jobs);
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    if (ref[i].instructions !=
                        again[i].instructions)
                        mismatch = true;
                }
            });
        }
        for (auto &t : threads)
            t.join();
        EXPECT_FALSE(mismatch);
    }

    // Phase 2: fresh runners hit the populated cache from many
    // threads at once — concurrent loadFromDisk() of the same
    // files — and must agree with a cache-less reference.
    SweepRunner reference(SweepOptions{1, "-"});
    const auto expected = reference.runBatch(jobs);
    {
        SweepRunner warm(SweepOptions{4, dir.string()});
        std::vector<std::thread> threads;
        std::vector<std::vector<RunResult>> got(4);
        for (unsigned p = 0; p < 4; ++p) {
            threads.emplace_back(
                [&, p] { got[p] = warm.runBatch(jobs); });
        }
        for (auto &t : threads)
            t.join();
        for (const auto &batch : got) {
            ASSERT_EQ(batch.size(), expected.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
                EXPECT_EQ(batch[i].instructions,
                          expected[i].instructions);
                EXPECT_DOUBLE_EQ(batch[i].ipc, expected[i].ipc);
            }
        }
        // Nothing re-simulates: every key was on disk.
        EXPECT_EQ(warm.stats().executed, 0u);
        EXPECT_EQ(warm.stats().diskHits, jobs.size());
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepRace, GenericTasksRaceWithCachedJobs)
{
    SweepRunner runner(SweepOptions{4, "-"});
    const auto jobs = collidingJobs();
    std::vector<std::thread> producers;
    std::atomic<int> sum{0};
    for (unsigned p = 0; p < 4; ++p) {
        producers.emplace_back([&, p] {
            std::vector<std::shared_future<int>> generics;
            for (int i = 0; i < 16; ++i) {
                generics.push_back(runner.async(
                    [p, i] { return static_cast<int>(p) + i; }));
            }
            std::vector<std::shared_future<RunResult>> sims;
            for (const auto &job : jobs)
                sims.push_back(
                    runner.enqueue(job.app, job.config));
            for (auto &g : generics)
                sum += g.get();
            for (auto &s : sims)
                (void)s.get();
        });
    }
    for (auto &t : producers)
        t.join();
    // 4 producers x sum(p + i for i in 0..15) = 4*120 + 16*(0+1+2+3)
    EXPECT_EQ(sum.load(), 4 * 120 + 16 * 6);
    EXPECT_EQ(runner.stats().genericTasks, 64u);
    EXPECT_EQ(runner.stats().executed, jobs.size());
}

TEST(SweepRace, GenericTaskCountedBeforeItsFutureIsReady)
{
    // A caller back from the last get() of a round must already
    // see every task of the round in stats(); counting after the
    // future is fulfilled loses that race under load.
    SweepRunner runner(SweepOptions{4, "-"});
    constexpr std::uint64_t tasks = 8;
    for (std::uint64_t round = 1; round <= 500; ++round) {
        std::vector<std::shared_future<std::uint64_t>> futures;
        for (std::uint64_t i = 0; i < tasks; ++i)
            futures.push_back(runner.async([i] { return i; }));
        for (std::uint64_t i = 0; i < tasks; ++i)
            ASSERT_EQ(futures[i].get(), i);
        ASSERT_EQ(runner.stats().genericTasks, round * tasks);
    }
}

/** Body of GenericTaskSpanTracedBeforeItsFutureIsReady, run in
 *  a fresh process whose SIPT_TRACE names @p path. */
[[noreturn]] void
countTaskSpansPerRound(const std::string &path)
{
    setenv("SIPT_TRACE", path.c_str(), 1);
    trace::Tracer &tracer = trace::Tracer::global();
    constexpr std::uint64_t tasks = 8;
    constexpr std::uint64_t rounds = 300;
    {
        SweepRunner runner(SweepOptions{4, "-"});
        for (std::uint64_t round = 1; round <= rounds; ++round) {
            std::vector<std::shared_future<std::uint64_t>> futures;
            for (std::uint64_t i = 0; i < tasks; ++i)
                futures.push_back(runner.async([i] { return i; }));
            for (auto &f : futures)
                f.get();
            // Nothing but the tasks writes to this trace.
            if (tracer.events() != round * tasks) {
                std::cerr << "round " << round << ": "
                          << tracer.events() << " spans\n";
                std::exit(1);
            }
        }
    }
    tracer.flush();
    std::ifstream in(path);
    std::uint64_t spans = 0;
    for (std::string line; std::getline(in, line);)
        spans += line.find("\"name\":\"task\"") != std::string::npos;
    if (spans != rounds * tasks) {
        std::cerr << spans << " task spans in the file\n";
        std::exit(1);
    }
    std::exit(0);
}

TEST(SweepRace, GenericTaskSpanTracedBeforeItsFutureIsReady)
{
    // A caller that exits right after its last get() must not
    // lose the span of the task it waited for: every task's span
    // is written by the time its future is ready. The tracer is
    // process-global and configured once from SIPT_TRACE, so the
    // check runs in a re-executed child that sets it first.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        ::testing::TempDir() + "sweep_task_spans.jsonl";
    EXPECT_EXIT(countTaskSpansPerRound(path),
                ::testing::ExitedWithCode(0), "");
    std::filesystem::remove(path);
}

TEST(SweepRace, WorkersConditioningOneNewMemoryKeyAgree)
{
    // Four threads start one run on a conditioned-memory key
    // nothing else in the process uses, so all of them miss the
    // memo at once and race to fill it. Every result must equal
    // a later run of the same job served from the memo.
    const SystemConfig cfg = tiny(IndexingPolicy::SiptCombined,
                                  0x5eed6);
    constexpr unsigned workers = 4;
    std::vector<std::string> results(workers);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            ++ready;
            while (ready.load() < workers) {
            }
            results[w] =
                runResultToJson(runSingleCore("mcf", cfg)).dump();
        });
    }
    for (auto &t : threads)
        t.join();
    const std::string memoized =
        runResultToJson(runSingleCore("mcf", cfg)).dump();
    for (const std::string &r : results)
        EXPECT_EQ(r, memoized);
}

TEST(SweepRace, EightWorkersOnOneNewImageBuildItOnce)
{
    // Eight jobs of one (app, seed, memory) stream under eight
    // policies start together on eight workers: all of them need
    // one image nothing else in the process uses. Exactly one
    // builds it; the others wait for that build or hit the memo.
    const IndexingPolicy policies[] = {
        IndexingPolicy::Vipt,          IndexingPolicy::Ideal,
        IndexingPolicy::SiptNaive,     IndexingPolicy::SiptBypass,
        IndexingPolicy::SiptCombined,  IndexingPolicy::SiptVespa,
        IndexingPolicy::SiptRevelator, IndexingPolicy::SiptPcax,
    };
    std::vector<SweepJob> jobs;
    for (const IndexingPolicy policy : policies)
        jobs.push_back({"gcc", tiny(policy, 0x5eed7)});
    const std::uint64_t builds = processImageBuilds();
    SweepRunner runner(SweepOptions{8, "-"});
    const auto results = runner.runBatch(jobs);
    EXPECT_EQ(processImageBuilds(), builds + 1);
    EXPECT_EQ(runner.stats().executed, jobs.size());
    // Each equals a run of its own on the memoized image.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(runResultToJson(results[i]).dump(),
                  runResultToJson(
                      runSingleCore(jobs[i].app, jobs[i].config))
                      .dump());
    }
}

} // namespace
} // namespace sipt::sim
