/**
 * @file
 * The repository benchmark's timing harness.
 *
 * Runs one workload (claim-sweep, sipt-long or quad-vipt-mix) from a
 * seed and prints, as its last stdout line, one JSON object with the
 * metrics and the simulated-result digests that run.py checks.
 *
 *   perfbench_harness --workload W --seed N --seconds S --trace 0|1
 *                     --work-dir DIR
 *
 * --trace 0 measures the end-to-end metrics with nothing but clock
 * reads around the library's public entry points (sim::SweepRunner,
 * sim::runSingleCore, sim::runMulticore): timed rounds interleaved
 * with serial warm-up-0, one-ref set-up passes. --trace 1 alternates
 * untraced rounds with rounds of the stage-timed replicas
 * (replica.hh) and reports the per-layer metrics; every traced
 * result must equal its untraced twin byte for byte.
 *
 * When --seed is not the default seed, one more untimed round at the
 * default seed supplies the digests compared against the committed
 * expected results.
 *
 * Before each round or set-up pass the harness prints
 * {"started": <jobs>} on stdout, so that when a run aborts the
 * process (panic, fatal) the caller still knows how many operations
 * were attempted.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/json.hh"
#include "replica.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

extern char **environ;

namespace perfbench
{
namespace
{

using namespace sipt;
using sim::SystemConfig;
using Clock = std::chrono::steady_clock;

/** The seed the committed expected digests were written at. */
constexpr std::uint64_t defaultSeed = 42;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void
refuse(const std::string &why)
{
    std::cerr << "perfbench: refusing to measure: " << why << "\n";
    std::exit(2);
}

/**
 * Refuse to time a different program than the one users run:
 * assertions or sanitizers compiled in, or an environment variable
 * that alters results or selects the engine.
 */
void
guardProgram()
{
#ifndef NDEBUG
    refuse("assertions are enabled (NDEBUG is not defined)");
#endif
#if defined(_GLIBCXX_ASSERTIONS) || defined(_GLIBCXX_DEBUG)
    refuse("libstdc++ assertions are enabled");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    refuse("built with a sanitizer");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    refuse("built with a sanitizer");
#endif
#endif
    static const char *const prefixes[] = {"SIPT_CHECK", "SIPT_BATCH"};
    static const char *const exact[] = {"SIPT_TRACE", "SIPT_RUN_CACHE",
                                        "SIPT_THREADS", "SIPT_REFS",
                                        "SIPT_WARMUP"};
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string_view entry(*env);
        const std::string_view name = entry.substr(0, entry.find('='));
        for (const char *p : prefixes) {
            if (name.rfind(p, 0) == 0)
                refuse(std::string(name) + " is set");
        }
        for (const char *e : exact) {
            if (name == e)
                refuse(std::string(name) + " is set");
        }
    }
}

/** One simulation the workload asks for. */
struct Job
{
    std::string label;
    /** One app for a single-core run, the mix for a multicore run. */
    std::vector<std::string> apps;
    SystemConfig config;
    bool multicore = false;

    std::uint64_t
    refs() const
    {
        return (config.warmupRefs + config.measureRefs) * apps.size();
    }
};

struct Workload
{
    std::vector<Job> jobs;
    /** Sweep workers; 0 = single calls on the caller's thread. */
    unsigned workers = 0;
    /** Per iteration of the timed loop: set-up passes (whose
     *  median is setup_s), then untraced rounds. */
    int setupPasses = 0;
    int rounds = 0;
};

/** Claim-bench job size: 10x the claims smoke size, so the per-ref
 *  stages still show beside the set-up. */
constexpr std::uint64_t claimRefs = 20'000;
constexpr std::uint64_t longWarmup = 150'000;
constexpr std::uint64_t longRefs = 4'000'000;
constexpr std::uint64_t quadWarmup = 100'000;
constexpr std::uint64_t quadRefs = 1'000'000;
/** The app recorded for quad-vipt-mix's trace-replay core. */
constexpr const char *quadTraceApp = "gcc";

unsigned
sweepWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &work_dir)
{
    Workload w;
    if (name == "claim-sweep") {
        struct Policy
        {
            sim::L1Config l1;
            IndexingPolicy policy;
        };
        static const Policy policies[] = {
            {sim::L1Config::Baseline32K8, IndexingPolicy::Vipt},
            {sim::L1Config::Sipt32K2, IndexingPolicy::Ideal},
            {sim::L1Config::Sipt32K2, IndexingPolicy::SiptNaive},
            {sim::L1Config::Sipt32K2, IndexingPolicy::SiptBypass},
            {sim::L1Config::Sipt32K2, IndexingPolicy::SiptCombined},
            {sim::L1Config::Sipt32K2, IndexingPolicy::SiptVespa},
            {sim::L1Config::Sipt32K2, IndexingPolicy::SiptRevelator},
            {sim::L1Config::Sipt32K2, IndexingPolicy::SiptPcax},
        };
        for (const std::string &app : workload::figureApps()) {
            for (const Policy &p : policies) {
                Job job;
                job.label = app + "/" + policyName(p.policy);
                job.apps = {app};
                job.config.l1Config = p.l1;
                job.config.policy = p.policy;
                job.config.warmupRefs = claimRefs;
                job.config.measureRefs = claimRefs;
                job.config.seed = seed;
                w.jobs.push_back(job);
            }
        }
        w.workers = sweepWorkers();
        w.setupPasses = 1;
        w.rounds = 3;
    } else if (name == "sipt-long") {
        Job job;
        job.label = "mcf/SIPT-combined/thp-off";
        job.apps = {"mcf"};
        job.config.l1Config = sim::L1Config::Sipt32K2;
        job.config.policy = IndexingPolicy::SiptCombined;
        job.config.condition = sim::MemCondition::ThpOff;
        job.config.warmupRefs = longWarmup;
        job.config.measureRefs = longRefs;
        job.config.seed = seed;
        w.jobs.push_back(job);
        w.setupPasses = 5;
        w.rounds = 1;
    } else if (name == "quad-vipt-mix") {
        Job job;
        job.label = "quad/VIPT";
        job.apps = {"mcf", "libquantum",
                    "trace:" + work_dir + "/quad-" + quadTraceApp +
                        "-seed" + std::to_string(seed) + ".sipttrace",
                    "synonym:shared-a4"};
        job.config.warmupRefs = quadWarmup;
        job.config.measureRefs = quadRefs;
        job.config.footprintScale = 0.5;
        job.config.seed = seed;
        job.multicore = true;
        w.jobs.push_back(job);
        w.setupPasses = 5;
        w.rounds = 1;
    } else {
        std::cerr << "perfbench: unknown workload '" << name
                  << "' (claim-sweep, sipt-long, quad-vipt-mix)\n";
        std::exit(2);
    }
    return w;
}

/** Record every trace the workload replays (untimed set-up). */
void
prepareInputs(const Workload &w)
{
    for (const Job &job : w.jobs) {
        for (const std::string &app : job.apps) {
            if (!sim::isTraceApp(app))
                continue;
            const std::string path = sim::traceAppPath(app);
            std::filesystem::create_directories(
                std::filesystem::path(path).parent_path());
            sim::recordTrace(quadTraceApp, job.config, path);
        }
    }
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The digest that stands for one job's simulated results. */
std::string
digestOf(const sim::RunResult &r)
{
    return hex64(fnv1a64(sim::runResultToJson(r).dump()));
}

std::string
digestOf(const sim::MulticoreResult &r)
{
    Json j = Json::array();
    for (const sim::RunResult &core : r.perCore)
        j.push(sim::runResultToJson(core));
    j.push(Json(r.sumIpc));
    return hex64(fnv1a64(j.dump()));
}

bool
anyCheckFailure(const sim::RunResult &r)
{
    return !r.checkFailure.empty();
}

bool
anyCheckFailure(const sim::MulticoreResult &r)
{
    return std::any_of(r.perCore.begin(), r.perCore.end(),
                       [](const sim::RunResult &c) {
                           return !c.checkFailure.empty();
                       });
}

/** The outcome of one pass over every job of a workload. */
struct Round
{
    double wallSeconds = 0.0;
    std::uint64_t refs = 0;
    std::map<std::string, std::string> digests;
    /** Jobs with a check failure or an exception. */
    std::uint64_t failures = 0;
    /** Untraced rounds: summed per-job simulation seconds and the
     *  simulations actually executed. */
    double simSeconds = 0.0;
    std::uint64_t jobsExecuted = 0;
    /** Traced rounds: per-job spans (ms) and the stage timers. */
    std::vector<double> jobMs;
    std::vector<double> queueWaitMs;
    StageTimes times;
    LayerCounts counts;
};

/** The digest recorded for a job that threw. */
constexpr const char *abortedDigest = "aborted";

void
reportAborted(const Job &job, const std::exception &e)
{
    std::cerr << "perfbench: " << job.label << " aborted: " << e.what()
              << "\n";
}

/** Record the result @p simulate returns for @p job; a check failure
 *  or an exception counts as a failed operation. */
template <typename Simulate>
void
record(Round &round, const Job &job, Simulate simulate)
{
    round.refs += job.refs();
    try {
        const auto result = simulate();
        round.digests[job.label] = digestOf(result);
        if (anyCheckFailure(result))
            ++round.failures;
    } catch (const std::exception &e) {
        reportAborted(job, e);
        round.digests[job.label] = abortedDigest;
        ++round.failures;
    }
}

/** One untraced pass through the library's public entry points. */
Round
untracedRound(const Workload &w)
{
    Round round;
    const Clock::time_point start = Clock::now();
    if (w.workers > 0) {
        sim::SweepOptions opts;
        opts.threads = w.workers;
        opts.cacheDir = "-";
        sim::SweepRunner runner(opts);
        std::vector<std::shared_future<sim::RunResult>> futures;
        futures.reserve(w.jobs.size());
        for (const Job &job : w.jobs)
            futures.push_back(runner.enqueue(job.apps[0], job.config));
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            record(round, w.jobs[i], [&] { return futures[i].get(); });
        round.wallSeconds = secondsSince(start);
        const sim::SweepStats stats = runner.stats();
        round.simSeconds = stats.simSeconds;
        round.jobsExecuted = stats.executed;
        return round;
    }
    for (const Job &job : w.jobs) {
        const Clock::time_point t0 = Clock::now();
        if (job.multicore)
            record(round, job, [&] {
                return sim::runMulticore(job.apps, job.config);
            });
        else
            record(round, job, [&] {
                return sim::runSingleCore(job.apps[0], job.config);
            });
        round.simSeconds += secondsSince(t0);
        ++round.jobsExecuted;
    }
    round.wallSeconds = secondsSince(start);
    return round;
}

/** What one traced job hands back to the round. */
struct TracedJob
{
    std::string digest;
    bool failed = false;
    double startMs = 0.0;
    double endMs = 0.0;
    StageTimes times;
    LayerCounts counts;
};

TracedJob
runTracedJob(const Job &job, Clock::time_point origin)
{
    TracedJob out;
    auto ms = [&] { return secondsSince(origin) * 1e3; };
    out.startMs = ms();
    try {
        if (job.multicore) {
            const sim::MulticoreResult r = tracedMulticore(
                job.apps, job.config, out.times, out.counts);
            out.digest = digestOf(r);
            out.failed = anyCheckFailure(r);
        } else {
            const sim::RunResult r = tracedSingleCore(
                job.apps[0], job.config, out.times, out.counts);
            out.digest = digestOf(r);
            out.failed = anyCheckFailure(r);
        }
    } catch (const std::exception &e) {
        reportAborted(job, e);
        out.digest = abortedDigest;
        out.failed = true;
    }
    out.endMs = ms();
    return out;
}

/**
 * One traced pass: each job runs the stage-timed replica, posted to
 * a sweep pool of the same size as the untraced round's (or called
 * directly), with spans from submission to start to end.
 */
Round
tracedRound(const Workload &w)
{
    Round round;
    const Clock::time_point origin = Clock::now();
    std::vector<double> submitMs;
    std::vector<TracedJob> done;
    if (w.workers > 0) {
        sim::SweepOptions opts;
        opts.threads = w.workers;
        opts.cacheDir = "-";
        sim::SweepRunner runner(opts);
        std::vector<std::shared_future<TracedJob>> futures;
        for (const Job &job : w.jobs) {
            submitMs.push_back(secondsSince(origin) * 1e3);
            futures.push_back(runner.async(
                [&job, origin] { return runTracedJob(job, origin); }));
        }
        for (auto &f : futures)
            done.push_back(f.get());
    } else {
        for (const Job &job : w.jobs) {
            submitMs.push_back(secondsSince(origin) * 1e3);
            done.push_back(runTracedJob(job, origin));
        }
    }
    round.wallSeconds = secondsSince(origin);
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const TracedJob &t = done[i];
        round.digests[w.jobs[i].label] = t.digest;
        if (t.failed)
            ++round.failures;
        round.refs += w.jobs[i].refs();
        round.jobMs.push_back(t.endMs - t.startMs);
        round.queueWaitMs.push_back(t.startMs - submitMs[i]);
        round.times += t.times;
        round.counts += t.counts;
    }
    return round;
}

/** Tell the caller that a pass over every job of @p w starts, so
 *  that an abort inside it still counts against the operations
 *  attempted. */
void
announce(const Workload &w)
{
    std::cout << "{\"started\": " << w.jobs.size() << "}" << std::endl;
}

/** Host seconds to build every job's systems, one ref each. */
double
setupPass(const Workload &w)
{
    double total = 0.0;
    for (const Job &job : w.jobs) {
        SystemConfig cfg = job.config;
        cfg.warmupRefs = 0;
        cfg.measureRefs = 1;
        const Clock::time_point t0 = Clock::now();
        if (job.multicore)
            sim::runMulticore(job.apps, cfg);
        else
            sim::runSingleCore(job.apps[0], cfg);
        total += secondsSince(t0);
    }
    return total;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Peak resident memory of this program. VmHWM starts afresh at exec;
 * ru_maxrss would also count the parent's RSS at fork time, so it is
 * only the fallback where /proc is missing.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

void
setMetric(Json &metrics, const std::string &name, double value,
          const std::string &unit)
{
    Json m = Json::object();
    m.set("value", Json(value));
    m.set("unit", Json(unit));
    metrics.set(name, std::move(m));
}

Json
digestsJson(const std::map<std::string, std::string> &digests)
{
    Json j = Json::object();
    for (const auto &[label, digest] : digests)
        j.set(label, Json(digest));
    return j;
}

/** Rounds whose digests differ from the first round's, per job. */
std::uint64_t
countUnstable(const std::vector<Round> &rounds,
              const std::map<std::string, std::string> &reference)
{
    std::uint64_t bad = 0;
    for (const Round &r : rounds) {
        for (const auto &[label, digest] : r.digests) {
            const auto it = reference.find(label);
            if (it == reference.end() || it->second != digest)
                ++bad;
        }
    }
    return bad;
}

/** Per-layer metrics from alternating untraced/traced rounds. */
void
layerMetrics(const std::vector<Round> &plain,
             const std::vector<Round> &traced, unsigned workers,
             Json &metrics)
{
    std::vector<double> job_ms;
    std::vector<double> wait_ms;
    std::vector<double> util;
    std::vector<double> coverage;
    std::vector<double> overhead;
    StageTimes times;
    LayerCounts counts;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const Round &p = plain[i];
        const Round &t = traced[i];
        job_ms.insert(job_ms.end(), t.jobMs.begin(), t.jobMs.end());
        wait_ms.insert(wait_ms.end(), t.queueWaitMs.begin(),
                       t.queueWaitMs.end());
        util.push_back(ratio(p.simSeconds,
                             p.wallSeconds * std::max(workers, 1u)));
        coverage.push_back(ratio(t.times.totalNs() * 1e-9,
                                 p.simSeconds));
        overhead.push_back(ratio(t.wallSeconds, p.wallSeconds) - 1.0);
        times += t.times;
        counts += t.counts;
    }
    const double refs = static_cast<double>(times.refs);
    const double krefs =
        static_cast<double>(counts.measuredRefs) / 1000.0;
    setMetric(metrics, "sweep.job_ms_p50", quantile(job_ms, 0.5), "ms");
    setMetric(metrics, "sweep.job_ms_p95", quantile(job_ms, 0.95),
              "ms");
    setMetric(metrics, "sweep.queue_wait_ms_p50",
              quantile(wait_ms, 0.5), "ms");
    setMetric(metrics, "sweep.worker_util", median(util), "ratio");
    setMetric(metrics, "sweep.jobs_executed",
              static_cast<double>(plain.front().jobsExecuted), "count");
    const double n = static_cast<double>(traced.size());
    setMetric(metrics, "os.age_ms", times.ageNs * 1e-6 / n, "ms");
    setMetric(metrics, "workload.alloc_ms", times.allocNs * 1e-6 / n,
              "ms");
    setMetric(metrics, "batch.build_ms", times.buildNs * 1e-6 / n,
              "ms");
    setMetric(metrics, "workload.generate_ns_per_ref",
              ratio(times.generateNs, refs), "ns/ref");
    setMetric(metrics, "vm.translate_ns_per_ref",
              ratio(times.translateNs, refs), "ns/ref");
    setMetric(metrics, "predictor.decide_ns_per_ref",
              ratio(times.decideNs, refs), "ns/ref");
    setMetric(metrics, "sipt.access_ns_per_ref",
              ratio(times.accessNs, refs), "ns/ref");
    setMetric(metrics, "cpu.core_ns_per_ref",
              ratio(times.coreNs, refs), "ns/ref");
    setMetric(metrics, "vm.l1_tlb_hit_rate",
              ratio(static_cast<double>(counts.tlbHits),
                    static_cast<double>(counts.tlbLookups)),
              "ratio");
    setMetric(metrics, "vm.page_walks_per_kref",
              ratio(static_cast<double>(counts.pageWalks), krefs),
              "1/kref");
    setMetric(metrics, "sipt.fast_fraction",
              ratio(static_cast<double>(counts.fastAccesses),
                    static_cast<double>(counts.l1Accesses)),
              "ratio");
    setMetric(metrics, "sipt.replays_per_kref",
              ratio(static_cast<double>(counts.replays), krefs),
              "1/kref");
    setMetric(metrics, "cache.l1_hit_rate",
              ratio(static_cast<double>(counts.l1Hits),
                    static_cast<double>(counts.l1Accesses)),
              "ratio");
    setMetric(metrics, "cache.llc_misses_per_kref",
              ratio(static_cast<double>(counts.llcMisses), krefs),
              "1/kref");
    setMetric(metrics, "dram.accesses_per_kref",
              ratio(static_cast<double>(counts.dramAccesses), krefs),
              "1/kref");
    setMetric(metrics, "trace.coverage", median(coverage), "ratio");
    setMetric(metrics, "trace.overhead", median(overhead), "ratio");
}

struct Args
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/perfbench-work";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "perfbench: " << argv[i] << " needs a value\n";
            std::exit(2);
        }
        return argv[++i];
    };
    auto number = [](const std::string &flag, const std::string &s) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
        if (s.empty() || *end != '\0') {
            std::cerr << "perfbench: bad " << flag << " '" << s << "'\n";
            std::exit(2);
        }
        return static_cast<std::uint64_t>(v);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--workload")
            a.workload = need(i);
        else if (flag == "--seed")
            a.seed = number(flag, need(i));
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(number(flag, need(i)));
        else if (flag == "--trace")
            a.trace = number(flag, need(i)) != 0;
        else if (flag == "--work-dir")
            a.workDir = need(i);
        else {
            std::cerr << "perfbench: unknown argument " << flag << "\n";
            std::exit(2);
        }
    }
    if (a.workload.empty()) {
        std::cerr << "perfbench: --workload is required\n";
        std::exit(2);
    }
    return a;
}

int
run(const Args &args)
{
    guardProgram();
    const Workload w = makeWorkload(args.workload, args.seed,
                                    args.workDir);
    prepareInputs(w);

    Json metrics = Json::object();
    std::vector<Round> plain;
    std::vector<Round> traced;
    std::vector<double> setup_passes;

    // Closed loop, one caller: iterations back to back until the
    // time is up, and never fewer than three. Set-up passes are
    // interleaved with the rounds so both sample the same stretch of
    // host conditions.
    const Clock::time_point start = Clock::now();
    for (int it = 0; it < 3 || secondsSince(start) < args.seconds;
         ++it) {
        if (args.trace) {
            announce(w);
            plain.push_back(untracedRound(w));
            announce(w);
            traced.push_back(tracedRound(w));
            continue;
        }
        for (int i = 0; i < w.setupPasses; ++i) {
            announce(w);
            setup_passes.push_back(setupPass(w));
        }
        for (int i = 0; i < w.rounds; ++i) {
            announce(w);
            plain.push_back(untracedRound(w));
            std::cerr << "perfbench: round " << plain.size() << ": "
                      << static_cast<double>(plain.back().refs) /
                             plain.back().wallSeconds
                      << " refs/s\n";
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const std::map<std::string, std::string> &digests =
        plain.front().digests;
    for (const std::vector<Round> *set : {&plain, &traced}) {
        for (const Round &r : *set) {
            attempted += r.digests.size();
            failed += r.failures;
        }
        failed += countUnstable(*set, digests);
    }

    if (args.trace) {
        layerMetrics(plain, traced, w.workers, metrics);
    } else {
        std::vector<double> rate;
        for (const Round &r : plain)
            rate.push_back(static_cast<double>(r.refs) / r.wallSeconds);
        setMetric(metrics, "refs_per_s", median(rate), "1/s");
        setMetric(metrics, "setup_s", median(setup_passes), "s");
        setMetric(metrics, "peak_rss_mb", peakRssMb(), "MiB");
    }

    Json out = Json::object();
    out.set("workload", Json(args.workload));
    out.set("seed", Json(args.seed));
    out.set("rounds", Json(static_cast<std::uint64_t>(plain.size())));
    out.set("attempted", Json(attempted));
    out.set("failed", Json(failed));
    out.set("metrics", std::move(metrics));
    out.set("digests", digestsJson(digests));
    if (args.seed != defaultSeed) {
        const Workload ref = makeWorkload(args.workload, defaultSeed,
                                          args.workDir);
        prepareInputs(ref);
        announce(ref);
        const Round r = untracedRound(ref);
        Json check = Json::object();
        check.set("seed", Json(defaultSeed));
        check.set("failed", Json(r.failures));
        check.set("digests", digestsJson(r.digests));
        out.set("check", std::move(check));
    }
    Json env = Json::object();
    env.set("compiler", Json(PERFBENCH_COMPILER));
    env.set("build_type", Json(PERFBENCH_BUILD_TYPE));
    env.set("nproc", Json(static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency())));
    env.set("workers", Json(static_cast<std::uint64_t>(w.workers)));
    out.set("env", std::move(env));
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
