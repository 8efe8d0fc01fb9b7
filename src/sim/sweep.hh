/**
 * @file
 * The parallel sweep engine behind every figure bench.
 *
 * A SweepRunner executes (app, SystemConfig) simulation jobs on a
 * std::thread pool sized by SIPT_THREADS (default:
 * hardware_concurrency(); 1 = run jobs inline, exactly the old
 * sequential behaviour). Each job is deterministic in isolation —
 * runSingleCore()/runMulticore() build every stateful component
 * (RNG streams, TLBs, predictors, caches, core) locally from
 * SystemConfig::seed and the app name, over a process image that is
 * itself a pure function of the key and is shared read-only (see
 * sim/system.hh); beyond that memo the simulator has no mutable
 * globals (audited: the other namespace-level statics are const
 * lookup tables with thread-safe initialisation) — so results are
 * bit-identical for any thread count and benches fetch futures in
 * submission order to keep their printed tables byte-identical. A
 * job that calls fatal() on a worker fails its future with
 * FatalError instead of exiting the process.
 *
 * On top of the pool sits a memoizing run cache keyed on
 * (app, SystemConfig):
 *
 *  - in-memory: repeated requests for the same key return the same
 *    shared_future, and concurrent requests for a key whose
 *    simulation is still running share the in-flight job instead of
 *    re-simulating;
 *  - on disk (optional): SIPT_RUN_CACHE=<dir> persists every result
 *    as a small JSON file, so re-running a bench — or another bench
 *    that needs the same baseline runs — is near-instant. Entries
 *    store the full key and are verified on load, so a file-name
 *    hash collision degrades to a cache miss, never a wrong result.
 *
 * Generic tasks (async()) run arbitrary work on the same pool for
 * the trace-analysis benches; they are not cached.
 */

#ifndef SIPT_SIM_SWEEP_HH
#define SIPT_SIM_SWEEP_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "sim/system.hh"

namespace sipt::trace
{
class Tracer;
} // namespace sipt::trace

namespace sipt::sim
{

/** Construction-time knobs; fields left at defaults read the
 *  corresponding environment variable. */
struct SweepOptions
{
    /** Worker count; 0 = SIPT_THREADS or hardware_concurrency().
     *  1 runs every job inline at enqueue time. */
    unsigned threads = 0;
    /** On-disk cache directory; empty = SIPT_RUN_CACHE or off.
     *  "-" disables the disk cache even when the env var is set. */
    std::string cacheDir;
};

/** Aggregate engine counters (printed in every bench footer). */
struct SweepStats
{
    unsigned threads = 0;
    /** Cached sim jobs submitted (single + multicore). */
    std::uint64_t submitted = 0;
    /** Simulations actually executed. */
    std::uint64_t executed = 0;
    /** Served from a completed in-memory entry. */
    std::uint64_t memoHits = 0;
    /** Attached to a still-running simulation of the same key. */
    std::uint64_t inflightShares = 0;
    /** Served from the on-disk JSON cache. */
    std::uint64_t diskHits = 0;
    /** Uncached generic async() tasks executed. */
    std::uint64_t genericTasks = 0;
    /** Wall-clock seconds from first submission to last
     *  completion. */
    double wallSeconds = 0.0;
    /** Summed single-job simulation seconds (CPU-side view). */
    double simSeconds = 0.0;

    /** Fraction of sim submissions served without a new run. */
    double hitRate() const;
    /** Completed sim jobs per wall-clock second. */
    double jobsPerSec() const;
};

/** One single-core sweep job. */
struct SweepJob
{
    std::string app;
    SystemConfig config;
};

/**
 * Serialisation and dedup hooks for external callers (the serve
 * daemon, tooling). These are the sweep engine's own on-disk cache
 * codecs, exported so every layer that persists or transmits run
 * results speaks one format.
 */

/** The disk-cache key codec for a SystemConfig: one member per row
 *  of SystemConfig::forEachField, in table order. */
Json configToJson(const SystemConfig &config);

/**
 * Strict inverse of configToJson(): every keyed field must be
 * present with the right type and in range, unknown members are
 * rejected, and `engine` stays at its (key-exempt) default. On
 * failure returns nullopt and sets @p error. Designed for wire
 * input: a malformed config must degrade to an error response,
 * never a default-filled run or a panic.
 */
std::optional<SystemConfig>
configFromJson(const Json &j, std::string &error);

/** RunResult -> disk-cache/wire JSON. */
Json runResultToJson(const RunResult &result);

/**
 * Strict inverse of runResultToJson(), as configFromJson() is of
 * configToJson(): on any missing, extra, mistyped or out-of-range
 * member returns nullopt and sets @p error, so a malformed stored
 * result is a cache miss or an error response, never a panic.
 */
std::optional<RunResult>
runResultFromJson(const Json &j, std::string &error);

/** Content hash of the trace file behind a "trace:<path>" app
 *  (0 for synthetic apps); part of every dedup key. */
std::uint64_t traceHashFor(const std::string &app);

/**
 * The canonical single-run dedup key: the exact JSON string the
 * sweep engine keys its disk cache on (app + trace content hash +
 * full config). External stores that key on this string dedup
 * identically to the engine itself.
 */
std::string runKeyJson(const std::string &app,
                       const SystemConfig &config);

class SweepRunner
{
  public:
    /** Environment-configured runner (SIPT_THREADS,
     *  SIPT_RUN_CACHE). */
    SweepRunner() : SweepRunner(SweepOptions{}) {}
    explicit SweepRunner(const SweepOptions &options);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Process-wide runner shared by the bench binaries. */
    static SweepRunner &global();

    unsigned threads() const { return threads_; }
    const std::string &cacheDir() const { return cacheDir_; }

    /**
     * Submit one single-core run. Returns immediately; the result
     * is memoized, deduplicated against identical in-flight
     * submissions, and served from the disk cache when possible.
     */
    std::shared_future<RunResult>
    enqueue(const std::string &app, const SystemConfig &config);

    /** Submit one multiprogrammed runMulticore() job. */
    std::shared_future<MulticoreResult>
    enqueueMulticore(const std::vector<std::string> &mix,
                     const SystemConfig &config);

    /**
     * Convenience batch API: enqueue everything, then return the
     * results in submission order.
     */
    std::vector<RunResult>
    runBatch(const std::vector<SweepJob> &jobs);

    /**
     * Run an arbitrary task on the pool (uncached). The trace
     * benches use this to analyse per-app address streams in
     * parallel; tasks must be self-contained and deterministic.
     */
    template <typename F>
    auto
    async(F fn) -> std::shared_future<std::invoke_result_t<F>>
    {
        using T = std::invoke_result_t<F>;
        // Close the task's scope before the packaged_task fulfils
        // the future (the scope ends once fn's result exists, or
        // as it throws), as enqueue() counts before set_value():
        // a caller back from get() must already see the task in
        // stats() and its span in the trace.
        auto task = std::make_shared<std::packaged_task<T()>>(
            [this, fn = std::move(fn)]() mutable -> T {
                const GenericTaskScope scope(*this);
                return fn();
            });
        auto fut = task->get_future().share();
        post([task] { (*task)(); });
        return fut;
    }

    /** Snapshot of the counters. */
    SweepStats stats() const;

    /** One-line bench-footer summary (jobs/sec, hit rate), with
     *  the process's image builds and translated references. */
    void printStats(std::ostream &os) const;

  private:
    struct SingleKey
    {
        std::string app;
        SystemConfig config;
        /** Content hash of the trace file behind a
         *  "trace:<path>" app (0 for synthetic apps). Editing a
         *  trace in place must key differently even though the
         *  path-visible config is unchanged. */
        std::uint64_t traceHash = 0;
        bool operator==(const SingleKey &) const = default;
    };
    struct SingleKeyHash
    {
        std::size_t operator()(const SingleKey &k) const;
    };
    struct MultiKey
    {
        std::vector<std::string> mix;
        SystemConfig config;
        /** Per-mix-entry trace content hashes (0 for synthetic
         *  apps), aligned with @c mix. */
        std::vector<std::uint64_t> traceHashes;
        bool operator==(const MultiKey &) const = default;
    };
    struct MultiKeyHash
    {
        std::size_t operator()(const MultiKey &k) const;
    };

    /** Run @p work now (threads==1) or on the pool. */
    void post(std::function<void()> work);

    /**
     * Lives for one generic task's body. On exit, normal or
     * throwing, it emits the task's wall-clock span when SIPT_TRACE
     * is set and counts the task (the clock reads live in
     * sweep.cc, which owns the nondeterminism allowance).
     */
    class GenericTaskScope
    {
      public:
        explicit GenericTaskScope(SweepRunner &runner);
        ~GenericTaskScope();
        GenericTaskScope(const GenericTaskScope &) = delete;
        GenericTaskScope &operator=(const GenericTaskScope &) = delete;

      private:
        SweepRunner &runner_;
        trace::Tracer *tracer_;
        double startUs_ = 0.0;
    };

    void noteSubmitted();
    void noteGenericDone();
    void noteJobDone(double seconds);

    /** The disk-cache file for @p key_json. */
    std::string entryPath(const std::string &key_json,
                          bool multicore) const;
    /**
     * Disk-cache probe: the stored result for @p key_json decoded
     * by @p decode, or nullopt on a miss (cache off, no entry).
     * A defective entry (torn, another format version, a file-name
     * collision, a result that does not decode) is a miss too, so
     * the job re-executes and republishes it.
     */
    template <typename Result>
    std::optional<Result>
    loadFromDisk(const std::string &key_json, bool multicore,
                 std::optional<Result> (*decode)(const Json &,
                                                 std::string &))
        const;
    /** Disk-cache store; a no-op when the cache is off. */
    void storeToDisk(const std::string &key_json, bool multicore,
                     const Json &result) const;

    unsigned threads_ = 1;
    std::string cacheDir_;

    // Pool state.
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex poolMu_;
    std::condition_variable poolCv_;
    bool stop_ = false;

    // Memo cache + stats.
    mutable std::mutex cacheMu_;
    std::unordered_map<SingleKey, std::shared_future<RunResult>,
                       SingleKeyHash>
        single_;
    std::unordered_map<MultiKey,
                       std::shared_future<MulticoreResult>,
                       MultiKeyHash>
        multi_;
    SweepStats stats_;
    std::chrono::steady_clock::time_point firstSubmit_;
    std::chrono::steady_clock::time_point lastComplete_;
    bool anySubmitted_ = false;
};

} // namespace sipt::sim

#endif // SIPT_SIM_SWEEP_HH
