#include "sim/sweep.hh"

// The steady_clock reads below time the engine itself (wall-clock
// and per-job seconds in the bench footer); no clock value ever
// reaches simulation state, so results stay a pure function of
// (app, SystemConfig).
// sipt-lint: allow-file(nondeterminism)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/env.hh"
#include "common/fsio.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "workload/trace_format.hh"

namespace sipt::sim
{

namespace
{

/** Common origin for wall-clock trace spans, fixed on first use so
 *  span timestamps are small positive microsecond offsets. */
std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

/** Microseconds from the trace epoch to @p tp. */
double
traceUs(std::chrono::steady_clock::time_point tp)
{
    return std::chrono::duration<double, std::micro>(
               tp - traceEpoch())
        .count();
}

/** Display lane for the calling worker thread's wall-clock spans.
 *  A hash keeps the tracer free of std::thread dependencies. */
std::uint64_t
traceWorkerLane()
{
    return std::hash<std::thread::id>{}(
               std::this_thread::get_id()) &
           0xffff;
}

/** Bump when the serialised key/result layout changes; stale
 *  cache files then simply miss instead of mis-parsing.
 *  v3: trace-app content hashes joined the key.
 *  v4: VIVT strawman counters joined RunResult.
 *  v5: xlatPredEntries joined the key; huge-page outcome counters
 *      joined RunResult's L1Stats. */
constexpr std::uint64_t cacheFormatVersion = 5;

unsigned
threadsFromEnv()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned fallback = hw ? hw : 1;
    // Strict parse: "8x" used to silently run with 8 threads and
    // "-1" with ULONG_MAX's truncation; both now warn and fall
    // back to the hardware default.
    return static_cast<unsigned>(
        envU64("SIPT_THREADS", fallback, 1, 4096));
}

std::string
cacheDirFromEnv()
{
    if (const char *env = std::getenv("SIPT_RUN_CACHE"))
        return env;
    return "";
}

/** A struct with a field table (SystemConfig, RunResult, ...). */
template <typename T>
concept HasFields = requires(const T &t) {
    T::forEachField([](const char *, const auto &) {}, t);
};

template <typename T>
constexpr bool isVector = false;
template <typename T>
constexpr bool isVector<std::vector<T>> = true;

/**
 * The canonical JSON of @p value. A struct becomes an object with
 * one member per field-table row, in table order; a vector an
 * array; an enum or an unsigned integer a Uint; bool, double and
 * string map to their own kinds. These bytes are the run-cache key
 * and the disk-cache and wire result format, so they must not
 * change without a cacheFormatVersion bump.
 */
template <typename T>
Json
toJson(const T &value)
{
    if constexpr (HasFields<T>) {
        Json j = Json::object();
        T::forEachField(
            [&j](const char *name, const auto &field) {
                j.set(name, toJson(field));
            },
            value);
        return j;
    } else if constexpr (isVector<T>) {
        Json j = Json::array();
        for (const auto &element : value)
            j.push(toJson(element));
        return j;
    } else if constexpr (std::is_enum_v<T>) {
        return std::uint64_t{
            static_cast<std::underlying_type_t<T>>(value)};
    } else if constexpr (std::is_integral_v<T> &&
                         !std::is_same_v<T, bool>) {
        return std::uint64_t{value};
    } else {
        return Json(value);
    }
}

/**
 * The strict inverse of toJson(). An object must carry exactly its
 * table's members (a missing, extra or misspelt one is an error),
 * an enum must lie in [0, lastEnumerator()], an integer in its
 * type's range. Errors name the member and what it must be, under
 * the label @p what of the object being decoded.
 */
struct Decoder
{
    std::string &error;
    /** Doubles must be positive (a config's scale factor) instead
     *  of any number (a result metric). */
    bool positiveDoubles;

    template <typename S>
    bool
    object(const Json &j, const std::string &what, S &out)
    {
        if (!j.isObject()) {
            error = what + " must be a JSON object";
            return false;
        }
        for (std::size_t i = 0; i < j.size(); ++i) {
            const std::string &member = j.member(i).first;
            bool known = false;
            S::forEachField(
                [&](const char *name, const auto &) {
                    known = known || member == name;
                },
                out);
            if (!known) {
                error = "unknown " + what + " member \"" + member +
                        "\"";
                return false;
            }
        }
        bool ok = true;
        S::forEachField(
            [&](const char *name, const auto &) {
                if (ok && j.find(name) == nullptr) {
                    error = "missing " + what + " member \"" +
                            name + "\"";
                    ok = false;
                }
            },
            out);
        S::forEachField(
            [&](const char *name, auto &slot) {
                ok = ok && field(*j.find(name), what, name, slot);
            },
            out);
        return ok;
    }

    template <typename T>
    bool
    field(const Json &v, const std::string &what, const char *name,
          T &out)
    {
        const auto fail = [&](const std::string &must) {
            error = what + " member \"" + name + "\" must be " +
                    must;
            return false;
        };
        if constexpr (HasFields<T>) {
            return object(v, what + "." + name, out);
        } else if constexpr (isVector<T>) {
            if (!v.isArray())
                return fail("an array");
            out.resize(v.size());
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (!object(v.at(i),
                            what + "." + name + "[" +
                                std::to_string(i) + "]",
                            out[i]))
                    return false;
            }
        } else if constexpr (std::is_same_v<T, bool>) {
            if (!v.isBool())
                return fail("a bool");
            out = v.asBool();
        } else if constexpr (std::is_same_v<T, double>) {
            if (!v.isNumber() ||
                (positiveDoubles && v.asDouble() <= 0.0))
                return fail(positiveDoubles ? "a positive number"
                                            : "a number");
            out = v.asDouble();
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (!v.isString())
                return fail("a string");
            out = v.asString();
        } else {
            std::uint64_t max = 0;
            if constexpr (std::is_enum_v<T>)
                max = static_cast<std::uint64_t>(lastEnumerator(T{}));
            else
                max = std::numeric_limits<T>::max();
            if (!v.isUint() || v.asUint() > max) {
                return fail("an integer in [0, " +
                            std::to_string(max) + "]");
            }
            out = static_cast<T>(v.asUint());
        }
        return true;
    }
};

/** Decode a whole @p S, or nullopt with @p error set. */
template <typename S>
std::optional<S>
fromJson(const Json &j, const char *what, bool positive_doubles,
         std::string &error)
{
    S out;
    if (!Decoder{error, positive_doubles}.object(j, what, out))
        return std::nullopt;
    return out;
}

} // namespace

/**
 * Content hash of the trace file behind a "trace:<path>" app,
 * 0 for synthetic apps. Recomputed at every enqueue so an edited
 * trace keys differently — the cache can never serve a result for
 * bytes that are no longer on disk (content, not mtime).
 */
std::uint64_t
traceHashFor(const std::string &app)
{
    return isTraceApp(app)
               ? workload::traceContentHash(traceAppPath(app))
               : 0;
}

Json
configToJson(const SystemConfig &config)
{
    return toJson(config);
}

std::optional<SystemConfig>
configFromJson(const Json &j, std::string &error)
{
    // `engine` is key-exempt (serves both engines) and stays at
    // its default; it is deliberately not part of the wire format.
    return fromJson<SystemConfig>(j, "config", true, error);
}

Json
runResultToJson(const RunResult &result)
{
    return toJson(result);
}

std::optional<RunResult>
runResultFromJson(const Json &j, std::string &error)
{
    return fromJson<RunResult>(j, "result", false, error);
}

namespace
{

std::optional<MulticoreResult>
multiResultFromJson(const Json &j, std::string &error)
{
    return fromJson<MulticoreResult>(j, "multicore result", false,
                                     error);
}

Json
singleKeyJson(const std::string &app, const SystemConfig &config,
              std::uint64_t trace_hash)
{
    Json j = Json::object();
    j.set("kind", "single");
    j.set("app", app);
    j.set("traceHash", trace_hash);
    j.set("config", configToJson(config));
    return j;
}

Json
multiKeyJson(const std::vector<std::string> &mix,
             const SystemConfig &config,
             const std::vector<std::uint64_t> &trace_hashes)
{
    Json j = Json::object();
    j.set("kind", "multi");
    Json apps = Json::array();
    for (const auto &app : mix)
        apps.push(app);
    j.set("mix", std::move(apps));
    Json hashes = Json::array();
    for (const auto h : trace_hashes)
        hashes.push(h);
    j.set("traceHashes", std::move(hashes));
    j.set("config", configToJson(config));
    return j;
}

} // namespace

std::string
runKeyJson(const std::string &app, const SystemConfig &config)
{
    return singleKeyJson(app, config, traceHashFor(app)).dump();
}

double
SweepStats::hitRate() const
{
    return submitted ? static_cast<double>(memoHits + diskHits +
                                           inflightShares) /
                           static_cast<double>(submitted)
                     : 0.0;
}

double
SweepStats::jobsPerSec() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(submitted) / wallSeconds
               : 0.0;
}

std::size_t
SweepRunner::SingleKeyHash::operator()(const SingleKey &k) const
{
    std::size_t h = hashValue(k.config);
    hashCombine(h, k.app);
    hashCombine(h, k.traceHash);
    return h;
}

std::size_t
SweepRunner::MultiKeyHash::operator()(const MultiKey &k) const
{
    std::size_t h = hashValue(k.config);
    for (const auto &app : k.mix)
        hashCombine(h, app);
    for (const auto th : k.traceHashes)
        hashCombine(h, th);
    return h;
}

SweepRunner::SweepRunner(const SweepOptions &options)
{
    threads_ =
        options.threads ? options.threads : threadsFromEnv();
    cacheDir_ = options.cacheDir.empty() ? cacheDirFromEnv()
                                         : options.cacheDir;
    if (cacheDir_ == "-")
        cacheDir_.clear();
    if (!cacheDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir_, ec);
        if (ec) {
            warn("sweep: cannot create run-cache dir '", cacheDir_,
                 "' (", ec.message(), "); disk cache disabled");
            cacheDir_.clear();
        }
    }
    stats_.threads = threads_;
    if (threads_ > 1) {
        workers_.reserve(threads_);
        for (unsigned t = 0; t < threads_; ++t) {
            workers_.emplace_back([this] {
                // A job's fatal() reaches its caller through the
                // job's future, never as exit() on this thread.
                const FatalThrowScope fatal_throws;
                for (;;) {
                    std::function<void()> work;
                    {
                        std::unique_lock lock(poolMu_);
                        poolCv_.wait(lock, [this] {
                            return stop_ || !queue_.empty();
                        });
                        if (stop_ && queue_.empty())
                            return;
                        work = std::move(queue_.front());
                        queue_.pop_front();
                    }
                    work();
                }
            });
        }
    }
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard lock(poolMu_);
        stop_ = true;
    }
    poolCv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

SweepRunner &
SweepRunner::global()
{
    // Magic-static init is thread-safe and SweepRunner is
    // internally synchronised; this and the memos in system.cc are
    // the sanctioned process-global mutable state.
    // sipt-lint: allow(mutable-static)
    static SweepRunner runner;
    return runner;
}

void
SweepRunner::post(std::function<void()> work)
{
    if (threads_ <= 1) {
        // Sequential mode: the old behaviour, job runs right here.
        work();
        return;
    }
    {
        std::lock_guard lock(poolMu_);
        queue_.push_back(std::move(work));
    }
    poolCv_.notify_one();
}

SweepRunner::GenericTaskScope::GenericTaskScope(SweepRunner &runner)
    : runner_(runner), tracer_(trace::Tracer::globalIfEnabled())
{
    if (tracer_)
        startUs_ = traceUs(std::chrono::steady_clock::now());
}

SweepRunner::GenericTaskScope::~GenericTaskScope()
{
    if (tracer_) {
        const double end_us = traceUs(std::chrono::steady_clock::now());
        tracer_->span("sweep", "task", traceWorkerLane(), startUs_,
                      end_us - startUs_);
    }
    runner_.noteGenericDone();
}

void
SweepRunner::noteSubmitted()
{
    std::lock_guard lock(cacheMu_);
    if (!anySubmitted_) {
        anySubmitted_ = true;
        firstSubmit_ = std::chrono::steady_clock::now();
    }
    ++stats_.submitted;
}

void
SweepRunner::noteGenericDone()
{
    std::lock_guard lock(cacheMu_);
    ++stats_.genericTasks;
    lastComplete_ = std::chrono::steady_clock::now();
}

void
SweepRunner::noteJobDone(double seconds)
{
    std::lock_guard lock(cacheMu_);
    ++stats_.executed;
    stats_.simSeconds += seconds;
    lastComplete_ = std::chrono::steady_clock::now();
}

std::string
SweepRunner::entryPath(const std::string &key_json,
                       bool multicore) const
{
    char name[64];
    std::snprintf(name, sizeof(name), "%s%016llx.json",
                  multicore ? "multi-" : "run-",
                  static_cast<unsigned long long>(
                      fnv1a64(key_json)));
    return (std::filesystem::path(cacheDir_) / name).string();
}

template <typename Result>
std::optional<Result>
SweepRunner::loadFromDisk(
    const std::string &key_json, bool multicore,
    std::optional<Result> (*decode)(const Json &, std::string &))
    const
{
    if (cacheDir_.empty())
        return std::nullopt;
    const std::string path = entryPath(key_json, multicore);
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto parsed = Json::parse(buf.str());
    if (!parsed) {
        warn("sweep: unreadable cache entry ", path);
        return std::nullopt;
    }
    const Json *version = parsed->find("version");
    const Json *key = parsed->find("key");
    const Json *result = parsed->find("result");
    if (!version || !version->isUint() ||
        version->asUint() != cacheFormatVersion || !key || !result)
        return std::nullopt;
    // Verify the stored key: a 64-bit file-name collision must
    // degrade to a miss, never to someone else's result.
    if (key->dump() != key_json)
        return std::nullopt;
    std::string error;
    auto decoded = decode(*result, error);
    if (!decoded) {
        warn("sweep: malformed cache entry ", path, " (",
             error, "); re-running");
    }
    return decoded;
}

void
SweepRunner::storeToDisk(const std::string &key_json,
                         bool multicore, const Json &result) const
{
    if (cacheDir_.empty())
        return;
    const std::string path = entryPath(key_json, multicore);

    Json entry = Json::object();
    entry.set("version", cacheFormatVersion);
    entry.set("key", *Json::parse(key_json));
    entry.set("result", result);

    // Write-to-temp + fsync + rename so concurrent writers
    // (several bench processes sharing one cache dir) never expose
    // a torn file — and a crash between write and rename leaves
    // only a temp file, never a truncated published entry.
    const std::string tmp_suffix =
        ".tmp." + std::to_string(std::hash<std::thread::id>{}(
                      std::this_thread::get_id()));
    if (!fsio::atomicPublish(path, entry.dump() + '\n',
                             tmp_suffix))
        warn("sweep: cannot write cache entry ", path);
}

std::shared_future<RunResult>
SweepRunner::enqueue(const std::string &app,
                     const SystemConfig &config)
{
    noteSubmitted();
    const std::uint64_t trace_hash = traceHashFor(app);
    const SingleKey key{app, config, trace_hash};
    auto promise = std::make_shared<std::promise<RunResult>>();
    std::shared_future<RunResult> future;
    {
        std::lock_guard lock(cacheMu_);
        auto it = single_.find(key);
        if (it != single_.end()) {
            const bool ready =
                it->second.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready;
            if (ready)
                ++stats_.memoHits;
            else
                ++stats_.inflightShares;
            return it->second;
        }
        future = promise->get_future().share();
        single_.emplace(key, future);
    }

    const std::string key_json =
        singleKeyJson(app, config, trace_hash).dump();
    if (auto cached =
            loadFromDisk(key_json, false, runResultFromJson)) {
        {
            std::lock_guard lock(cacheMu_);
            ++stats_.diskHits;
            lastComplete_ = std::chrono::steady_clock::now();
        }
        promise->set_value(std::move(*cached));
        return future;
    }

    post([this, app, config, key_json, promise] {
        try {
            const auto t0 = std::chrono::steady_clock::now();
            RunResult result = runSingleCore(app, config);
            const auto t1 = std::chrono::steady_clock::now();
            const std::chrono::duration<double> dt = t1 - t0;
            storeToDisk(key_json, false,
                        runResultToJson(result));
            noteJobDone(dt.count());
            if (trace::Tracer *tracer =
                    trace::Tracer::globalIfEnabled()) {
                tracer->span(
                    "sweep",
                    "run:" + app + ":" +
                        policyName(config.policy),
                    traceWorkerLane(), traceUs(t0),
                    traceUs(t1) - traceUs(t0));
            }
            promise->set_value(std::move(result));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    });
    return future;
}

std::shared_future<MulticoreResult>
SweepRunner::enqueueMulticore(const std::vector<std::string> &mix,
                              const SystemConfig &config)
{
    noteSubmitted();
    std::vector<std::uint64_t> trace_hashes;
    trace_hashes.reserve(mix.size());
    for (const auto &app : mix)
        trace_hashes.push_back(traceHashFor(app));
    const MultiKey key{mix, config, trace_hashes};
    auto promise =
        std::make_shared<std::promise<MulticoreResult>>();
    std::shared_future<MulticoreResult> future;
    {
        std::lock_guard lock(cacheMu_);
        auto it = multi_.find(key);
        if (it != multi_.end()) {
            const bool ready =
                it->second.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready;
            if (ready)
                ++stats_.memoHits;
            else
                ++stats_.inflightShares;
            return it->second;
        }
        future = promise->get_future().share();
        multi_.emplace(key, future);
    }

    const std::string key_json =
        multiKeyJson(mix, config, trace_hashes).dump();
    if (auto cached =
            loadFromDisk(key_json, true, multiResultFromJson)) {
        {
            std::lock_guard lock(cacheMu_);
            ++stats_.diskHits;
            lastComplete_ = std::chrono::steady_clock::now();
        }
        promise->set_value(std::move(*cached));
        return future;
    }

    post([this, mix, config, key_json, promise] {
        try {
            const auto t0 = std::chrono::steady_clock::now();
            MulticoreResult result = runMulticore(mix, config);
            const auto t1 = std::chrono::steady_clock::now();
            const std::chrono::duration<double> dt = t1 - t0;
            storeToDisk(key_json, true, toJson(result));
            noteJobDone(dt.count());
            if (trace::Tracer *tracer =
                    trace::Tracer::globalIfEnabled()) {
                std::string name = "multi";
                for (const auto &app : mix)
                    name += ":" + app;
                tracer->span("sweep", name, traceWorkerLane(),
                             traceUs(t0),
                             traceUs(t1) - traceUs(t0));
            }
            promise->set_value(std::move(result));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    });
    return future;
}

std::vector<RunResult>
SweepRunner::runBatch(const std::vector<SweepJob> &jobs)
{
    std::vector<std::shared_future<RunResult>> futures;
    futures.reserve(jobs.size());
    for (const auto &job : jobs)
        futures.push_back(enqueue(job.app, job.config));
    std::vector<RunResult> results;
    results.reserve(jobs.size());
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

SweepStats
SweepRunner::stats() const
{
    std::lock_guard lock(cacheMu_);
    SweepStats s = stats_;
    if (anySubmitted_) {
        const auto end = lastComplete_.time_since_epoch().count()
                             ? lastComplete_
                             : std::chrono::steady_clock::now();
        s.wallSeconds =
            std::chrono::duration<double>(end - firstSubmit_)
                .count();
    }
    return s;
}

void
SweepRunner::printStats(std::ostream &os) const
{
    const SweepStats s = stats();
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "[sweep] threads=%u jobs=%llu executed=%llu "
        "memo-hits=%llu disk-hits=%llu inflight-shares=%llu "
        "generic-tasks=%llu hit-rate=%.1f%% wall=%.2fs "
        "sim=%.2fs jobs/s=%.1f",
        s.threads,
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(s.executed),
        static_cast<unsigned long long>(s.memoHits),
        static_cast<unsigned long long>(s.diskHits),
        static_cast<unsigned long long>(s.inflightShares),
        static_cast<unsigned long long>(s.genericTasks),
        100.0 * s.hitRate(), s.wallSeconds, s.simSeconds,
        s.jobsPerSec());
    os << line << " images=" << processImageBuilds()
       << " translated-refs=" << translatedRefs() << std::endl;
}

} // namespace sipt::sim
