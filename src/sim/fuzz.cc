#include "sim/fuzz.hh"

#include <ostream>
#include <sstream>
#include <utility>

#include "common/bitops.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "workload/profile.hh"
#include "workload/synonym.hh"

namespace sipt::sim
{

namespace
{

/** Stable per-sample stream: decorrelate index from master seed
 *  with splitmix-style odd multipliers before seeding the Rng. */
std::uint64_t
sampleSeed(std::uint64_t master_seed, std::uint64_t index)
{
    return master_seed ^
           (index * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull);
}

/** Speculative index bits of a (size, assoc) L1 geometry. */
unsigned
specBitsOf(std::uint64_t size_bytes, std::uint32_t assoc)
{
    const std::uint64_t way_bytes = size_bytes / assoc;
    if (way_bytes <= pageSize)
        return 0;
    return floorLog2(way_bytes) - pageShift;
}

/** Functional counters that must be policy-invariant. */
struct FunctionalCounters
{
    std::uint64_t hits;
    std::uint64_t misses;
    std::uint64_t writebacks;
    std::uint64_t loads;
    std::uint64_t stores;

    bool operator==(const FunctionalCounters &) const = default;
};

FunctionalCounters
countersOf(const sim::RunResult &r)
{
    return {r.l1.hits, r.l1.misses, r.l1.writebacks, r.l1.loads,
            r.l1.stores};
}

/**
 * Diff one sample's per-policy results; empty when invariant.
 * @p expect_synonyms is true for multi-mapping workloads, where
 * the VIVT strawman must have needed synonym invalidations while
 * SIPT's digest stayed identical to golden.
 */
std::string
diffPolicies(
    const std::vector<std::pair<IndexingPolicy, sim::RunResult>>
        &runs,
    bool expect_synonyms)
{
    if (runs.empty())
        return "no runnable policy";
    for (const auto &[policy, result] : runs) {
        if (!result.checkFailure.empty()) {
            std::ostringstream os;
            os << policyName(policy) << ": "
               << result.checkFailure;
            return os.str();
        }
        if (result.checkEvents == 0)
            return "checker recorded no events (checking off?)";
        if (expect_synonyms && result.vivtInvalidations == 0) {
            std::ostringstream os;
            os << policyName(policy)
               << ": synonym workload, but the VIVT strawman saw "
                  "no synonym invalidations";
            return os.str();
        }
    }
    const auto &[ref_policy, ref] = runs.front();
    for (const auto &[policy, result] : runs) {
        if (result.checkDigest != ref.checkDigest ||
            result.checkEvents != ref.checkEvents) {
            std::ostringstream os;
            os << "functional stream divergence: "
               << policyName(ref_policy) << " digest "
               << ref.checkDigest << " (" << ref.checkEvents
               << " events) vs " << policyName(policy)
               << " digest " << result.checkDigest << " ("
               << result.checkEvents << " events)";
            return os.str();
        }
        if (countersOf(result) != countersOf(ref)) {
            std::ostringstream os;
            os << "counter divergence vs "
               << policyName(ref_policy) << ": "
               << policyName(policy) << " hits/misses/wb "
               << result.l1.hits << "/" << result.l1.misses << "/"
               << result.l1.writebacks << " vs " << ref.l1.hits
               << "/" << ref.l1.misses << "/"
               << ref.l1.writebacks;
            return os.str();
        }
        // Strawman bookkeeping is fed from the same observation
        // stream, so it must be exactly as policy- and
        // engine-invariant as the digest.
        if (result.vivtReverseProbes != ref.vivtReverseProbes ||
            result.vivtInvalidations != ref.vivtInvalidations ||
            result.vivtDirtyForwards != ref.vivtDirtyForwards) {
            std::ostringstream os;
            os << "VIVT bookkeeping divergence vs "
               << policyName(ref_policy) << ": "
               << policyName(policy) << " probes/inval/fwd "
               << result.vivtReverseProbes << "/"
               << result.vivtInvalidations << "/"
               << result.vivtDirtyForwards << " vs "
               << ref.vivtReverseProbes << "/"
               << ref.vivtInvalidations << "/"
               << ref.vivtDirtyForwards;
            return os.str();
        }
    }
    return {};
}

} // namespace

FuzzSample
sampleAt(std::uint64_t master_seed, std::uint64_t index)
{
    Rng rng(sampleSeed(master_seed, index));

    FuzzSample sample;
    sample.masterSeed = master_seed;
    sample.index = index;

    sim::SystemConfig &c = sample.config;

    // Geometry: 8-64 KiB, 1-8 ways, 0-3 speculative bits. The one
    // (size, assoc) combination with 4 speculative bits (64 KiB
    // direct-mapped) is resampled away.
    c.l1SizeBytes = Addr{8 * 1024} << rng.below(4);
    c.l1Assoc = std::uint32_t{1} << rng.below(4);
    while (specBitsOf(c.l1SizeBytes, c.l1Assoc) > 3)
        c.l1Assoc = std::uint32_t{2} << rng.below(3);
    c.l1HitLatency = 2 + rng.below(3);

    const auto &apps = workload::figureApps();
    sample.app = apps[rng.below(apps.size())];

    c.outOfOrder = rng.chance(0.5);
    c.wayPrediction = rng.chance(0.5);
    c.radixWalker = rng.chance(0.25);
    // Half the samples shrink the translation-value predictor
    // tables (Revelator/Pcax) so aliasing paths get exercised;
    // the other half keep the L1Params defaults (0 = preset).
    if (rng.chance(0.5)) {
        c.xlatPredEntries = std::uint32_t{16}
                            << rng.below(4);
    }
    // Alternate access-pipeline engines across samples: every
    // campaign then checks the batched engine's digests against
    // scalar-engine digests through the same policy-invariance
    // oracle (the engine is excluded from the memo key, so a
    // cached result legitimately serves both).
    c.engine = rng.chance(0.5) ? sim::EngineSelect::Batch
                               : sim::EngineSelect::Scalar;
    c.condition =
        static_cast<sim::MemCondition>(rng.below(4));

    // A quarter of the samples swap the figure app for a
    // multi-mapping synonym scenario, sampling the profile knobs
    // (mode, alias count, index-bit skew, huge-page backing). The
    // canonical app name round-trips through the repro line's
    // "app" field, so a failing sample replays exactly.
    if (rng.chance(0.25)) {
        workload::SynonymSpec spec;
        spec.mode = static_cast<workload::SynonymSpec::Mode>(
            rng.below(3));
        spec.mappings =
            2 + static_cast<std::uint32_t>(rng.below(3));
        spec.skewPages =
            static_cast<std::uint32_t>(rng.below(8));
        // Fragmented memory starves the 2 MiB buddy order a huge
        // shared segment needs, so huge profiles only run on the
        // other conditions.
        if (spec.mode == workload::SynonymSpec::Mode::Shared &&
            c.condition != sim::MemCondition::Fragmented) {
            spec.hugePages = rng.chance(0.5);
        }
        sample.app = workload::synonymAppName(spec);
    }

    // Small machine + short phases keep one sample cheap; the
    // campaign gets its coverage from sample count, not from the
    // length of any single run.
    c.physMemBytes = 256ull << 20;
    c.footprintScale = 0.02 + 0.06 * rng.uniform();
    c.warmupRefs = 400 + rng.below(800);
    c.measureRefs = 1000 + rng.below(2000);
    c.seed = rng();
    c.check = true;
    return sample;
}

std::vector<IndexingPolicy>
policiesFor(const sim::SystemConfig &config)
{
    std::vector<IndexingPolicy> policies;
    const unsigned spec_bits =
        config.l1SizeBytes && config.l1Assoc
            ? specBitsOf(config.l1SizeBytes, config.l1Assoc)
            : 0;
    if (spec_bits == 0)
        policies.push_back(IndexingPolicy::Vipt);
    policies.push_back(IndexingPolicy::Ideal);
    policies.push_back(IndexingPolicy::SiptNaive);
    policies.push_back(IndexingPolicy::SiptBypass);
    policies.push_back(IndexingPolicy::SiptCombined);
    policies.push_back(IndexingPolicy::SiptVespa);
    policies.push_back(IndexingPolicy::SiptRevelator);
    policies.push_back(IndexingPolicy::SiptPcax);
    return policies;
}

std::string
reproLine(const FuzzSample &sample)
{
    std::ostringstream os;
    os << "SIPT-FUZZ-REPRO seed=" << sample.masterSeed
       << " index=" << sample.index
       << " app=" << Json(sample.app).dump()
       << " config=" << sim::configToJson(sample.config).dump();
    return os.str();
}

bool
parseRepro(const std::string &line, std::uint64_t &seed_out,
           std::uint64_t &index_out)
{
    const auto seed_pos = line.find("seed=");
    const auto index_pos = line.find("index=");
    if (seed_pos == std::string::npos ||
        index_pos == std::string::npos) {
        return false;
    }
    try {
        seed_out = std::stoull(line.substr(seed_pos + 5));
        index_out = std::stoull(line.substr(index_pos + 6));
    } catch (...) {
        return false;
    }
    return true;
}

SampleResult
runSample(const FuzzSample &sample, sim::SweepRunner &runner)
{
    std::vector<std::pair<IndexingPolicy,
                          std::shared_future<sim::RunResult>>>
        futures;
    for (const IndexingPolicy policy :
         policiesFor(sample.config)) {
        sim::SystemConfig config = sample.config;
        config.policy = policy;
        futures.emplace_back(policy,
                             runner.enqueue(sample.app, config));
    }

    std::vector<std::pair<IndexingPolicy, sim::RunResult>> runs;
    runs.reserve(futures.size());
    for (auto &[policy, future] : futures)
        runs.emplace_back(policy, future.get());

    SampleResult result;
    const std::string diff = diffPolicies(
        runs, workload::isSynonymApp(sample.app));
    if (!diff.empty()) {
        result.passed = false;
        result.failure = diff;
        result.repro = reproLine(sample);
    }
    return result;
}

std::uint64_t
runCampaign(std::uint64_t master_seed, std::uint64_t count,
            sim::SweepRunner &runner, std::ostream &out)
{
    // Enqueue every (sample, policy) job up front so the pool
    // stays saturated, then judge samples in order.
    std::vector<FuzzSample> samples;
    std::vector<std::vector<
        std::pair<IndexingPolicy,
                  std::shared_future<sim::RunResult>>>>
        futures(count);
    samples.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        samples.push_back(sampleAt(master_seed, i));
        for (const IndexingPolicy policy :
             policiesFor(samples[i].config)) {
            sim::SystemConfig config = samples[i].config;
            config.policy = policy;
            futures[i].emplace_back(
                policy, runner.enqueue(samples[i].app, config));
        }
    }

    std::uint64_t failures = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::vector<std::pair<IndexingPolicy, sim::RunResult>>
            runs;
        runs.reserve(futures[i].size());
        for (auto &[policy, future] : futures[i])
            runs.emplace_back(policy, future.get());
        const std::string diff = diffPolicies(
            runs, workload::isSynonymApp(samples[i].app));
        if (!diff.empty()) {
            ++failures;
            out << "FAIL sample " << i << " (app "
                << samples[i].app << "): " << diff << "\n"
                << reproLine(samples[i]) << "\n";
        }
    }
    return failures;
}

} // namespace sipt::sim
