/**
 * @file
 * Full-system assembly and experiment drivers.
 *
 * A run has two parts:
 *
 *  - its process image (ProcessImage): physical memory conditioned
 *    by a buddy allocator, one address space per core under the
 *    requested paging policy, each workload's allocation phase, and
 *    what that phase fixes (page tables, the batch engine's flat
 *    page maps, shared segments, each workload's post-allocation
 *    cursor). The image depends only on the memory key, the
 *    condition, the footprint scale and each core's (app, seed,
 *    trace header and layout); it is built once per process for
 *    every run that shares those inputs and never changes
 *    afterwards;
 *  - its run state, built fresh per run: a copy of each workload
 *    cursor, the TLBs, the L1 under a chosen indexing policy with
 *    its predictors, the lower hierarchy, DRAM, and a core model.
 *
 * runSingleCore() runs one named application on such a machine and
 * returns the metrics every figure of the paper is built from.
 * runMulticore() instantiates four such cores over a shared LLC,
 * DRAM, and physical allocator (Tab. III mixes, Fig. 15).
 */

#ifndef SIPT_SIM_SYSTEM_HH
#define SIPT_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "batch/pipeline.hh"
#include "cpu/core.hh"
#include "cpu/trace_source.hh"
#include "energy/accounting.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/shared_segment.hh"
#include "sim/presets.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"

namespace sipt::sim
{

/** Physical-memory operating condition (Sec. VII-B / Fig. 18). */
enum class MemCondition : std::uint8_t
{
    Normal,       ///< aged machine, weeks of uptime
    Fragmented,   ///< unusable-free-space index Fu(9) > 0.95
    ThpOff,       ///< transparent huge pages disabled
    NoContiguity, ///< every 4 KiB page placed at random
};

/** Printable condition name. */
const char *conditionName(MemCondition condition);

/**
 * Parse a CLI condition token: "normal", "fragmented", "thp-off",
 * "no-contig" (case-insensitive). nullopt for anything else.
 */
std::optional<MemCondition>
conditionFromName(std::string_view name);

/**
 * Default warmup references per run; reads the SIPT_WARMUP
 * environment variable so CI smoke runs can shrink warmup the
 * same way SIPT_REFS shrinks measurement.
 */
std::uint64_t defaultWarmupRefs();

/**
 * Which access-pipeline engine executes a run. The batched engine
 * (src/batch) and the scalar reference loop are bit-identical in
 * every result — stats, energy, metrics, SIPT_CHECK digest —
 * which is enforced by tests/test_batch.cpp and by the fuzzer
 * flipping engines per sample. Because the choice can never
 * influence a result, it is deliberately EXCLUDED from the
 * run-cache key (SystemConfig::operator== / hashValue).
 */
enum class EngineSelect : std::uint8_t
{
    /** Follow the SIPT_BATCH environment variable: unset or any
     *  value but "0" selects the batched engine. */
    Auto,
    /** Force the scalar reference loop. */
    Scalar,
    /** Force the batched engine (still falls back to scalar for
     *  radix-walker configs, whose translation latency depends on
     *  the issue cycle). */
    Batch,
};

/** One experiment's system description. */
struct SystemConfig
{
    /** Core + hierarchy depth: true = OOO/3-level (Tab. II left),
     *  false = in-order/2-level. */
    bool outOfOrder = true;
    L1Config l1Config = L1Config::Baseline32K8;
    /** Override the preset's L1 capacity (0 = keep the preset).
     *  Used by the fuzzer to sample arbitrary geometries. */
    std::uint64_t l1SizeBytes = 0;
    /** Override the preset's L1 associativity (0 = keep). */
    std::uint32_t l1Assoc = 0;
    /** Override the preset's L1 hit latency (0 = keep). */
    Cycles l1HitLatency = 0;
    IndexingPolicy policy = IndexingPolicy::Vipt;
    /** Override the translation-value predictor table entries of
     *  the Revelator / Pcax policies (0 = keep the L1Params
     *  defaults). Power of two; used by the fuzzer and the
     *  sensitivity sweeps. */
    std::uint32_t xlatPredEntries = 0;
    bool wayPrediction = false;
    /**
     * Model page walks as dependent PTE reads through the cache
     * hierarchy (radix walker + page-walk caches) instead of the
     * default constant walk latency.
     */
    bool radixWalker = false;
    MemCondition condition = MemCondition::Normal;
    /** Simulated physical memory (scaled from the paper's 16 GiB
     *  to keep sweeps fast; page-granular behaviour unchanged). */
    std::uint64_t physMemBytes = 4ull << 30;
    /** References to run before statistics reset. */
    std::uint64_t warmupRefs = defaultWarmupRefs();
    /** References measured. */
    std::uint64_t measureRefs = 400'000;
    std::uint64_t seed = 42;
    /** Scale factor applied to application footprints (used by
     *  the multicore driver to co-fit four apps). */
    double footprintScale = 1.0;
    /**
     * Force differential golden-model checking for this run, in
     * addition to the SIPT_CHECK environment gate (the fuzzer sets
     * this so RunResult::checkDigest is always populated). Part of
     * the run-cache key because it changes the result payload.
     */
    bool check = false;
    /**
     * Access-pipeline engine. NOT part of the run-cache key: both
     * engines are bit-identical, so a cached result serves either
     * (the fuzzer relies on this to flip engines without losing
     * cross-sample memoisation).
     */
    // sipt-analyze: key-exempt(serves both engines)
    EngineSelect engine = EngineSelect::Auto;

    /**
     * Equality over every result-influencing field; together with
     * hashValue() this makes a config usable as a run-cache key,
     * so every field that influences simulation results MUST
     * participate here. `engine` is the one deliberate exception
     * (see EngineSelect) — which is why this cannot be a defaulted
     * comparison. tests/test_config_key.cpp walks the fields and
     * asserts both the participation and the exception.
     */
    bool
    operator==(const SystemConfig &other) const
    {
        return outOfOrder == other.outOfOrder &&
               l1Config == other.l1Config &&
               l1SizeBytes == other.l1SizeBytes &&
               l1Assoc == other.l1Assoc &&
               l1HitLatency == other.l1HitLatency &&
               policy == other.policy &&
               xlatPredEntries == other.xlatPredEntries &&
               wayPrediction == other.wayPrediction &&
               radixWalker == other.radixWalker &&
               condition == other.condition &&
               physMemBytes == other.physMemBytes &&
               warmupRefs == other.warmupRefs &&
               measureRefs == other.measureRefs &&
               seed == other.seed &&
               footprintScale == other.footprintScale &&
               check == other.check;
    }
};

/** Hash over every SystemConfig field except `engine` (run-cache
 *  key; see EngineSelect for why engine is excluded). */
std::size_t hashValue(const SystemConfig &config);

/** Metrics from one application run. */
struct RunResult
{
    std::string app;
    double ipc = 0.0;
    double cycles = 0.0;
    InstCount instructions = 0;
    L1Stats l1;
    double l1HitRate = 0.0;
    /** Fraction of accesses completing without waiting for the
     *  TLB (the paper's "fast accesses"). */
    double fastFraction = 0.0;
    energy::EnergyBreakdown energy;
    /** Fraction of the app's memory that is THP-backed. */
    double hugeCoverage = 0.0;
    /** MRU way-prediction accuracy (0 when disabled). */
    double wayPredAccuracy = 0.0;
    double dtlbHitRate = 0.0;
    std::uint64_t pageWalks = 0;
    /** L1 misses per kilo-instruction. */
    double l1Mpki = 0.0;
    /** Stable digest of the measured-phase functional event
     *  stream (0 unless SIPT_CHECK was on). Policy-invariant:
     *  every indexing policy must produce the same digest for the
     *  same (app, geometry, workload). */
    std::uint64_t checkDigest = 0;
    /** Events behind checkDigest (0 unless SIPT_CHECK). */
    std::uint64_t checkEvents = 0;
    /** First golden-model divergence, invariant violation, TLB
     *  mismatch, or writeback-shim failure; empty when clean. */
    std::string checkFailure;
    /** VIVT strawman bookkeeping over the measured phase (all 0
     *  unless SIPT_CHECK was on): reverse-map probes a virtually
     *  tagged L1 would have issued on virtual-tag misses... */
    std::uint64_t vivtReverseProbes = 0;
    /** ...the synonym invalidations those probes triggered (same
     *  physical line cached under another virtual name)... */
    std::uint64_t vivtInvalidations = 0;
    /** ...and how many displaced copies were dirty, forcing a
     *  data forward. SIPT's physical tags make all three zero-cost
     *  non-events; the counters quantify the avoided machinery and
     *  never affect digests or failures. */
    std::uint64_t vivtDirtyForwards = 0;
};

/**
 * Default measured references per run; reads the SIPT_REFS
 * environment variable so CI can shrink experiments.
 */
std::uint64_t defaultMeasureRefs();

/** Conditioned-memory images the per-process memo keeps. */
inline constexpr std::size_t conditionedMemoryEntries = 4;

/**
 * Physical memory as every run under @p config finds it before its
 * first allocation: a fresh allocator over physMemBytes aged by
 * weeks of churn and, under MemCondition::Fragmented, then driven
 * to Kwon et al.'s fragmentation target. The image is a pure
 * function of (physMemBytes, seed, condition == Fragmented). The
 * process memoizes the conditionedMemoryEntries most recently used
 * images and returns a private copy, so callers may allocate from
 * it freely.
 */
os::BuddyAllocator conditionedMemory(const SystemConfig &config);

/**
 * The immutable part of a run: everything the allocation phase
 * fixes, for every core. Built over a private copy of conditioned
 * memory; once every workload has allocated, the address spaces and
 * segments forget their frames and the allocator copy is dropped,
 * so an image holds no allocator and no run frees anything. Runs
 * share an image read-only and advance private cursor copies.
 */
struct ProcessImage
{
    /** One core's process as its allocation phase left it. */
    struct Process
    {
        /** Derived seed of this core (its address space uses
         *  seed + 1, its workload seed + 2, its core seed + 3). */
        std::uint64_t seed = 0;
        /** Frozen: detached from its allocator. */
        std::unique_ptr<const os::AddressSpace> as;
        /** The batch engine's snapshot of as's page table. */
        std::shared_ptr<const batch::FlatPageMap> flat;
        /** The workload right after its allocation phase. Never
         *  advanced: runs read it through newCursor(). */
        std::unique_ptr<const cpu::TraceSource> cursor;
        /** Copies @c cursor as its concrete workload type. */
        std::unique_ptr<cpu::TraceSource> (*copyCursor)(
            const cpu::TraceSource &) = nullptr;

        /** A private cursor at the post-allocation position. */
        std::unique_ptr<cpu::TraceSource>
        newCursor() const
        {
            return copyCursor(*cursor);
        }
    };

    /** Shared synonym segments, one per shared profile in the
     *  mix, allocated before any core's address space. */
    std::vector<std::unique_ptr<const os::SharedSegment>> segments;
    /** One per core, in mix order. */
    std::vector<Process> processes;
};

/**
 * Process images the per-process memo keeps. One is enough for
 * sweeps that submit each stream's runs together (a figure sweep,
 * app by app): a 4-worker sweep of 26 apps x 8 policies builds each
 * app's image exactly once per round at one entry as at two, and
 * every image kept beyond the one in use pins allocator arena
 * memory. Peak RSS of that sweep (the claim-sweep benchmark) on a
 * 4-vCPU x86-64 host: 31-33 MiB at one entry, 37-46 MiB at two,
 * 44 MiB at four.
 */
inline constexpr std::size_t processImageEntries = 1;

/**
 * The image runSingleCore(@p app, @p config) runs on. The process
 * memoizes the processImageEntries most recently used images;
 * callers racing on a new one wait for a single build. Fatal (or,
 * on a sweep worker, throws FatalError to every waiter) when the
 * image cannot be built; a failed build is not memoized.
 */
std::shared_ptr<const ProcessImage>
singleCoreImage(const std::string &app, const SystemConfig &config);

/** The image runMulticore(@p mix, @p config) runs on. */
std::shared_ptr<const ProcessImage>
multicoreImage(const std::vector<std::string> &mix,
               const SystemConfig &config);

/** Process images built so far in this process (memo misses,
 *  failed builds included). */
std::uint64_t processImageBuilds();

/** Run one application on one system. */
RunResult runSingleCore(const std::string &app,
                        const SystemConfig &config);

/**
 * True when @p app names a recorded trace instead of a synthetic
 * profile: "trace:<path>". Trace apps are accepted everywhere an
 * app name is (runSingleCore, runMulticore mixes, the sweep
 * engine), replaying the file's recorded reference stream and
 * VA->PA layout through the full pipeline.
 */
bool isTraceApp(const std::string &app);

/** The file path behind a "trace:<path>" app name. */
std::string traceAppPath(const std::string &app);

/**
 * Record @p app's reference stream to a trace file at @p path: the
 * VA->PA layout of runSingleCore()'s image for (@p app, @p config)
 * plus warmupRefs+measureRefs references of a cursor copied from
 * that image, so the recording is the live run's stream by
 * construction. Replaying the file under the same SystemConfig is
 * digest-identical to the live run. Fatal when @p app is itself a
 * trace app or the file cannot be written.
 */
void recordTrace(const std::string &app,
                 const SystemConfig &config,
                 const std::string &path);

/** Result of a quad-core multiprogrammed run. */
struct MulticoreResult
{
    std::vector<RunResult> perCore;
    /** Sum of per-core IPCs (the paper's throughput metric). */
    double sumIpc = 0.0;
    /** Total cache-hierarchy energy across all cores + LLC. */
    energy::EnergyBreakdown energy;
};

/**
 * Run a multiprogrammed mix, one application per core, over a
 * shared LLC/DRAM/physical memory. Cores advance in small
 * time-slices so shared-resource contention is interleaved.
 */
MulticoreResult runMulticore(const std::vector<std::string> &mix,
                             const SystemConfig &config);

} // namespace sipt::sim

#endif // SIPT_SIM_SYSTEM_HH
