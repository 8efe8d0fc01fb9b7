#include "sim/system.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <string_view>

#include "batch/pipeline.hh"
#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "dram/dram.hh"
#include "os/fragmenter.hh"
#include "sim/lru_memo.hh"
#include "workload/profile.hh"
#include "workload/synonym.hh"
#include "workload/synthetic.hh"
#include "workload/trace_format.hh"
#include "workload/trace_record.hh"
#include "workload/trace_replay.hh"

namespace sipt::sim
{

namespace
{

/** Allocator churn applied for the "weeks of uptime" baseline. */
constexpr std::uint64_t agingChurnOps = 20'000;
constexpr double agingResidentFraction = 0.22;

/** Everything conditioned physical memory depends on. */
struct MemoryKey
{
    std::uint64_t physMemBytes = 0;
    std::uint64_t seed = 0;
    bool fragmented = false;
    bool operator==(const MemoryKey &) const = default;
};

/** Age (and, for Fragmented, fragment) a fresh allocator. */
os::BuddyAllocator
conditionFresh(const MemoryKey &key)
{
    os::BuddyAllocator buddy(key.physMemBytes / pageSize);
    Rng sys_rng(key.seed);
    os::SystemAger ager(buddy);
    os::MemoryFragmenter fragmenter(buddy);
    ager.age(agingChurnOps, agingResidentFraction, sys_rng);
    if (key.fragmented)
        fragmenter.fragmentTo(0.95, 9, sys_rng, 0.30);
    // Snapshot while the ager and fragmenter still hold their
    // pins: their destructors release into the scratch allocator.
    return os::BuddyAllocator(buddy);
}

/** Everything a process image depends on. */
struct ImageKey
{
    /** One core's part of the key. */
    struct Core
    {
        std::string app;
        /** Derived seed (runSingleCore and runMulticore differ). */
        std::uint64_t seed = 0;
        /** workload::traceLayoutHash() of a trace app's file (0
         *  otherwise), so a trace re-recorded in place keys a new
         *  image. */
        std::uint64_t traceHash = 0;
        bool operator==(const Core &) const = default;
    };

    MemoryKey memory;
    MemCondition condition = MemCondition::Normal;
    double footprintScale = 1.0;
    std::vector<Core> cores;
    bool operator==(const ImageKey &) const = default;
};

/** The process-wide memos: pure functions of their keys, holding
 *  only immutable values (an image's stream logs only ever append
 *  what their key fixes). */
struct Memos
{
    LruMemo<MemoryKey, os::BuddyAllocator> memory{
        conditionedMemoryEntries};
    LruMemo<ImageKey, ProcessImage> images{processImageEntries};
    /** References every stream producer has made (translatedRefs). */
    std::atomic<std::uint64_t> translatedRefs{0};
};

Memos &
memos()
{
    // The second sanctioned process-global (after
    // SweepRunner::global()): each memo caches a pure function of
    // its key and hands out only immutable values or copies, so no
    // run can observe another.
    // sipt-lint: allow(mutable-static)
    static Memos memos;
    return memos;
}

/** A private copy of @p key's conditioned memory. */
os::BuddyAllocator
conditionedCopy(const MemoryKey &key)
{
    return *memos().memory.get(key,
                               [&] { return conditionFresh(key); });
}

/** Glue: MMU + L1 behind the core's memory port. */
class SystemPort : public cpu::MemPort
{
  public:
    SystemPort(vm::Mmu &mmu, const vm::PageTable &page_table,
               SiptL1Cache &l1)
        : mmu_(mmu), pageTable_(page_table), l1_(l1),
          check_(l1.params().check)
    {
    }

    Cycles
    access(const MemRef &ref, Cycles now, bool &miss_out) override
    {
        const vm::MmuResult xlat =
            mmu_.translate(ref.vaddr, pageTable_, now);
        if (check_.enabled)
            checkTranslation(ref.vaddr, xlat.paddr);
        const L1AccessResult res = l1_.access(ref, xlat, now);
        miss_out = !res.hit;
        return res.latency;
    }

    /** First golden-TLB mismatch, or empty. */
    const std::string &checkFailure() const { return failure_; }

  private:
    /**
     * Golden-TLB check: whatever the timed MMU (TLB hierarchy +
     * walker) returned must equal an untimed page-table walk —
     * TLB state may only affect latency, never the translation.
     */
    void
    checkTranslation(Addr vaddr, Addr paddr)
    {
        const auto golden = pageTable_.translate(vaddr);
        std::string error;
        if (!golden) {
            error = detail::formatMessage(
                "MMU translated unmapped va 0x", std::hex, vaddr);
        } else if (golden->paddr != paddr) {
            error = detail::formatMessage(
                "TLB divergence at va 0x", std::hex, vaddr,
                ": MMU pa 0x", paddr, ", page table pa 0x",
                golden->paddr);
        }
        if (error.empty())
            return;
        if (check_.abortOnDivergence)
            panic("SIPT_CHECK: ", error);
        if (failure_.empty())
            failure_ = error;
    }

    vm::Mmu &mmu_;
    const vm::PageTable &pageTable_;
    SiptL1Cache &l1_;
    check::Options check_;
    std::string failure_;
};

/** PTE reads of the radix walker go through the hierarchy. */
class WalkThroughCaches : public vm::WalkPort
{
  public:
    explicit WalkThroughCaches(cache::BelowL1 &below)
        : below_(below)
    {
    }

    Cycles
    walkRead(Addr paddr, Cycles now) override
    {
        return below_.fill(paddr, now);
    }

  private:
    cache::BelowL1 &below_;
};

/** One core's run state over its process in an image. */
struct CoreInstance
{
    const ProcessImage::Process *process = nullptr;
    std::unique_ptr<cache::BelowL1> below;
    std::unique_ptr<SiptL1Cache> l1;
    std::unique_ptr<cpu::TraceCore> core;
    /** Batched engine when selected; it owns or shares the stream
     *  and its translations. */
    std::unique_ptr<batch::BatchPipeline> pipeline;
    /** Scalar engine otherwise: a private copy of the image's
     *  post-allocation cursor, the MMU and the port joining them. */
    std::unique_ptr<cpu::TraceSource> workload;
    std::unique_ptr<vm::Mmu> mmu;
    std::unique_ptr<SystemPort> port;
    std::unique_ptr<WalkThroughCaches> walkPort;
    std::unique_ptr<vm::PageWalker> walker;
    cpu::CoreResult measured;

    /** Run refs through whichever engine this core uses. */
    cpu::CoreResult
    run(std::uint64_t max_refs)
    {
        return pipeline ? pipeline->run(max_refs)
                        : core->run(*workload, *port, max_refs);
    }
};

/**
 * Resolve the engine for a config. Radix-walker configs always
 * take the scalar path: walk latency depends on the issue cycle,
 * which the batched translate stage does not know yet.
 */
bool
useBatchEngine(const SystemConfig &config)
{
    if (config.radixWalker)
        return false;
    switch (config.engine) {
      case EngineSelect::Scalar:
        return false;
      case EngineSelect::Batch:
        return true;
      case EngineSelect::Auto:
        break;
    }
    const char *env = std::getenv("SIPT_BATCH");
    return env == nullptr || std::string_view(env) != "0";
}

os::PagingPolicy
policyFor(MemCondition condition, double thp_affinity)
{
    os::PagingPolicy pol;
    switch (condition) {
      case MemCondition::Normal:
      case MemCondition::Fragmented:
        pol.thpEnabled = true;
        pol.thpChance = thp_affinity;
        break;
      case MemCondition::ThpOff:
        pol.thpEnabled = false;
        break;
      case MemCondition::NoContiguity:
        pol.thpEnabled = false;
        pol.randomPlacement = true;
        break;
    }
    return pol;
}

/** Copies a cursor of concrete type Source. */
template <typename Source>
std::unique_ptr<cpu::TraceSource>
copyCursor(const cpu::TraceSource &prototype)
{
    return std::make_unique<Source>(
        static_cast<const Source &>(prototype));
}

/** Run one core's allocation phase over @p buddy. */
ProcessImage::Process
buildProcess(const ImageKey &key, const ImageKey::Core &core,
             os::BuddyAllocator &buddy,
             const os::SharedSegment *shared)
{
    ProcessImage::Process proc;
    proc.seed = core.seed;
    std::unique_ptr<os::AddressSpace> as;
    if (isTraceApp(core.app)) {
        // Replay: the trace supplies the layout and mapping, so
        // the paging policy and footprint scale are moot (no
        // demand fault ever fires).
        as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(key.condition, 0.0), core.seed + 1);
        proc.cursor = std::make_unique<workload::TraceReplaySource>(
            traceAppPath(core.app), *as, /*loop=*/true);
        proc.copyCursor = &copyCursor<workload::TraceReplaySource>;
    } else if (workload::isSynonymApp(core.app)) {
        // Multi-mapping scenarios: mmapAlias/mmapCow need
        // small-mapped sources, so THP stays off for these
        // regardless of condition. Footprints are fixed (no
        // scaling): a few hundred KiB against gigabytes.
        as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(key.condition, 0.0), core.seed + 1);
        proc.cursor = std::make_unique<workload::SynonymWorkload>(
            workload::synonymSpec(core.app), *as, core.seed + 2,
            shared);
        proc.copyCursor = &copyCursor<workload::SynonymWorkload>;
    } else {
        workload::AppProfile profile = workload::appProfile(core.app);
        profile.footprintBytes = static_cast<std::uint64_t>(
            static_cast<double>(profile.footprintBytes) *
            key.footprintScale);
        as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(key.condition, profile.thpAffinity),
            core.seed + 1);
        proc.cursor = std::make_unique<workload::SyntheticWorkload>(
            profile, *as, core.seed + 2);
        proc.copyCursor = &copyCursor<workload::SyntheticWorkload>;
    }
    as->forgetFrames();
    proc.flat =
        std::make_shared<const batch::FlatPageMap>(as->pageTable());
    proc.log = std::make_unique<batch::StreamLog>(
        [cursor = proc.cursor.get(), copy = proc.copyCursor] {
            return copy(*cursor);
        },
        mmuPreset(), as->pageTable(), proc.flat,
        &memos().translatedRefs);
    proc.as = std::move(as);
    return proc;
}

/**
 * Build every core's process over one private copy of conditioned
 * memory, in mix order, then drop that copy: the image keeps the
 * mappings but no allocator.
 */
ProcessImage
buildImage(const ImageKey &key)
{
    os::BuddyAllocator buddy = conditionedCopy(key.memory);
    ProcessImage image;

    // Shared-mode synonym apps naming the same profile attach the
    // same physical segment from every core: cross-core synonyms
    // over the shared LLC, not per-core private copies.
    std::map<std::string, os::SharedSegment *> segments;
    for (const ImageKey::Core &core : key.cores) {
        if (!workload::isSynonymApp(core.app))
            continue;
        const workload::SynonymSpec spec =
            workload::synonymSpec(core.app);
        if (spec.mode != workload::SynonymSpec::Mode::Shared)
            continue;
        const std::string name = workload::synonymAppName(spec);
        if (segments.count(name) != 0)
            continue;
        auto segment = std::make_unique<os::SharedSegment>(
            buddy, workload::synonymMappingBytes(spec),
            spec.hugePages);
        segments.emplace(name, segment.get());
        image.segments.push_back(std::move(segment));
    }

    for (const ImageKey::Core &core : key.cores) {
        const os::SharedSegment *shared = nullptr;
        if (workload::isSynonymApp(core.app)) {
            const auto it = segments.find(workload::synonymAppName(
                workload::synonymSpec(core.app)));
            if (it != segments.end())
                shared = it->second;
        }
        image.processes.push_back(
            buildProcess(key, core, buddy, shared));
    }
    for (auto &[name, segment] : segments)
        segment->forgetFrames();
    return image;
}

/** The memoized image for @p mix with per-core @p seeds. */
std::shared_ptr<const ProcessImage>
imageFor(const std::vector<std::string> &mix,
         const std::vector<std::uint64_t> &seeds,
         const SystemConfig &config)
{
    ImageKey key;
    key.memory = MemoryKey{config.physMemBytes, config.seed,
                           config.condition ==
                               MemCondition::Fragmented};
    key.condition = config.condition;
    key.footprintScale = config.footprintScale;
    for (std::size_t c = 0; c < mix.size(); ++c) {
        key.cores.push_back(
            {mix[c], seeds[c],
             isTraceApp(mix[c])
                 ? workload::traceLayoutHash(traceAppPath(mix[c]))
                 : 0});
    }
    return memos().images.get(key, [&] { return buildImage(key); });
}

/**
 * Run state for @p proc, one of @p cores in its image: fresh
 * components, and the stream either from the image's log or, when
 * the log does not serve the run's length or the run takes the
 * scalar engine, from a fresh cursor.
 */
CoreInstance
buildCore(const SystemConfig &config,
          const ProcessImage::Process &proc, std::size_t cores,
          cache::TimingCache &llc, dram::Dram &dram)
{
    CoreInstance inst;
    inst.process = &proc;

    const cache::TimingCacheParams l2 = l2Preset();
    inst.below = std::make_unique<cache::BelowL1>(
        config.outOfOrder ? &l2 : nullptr, llc, dram);
    L1Params l1_params = l1Preset(config.l1Config, config.policy,
                                  config.wayPrediction);
    // Fuzzer geometry overrides (0 = keep the preset value).
    if (config.l1SizeBytes != 0)
        l1_params.geometry.sizeBytes = config.l1SizeBytes;
    if (config.l1Assoc != 0)
        l1_params.geometry.assoc = config.l1Assoc;
    if (config.l1HitLatency != 0)
        l1_params.hitLatency = config.l1HitLatency;
    if (config.xlatPredEntries != 0) {
        l1_params.hashedXlat.entries = config.xlatPredEntries;
        l1_params.pcXlat.entries = config.xlatPredEntries;
    }
    if (config.check)
        l1_params.check.enabled = true;
    inst.l1 = std::make_unique<SiptL1Cache>(l1_params,
                                            *inst.below);
    inst.core = std::make_unique<cpu::TraceCore>([&] {
        cpu::CoreParams p = config.outOfOrder
                                ? cpu::outOfOrderCoreParams()
                                : cpu::inOrderCoreParams();
        p.seed = proc.seed + 3;
        return p;
    }());
    const vm::PageTable &page_table = proc.as->pageTable();
    if (useBatchEngine(config)) {
        if (batch::StreamLog::serves(
                config.warmupRefs + config.measureRefs, cores)) {
            inst.pipeline = std::make_unique<batch::BatchPipeline>(
                *proc.log, *inst.l1, *inst.core);
        } else {
            inst.pipeline = std::make_unique<batch::BatchPipeline>(
                std::make_unique<batch::StreamProducer>(
                    proc.newCursor(), mmuPreset(), page_table,
                    proc.flat, &memos().translatedRefs),
                *inst.l1, *inst.core);
        }
        return inst;
    }
    inst.workload = proc.newCursor();
    inst.mmu = std::make_unique<vm::Mmu>(mmuPreset());
    inst.port = std::make_unique<SystemPort>(*inst.mmu, page_table,
                                             *inst.l1);
    if (config.radixWalker) {
        inst.walkPort =
            std::make_unique<WalkThroughCaches>(*inst.below);
        inst.walker = std::make_unique<vm::PageWalker>(
            vm::WalkerParams{}, *inst.walkPort);
        inst.mmu->setWalker(inst.walker.get());
    }
    return inst;
}

void
resetCoreStats(CoreInstance &inst)
{
    inst.l1->resetStats();
    inst.below->resetStats();
    if (inst.pipeline)
        inst.pipeline->resetStats();
    else
        inst.mmu->resetStats();
}

/** The measured phase's TLB statistics, from whichever engine. */
batch::TlbStats
tlbStats(const CoreInstance &inst)
{
    if (inst.pipeline)
        return inst.pipeline->tlbStats();
    const auto &small = inst.mmu->l1Small();
    const auto &huge = inst.mmu->l1Huge();
    batch::TlbStats tlb;
    tlb.l1Hits = small.hits() + huge.hits();
    tlb.lookups = tlb.l1Hits + small.misses() + huge.misses();
    tlb.walks = inst.mmu->walks();
    return tlb;
}

RunResult
collect(const std::string &app, const SystemConfig &config,
        const CoreInstance &inst, double llc_dyn_share,
        double llc_static_share_mw, double seconds)
{
    RunResult r;
    r.app = app;
    r.cycles = inst.measured.cycles;
    r.instructions = inst.measured.instructions;
    r.ipc = inst.measured.ipc();
    r.l1 = inst.l1->stats();
    r.l1HitRate = inst.l1->hitRate();
    r.fastFraction = inst.l1->fastFraction();
    r.hugeCoverage = inst.process->as->hugeCoverage();
    r.energy = energy::computeEnergy(
        *inst.l1, *inst.below, llc_dyn_share,
        llc_static_share_mw, seconds);
    if (const auto *wp = inst.l1->wayPredictor())
        r.wayPredAccuracy = wp->accuracy();
    const batch::TlbStats tlb = tlbStats(inst);
    r.dtlbHitRate = tlb.lookups
                        ? static_cast<double>(tlb.l1Hits) /
                              static_cast<double>(tlb.lookups)
                        : 0.0;
    r.pageWalks = tlb.walks;
    r.l1Mpki = r.instructions
                   ? 1000.0 *
                         static_cast<double>(r.l1.misses) /
                         static_cast<double>(r.instructions)
                   : 0.0;
    r.checkDigest = inst.l1->checkDigest();
    r.checkEvents = inst.l1->checkEventCount();
    // The first failure wins, whichever layer saw it.
    r.checkFailure = inst.l1->checkFailure();
    if (r.checkFailure.empty() && inst.below->fillTracker())
        r.checkFailure = inst.below->fillTracker()->failure();
    if (r.checkFailure.empty() && inst.port)
        r.checkFailure = inst.port->checkFailure();
    if (r.checkFailure.empty() && inst.pipeline)
        r.checkFailure = inst.pipeline->checkFailure();
    if (const auto *checker = inst.l1->checker()) {
        const auto &vivt = checker->vivt().stats();
        r.vivtReverseProbes = vivt.reverseMapProbes;
        r.vivtInvalidations = vivt.synonymInvalidations;
        r.vivtDirtyForwards = vivt.dirtyForwards;
    }
    (void)config;
    return r;
}

} // namespace

const char *
conditionName(MemCondition condition)
{
    switch (condition) {
      case MemCondition::Normal:
        return "Normal";
      case MemCondition::Fragmented:
        return "Fragmented";
      case MemCondition::ThpOff:
        return "THP-off";
      case MemCondition::NoContiguity:
        return "No->4KiB-contig";
    }
    return "?";
}

std::optional<MemCondition>
conditionFromName(std::string_view name)
{
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "normal")
        return MemCondition::Normal;
    if (lower == "fragmented")
        return MemCondition::Fragmented;
    if (lower == "thp-off")
        return MemCondition::ThpOff;
    if (lower == "no-contig")
        return MemCondition::NoContiguity;
    return std::nullopt;
}

bool
isTraceApp(const std::string &app)
{
    return app.rfind("trace:", 0) == 0;
}

std::string
traceAppPath(const std::string &app)
{
    SIPT_ASSERT(isTraceApp(app), "not a trace app: ", app);
    return app.substr(6);
}

void
recordTrace(const std::string &app, const SystemConfig &config,
            const std::string &path)
{
    if (isTraceApp(app))
        fatal("recordTrace: cannot re-record a trace app (", app,
              ")");

    // The live run's own image: snapshot its layout (for synonym
    // apps that layout is many-to-one), then tee the stream a core
    // would consume into the file.
    const auto image = singleCoreImage(app, config);
    const ProcessImage::Process &proc = image->processes.front();
    const std::unique_ptr<cpu::TraceSource> source =
        proc.newCursor();
    workload::TraceRecorder recorder(path, app, config.seed,
                                     *proc.as);
    cpu::TeeSource tee(*source, recorder);
    const std::uint64_t total =
        config.warmupRefs + config.measureRefs;
    MemRef ref;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (!tee.next(ref))
            break;
    }
    recorder.finish();
}

std::uint64_t
defaultMeasureRefs()
{
    // Strict parse: "2000x" or a negative must not silently run a
    // different experiment than the user asked for.
    return envU64("SIPT_REFS", 400'000, 1,
                  std::uint64_t{1} << 40);
}

std::uint64_t
defaultWarmupRefs()
{
    return envU64("SIPT_WARMUP", 150'000, 1,
                  std::uint64_t{1} << 40);
}

std::size_t
hashValue(const SystemConfig &config)
{
    std::size_t h = 0;
    SystemConfig::forEachField(
        [&h](const char *, const auto &field) {
            hashCombine(h, field);
        },
        config);
    return h;
}

os::BuddyAllocator
conditionedMemory(const SystemConfig &config)
{
    return conditionedCopy(
        MemoryKey{config.physMemBytes, config.seed,
                  config.condition == MemCondition::Fragmented});
}

std::shared_ptr<const ProcessImage>
singleCoreImage(const std::string &app, const SystemConfig &config)
{
    return imageFor({app}, {config.seed + 10}, config);
}

std::shared_ptr<const ProcessImage>
multicoreImage(const std::vector<std::string> &mix,
               const SystemConfig &config)
{
    std::vector<std::uint64_t> seeds;
    for (std::size_t c = 0; c < mix.size(); ++c)
        seeds.push_back(config.seed + 100 * (c + 1));
    return imageFor(mix, seeds, config);
}

std::uint64_t
processImageBuilds()
{
    return memos().images.builds();
}

std::uint64_t
translatedRefs()
{
    return memos().translatedRefs.load(std::memory_order_relaxed);
}

RunResult
runSingleCore(const std::string &app, const SystemConfig &config)
{
    const auto image = singleCoreImage(app, config);

    dram::Dram dram;
    cache::TimingCache llc(llcPreset(config.outOfOrder, 1));

    CoreInstance inst =
        buildCore(config, image->processes.front(), 1, llc, dram);

    inst.run(config.warmupRefs);
    resetCoreStats(inst);
    llc.resetStats();
    dram.resetStats();

    inst.measured = inst.run(config.measureRefs);

    const double seconds = inst.measured.seconds(3.0);
    return collect(app, config, inst, llc.dynamicEnergyNj(),
                   llc.params().staticPowerMw, seconds);
}

MulticoreResult
runMulticore(const std::vector<std::string> &mix,
             const SystemConfig &config)
{
    if (mix.empty())
        fatal("runMulticore: empty mix");
    const auto cores = static_cast<std::uint32_t>(mix.size());

    const auto image = multicoreImage(mix, config);

    dram::Dram dram;
    cache::TimingCache llc(llcPreset(config.outOfOrder, cores));

    std::vector<CoreInstance> insts;
    insts.reserve(cores);
    for (const ProcessImage::Process &proc : image->processes)
        insts.push_back(buildCore(config, proc, cores, llc, dram));

    // Interleave cores in slices so LLC/DRAM contention mixes.
    constexpr std::uint64_t slice = 5'000;
    auto run_phase = [&](std::uint64_t refs_per_core) {
        std::vector<std::uint64_t> done(cores, 0);
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::uint32_t c = 0; c < cores; ++c) {
                if (done[c] >= refs_per_core)
                    continue;
                const std::uint64_t n = std::min(
                    slice, refs_per_core - done[c]);
                const auto res = insts[c].run(n);
                insts[c].measured.cycles += res.cycles;
                insts[c].measured.instructions +=
                    res.instructions;
                insts[c].measured.memRefs += res.memRefs;
                done[c] += n;
                progress = true;
            }
        }
    };

    run_phase(config.warmupRefs);
    for (auto &inst : insts) {
        resetCoreStats(inst);
        inst.measured = cpu::CoreResult{};
    }
    llc.resetStats();
    dram.resetStats();
    run_phase(config.measureRefs);

    MulticoreResult result;
    double max_seconds = 0.0;
    for (const auto &inst : insts) {
        max_seconds =
            std::max(max_seconds, inst.measured.seconds(3.0));
    }
    // LLC dynamic energy is shared; attribute it wholly to the
    // run (core share = 0 except the first, which carries it).
    for (std::uint32_t c = 0; c < cores; ++c) {
        const double llc_dyn =
            c == 0 ? llc.dynamicEnergyNj() : 0.0;
        const double llc_static =
            c == 0 ? llc.params().staticPowerMw : 0.0;
        RunResult r = collect(mix[c], config, insts[c], llc_dyn,
                              llc_static, max_seconds);
        result.sumIpc += r.ipc;
        result.energy += r.energy;
        result.perCore.push_back(std::move(r));
    }
    return result;
}

} // namespace sipt::sim
