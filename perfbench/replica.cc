#include "replica.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "batch/pipeline.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/prefetch.hh"
#include "dram/dram.hh"
#include "energy/accounting.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"
#include "os/shared_segment.hh"
#include "workload/profile.hh"
#include "workload/synonym.hh"
#include "workload/synthetic.hh"
#include "workload/trace_replay.hh"

namespace perfbench
{

using namespace sipt;
using sim::MemCondition;
using sim::SystemConfig;

namespace
{

// Constants mirrored from the code the replicas stand in for; a
// difference shows as a digest mismatch against the library.
// src/sim/system.cc: allocator churn for the "weeks of uptime"
// baseline.
constexpr std::uint64_t agingChurnOps = 20'000;
constexpr double agingResidentFraction = 0.22;
// src/batch/pipeline.cc: flat-map cap and host-prefetch distances.
constexpr std::uint64_t maxFlatSlots = 1ull << 24;
constexpr std::size_t xlatPrefetchDist = 8;
constexpr std::size_t accountPrefetchDist = 4;
/** One in this many references gets its account-stage split timed. */
constexpr std::size_t accountSampleStride = 16;

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::nano>(to - from)
        .count();
}

/**
 * Cheap counter for the per-reference split of the account stage
 * into L1 access and core model. Its ticks are only ever used as
 * shares of the stage's steady_clock time, so their rate need not
 * be known.
 */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        Clock::now().time_since_epoch().count());
#endif
}

/** The batch engine's flat VA->PA snapshot (BatchPipeline's
 *  FlatPageMap), rebuilt here because the engine keeps it private.*/
struct FlatPageMap
{
    static constexpr Addr unmapped = ~Addr{0};
    Vpn smallBase = 0;
    std::vector<Addr> smallFrame;
    Vpn hugeBase = 0;
    std::vector<Addr> hugeFrame;
    bool valid = false;

    explicit FlatPageMap(const vm::PageTable &table)
    {
        Vpn small_lo = ~Vpn{0};
        Vpn small_hi = 0;
        Vpn huge_lo = ~Vpn{0};
        Vpn huge_hi = 0;
        std::uint64_t smalls = 0;
        std::uint64_t huges = 0;
        table.forEachSmall([&](Vpn vpn, Pfn) {
            small_lo = std::min(small_lo, vpn);
            small_hi = std::max(small_hi, vpn);
            ++smalls;
        });
        table.forEachHuge([&](Vpn chunk, Pfn) {
            huge_lo = std::min(huge_lo, chunk);
            huge_hi = std::max(huge_hi, chunk);
            ++huges;
        });
        const std::uint64_t small_span =
            smalls ? small_hi - small_lo + 1 : 0;
        const std::uint64_t huge_span =
            huges ? huge_hi - huge_lo + 1 : 0;
        if (small_span + huge_span > maxFlatSlots)
            return;
        smallBase = smalls ? small_lo : 0;
        smallFrame.assign(static_cast<std::size_t>(small_span),
                          unmapped);
        hugeBase = huges ? huge_lo : 0;
        hugeFrame.assign(static_cast<std::size_t>(huge_span),
                         unmapped);
        table.forEachSmall([&](Vpn vpn, Pfn pfn) {
            smallFrame[vpn - smallBase] = pageBase(pfn);
        });
        table.forEachHuge([&](Vpn chunk, Pfn base_pfn) {
            hugeFrame[chunk - hugeBase] = pageBase(base_pfn);
        });
        valid = true;
    }

    void
    prefetch(Addr vaddr) const
    {
        const Vpn chunk = hugePageNumber(vaddr);
        if (chunk - hugeBase < hugeFrame.size())
            prefetchRead(&hugeFrame[chunk - hugeBase]);
        const Vpn vpn = pageNumber(vaddr);
        if (vpn - smallBase < smallFrame.size())
            prefetchRead(&smallFrame[vpn - smallBase]);
    }

    vm::Translation
    translate(Addr vaddr) const
    {
        const Vpn chunk = hugePageNumber(vaddr);
        if (chunk - hugeBase < hugeFrame.size()) {
            const Addr base = hugeFrame[chunk - hugeBase];
            if (base != unmapped)
                return {base | (vaddr & mask(hugePageShift)), true};
        }
        const Vpn vpn = pageNumber(vaddr);
        if (vpn - smallBase < smallFrame.size()) {
            const Addr base = smallFrame[vpn - smallBase];
            if (base != unmapped)
                return {base | pageOffset(vaddr), false};
        }
        panic("MMU translate of unmapped va ", vaddr);
    }
};

os::PagingPolicy
policyFor(const SystemConfig &config, double thp_affinity)
{
    os::PagingPolicy pol;
    switch (config.condition) {
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

/** One core's components, driven stage by stage. */
struct TracedCore
{
    std::unique_ptr<os::AddressSpace> as;
    std::unique_ptr<cpu::TraceSource> workload;
    std::unique_ptr<vm::Mmu> mmu;
    std::unique_ptr<cache::BelowL1> below;
    std::unique_ptr<SiptL1Cache> l1;
    std::unique_ptr<cpu::TraceCore> core;
    /** Built only to time its constructor; never run. */
    std::unique_ptr<batch::BatchPipeline> pipeline;
    std::unique_ptr<FlatPageMap> flat;
    std::unique_ptr<cpu::RefBatch> batch;
    cpu::CoreResult measured;

    cpu::CoreResult run(std::uint64_t max_refs, StageTimes &times);

  private:
    void translate(cpu::RefBatch &b);
    void account(cpu::RefBatch &b, StageTimes &times);
};

cpu::CoreResult
TracedCore::run(std::uint64_t max_refs, StageTimes &times)
{
    cpu::RefBatch &b = *batch;
    const cpu::TraceCore::RunCursor cursor = core->beginRun();
    std::uint64_t remaining = max_refs;
    while (remaining > 0) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining,
                                    cpu::RefBatch::capacity));
        const Clock::time_point t0 = Clock::now();
        const std::size_t got = workload->nextBatch(b, want);
        const Clock::time_point t1 = Clock::now();
        times.generateNs += elapsedNs(t0, t1);
        if (got == 0)
            break;
        translate(b);
        const Clock::time_point t2 = Clock::now();
        times.translateNs += elapsedNs(t1, t2);
        l1->decideBatch(b.size, b.pc.data(), b.vaddr.data(),
                        b.paddr.data(), b.hugePage.data(),
                        b.decision.data());
        times.decideNs += elapsedNs(t2, Clock::now());
        account(b, times);
        times.refs += got;
        remaining -= got;
        if (got < want)
            break;
    }
    return core->endRun(cursor);
}

void
TracedCore::translate(cpu::RefBatch &b)
{
    const vm::PageTable &table = as->pageTable();
    for (std::size_t i = 0; i < b.size; ++i) {
        if (flat->valid && i + xlatPrefetchDist < b.size)
            flat->prefetch(b.vaddr[i + xlatPrefetchDist]);
        const Addr va = b.vaddr[i];
        vm::Translation entry;
        if (flat->valid) {
            entry = flat->translate(va);
        } else {
            const auto xlat = table.translate(va);
            if (!xlat)
                panic("MMU translate of unmapped va ", va);
            entry = *xlat;
        }
        const vm::MmuResult res = mmu->translateEntry(va, entry);
        b.paddr[i] = res.paddr;
        b.xlatLatency[i] = res.latency;
        b.l1TlbHit[i] = res.l1Hit ? 1 : 0;
        b.hugePage[i] = res.hugePage ? 1 : 0;
    }
}

void
TracedCore::account(cpu::RefBatch &b, StageTimes &times)
{
    // Clock reads around every reference would cost more than the
    // work they time, so the stage is timed once and split between
    // access and core by cycle-counter shares sampled on every
    // accountSampleStride-th reference.
    std::uint64_t access_ticks = 0;
    std::uint64_t core_ticks = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < b.size; ++i) {
        if (i + accountPrefetchDist < b.size)
            l1->prefetchAccess(b.paddr[i + accountPrefetchDist]);
        const bool sample = i % accountSampleStride == 0;
        const std::uint64_t t0 = sample ? ticks() : 0;
        const MemRef ref = b.refAt(i);
        const double disp = core->dispatchRef(ref);
        vm::MmuResult xlat;
        xlat.paddr = b.paddr[i];
        xlat.hugePage = b.hugePage[i] != 0;
        xlat.latency = b.xlatLatency[i];
        xlat.l1Hit = b.l1TlbHit[i] != 0;
        const std::uint64_t t1 = sample ? ticks() : 0;
        const L1AccessResult res = l1->accessDecidedUntraced(
            ref, xlat, static_cast<Cycles>(disp),
            static_cast<SpecDecision>(b.decision[i]));
        const std::uint64_t t2 = sample ? ticks() : 0;
        core->completeRef(ref, disp, res.latency, !res.hit);
        b.latency[i] = res.latency;
        b.outcome[i] = (res.hit ? 1u : 0u) | (res.fast ? 2u : 0u);
        if (sample) {
            access_ticks += t2 - t1;
            core_ticks += (t1 - t0) + (ticks() - t2);
        }
    }
    const double ns = elapsedNs(start, Clock::now());
    const double all = static_cast<double>(access_ticks + core_ticks);
    const double access_share =
        all > 0.0 ? static_cast<double>(access_ticks) / all : 0.0;
    times.accessNs += ns * access_share;
    times.coreNs += ns * (1.0 - access_share);
}

/** src/sim/system.cc buildCore(), with the set-up stages timed. */
TracedCore
buildCore(const SystemConfig &config, const std::string &app,
          os::BuddyAllocator &buddy, cache::TimingCache &llc,
          dram::Dram &dram, std::uint64_t seed,
          const os::SharedSegment *shared, StageTimes &times)
{
    SIPT_ASSERT(!config.radixWalker &&
                    config.engine != sim::EngineSelect::Scalar,
                "the traced replica models the batch engine only");
    TracedCore inst;
    const Clock::time_point a0 = Clock::now();
    if (sim::isTraceApp(app)) {
        inst.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(config, 0.0), seed + 1);
        inst.workload =
            std::make_unique<workload::TraceReplaySource>(
                sim::traceAppPath(app), *inst.as, /*loop=*/true);
    } else if (workload::isSynonymApp(app)) {
        inst.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(config, 0.0), seed + 1);
        inst.workload =
            std::make_unique<workload::SynonymWorkload>(
                workload::synonymSpec(app), *inst.as, seed + 2,
                shared);
    } else {
        workload::AppProfile profile = workload::appProfile(app);
        profile.footprintBytes = static_cast<std::uint64_t>(
            static_cast<double>(profile.footprintBytes) *
            config.footprintScale);
        inst.as = std::make_unique<os::AddressSpace>(
            buddy, policyFor(config, profile.thpAffinity),
            seed + 1);
        inst.workload =
            std::make_unique<workload::SyntheticWorkload>(
                profile, *inst.as, seed + 2);
    }
    times.allocNs += elapsedNs(a0, Clock::now());
    inst.mmu = std::make_unique<vm::Mmu>(sim::mmuPreset());

    const cache::TimingCacheParams l2 = sim::l2Preset();
    inst.below = std::make_unique<cache::BelowL1>(
        config.outOfOrder ? &l2 : nullptr, llc, dram);
    L1Params l1_params = sim::l1Preset(
        config.l1Config, config.policy, config.wayPrediction);
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
    SIPT_ASSERT(!l1_params.check.enabled,
                "the traced replica skips the golden-TLB check");
    inst.l1 = std::make_unique<SiptL1Cache>(l1_params, *inst.below);
    SIPT_ASSERT(!inst.l1->traceEnabled(),
                "the traced replica runs the untraced access path");
    inst.core = std::make_unique<cpu::TraceCore>([&] {
        cpu::CoreParams p = config.outOfOrder
                                ? cpu::outOfOrderCoreParams()
                                : cpu::inOrderCoreParams();
        p.seed = seed + 3;
        return p;
    }());

    const Clock::time_point b0 = Clock::now();
    inst.pipeline = std::make_unique<batch::BatchPipeline>(
        *inst.workload, *inst.mmu, inst.as->pageTable(), *inst.l1,
        *inst.core);
    times.buildNs += elapsedNs(b0, Clock::now());
    inst.flat = std::make_unique<FlatPageMap>(inst.as->pageTable());
    inst.batch = std::make_unique<cpu::RefBatch>();
    return inst;
}

void
resetCoreStats(TracedCore &inst)
{
    inst.l1->resetStats();
    inst.below->resetStats();
    inst.mmu->resetStats();
}

/** src/sim/system.cc collect(), plus the measured-phase counts. */
sim::RunResult
collect(const std::string &app, const TracedCore &inst,
        double llc_dyn_share, double llc_static_share_mw,
        double seconds, LayerCounts &counts)
{
    sim::RunResult r;
    r.app = app;
    r.cycles = inst.measured.cycles;
    r.instructions = inst.measured.instructions;
    r.ipc = inst.measured.ipc();
    r.l1 = inst.l1->stats();
    r.l1HitRate = inst.l1->hitRate();
    r.fastFraction = inst.l1->fastFraction();
    r.hugeCoverage = inst.as->hugeCoverage();
    r.energy = energy::computeEnergy(*inst.l1, *inst.below,
                                     llc_dyn_share,
                                     llc_static_share_mw, seconds);
    if (const auto *wp = inst.l1->wayPredictor())
        r.wayPredAccuracy = wp->accuracy();
    const auto &small = inst.mmu->l1Small();
    const auto &huge = inst.mmu->l1Huge();
    const std::uint64_t tlb_hits = small.hits() + huge.hits();
    const std::uint64_t tlb_lookups =
        tlb_hits + small.misses() + huge.misses();
    r.dtlbHitRate = tlb_lookups ? static_cast<double>(tlb_hits) /
                                      static_cast<double>(tlb_lookups)
                                : 0.0;
    r.pageWalks = inst.mmu->walks();
    r.l1Mpki = r.instructions
                   ? 1000.0 * static_cast<double>(r.l1.misses) /
                         static_cast<double>(r.instructions)
                   : 0.0;
    r.checkDigest = inst.l1->checkDigest();
    r.checkEvents = inst.l1->checkEventCount();
    r.checkFailure = inst.l1->checkFailure();
    if (r.checkFailure.empty() && inst.below->fillTracker())
        r.checkFailure = inst.below->fillTracker()->failure();
    if (r.checkFailure.empty())
        r.checkFailure = inst.pipeline->checkFailure();
    if (const auto *checker = inst.l1->checker()) {
        const auto &vivt = checker->vivt().stats();
        r.vivtReverseProbes = vivt.reverseMapProbes;
        r.vivtInvalidations = vivt.synonymInvalidations;
        r.vivtDirtyForwards = vivt.dirtyForwards;
    }

    counts.measuredRefs += inst.measured.memRefs;
    counts.tlbHits += tlb_hits;
    counts.tlbLookups += tlb_lookups;
    counts.pageWalks += r.pageWalks;
    counts.l1Accesses += r.l1.accesses;
    counts.l1Hits += r.l1.hits;
    counts.fastAccesses += r.l1.fastAccesses;
    counts.replays += r.l1.spec.extraAccess;
    return r;
}

/** The conditioned physical memory every run starts from. */
struct Machine
{
    os::BuddyAllocator buddy;
    Rng rng;
    os::SystemAger ager;
    os::MemoryFragmenter fragmenter;

    explicit Machine(const SystemConfig &config)
        : buddy(config.physMemBytes / pageSize), rng(config.seed),
          ager(buddy), fragmenter(buddy)
    {
        ager.age(agingChurnOps, agingResidentFraction, rng);
        if (config.condition == MemCondition::Fragmented)
            fragmenter.fragmentTo(0.95, 9, rng, 0.30);
    }
};

/** Build the Machine under the os.age timer. */
std::unique_ptr<Machine>
conditionMemory(const SystemConfig &config, StageTimes &times)
{
    const Clock::time_point a0 = Clock::now();
    auto machine = std::make_unique<Machine>(config);
    times.ageNs += elapsedNs(a0, Clock::now());
    return machine;
}

} // namespace

StageTimes &
StageTimes::operator+=(const StageTimes &other)
{
    ageNs += other.ageNs;
    allocNs += other.allocNs;
    buildNs += other.buildNs;
    generateNs += other.generateNs;
    translateNs += other.translateNs;
    decideNs += other.decideNs;
    accessNs += other.accessNs;
    coreNs += other.coreNs;
    refs += other.refs;
    return *this;
}

double
StageTimes::totalNs() const
{
    return ageNs + allocNs + buildNs + generateNs + translateNs +
           decideNs + accessNs + coreNs;
}

LayerCounts &
LayerCounts::operator+=(const LayerCounts &other)
{
    measuredRefs += other.measuredRefs;
    tlbHits += other.tlbHits;
    tlbLookups += other.tlbLookups;
    pageWalks += other.pageWalks;
    l1Accesses += other.l1Accesses;
    l1Hits += other.l1Hits;
    fastAccesses += other.fastAccesses;
    replays += other.replays;
    llcMisses += other.llcMisses;
    dramAccesses += other.dramAccesses;
    return *this;
}

sim::RunResult
tracedSingleCore(const std::string &app, const SystemConfig &config,
                 StageTimes &times, LayerCounts &counts)
{
    const std::unique_ptr<Machine> machine =
        conditionMemory(config, times);
    dram::Dram dram;
    cache::TimingCache llc(sim::llcPreset(config.outOfOrder, 1));
    TracedCore inst = buildCore(config, app, machine->buddy, llc,
                                dram, config.seed + 10, nullptr,
                                times);

    inst.run(config.warmupRefs, times);
    resetCoreStats(inst);
    llc.resetStats();
    dram.resetStats();
    inst.measured = inst.run(config.measureRefs, times);

    const double seconds = inst.measured.seconds(3.0);
    sim::RunResult r =
        collect(app, inst, llc.dynamicEnergyNj(),
                llc.params().staticPowerMw, seconds, counts);
    counts.llcMisses += llc.misses();
    counts.dramAccesses += dram.accesses();
    return r;
}

sim::MulticoreResult
tracedMulticore(const std::vector<std::string> &mix,
                const SystemConfig &config, StageTimes &times,
                LayerCounts &counts)
{
    if (mix.empty())
        fatal("tracedMulticore: empty mix");
    const auto cores = static_cast<std::uint32_t>(mix.size());
    const std::unique_ptr<Machine> machine =
        conditionMemory(config, times);
    dram::Dram dram;
    cache::TimingCache llc(sim::llcPreset(config.outOfOrder, cores));

    const Clock::time_point a0 = Clock::now();
    std::map<std::string, std::unique_ptr<os::SharedSegment>>
        segments;
    for (const std::string &app : mix) {
        if (!workload::isSynonymApp(app))
            continue;
        const workload::SynonymSpec spec = workload::synonymSpec(app);
        if (spec.mode != workload::SynonymSpec::Mode::Shared)
            continue;
        const std::string key = workload::synonymAppName(spec);
        if (segments.count(key) == 0) {
            segments.emplace(
                key, std::make_unique<os::SharedSegment>(
                         machine->buddy,
                         workload::synonymMappingBytes(spec),
                         spec.hugePages));
        }
    }
    times.allocNs += elapsedNs(a0, Clock::now());

    std::vector<TracedCore> insts;
    insts.reserve(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        const os::SharedSegment *shared = nullptr;
        if (workload::isSynonymApp(mix[c])) {
            const auto it = segments.find(workload::synonymAppName(
                workload::synonymSpec(mix[c])));
            if (it != segments.end())
                shared = it->second.get();
        }
        insts.push_back(buildCore(config, mix[c], machine->buddy,
                                  llc, dram,
                                  config.seed + 100 * (c + 1),
                                  shared, times));
    }

    // src/sim/system.cc's 5k-reference interleaving slice.
    constexpr std::uint64_t slice = 5'000;
    auto run_phase = [&](std::uint64_t refs_per_core) {
        std::vector<std::uint64_t> done(cores, 0);
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::uint32_t c = 0; c < cores; ++c) {
                if (done[c] >= refs_per_core)
                    continue;
                const std::uint64_t n =
                    std::min(slice, refs_per_core - done[c]);
                const cpu::CoreResult res = insts[c].run(n, times);
                insts[c].measured.cycles += res.cycles;
                insts[c].measured.instructions += res.instructions;
                insts[c].measured.memRefs += res.memRefs;
                done[c] += n;
                progress = true;
            }
        }
    };

    run_phase(config.warmupRefs);
    for (TracedCore &inst : insts) {
        resetCoreStats(inst);
        inst.measured = cpu::CoreResult{};
    }
    llc.resetStats();
    dram.resetStats();
    run_phase(config.measureRefs);

    sim::MulticoreResult result;
    double max_seconds = 0.0;
    for (const TracedCore &inst : insts)
        max_seconds = std::max(max_seconds, inst.measured.seconds(3.0));
    for (std::uint32_t c = 0; c < cores; ++c) {
        const double llc_dyn = c == 0 ? llc.dynamicEnergyNj() : 0.0;
        const double llc_static =
            c == 0 ? llc.params().staticPowerMw : 0.0;
        sim::RunResult r = collect(mix[c], insts[c], llc_dyn,
                                   llc_static, max_seconds, counts);
        result.sumIpc += r.ipc;
        result.energy += r.energy;
        result.perCore.push_back(std::move(r));
    }
    counts.llcMisses += llc.misses();
    counts.dramAccesses += dram.accesses();
    return result;
}

} // namespace perfbench
