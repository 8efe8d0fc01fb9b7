/**
 * @file
 * Google-benchmark microbenchmarks of the core components: the
 * predictors (whose per-access cost must be negligible for the
 * paper's overhead claims to hold), the cache array, the TLB,
 * the buddy allocator, a run's allocation-phase set-up, the DRAM
 * timing model, and the sweep engine's task-dispatch overhead.
 */

#include <benchmark/benchmark.h>

#include "cache/cache_array.hh"
#include "common/rng.hh"
#include "dram/dram.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "predictor/combined.hh"
#include "predictor/perceptron.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "vm/tlb.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace sipt;

void
BM_PerceptronPredictTrain(benchmark::State &state)
{
    predictor::PerceptronBypassPredictor perceptron;
    Rng rng(1);
    std::uint64_t pc = 0x400000;
    for (auto _ : state) {
        const bool spec = perceptron.predictSpeculate(pc);
        benchmark::DoNotOptimize(spec);
        perceptron.train(pc, rng.chance(0.9));
        pc += 4;
    }
}
BENCHMARK(BM_PerceptronPredictTrain);

void
BM_CombinedPredict(benchmark::State &state)
{
    predictor::CombinedIndexPredictor combined(
        static_cast<std::uint32_t>(state.range(0)));
    Rng rng(2);
    std::uint64_t pc = 0x400000;
    Vpn vpn = 1000;
    for (auto _ : state) {
        const auto pred = combined.predict(pc, vpn);
        benchmark::DoNotOptimize(pred);
        combined.update(pc, vpn, vpn + 16);
        pc += 4;
        vpn += rng.below(4);
    }
}
BENCHMARK(BM_CombinedPredict)->Arg(1)->Arg(2)->Arg(3);

void
BM_CacheArrayLookupInsert(benchmark::State &state)
{
    cache::CacheGeometry geom;
    geom.sizeBytes = 32 * 1024;
    geom.assoc = static_cast<std::uint32_t>(state.range(0));
    cache::CacheArray array(geom);
    Rng rng(3);
    for (auto _ : state) {
        const Addr paddr = rng.below(1u << 20) << lineShift;
        const auto set = array.setOf(paddr);
        if (array.lookup(set, paddr) < 0)
            array.insert(set, paddr, false);
    }
}
BENCHMARK(BM_CacheArrayLookupInsert)->Arg(2)->Arg(8);

void
BM_TlbLookupInsert(benchmark::State &state)
{
    vm::Tlb tlb(vm::TlbParams{64, 4});
    Rng rng(4);
    for (auto _ : state) {
        const Vpn vpn = rng.below(4096);
        if (!tlb.lookup(vpn))
            tlb.insert(vpn);
    }
}
BENCHMARK(BM_TlbLookupInsert);

void
BM_BuddyAllocFree(benchmark::State &state)
{
    os::BuddyAllocator buddy(1u << 20);
    std::vector<Pfn> live;
    Rng rng(5);
    for (auto _ : state) {
        if (live.size() < 1024 || rng.chance(0.5)) {
            if (auto pfn = buddy.allocate(0))
                live.push_back(*pfn);
        } else {
            const std::size_t idx = rng.below(live.size());
            buddy.free(live[idx], 0);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (Pfn pfn : live)
        buddy.free(pfn, 0);
}
BENCHMARK(BM_BuddyAllocFree);

// The set-up every single-core run pays before its first
// reference: copy the conditioned memory image, build mcf's
// address space and run its allocation phase (its whole footprint
// demand-faulted through the buddy allocator), then tear both
// down, returning every frame to the copy.
void
BM_AllocationPhase(benchmark::State &state)
{
    const sim::SystemConfig config;
    const workload::AppProfile &profile = workload::appProfile("mcf");
    os::PagingPolicy policy;
    policy.thpChance = profile.thpAffinity;
    // Condition the image once, outside the timed loop.
    benchmark::DoNotOptimize(sim::conditionedMemory(config));
    for (auto _ : state) {
        os::BuddyAllocator buddy = sim::conditionedMemory(config);
        os::AddressSpace as(buddy, policy, config.seed + 11);
        workload::SyntheticWorkload app(profile, as, config.seed + 12);
        benchmark::DoNotOptimize(app.hugeCoverage());
    }
}
BENCHMARK(BM_AllocationPhase)->Unit(benchmark::kMillisecond);

void
BM_DramAccess(benchmark::State &state)
{
    dram::Dram dram;
    Rng rng(6);
    Cycles now = 0;
    for (auto _ : state) {
        const Addr paddr = rng.below(1u << 26) << lineShift;
        benchmark::DoNotOptimize(dram.access(paddr, now));
        now += 4;
    }
}
BENCHMARK(BM_DramAccess);

// Round-trip cost of submitting a trivial task to the sweep
// engine and waiting for its result — the per-job overhead every
// figure bench pays on top of the simulation itself.
void
BM_SweepRunnerDispatch(benchmark::State &state)
{
    sim::SweepRunner runner(sim::SweepOptions{
        static_cast<unsigned>(state.range(0)), "-"});
    std::uint64_t x = 0;
    for (auto _ : state) {
        auto fut = runner.async([x] { return x + 1; });
        x = fut.get();
    }
    benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_SweepRunnerDispatch)->Arg(1)->Arg(2);

} // namespace

BENCHMARK_MAIN();
