#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::workload
{

SyntheticWorkload::SyntheticWorkload(
    const AppProfile &profile, os::AddressSpace &address_space,
    std::uint64_t seed)
    : profile_(profile), as_(&address_space), rng_(seed)
{
    if (profile.footprintBytes < profile.hotBytes)
        fatal(profile.name, ": footprint smaller than hot set");
    if (profile.numRegions == 0)
        fatal(profile.name, ": zero regions");
    if (profile.chaseFrac + profile.hotFrac > 1.0)
        fatal(profile.name, ": access-mix fractions exceed 1");
    if (profile.memRatio <= 0.0 || profile.memRatio > 1.0)
        fatal(profile.name, ": memRatio out of (0,1]");
    if (profile.chaseChains == 0)
        fatal(profile.name, ": zero chase chains");

    // Carve the footprint into regions; region 0 additionally
    // hosts the hot working set, so make sure it is big enough.
    const std::uint64_t per_region = alignUp(
        profile.footprintBytes / profile.numRegions, pageSize);
    for (std::uint32_t r = 0; r < profile.numRegions; ++r) {
        std::uint64_t bytes = per_region;
        if (r == 0)
            bytes = std::max(bytes, alignUp(profile.hotBytes,
                                            pageSize));
        const Addr base = address_space.mmap(
            bytes, profile.regionAlignLog2,
            static_cast<std::uint64_t>(profile.skewPages) * (r + 1));
        regions_.push_back({base, bytes});
    }
    std::uint64_t cum = 0;
    for (const auto &r : regions_) {
        cum += r.bytes;
        cumBytes_.push_back(cum);
    }
    // Stagger the stream starting offsets: concurrent streams in
    // real programs sit at unrelated depths in their arrays, so
    // they must not collide in the same cache set forever.
    streamCursor_.assign(regions_.size(), 0);
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        streamCursor_[r] =
            (r * 37 * lineSize + r * 3 * pageSize) %
            std::max<std::uint64_t>(regions_[r].bytes / 2,
                                    lineSize);
    }

    // PC pools: one contiguous program text, sites in pattern
    // order. Aliasing in the 64-entry predictors is intentional
    // when 3 x pcsPerPattern exceeds the table size.
    Addr pc = Addr{0x400000};
    for (std::uint32_t i = 0; i < profile.pcsPerPattern; ++i) {
        chasePcs_.push_back(pc);
        pc += 4;
    }
    for (std::uint32_t i = 0; i < profile.pcsPerPattern; ++i) {
        hotPcs_.push_back(pc);
        pc += 4;
    }
    for (std::uint32_t i = 0; i < profile.pcsPerPattern; ++i) {
        streamPcs_.push_back(pc);
        pc += 4;
    }
    for (std::size_t r = 0; r < regions_.size(); ++r)
        streamPcForRegion_.push_back(
            streamPcs_[r % streamPcs_.size()]);
    logOneMinusP_ = std::log(1.0 - profile.memRatio);

    allocatePhase(address_space);
}

void
SyntheticWorkload::allocatePhase(os::AddressSpace &as)
{
    // Build the first-touch order for every region.
    std::vector<std::vector<std::uint32_t>> order(regions_.size());
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        const auto pages = static_cast<std::uint32_t>(
            regions_[r].bytes / pageSize);
        order[r].resize(pages);
        // Rotate the touch order by a third of the region: the
        // first faults of a process land on whatever small free
        // blocks are lying around, and rotating keeps those
        // stragglers away from the hot set at the region start.
        const std::uint32_t rot = pages / 3;
        for (std::uint32_t i = 0; i < pages; ++i)
            order[r][i] = (i + rot) % pages;
        if (profile_.randomTouch) {
            for (std::uint32_t i = pages; i > 1; --i) {
                std::swap(order[r][i - 1],
                          order[r][rng_.below(i)]);
            }
        }
    }

    // Interleave bursts across regions: this is how multiple data
    // structures growing together end up with interleaved frames.
    std::vector<std::uint32_t> cursor(regions_.size(), 0);
    bool left = true;
    while (left) {
        left = false;
        for (std::size_t r = 0; r < regions_.size(); ++r) {
            const std::uint32_t burst =
                profile_.touchBurstPages
                    ? profile_.touchBurstPages
                    : static_cast<std::uint32_t>(order[r].size());
            std::uint32_t done = 0;
            while (cursor[r] < order[r].size() && done < burst) {
                const Addr va =
                    regions_[r].base +
                    static_cast<Addr>(order[r][cursor[r]]) *
                        pageSize;
                as.touch(va);
                ++cursor[r];
                ++done;
            }
            if (cursor[r] < order[r].size())
                left = true;
        }
    }
}

Addr
SyntheticWorkload::pickChaseAddr()
{
    if (profile_.chaseSpanBytes > 0) {
        // Bounded chase: a pointer structure of chaseSpanBytes in
        // region 0, placed after the hot set.
        const std::uint64_t hot_end =
            alignUp(profile_.hotBytes, pageSize);
        const std::uint64_t span = std::min(
            profile_.chaseSpanBytes,
            regions_[0].bytes > hot_end + pageSize
                ? regions_[0].bytes - hot_end
                : regions_[0].bytes);
        const std::uint64_t off =
            regions_[0].bytes > hot_end + span ? hot_end : 0;
        return regions_[0].base + off +
               alignDown(rng_.below(span - 8), 8);
    }
    // Weighted by region size: a uniformly random word anywhere in
    // the footprint.
    const std::uint64_t target = rng_.below(cumBytes_.back());
    std::size_t r = 0;
    while (cumBytes_[r] <= target)
        ++r;
    const std::uint64_t within =
        target - (r == 0 ? 0 : cumBytes_[r - 1]);
    return regions_[r].base + alignDown(within, 8);
}

Addr
SyntheticWorkload::pickHotAddr()
{
    // Hierarchically skewed: most references hit a small core of
    // the hot set, with sharply decaying popularity toward its
    // edge — real working sets are not uniformly hot, which is
    // what keeps low-associativity caches viable (Sec. III).
    const double u = rng_.uniform();
    std::uint64_t span;
    if (u < 0.40)
        span = std::max<std::uint64_t>(profile_.hotBytes / 16, 64);
    else if (u < 0.65)
        span = std::max<std::uint64_t>(profile_.hotBytes / 4, 64);
    else if (u < 0.85)
        span = std::max<std::uint64_t>(profile_.hotBytes / 2, 64);
    else
        span = profile_.hotBytes;
    return regions_[0].base + alignDown(rng_.below(span), 8);
}

Addr
SyntheticWorkload::pickStreamAddr(std::uint32_t &region_out)
{
    const std::uint32_t r = nextStreamRegion_;
    if (++nextStreamRegion_ >= regions_.size())
        nextStreamRegion_ = 0;
    // Region 0 hosts the hot working set; streams there start
    // beyond it so they do not thrash the hot lines (unless the
    // region is too small to separate them).
    std::uint64_t lo =
        r == 0 ? alignUp(profile_.hotBytes, pageSize) : 0;
    if (lo + profile_.streamStride + 16 >= regions_[r].bytes)
        lo = 0;
    std::uint64_t &cur = streamCursor_[r];
    if (cur < lo)
        cur = lo;
    cur += profile_.streamStride;
    if (cur + 8 > regions_[r].bytes)
        cur = lo;
    region_out = r;
    return regions_[r].base + cur;
}

std::uint32_t
SyntheticWorkload::sampleGap()
{
    // Geometric gap with mean (1-p)/p, p = memRatio.
    const double u = rng_.uniform();
    const double k = std::floor(std::log(1.0 - u) /
                                logOneMinusP_);
    return static_cast<std::uint32_t>(
        std::min(k, 200.0));
}

bool
SyntheticWorkload::next(MemRef &ref)
{
    const bool ok = generate(ref);
    lastVaddr_ = ref.vaddr;
    lastPc_ = ref.pc;
    return ok;
}

std::size_t
SyntheticWorkload::nextBatch(cpu::RefBatch &batch,
                             std::size_t max_refs)
{
    if (max_refs > cpu::RefBatch::capacity)
        max_refs = cpu::RefBatch::capacity;
    batch.clear();
    MemRef ref;
    while (batch.size < max_refs) {
        if (!generate(ref))
            break;
        lastVaddr_ = ref.vaddr;
        lastPc_ = ref.pc;
        batch.push(ref);
    }
    return batch.size;
}

bool
SyntheticWorkload::generate(MemRef &ref)
{
    ref = MemRef{};
    ref.nonMemBefore = sampleGap();

    // Same-object bursts: real code touches several words of the
    // line it just fetched (struct fields, adjacent elements).
    // This is what gives MRU way prediction its high accuracy.
    if (lastVaddr_ != 0 && rng_.chance(0.3)) {
        ref.vaddr = alignDown(lastVaddr_, lineSize) +
                    (rng_.below(8) * 8);
        // Reuse the producing PC so the PC-indexed predictors see
        // a consistent page stream per entry.
        ref.pc = lastPc_;
        ref.op = rng_.chance(profile_.writeFrac) ? MemOp::Store
                                                 : MemOp::Load;
        return true;
    }

    const double u = rng_.uniform();
    if (u < profile_.chaseFrac) {
        ref.vaddr = pickChaseAddr();
        ref.pc = chasePcs_[rng_.below(chasePcs_.size())];
        ref.op = MemOp::Load;
        ref.dependsOnPrev = true;
        ref.chainId = static_cast<std::uint8_t>(
            rng_.below(profile_.chaseChains));
        ref.chainTail = 1; // next = node->ptr
        return true;
    }
    if (u < profile_.chaseFrac + profile_.hotFrac) {
        ref.vaddr = pickHotAddr();
        ref.pc = hotPcs_[rng_.below(hotPcs_.size())];
        if (rng_.chance(profile_.hotChaseFrac)) {
            // Dependent walk of a resident structure: a chain of
            // (mostly) L1 hits that exposes hit latency. The tail
            // models the index arithmetic between links.
            ref.op = MemOp::Load;
            ref.dependsOnPrev = true;
            ref.chainId = 14; // one resident-structure walk
            ref.chainTail = 3;
        } else {
            ref.op = rng_.chance(profile_.writeFrac)
                         ? MemOp::Store
                         : MemOp::Load;
        }
        return true;
    }
    std::uint32_t region = 0;
    ref.vaddr = pickStreamAddr(region);
    ref.pc = streamPcForRegion_[region];
    ref.op = rng_.chance(profile_.writeFrac) ? MemOp::Store
                                             : MemOp::Load;
    return true;
}


double
SyntheticWorkload::hugeCoverage() const
{
    return as_->hugeCoverage();
}

} // namespace sipt::workload
