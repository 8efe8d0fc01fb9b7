/**
 * @file
 * The L1 controller's aggregate counters.
 *
 * They live below the controller, in the check layer, so that the
 * invariant checker's StatsView can embed them instead of
 * re-declaring every counter; sipt/l1_cache.hh re-exports them as
 * sipt::L1Stats and sipt::SpeculationStats.
 */

#ifndef SIPT_CHECK_L1_STATS_HH
#define SIPT_CHECK_L1_STATS_HH

#include <cstdint>

namespace sipt::check
{

/**
 * Taxonomy of one access's speculation outcome (Figs. 5, 9, 12).
 */
struct SpeculationStats
{
    /** Speculated with VA bits and they were unchanged. */
    std::uint64_t correctSpeculation = 0;
    /** Bypassed and the bits would indeed have changed. */
    std::uint64_t correctBypass = 0;
    /** Bypassed although the bits were unchanged (lost fast). */
    std::uint64_t opportunityLoss = 0;
    /** Speculated (any source) but the index was wrong: replay. */
    std::uint64_t extraAccess = 0;
    /** Bypass-predicted accesses saved by the IDB / reversal. */
    std::uint64_t idbHit = 0;
};

/** Aggregate L1 statistics. */
struct L1Stats
{
    std::uint64_t accesses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    /** Accesses whose data was available at hitLatency. */
    std::uint64_t fastAccesses = 0;
    /** Accesses that had to wait for translation. */
    std::uint64_t slowAccesses = 0;
    /** Wasted array accesses caused by misspeculation. */
    std::uint64_t extraArrayAccesses = 0;
    /** Total array access attempts (for energy). */
    std::uint64_t arrayAccesses = 0;
    /**
     * Energy-weighted array accesses: way prediction scales a
     * predicted-way access to 1/assoc of a full access.
     */
    double weightedArrayAccesses = 0.0;
    /** Accesses whose translation was a huge (2 MiB) page. */
    std::uint64_t hugeAccesses = 0;
    /** Replays among the huge-page accesses: on huge pages the VA
     *  index bits are provably unchanged, so every one of these is
     *  a *value predictor* wasting a guaranteed-fast access — the
     *  waste the Vespa gate eliminates. */
    std::uint64_t hugeReplays = 0;
    /** Opportunity losses among the huge-page accesses (Bypass
     *  refusing a speculation that could not have failed). */
    std::uint64_t hugeBypassLosses = 0;
    SpeculationStats spec;

    /**
     * The field table, in the run-result JSON's order, with the
     * speculation taxonomy flattened in: calls f(name, field...)
     * with that field of every object in @p s.
     */
    template <typename F, typename... S>
    static void
    forEachField(F &&f, S &...s)
    {
        f("accesses", s.accesses...);
        f("loads", s.loads...);
        f("stores", s.stores...);
        f("hits", s.hits...);
        f("misses", s.misses...);
        f("writebacks", s.writebacks...);
        f("fastAccesses", s.fastAccesses...);
        f("slowAccesses", s.slowAccesses...);
        f("extraArrayAccesses", s.extraArrayAccesses...);
        f("arrayAccesses", s.arrayAccesses...);
        f("weightedArrayAccesses", s.weightedArrayAccesses...);
        f("hugeAccesses", s.hugeAccesses...);
        f("hugeReplays", s.hugeReplays...);
        f("hugeBypassLosses", s.hugeBypassLosses...);
        f("correctSpeculation", s.spec.correctSpeculation...);
        f("correctBypass", s.spec.correctBypass...);
        f("opportunityLoss", s.spec.opportunityLoss...);
        f("extraAccess", s.spec.extraAccess...);
        f("idbHit", s.spec.idbHit...);
    }
};

} // namespace sipt::check

#endif // SIPT_CHECK_L1_STATS_HH
