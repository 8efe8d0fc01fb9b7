/**
 * @file
 * Pure closure/conservation invariants over the L1 counters.
 *
 * These encode the paper's accounting identities: speculation can
 * move an access between the fast and slow buckets and can add
 * wasted array probes, but every access is counted exactly once in
 * each partition, and the energy-weighted probe count can never
 * exceed the raw probe count (way prediction only ever discounts a
 * correctly predicted hit). The checks run per access from the
 * differential checker and are also unit-tested directly, so a
 * counter that silently drifts is caught the moment it happens
 * rather than after it has corrupted a figure.
 */

#ifndef SIPT_CHECK_INVARIANTS_HH
#define SIPT_CHECK_INVARIANTS_HH

#include <cstdint>
#include <string>

#include "check/l1_stats.hh"

namespace sipt::check
{

/**
 * How the indexing policy partitions speculative accesses. The L1
 * controller maps its IndexingPolicy here (Direct covers VIPT,
 * Ideal, and any SIPT policy on a geometry with zero speculative
 * bits, where the speculation path is never entered).
 */
enum class PolicyClass : std::uint8_t
{
    Direct,
    Naive,
    Bypass,
    Combined,
    /** Combined plus the superpage gate (VESPA). */
    Vespa,
    /** Hashed translation-value predictor (Revelator). */
    Revelator,
    /** PC-indexed translation-value predictor (PCAX). */
    Pcax,
};

/** Printable class name. */
const char *policyClassName(PolicyClass cls);

/**
 * Mirror of the L1's SpecDecision taxonomy, redeclared here so the
 * check layer can reason about per-access decisions while staying
 * below the L1 controller in the library graph. The controller
 * maps each decision explicitly (never by enum-value punning).
 */
enum class SpecClass : std::uint8_t
{
    Direct,
    Speculate,
    DeltaHit,
    Replay,
    BypassCorrect,
    BypassLoss,
};

/** Printable decision name. */
const char *specClassName(SpecClass spec);

/**
 * Snapshot of every counter the invariants relate: the L1's own
 * counters plus what the closures need to know about the policy
 * and the way predictor. The controller fills it in one place.
 */
struct StatsView
{
    PolicyClass policy = PolicyClass::Direct;
    std::uint32_t assoc = 1;
    L1Stats l1;
    /** Way-prediction hits charged at 1/assoc (0 when way
     *  prediction is disabled). */
    std::uint64_t wayPredCorrect = 0;
};

/**
 * Check the counting identities (hits+misses == accesses,
 * fast+slow == accesses, the per-policy speculation partition,
 * arrayAccesses == accesses + extraArrayAccesses).
 *
 * @return empty string when all identities hold, else a
 *         description of the first violated identity
 */
std::string checkStatsClosure(const StatsView &stats);

/**
 * Check energy conservation: weightedArrayAccesses never exceeds
 * arrayAccesses, and equals arrayAccesses minus the way-prediction
 * discount exactly — every probe is a full-cost read except a
 * correctly way-predicted hit at 1/assoc. A replayed (wasted)
 * probe of the wrong set must be charged as a full read.
 *
 * @return empty string when conserved, else a description
 */
std::string checkEnergyClosure(const StatsView &stats);

/**
 * Check one huge-page access's speculation decision for legality.
 * On a 2 MiB page the <= 3 speculative index bits sit entirely
 * below the 21-bit huge-page offset, so translation provably
 * preserves them: speculating with the VA bits can never need a
 * replay, and a bypass can never be "correct". Consequently, on a
 * huge-page reference:
 *
 *  - BypassCorrect is a contradiction under every policy;
 *  - Replay is illegal for the VA-bits speculators (Naive, Bypass,
 *    Vespa) but legal for the value predictors (Combined,
 *    Revelator, Pcax), whose stage-2 may predict *changed* bits
 *    and be wrong — exactly the waste the VESPA gate removes;
 *  - Vespa's gate must fire: anything but Speculate is a bug.
 *
 * Only call for huge-page references; small pages carry no such
 * guarantee.
 *
 * @return empty string when legal, else a description
 */
std::string checkHugePageDecision(PolicyClass policy,
                                  SpecClass spec);

} // namespace sipt::check

#endif // SIPT_CHECK_INVARIANTS_HH
