/**
 * @file
 * Cache-hierarchy energy accounting, matching the paper's
 * methodology (Sec. III-A): dynamic energy per access plus static
 * power integrated over simulated time for every cache level (L1,
 * L2, LLC). DRAM energy is tracked separately and excluded from
 * the "total cache hierarchy energy" the figures report.
 */

#ifndef SIPT_ENERGY_ACCOUNTING_HH
#define SIPT_ENERGY_ACCOUNTING_HH

#include "cache/hierarchy.hh"
#include "cache/timing_cache.hh"
#include "sipt/l1_cache.hh"

namespace sipt::energy
{

/** Energy totals for one run, in nanojoules. */
struct EnergyBreakdown
{
    double l1Dynamic = 0.0;
    double l2Dynamic = 0.0;
    double llcDynamic = 0.0;
    double l1Static = 0.0;
    double l2Static = 0.0;
    double llcStatic = 0.0;

    /** The field table, in the run-result JSON's order: calls
     *  f(name, field...) with that field of every object in @p s. */
    template <typename F, typename... S>
    static void
    forEachField(F &&f, S &...s)
    {
        f("l1Dynamic", s.l1Dynamic...);
        f("l2Dynamic", s.l2Dynamic...);
        f("llcDynamic", s.llcDynamic...);
        f("l1Static", s.l1Static...);
        f("l2Static", s.l2Static...);
        f("llcStatic", s.llcStatic...);
    }

    double
    dynamicTotal() const
    {
        return l1Dynamic + l2Dynamic + llcDynamic;
    }

    double
    staticTotal() const
    {
        return l1Static + l2Static + llcStatic;
    }

    /** Total cache-hierarchy energy (the Fig. 7/14/17 metric). */
    double
    total() const
    {
        return dynamicTotal() + staticTotal();
    }

    EnergyBreakdown &operator+=(const EnergyBreakdown &other);
};

/**
 * Compute the energy of one core's slice of the hierarchy.
 *
 * @param l1 the core's L1
 * @param below the core's below-L1 view (for the private L2)
 * @param llc_dynamic_share this core's share of LLC dynamic
 *        energy, in nJ (whole LLC for single core)
 * @param llc_static_mw LLC static power share in mW
 * @param seconds simulated wall-clock time
 */
EnergyBreakdown computeEnergy(const SiptL1Cache &l1,
                              const cache::BelowL1 &below,
                              double llc_dynamic_share,
                              double llc_static_mw,
                              double seconds);

} // namespace sipt::energy

#endif // SIPT_ENERGY_ACCOUNTING_HH
