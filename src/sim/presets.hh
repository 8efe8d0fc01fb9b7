/**
 * @file
 * Named system presets encoding Tab. II of the SIPT paper: the L1
 * configurations (baseline VIPT and the four SIPT geometries with
 * their CACTI latencies/energies), the private L2, the shared LLC
 * for both hierarchy depths, and the TLBs/cores.
 */

#ifndef SIPT_SIM_PRESETS_HH
#define SIPT_SIM_PRESETS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/timing_cache.hh"
#include "cpu/core.hh"
#include "sipt/l1_cache.hh"
#include "vm/mmu.hh"

namespace sipt::sim
{

/** The L1 design points evaluated throughout the paper. */
enum class L1Config : std::uint8_t
{
    Baseline32K8,  ///< 32 KiB 8-way, 4-cycle (VIPT-feasible)
    Small16K4,     ///< 16 KiB 4-way, 2-cycle (VIPT-feasible)
    Sipt32K2,      ///< 32 KiB 2-way, 2-cycle (2 spec bits)
    Sipt32K4,      ///< 32 KiB 4-way, 3-cycle (1 spec bit)
    Sipt64K4,      ///< 64 KiB 4-way, 3-cycle (2 spec bits)
    Sipt128K4,     ///< 128 KiB 4-way, 4-cycle (3 spec bits)
};

/** The last L1Config: the config codec's upper bound. */
constexpr L1Config
lastEnumerator(L1Config)
{
    return L1Config::Sipt128K4;
}

/** Printable name, e.g. "32KiB 2-way". */
const char *l1ConfigName(L1Config config);

/**
 * Parse a CLI-friendly design-point token: "baseline32k8",
 * "small16k4", "sipt32k2", "sipt32k4", "sipt64k4", "sipt128k4"
 * (case-insensitive). nullopt for anything else.
 */
std::optional<L1Config> l1ConfigFromName(std::string_view name);

/**
 * Parse a CLI-friendly indexing-policy token: "vipt", "ideal",
 * "naive", "bypass", "combined", "vespa", "revelator", "pcax"
 * (case-insensitive). nullopt for anything else.
 */
std::optional<IndexingPolicy>
policyFromName(std::string_view name);

/** The four SIPT geometries of Tab. II, in paper order. */
const std::vector<L1Config> &siptConfigs();

/**
 * Build the L1 parameters for a design point.
 *
 * @param config geometry/latency/energy selector (Tab. II)
 * @param policy indexing policy to run it under
 * @param way_prediction enable MRU way prediction
 */
L1Params l1Preset(L1Config config, IndexingPolicy policy,
                  bool way_prediction = false);

/** Private 256 KiB 8-way 12-cycle L2 (OOO hierarchy). */
cache::TimingCacheParams l2Preset();

/**
 * Shared LLC. OOO: 2 MiB x cores, 16-way, 25-cycle. In-order:
 * 1 MiB x cores, 16-way, 20-cycle. Size and static power scale
 * with core count per Tab. II's note.
 */
cache::TimingCacheParams llcPreset(bool out_of_order,
                                   std::uint32_t cores);

/** Tab. II TLB hierarchy. */
vm::MmuParams mmuPreset();

} // namespace sipt::sim

#endif // SIPT_SIM_PRESETS_HH
