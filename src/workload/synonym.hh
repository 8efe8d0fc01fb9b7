/**
 * @file
 * Alias-aware synthetic workloads: streams that reach the same
 * physical memory through several virtual names.
 *
 * A "synonym:<profile>" app name is accepted everywhere a profile
 * name is (runSingleCore, multicore mixes, the sweep engine, trace
 * recording, the fuzzer). The profile grammar selects one of three
 * multi-mapping scenarios built on sipt::os:
 *
 *   synonym:<mode>[-a<N>][-k<N>][-huge]
 *
 *   mode  alias  — one anonymous region mmap'd again at skewed
 *                  bases (mmap of the same file twice)
 *         cow    — fork-style clones; copy-on-write is resolved
 *                  for the store-target pages during construction
 *                  (the page table must be fixed before the first
 *                  measured reference, like the paper's SimPoints)
 *         shared — a SharedSegment attached at several bases; in
 *                  a multicore mix every core naming the same
 *                  profile attaches the *same* segment
 *   -a<N>  total mappings of the data (default 2, range 2..8)
 *   -k<N>  page skew between consecutive mappings (default 1,
 *          range 0..64); for -huge profiles the skew is applied
 *          in whole 2 MiB chunks, since smaller skew cannot exist
 *          at that mapping granularity (the VESPA superpage
 *          property: VA bits below bit 21 always survive
 *          translation)
 *   -huge  back the data with 2 MiB pages (shared mode only)
 *
 * The steady-state stream interleaves reads and writes through
 * competing names, and deliberately emits write-through-one /
 * read-through-other pairs, the ordering that breaks virtually
 * tagged caches and that SIPT's physical tags make a plain hit.
 */

#ifndef SIPT_WORKLOAD_SYNONYM_HH
#define SIPT_WORKLOAD_SYNONYM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/trace_source.hh"
#include "os/address_space.hh"
#include "os/shared_segment.hh"

namespace sipt::workload
{

/** Parsed form of a "synonym:<profile>" app name. */
struct SynonymSpec
{
    enum class Mode : std::uint8_t
    {
        Alias,
        Cow,
        Shared,
    };

    Mode mode = Mode::Alias;
    /** Total virtual names of the data (base + aliases). */
    std::uint32_t mappings = 2;
    /** Page skew between consecutive names (chunks when huge). */
    std::uint32_t skewPages = 1;
    /** Back the data with 2 MiB pages (Shared mode only). */
    bool hugePages = false;

    bool operator==(const SynonymSpec &) const = default;
};

/** Printable mode token ("alias", "cow", "shared"). */
const char *synonymModeName(SynonymSpec::Mode mode);

/** True when @p app is a "synonym:<profile>" name. */
bool isSynonymApp(const std::string &app);

/**
 * Parse a synonym app name. Returns nullopt on a malformed or
 * out-of-range profile (callers with a fixed name should prefer
 * synonymSpec(), which is fatal instead).
 */
std::optional<SynonymSpec>
parseSynonymSpec(const std::string &app);

/** parseSynonymSpec() or die with a diagnostic. */
SynonymSpec synonymSpec(const std::string &app);

/**
 * Data bytes a SynonymWorkload maps per virtual name — the length
 * a SharedSegment must have when the caller provides one (the
 * multicore driver, sharing a segment across cores).
 */
std::uint64_t synonymMappingBytes(const SynonymSpec &spec);

/**
 * Canonical app name of @p spec. Round-trips:
 * parseSynonymSpec(synonymAppName(s)) == s for every valid spec,
 * which is what lets SIPT-FUZZ-REPRO lines carry the knobs.
 */
std::string synonymAppName(const SynonymSpec &spec);

/**
 * The multi-mapping workload. Construction runs the allocation
 * phase (regions, aliases, COW resolution, segment attach) so the
 * page table is immutable from the first reference on. A copy is
 * an independent cursor that resumes the stream where the original
 * stood; neither touches the address space again.
 */
class SynonymWorkload : public cpu::TraceSource
{
  public:
    /**
     * @param spec the parsed profile
     * @param address_space the process address space
     * @param seed RNG seed for this instance
     * @param shared segment to attach for Shared mode; when null
     *        the workload allocates a private one from the address
     *        space's allocator (single-core runs). Ignored for
     *        other modes.
     */
    SynonymWorkload(const SynonymSpec &spec,
                    os::AddressSpace &address_space,
                    std::uint64_t seed,
                    const os::SharedSegment *shared = nullptr);

    bool next(MemRef &ref) override;

    std::size_t nextBatch(cpu::RefBatch &batch,
                          std::size_t max_refs) override;

    const SynonymSpec &spec() const { return spec_; }

    /** Base VA of each mapping, in creation order. */
    const std::vector<Addr> &mappingBases() const
    {
        return bases_;
    }

    /** Data bytes per mapping. */
    std::uint64_t mappingBytes() const { return bytes_; }

  private:
    void allocatePhase(os::AddressSpace &as,
                       const os::SharedSegment *shared);

    bool generate(MemRef &ref);

    /** Pick the line index for the next access. */
    std::uint64_t pickLine();

    /** True when a store through mapping @p m may target the page
     *  holding @p line (COW: only private pages are writable
     *  through a clone once the table is frozen). */
    bool storeAllowed(std::uint32_t m, std::uint64_t line) const;

    SynonymSpec spec_;
    Rng rng_;
    /** Segment the workload allocated itself (Shared mode without
     *  an external segment); copies share it. */
    std::shared_ptr<os::SharedSegment> ownSegment_;
    std::vector<Addr> bases_;
    std::uint64_t bytes_ = 0;
    std::uint64_t totalLines_ = 0;
    /** Line indices of the hot reuse set. */
    std::vector<std::uint64_t> hotLines_;
    /** One PC per (mapping, load/store) pair. */
    std::vector<Addr> pcs_;
    /** Pending read-through-other-name after a store. */
    bool pendingLoad_ = false;
    std::uint32_t pendingMapping_ = 0;
    std::uint64_t pendingLine_ = 0;
};

} // namespace sipt::workload

#endif // SIPT_WORKLOAD_SYNONYM_HH
