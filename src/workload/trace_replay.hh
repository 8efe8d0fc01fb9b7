/**
 * @file
 * Trace replay: drives the full SIPT pipeline from a recorded
 * trace file instead of a synthetic generator.
 *
 * Construction installs the recorded layout into a fresh
 * AddressSpace — regions adopted at their recorded VAs, the
 * recorded VA->PA page mappings installed verbatim — so the MMU,
 * the L1 index/tag behaviour, and the SIPT_CHECK functional-event
 * digest are bit-identical to the live recording run. The record
 * stream itself is decoded on demand, one reference per next(),
 * and recycles from the start when exhausted (the multicore
 * driver's "loop traces until the last core completes" rule), so
 * a replay can feed any warmup+measure budget.
 *
 * A copy is an independent cursor: it reopens the file at the
 * original's stream position and installs nothing, so copies of
 * one post-allocation source can run over a shared, frozen image.
 */

#ifndef SIPT_WORKLOAD_TRACE_REPLAY_HH
#define SIPT_WORKLOAD_TRACE_REPLAY_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "cpu/trace_source.hh"
#include "os/address_space.hh"
#include "workload/trace_format.hh"

namespace sipt::workload
{

/** Replays a trace file through a TraceSource interface. */
class TraceReplaySource : public cpu::TraceSource
{
  public:
    /**
     * Open @p path and install its recorded layout into @p as
     * (which must be freshly constructed: no regions, no
     * mappings). Fatal on a missing/malformed/empty trace — a
     * replay run cannot proceed on bad input.
     *
     * @param loop recycle the stream when exhausted
     */
    TraceReplaySource(const std::string &path,
                      os::AddressSpace &as, bool loop = true);

    /** Decode the next reference, wrapping around if looping. */
    bool next(MemRef &ref) override;

    /** Decode a whole batch of records. */
    std::size_t nextBatch(cpu::RefBatch &batch,
                          std::size_t max_refs) override;

    /** Restart from the first record. */
    void reset() override;

    /** Header metadata of the trace being replayed. */
    const TraceInfo &info() const { return reader_.info(); }

    /** Times the stream wrapped around. */
    std::uint64_t laps() const { return laps_; }

  private:
    TraceReader reader_;
    std::string path_;
    bool loop_;
    std::uint64_t laps_ = 0;
};

} // namespace sipt::workload

#endif // SIPT_WORKLOAD_TRACE_REPLAY_HH
