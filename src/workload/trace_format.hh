/**
 * @file
 * The SIPT binary trace format: a compact, versioned, streamable
 * encoding of a MemRef stream plus the allocation-phase memory
 * layout (regions and VA->PA page mappings) it ran over.
 *
 * The paper's methodology is trace-driven: Macsim traces with
 * *recorded* VA->PA mappings, taken after initialisation so the
 * mapping is fixed for the whole measured window. A trace file
 * captures exactly that: the region map and page table snapshot
 * from the recording run's allocation phase, followed by the
 * reference stream. Replaying the file reproduces the live run
 * bit-for-bit — same translations, same L1 behaviour, same
 * functional-event digest — on any machine, without the recording
 * workload's generator or allocator state.
 *
 * Layout (all integers little-endian):
 *
 *   magic        8 B   "SIPTTRC\0"
 *   version      u32   traceFormatVersion
 *   reserved     u32   0
 *   seed         u64   recording SystemConfig::seed
 *   refCount     u64   records in the stream   (patched by finish)
 *   recordBytes  u64   record-stream bytes     (patched by finish)
 *   recordDigest u64   fnv1a64(record stream)  (patched by finish)
 *   app          u32 length + bytes
 *   regions      u32 count; {u64 base, u64 bytes} each
 *   mappings     u64 count; {u8 huge, varint vpn delta,
 *                            signed varint pfn delta} each,
 *                sorted by VPN
 *   records      refCount delta-encoded references (see .cc)
 *
 * Records are LEB128 varints of zigzag PC/VA deltas, so streams
 * with small strides cost a few bytes per reference. Readers
 * stream record-by-record; no stage loads the whole file.
 */

#ifndef SIPT_WORKLOAD_TRACE_FORMAT_HH
#define SIPT_WORKLOAD_TRACE_FORMAT_HH

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/types.hh"

namespace sipt::workload
{

/** Current trace file format version. */
constexpr std::uint32_t traceFormatVersion = 1;

/** One recorded mmap region (guard pages not included). */
struct TraceRegion
{
    Addr base = 0;
    std::uint64_t bytes = 0;
};

/** One recorded page-table entry. For huge mappings @c vaddr is
 *  the 2 MiB chunk base and @c pfn its first 4 KiB frame. */
struct TraceMapping
{
    Addr vaddr = 0;
    Pfn pfn = 0;
    bool huge = false;
};

/** Decoded trace header. */
struct TraceInfo
{
    std::uint32_t version = 0;
    std::string app;
    /** SystemConfig::seed of the recording run. */
    std::uint64_t seed = 0;
    /** References in the record stream. */
    std::uint64_t refCount = 0;
    /** Encoded size of the record stream in bytes. */
    std::uint64_t recordBytes = 0;
    /** fnv1a64 over the encoded record stream. */
    std::uint64_t recordDigest = 0;
    std::uint64_t regionCount = 0;
    std::uint64_t mapCount = 0;
};

/**
 * Streams references into a trace file. The header, region table
 * and mapping snapshot are written at construction; append() adds
 * one reference at a time and finish() (or the destructor) patches
 * the header counts and digest.
 */
class TraceWriter
{
  public:
    /** Create @p path and write the layout tables. Fatal when the
     *  file cannot be created. */
    TraceWriter(const std::string &path, const std::string &app,
                std::uint64_t seed,
                const std::vector<TraceRegion> &regions,
                const std::vector<TraceMapping> &mappings);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Encode and buffer one reference. */
    void append(const MemRef &ref);

    /** Flush and patch the header; idempotent. */
    void finish();

    /** References appended so far. */
    std::uint64_t refCount() const { return refCount_; }

  private:
    void putByte(std::uint8_t b);
    void putVarint(std::uint64_t v);
    void putSigned(std::int64_t v);
    void flushBuffer();

    std::ofstream out_;
    std::string path_;
    std::string buffer_;
    std::uint64_t refCount_ = 0;
    std::uint64_t recordBytes_ = 0;
    std::uint64_t digest_ = fnv1a64Init;
    Addr prevPc_ = 0;
    Addr prevVaddr_ = 0;
    bool finished_ = false;
};

/**
 * Streaming trace reader. open() parses the header and layout
 * tables and reports malformed input as an error string (never
 * fatally), so callers choose their own failure policy; next()
 * then decodes one record at a time.
 */
class TraceReader
{
  public:
    TraceReader() = default;

    /**
     * An independent reader of the same file, positioned where
     * @p other stands. The file is reopened, not re-parsed, so it
     * must not have changed since @p other opened it; failing to
     * reopen it sets error().
     */
    TraceReader(const TraceReader &other);
    TraceReader &operator=(const TraceReader &) = delete;

    /** Parse @p path up to the record stream.
     *  @return empty string on success, else a description
     *          ("bad magic", "unsupported trace version", ...) */
    std::string open(const std::string &path);

    const TraceInfo &info() const { return info_; }
    const std::vector<TraceRegion> &regions() const
    {
        return regions_;
    }
    const std::vector<TraceMapping> &mappings() const
    {
        return mappings_;
    }

    /**
     * Decode the next reference.
     * @return false at end of trace or on a stream error (a
     *         truncated file sets error())
     */
    bool next(MemRef &ref);

    /** Restart the record stream from the beginning. */
    void rewind();

    /** Free the region and mapping tables once a replay has
     *  installed them; regions() and mappings() are empty after. */
    void releaseLayout();

    /** Sticky stream error; empty while the stream is healthy. */
    const std::string &error() const { return error_; }

    /** Records decoded since open()/rewind(). */
    std::uint64_t decoded() const { return decoded_; }

    /** Running fnv1a64 over the bytes decoded so far. */
    std::uint64_t streamDigest() const { return digest_; }

    /** Bytes consumed from the record stream so far. */
    std::uint64_t streamBytes() const { return bytes_; }

  private:
    int getByte();
    bool readVarint(std::uint64_t &v);
    bool readSigned(std::int64_t &v);

    std::ifstream in_;
    std::string path_;
    TraceInfo info_;
    std::vector<TraceRegion> regions_;
    std::vector<TraceMapping> mappings_;
    std::string error_;
    std::uint64_t recordsOffset_ = 0;
    std::uint64_t decoded_ = 0;
    std::uint64_t digest_ = fnv1a64Init;
    std::uint64_t bytes_ = 0;
    Addr prevPc_ = 0;
    Addr prevVaddr_ = 0;
};

/** Parse just the header of @p path. Returns nullopt and fills
 *  @p error when the file is missing or malformed. */
std::optional<TraceInfo> readTraceInfo(const std::string &path,
                                       std::string &error);

/**
 * Full structural verification: parse everything, stream every
 * record, and require the decoded count, byte length and digest
 * to match the header. @return true when the file is intact.
 */
bool verifyTrace(const std::string &path, std::string &error);

/**
 * Stable fnv1a64 over the raw bytes of @p path (0 when the file
 * cannot be read). The sweep run cache keys trace-driven runs on
 * this, so editing a trace in place can never serve stale cached
 * results — content, not path or mtime, identifies the input.
 */
std::uint64_t traceContentHash(const std::string &path);

/**
 * Stable fnv1a64 over everything in @p path before the record
 * stream: the header (which carries the stream's byte count and
 * digest) and the layout tables. This is all a replay installs
 * before its first record, so it keys what a process image holds
 * for a trace app at a fraction of traceContentHash()'s cost; the
 * records themselves are streamed from the file by every run.
 * 0 when the file cannot be read.
 */
std::uint64_t traceLayoutHash(const std::string &path);

} // namespace sipt::workload

#endif // SIPT_WORKLOAD_TRACE_FORMAT_HH
