#include "workload/trace_format.hh"

#include <algorithm>
#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::workload
{

namespace
{

/** File identification bytes; never reused across versions with
 *  incompatible header layouts. */
constexpr char traceMagic[8] = {'S', 'I', 'P', 'T',
                                'T', 'R', 'C', '\0'};

/** Byte offset of the refCount/recordBytes/recordDigest triple
 *  that finish() patches in place. */
constexpr std::uint64_t patchOffset = 24;

/** Record flag bits. */
constexpr std::uint8_t flagStore = 1u << 0;
constexpr std::uint8_t flagDependsOnPrev = 1u << 1;

/** ZigZag: map signed deltas onto small unsigned varints. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Difference of two addresses as a signed delta. Addresses are
 *  unsigned; the subtraction wraps, and zigzag keeps small
 *  forward/backward moves small on the wire. */
constexpr std::int64_t
addrDelta(Addr now, Addr prev)
{
    return static_cast<std::int64_t>(now - prev);
}

void
putFixed32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(
            static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putFixed64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(
            static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putVarintTo(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Checked fixed-width reads; false = EOF/short read. */
bool
readExact(std::istream &in, char *buf, std::size_t n)
{
    in.read(buf, static_cast<std::streamsize>(n));
    return in.gcount() == static_cast<std::streamsize>(n);
}

bool
readFixed32(std::istream &in, std::uint32_t &v)
{
    char buf[4];
    if (!readExact(in, buf, sizeof(buf)))
        return false;
    v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf[i]))
             << (8 * i);
    return true;
}

bool
readFixed64(std::istream &in, std::uint64_t &v)
{
    char buf[8];
    if (!readExact(in, buf, sizeof(buf)))
        return false;
    v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(buf[i]))
             << (8 * i);
    return true;
}

bool
readVarintFrom(std::istream &in, std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const int c = in.get();
        if (c < 0)
            return false;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return true;
    }
    return false; // over-long varint
}

} // namespace

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &app,
                         std::uint64_t seed,
                         const std::vector<TraceRegion> &regions,
                         const std::vector<TraceMapping> &mappings)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    if (!out_)
        fatal("trace: cannot create '", path, "'");

    std::string head;
    head.append(traceMagic, sizeof(traceMagic));
    putFixed32(head, traceFormatVersion);
    putFixed32(head, 0); // reserved
    putFixed64(head, seed);
    putFixed64(head, 0); // refCount, patched by finish()
    putFixed64(head, 0); // recordBytes, patched
    putFixed64(head, 0); // recordDigest, patched
    putFixed32(head, static_cast<std::uint32_t>(app.size()));
    head.append(app);

    putFixed32(head, static_cast<std::uint32_t>(regions.size()));
    for (const auto &r : regions) {
        putFixed64(head, r.base);
        putFixed64(head, r.bytes);
    }

    putFixed64(head, mappings.size());
    Vpn prev_vpn = 0;
    Pfn prev_pfn = 0;
    for (const auto &m : mappings) {
        const Vpn vpn = pageNumber(m.vaddr);
        if (vpn < prev_vpn)
            fatal("trace: mappings not sorted by VPN");
        head.push_back(m.huge ? 1 : 0);
        putVarintTo(head, vpn - prev_vpn);
        putVarintTo(head, zigzagEncode(static_cast<std::int64_t>(
                              m.pfn - prev_pfn)));
        prev_vpn = vpn;
        prev_pfn = m.pfn;
    }

    out_.write(head.data(),
               static_cast<std::streamsize>(head.size()));
    if (!out_)
        fatal("trace: write error on '", path, "'");
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::putByte(std::uint8_t b)
{
    buffer_.push_back(static_cast<char>(b));
    digest_ = fnv1a64Step(digest_, b);
    ++recordBytes_;
}

void
TraceWriter::putVarint(std::uint64_t v)
{
    while (v >= 0x80) {
        putByte(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    putByte(static_cast<std::uint8_t>(v));
}

void
TraceWriter::putSigned(std::int64_t v)
{
    putVarint(zigzagEncode(v));
}

void
TraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
    out_.write(buffer_.data(),
               static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
}

void
TraceWriter::append(const MemRef &ref)
{
    SIPT_ASSERT(!finished_, "append after finish");
    std::uint8_t flags = 0;
    if (ref.op == MemOp::Store)
        flags |= flagStore;
    if (ref.dependsOnPrev)
        flags |= flagDependsOnPrev;
    putByte(flags);
    putSigned(addrDelta(ref.pc, prevPc_));
    putSigned(addrDelta(ref.vaddr, prevVaddr_));
    putVarint(ref.nonMemBefore);
    if (ref.dependsOnPrev) {
        putByte(ref.chainId);
        putByte(ref.chainTail);
    }
    prevPc_ = ref.pc;
    prevVaddr_ = ref.vaddr;
    ++refCount_;
    if (buffer_.size() >= 64 * 1024)
        flushBuffer();
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushBuffer();
    out_.seekp(static_cast<std::streamoff>(patchOffset));
    std::string patch;
    putFixed64(patch, refCount_);
    putFixed64(patch, recordBytes_);
    putFixed64(patch, digest_);
    out_.write(patch.data(),
               static_cast<std::streamsize>(patch.size()));
    out_.flush();
    if (!out_)
        fatal("trace: write error on '", path_, "'");
    out_.close();
}

TraceReader::TraceReader(const TraceReader &other)
    : path_(other.path_), info_(other.info_),
      regions_(other.regions_), mappings_(other.mappings_),
      error_(other.error_), recordsOffset_(other.recordsOffset_),
      decoded_(other.decoded_), digest_(other.digest_),
      bytes_(other.bytes_), prevPc_(other.prevPc_),
      prevVaddr_(other.prevVaddr_)
{
    if (path_.empty())
        return;
    in_.open(path_, std::ios::binary);
    if (!in_) {
        if (error_.empty())
            error_ = "cannot reopen '" + path_ + "'";
        return;
    }
    in_.seekg(static_cast<std::streamoff>(recordsOffset_ + bytes_));
}

std::string
TraceReader::open(const std::string &path)
{
    path_ = path;
    in_.open(path, std::ios::binary);
    if (!in_)
        return "cannot open '" + path + "'";

    char magic[8];
    if (!readExact(in_, magic, sizeof(magic)))
        return "truncated header (magic)";
    if (std::memcmp(magic, traceMagic, sizeof(magic)) != 0)
        return "bad magic (not a SIPT trace)";

    std::uint32_t reserved = 0;
    std::uint32_t app_len = 0;
    if (!readFixed32(in_, info_.version) ||
        !readFixed32(in_, reserved))
        return "truncated header (version)";
    if (info_.version != traceFormatVersion) {
        return "unsupported trace version " +
               std::to_string(info_.version) + " (expected " +
               std::to_string(traceFormatVersion) + ")";
    }
    if (!readFixed64(in_, info_.seed) ||
        !readFixed64(in_, info_.refCount) ||
        !readFixed64(in_, info_.recordBytes) ||
        !readFixed64(in_, info_.recordDigest) ||
        !readFixed32(in_, app_len))
        return "truncated header (counts)";
    info_.app.resize(app_len);
    if (app_len &&
        !readExact(in_, info_.app.data(), app_len))
        return "truncated header (app name)";

    std::uint32_t region_count = 0;
    if (!readFixed32(in_, region_count))
        return "truncated region table";
    regions_.resize(region_count);
    for (auto &r : regions_) {
        if (!readFixed64(in_, r.base) ||
            !readFixed64(in_, r.bytes))
            return "truncated region table";
    }
    info_.regionCount = region_count;

    std::uint64_t map_count = 0;
    if (!readFixed64(in_, map_count))
        return "truncated mapping table";
    mappings_.resize(map_count);
    Vpn vpn = 0;
    Pfn pfn = 0;
    for (auto &m : mappings_) {
        const int huge = in_.get();
        std::uint64_t vpn_delta = 0;
        std::uint64_t pfn_zz = 0;
        if (huge < 0 || !readVarintFrom(in_, vpn_delta) ||
            !readVarintFrom(in_, pfn_zz))
            return "truncated mapping table";
        vpn += vpn_delta;
        pfn += static_cast<Pfn>(zigzagDecode(pfn_zz));
        m.vaddr = pageBase(vpn);
        m.pfn = pfn;
        m.huge = huge != 0;
    }
    info_.mapCount = map_count;

    recordsOffset_ =
        static_cast<std::uint64_t>(in_.tellg());
    rewind();
    return "";
}

void
TraceReader::rewind()
{
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(recordsOffset_));
    decoded_ = 0;
    digest_ = fnv1a64Init;
    bytes_ = 0;
    prevPc_ = 0;
    prevVaddr_ = 0;
    error_.clear();
}

void
TraceReader::releaseLayout()
{
    regions_ = {};
    mappings_ = {};
}

int
TraceReader::getByte()
{
    const int c = in_.get();
    if (c >= 0) {
        digest_ =
            fnv1a64Step(digest_, static_cast<std::uint8_t>(c));
        ++bytes_;
    }
    return c;
}

bool
TraceReader::readVarint(std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const int c = getByte();
        if (c < 0)
            return false;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return true;
    }
    return false;
}

bool
TraceReader::readSigned(std::int64_t &v)
{
    std::uint64_t raw = 0;
    if (!readVarint(raw))
        return false;
    v = zigzagDecode(raw);
    return true;
}

bool
TraceReader::next(MemRef &ref)
{
    if (!error_.empty() || decoded_ >= info_.refCount)
        return false;

    const int flags = getByte();
    std::int64_t pc_delta = 0;
    std::int64_t va_delta = 0;
    std::uint64_t non_mem = 0;
    if (flags < 0 || !readSigned(pc_delta) ||
        !readSigned(va_delta) || !readVarint(non_mem)) {
        error_ = "truncated record stream (record " +
                 std::to_string(decoded_) + " of " +
                 std::to_string(info_.refCount) + ")";
        return false;
    }
    ref = MemRef{};
    ref.op = (flags & flagStore) ? MemOp::Store : MemOp::Load;
    ref.dependsOnPrev = (flags & flagDependsOnPrev) != 0;
    ref.pc = prevPc_ + static_cast<Addr>(pc_delta);
    ref.vaddr = prevVaddr_ + static_cast<Addr>(va_delta);
    ref.nonMemBefore = static_cast<std::uint32_t>(non_mem);
    if (ref.dependsOnPrev) {
        const int chain_id = getByte();
        const int chain_tail = getByte();
        if (chain_id < 0 || chain_tail < 0) {
            error_ = "truncated record stream (chain fields)";
            return false;
        }
        ref.chainId = static_cast<std::uint8_t>(chain_id);
        ref.chainTail = static_cast<std::uint8_t>(chain_tail);
    }
    prevPc_ = ref.pc;
    prevVaddr_ = ref.vaddr;
    ++decoded_;
    return true;
}

std::optional<TraceInfo>
readTraceInfo(const std::string &path, std::string &error)
{
    TraceReader reader;
    error = reader.open(path);
    if (!error.empty())
        return std::nullopt;
    return reader.info();
}

bool
verifyTrace(const std::string &path, std::string &error)
{
    TraceReader reader;
    error = reader.open(path);
    if (!error.empty())
        return false;
    MemRef ref;
    while (reader.next(ref)) {
    }
    if (!reader.error().empty()) {
        error = reader.error();
        return false;
    }
    const TraceInfo &info = reader.info();
    if (reader.decoded() != info.refCount) {
        error = "record count mismatch";
        return false;
    }
    if (reader.streamBytes() != info.recordBytes) {
        error = "record stream is " +
                std::to_string(reader.streamBytes()) +
                " bytes, header says " +
                std::to_string(info.recordBytes);
        return false;
    }
    if (reader.streamDigest() != info.recordDigest) {
        error = "record stream digest mismatch (corrupt or "
                "edited trace)";
        return false;
    }
    return true;
}

namespace
{

/** fnv1a64 over the first @p limit bytes of @p in. */
std::uint64_t
hashPrefix(std::istream &in, std::uint64_t limit)
{
    std::uint64_t h = fnv1a64Init;
    char buf[64 * 1024];
    while (limit > 0) {
        in.read(buf, static_cast<std::streamsize>(
                         std::min<std::uint64_t>(limit, sizeof(buf))));
        const std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        for (std::streamsize i = 0; i < got; ++i) {
            h = fnv1a64Step(
                h, static_cast<std::uint8_t>(buf[i]));
        }
        limit -= static_cast<std::uint64_t>(got);
    }
    return h;
}

} // namespace

std::uint64_t
traceContentHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    return hashPrefix(in, ~std::uint64_t{0});
}

std::uint64_t
traceLayoutHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    // recordBytes follows refCount in the patched triple.
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(in.tellg());
    std::uint64_t record_bytes = 0;
    in.seekg(static_cast<std::streamoff>(patchOffset + 8));
    if (!readFixed64(in, record_bytes) || record_bytes > size)
        record_bytes = 0;
    in.clear();
    in.seekg(0);
    return hashPrefix(in, size - record_bytes);
}

} // namespace sipt::workload
