/**
 * @file
 * The trace record/replay subsystem: binary-format round trips,
 * malformed-input rejection (bad magic, version mismatch,
 * truncation, in-place edits), and — the core claim — that a
 * recorded trace replayed through the full pipeline is
 * digest-identical to the live run it was captured from, across
 * VIPT-feasible and speculative geometries and under the
 * multi-program driver.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "sim/system.hh"
#include "workload/trace_format.hh"
#include "workload/trace_replay.hh"

namespace sipt::workload
{
namespace
{

/** Scratch directory shared by the file-producing tests. */
std::filesystem::path
scratchDir()
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "sipt_test_trace_format";
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
scratchFile(const std::string &name)
{
    return (scratchDir() / name).string();
}

/** A short hand-built reference stream exercising every encoded
 *  field: loads/stores, forward/backward deltas, dependency
 *  chains with chain metadata, large nonMemBefore. */
std::vector<MemRef>
sampleRefs()
{
    std::vector<MemRef> refs;
    MemRef r;
    r.pc = 0x400000;
    r.vaddr = 0x10'0000'0000ull;
    r.op = MemOp::Load;
    r.nonMemBefore = 3;
    refs.push_back(r);

    r.pc += 4;
    r.vaddr += 64;
    r.op = MemOp::Store;
    r.nonMemBefore = 0;
    refs.push_back(r);

    // Backward jumps in both PC and VA.
    r.pc -= 0x1000;
    r.vaddr -= 0x2000;
    r.op = MemOp::Load;
    r.nonMemBefore = 200;
    refs.push_back(r);

    // A dependent chain link carrying chain metadata.
    r.pc += 8;
    r.vaddr = 0x10'0000'4000ull;
    r.dependsOnPrev = true;
    r.chainId = 5;
    r.chainTail = 2;
    r.nonMemBefore = 1;
    refs.push_back(r);

    r.pc += 4;
    r.vaddr += 8;
    r.chainId = 5;
    r.chainTail = 0;
    refs.push_back(r);

    r = MemRef{};
    r.pc = 0x400040;
    r.vaddr = 0x10'0000'0000ull;
    r.nonMemBefore = 100'000; // multi-byte varint
    refs.push_back(r);
    return refs;
}

/** Write sampleRefs() to a fresh file, return its path. */
std::string
writeSampleTrace(const std::string &name)
{
    const std::string path = scratchFile(name);
    const std::vector<TraceRegion> regions = {
        {0x10'0000'0000ull, 1 << 20}};
    const std::vector<TraceMapping> mappings = {
        {0x10'0000'0000ull, 100, false},
        {0x10'0000'1000ull, 101, false},
        {0x10'0020'0000ull, 512, true}};
    TraceWriter writer(path, "sample", 7, regions, mappings);
    for (const auto &ref : sampleRefs())
        writer.append(ref);
    writer.finish();
    return path;
}

TEST(TraceFormat, WriterReaderRoundTripIsExact)
{
    const auto path = writeSampleTrace("roundtrip.sipttrace");
    const auto refs = sampleRefs();

    TraceReader reader;
    ASSERT_EQ(reader.open(path), "");
    EXPECT_EQ(reader.info().version, traceFormatVersion);
    EXPECT_EQ(reader.info().app, "sample");
    EXPECT_EQ(reader.info().seed, 7u);
    EXPECT_EQ(reader.info().refCount, refs.size());
    ASSERT_EQ(reader.regions().size(), 1u);
    EXPECT_EQ(reader.regions()[0].base, 0x10'0000'0000ull);
    ASSERT_EQ(reader.mappings().size(), 3u);
    EXPECT_EQ(reader.mappings()[1].pfn, 101u);
    EXPECT_TRUE(reader.mappings()[2].huge);

    for (std::size_t i = 0; i < refs.size(); ++i) {
        MemRef got;
        ASSERT_TRUE(reader.next(got)) << "record " << i;
        EXPECT_EQ(got.pc, refs[i].pc) << "record " << i;
        EXPECT_EQ(got.vaddr, refs[i].vaddr) << "record " << i;
        EXPECT_EQ(got.op, refs[i].op) << "record " << i;
        EXPECT_EQ(got.nonMemBefore, refs[i].nonMemBefore);
        EXPECT_EQ(got.dependsOnPrev, refs[i].dependsOnPrev);
        EXPECT_EQ(got.chainId, refs[i].chainId);
        EXPECT_EQ(got.chainTail, refs[i].chainTail);
    }
    MemRef extra;
    EXPECT_FALSE(reader.next(extra));
    EXPECT_TRUE(reader.error().empty());
    EXPECT_EQ(reader.streamDigest(),
              reader.info().recordDigest);
    EXPECT_EQ(reader.streamBytes(),
              reader.info().recordBytes);

    std::string error;
    EXPECT_TRUE(verifyTrace(path, error)) << error;
}

TEST(TraceFormat, RewindReproducesTheStream)
{
    const auto path = writeSampleTrace("rewind.sipttrace");
    TraceReader reader;
    ASSERT_EQ(reader.open(path), "");

    MemRef first;
    ASSERT_TRUE(reader.next(first));
    MemRef rest;
    while (reader.next(rest)) {
    }
    const auto digest = reader.streamDigest();

    reader.rewind();
    MemRef again;
    ASSERT_TRUE(reader.next(again));
    EXPECT_EQ(again.pc, first.pc);
    EXPECT_EQ(again.vaddr, first.vaddr);
    while (reader.next(again)) {
    }
    EXPECT_EQ(reader.streamDigest(), digest);
}

TEST(TraceFormat, RejectsMissingFile)
{
    std::string error;
    EXPECT_FALSE(
        readTraceInfo(scratchFile("no-such.sipttrace"), error));
    EXPECT_NE(error.find("cannot open"), std::string::npos)
        << error;
    EXPECT_EQ(
        traceContentHash(scratchFile("no-such.sipttrace")), 0u);
}

TEST(TraceFormat, RejectsBadMagic)
{
    const auto path = scratchFile("badmagic.sipttrace");
    std::ofstream(path, std::ios::binary)
        << "NOTATRACE-at-all-just-bytes";
    std::string error;
    EXPECT_FALSE(readTraceInfo(path, error));
    EXPECT_NE(error.find("bad magic"), std::string::npos)
        << error;
    EXPECT_FALSE(verifyTrace(path, error));
}

TEST(TraceFormat, RejectsVersionMismatch)
{
    const auto path = writeSampleTrace("version.sipttrace");
    // The version field is the u32 at byte offset 8.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(8);
        f.put(static_cast<char>(traceFormatVersion + 41));
    }
    std::string error;
    EXPECT_FALSE(readTraceInfo(path, error));
    EXPECT_NE(error.find("unsupported trace version"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(std::to_string(traceFormatVersion + 41)),
              std::string::npos)
        << error;
}

TEST(TraceFormat, RejectsTruncatedHeader)
{
    const auto path = writeSampleTrace("trunc-head.sipttrace");
    std::filesystem::resize_file(path, 10);
    std::string error;
    EXPECT_FALSE(readTraceInfo(path, error));
    EXPECT_NE(error.find("truncated header"), std::string::npos)
        << error;
}

TEST(TraceFormat, RejectsTruncatedRecordStream)
{
    const auto path = writeSampleTrace("trunc-tail.sipttrace");
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 3);
    // The header still parses; streaming hits the cut.
    std::string error;
    ASSERT_TRUE(readTraceInfo(path, error)) << error;
    EXPECT_FALSE(verifyTrace(path, error));
    EXPECT_NE(error.find("truncated record stream"),
              std::string::npos)
        << error;
}

TEST(TraceFormat, DigestCatchesInPlaceEdit)
{
    const auto path = writeSampleTrace("edited.sipttrace");
    const auto before = traceContentHash(path);
    ASSERT_NE(before, 0u);

    // Flip one bit in the last record byte; the stream still
    // decodes (flags/varint bytes remain valid here) but the
    // digest must catch the edit.
    const auto size = std::filesystem::file_size(path);
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekg(static_cast<std::streamoff>(size - 1));
        const int last = f.get();
        f.seekp(static_cast<std::streamoff>(size - 1));
        f.put(static_cast<char>(last ^ 0x01));
    }
    std::string error;
    EXPECT_FALSE(verifyTrace(path, error));
    EXPECT_FALSE(error.empty());
    EXPECT_NE(traceContentHash(path), before);
}

TEST(TraceFormat, ContentHashIdentifiesDistinctTraces)
{
    const auto a = writeSampleTrace("hash-a.sipttrace");
    const std::string b = scratchFile("hash-b.sipttrace");
    {
        // Same layout, one extra record: different content.
        const std::vector<TraceRegion> regions = {
            {0x10'0000'0000ull, 1 << 20}};
        TraceWriter writer(b, "sample", 7, regions, {});
        for (const auto &ref : sampleRefs())
            writer.append(ref);
        MemRef extra;
        extra.pc = 0x400100;
        extra.vaddr = 0x10'0000'0040ull;
        writer.append(extra);
        writer.finish();
    }
    EXPECT_NE(traceContentHash(a), traceContentHash(b));
    EXPECT_EQ(traceContentHash(a), traceContentHash(a));
    // The header carries the stream's length and digest, so the
    // layout hash tells the two apart without reading the records.
    EXPECT_NE(traceLayoutHash(a), traceLayoutHash(b));
    EXPECT_EQ(traceLayoutHash(a), traceLayoutHash(a));
}

TEST(TraceFormat, LayoutHashCoversEverythingBeforeTheRecords)
{
    const auto path = writeSampleTrace("layout.sipttrace");
    const auto before = traceLayoutHash(path);
    ASSERT_NE(before, 0u);
    EXPECT_EQ(traceLayoutHash(scratchFile("no-such.sipttrace")), 0u);

    TraceReader reader;
    ASSERT_EQ(reader.open(path), "");
    const auto size = std::filesystem::file_size(path);
    const auto records_at = size - reader.info().recordBytes;
    auto flip = [&](std::uint64_t offset) {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekg(static_cast<std::streamoff>(offset));
        const int byte = f.get();
        f.seekp(static_cast<std::streamoff>(offset));
        f.put(static_cast<char>(byte ^ 0x01));
    };
    // A record byte is not part of the layout...
    flip(size - 1);
    EXPECT_EQ(traceLayoutHash(path), before);
    flip(size - 1);
    // ...the last layout byte is.
    flip(records_at - 1);
    EXPECT_NE(traceLayoutHash(path), before);
}

TEST(TraceReplay, SourceLoopsAndResets)
{
    const auto path = writeSampleTrace("replay-src.sipttrace");
    const auto refs = sampleRefs();

    os::BuddyAllocator buddy((1ull << 30) / pageSize);
    os::AddressSpace as(buddy, os::PagingPolicy{});
    TraceReplaySource source(path, as, /*loop=*/true);
    EXPECT_EQ(source.info().refCount, refs.size());

    // Two full laps produce the stream twice, element-for-element.
    for (int lap = 0; lap < 2; ++lap) {
        for (std::size_t i = 0; i < refs.size(); ++i) {
            MemRef got;
            ASSERT_TRUE(source.next(got));
            EXPECT_EQ(got.vaddr, refs[i].vaddr)
                << "lap " << lap << " record " << i;
        }
    }
    EXPECT_EQ(source.laps(), 1u);

    source.reset();
    EXPECT_EQ(source.laps(), 0u);
    MemRef first;
    ASSERT_TRUE(source.next(first));
    EXPECT_EQ(first.vaddr, refs[0].vaddr);

    // The recorded mappings are installed and translate to the
    // recorded frames.
    const auto mapped = as.pageTable().translate(refs[0].vaddr);
    EXPECT_TRUE(mapped.has_value());
}

/** Record @p app once with @p config; returns the trace path. */
std::string
recordFor(const std::string &app, const sim::SystemConfig &config,
          const std::string &name)
{
    const std::string path = scratchFile(name);
    sim::recordTrace(app, config, path);
    return path;
}

sim::SystemConfig
quickConfig()
{
    sim::SystemConfig config;
    config.warmupRefs = 2'000;
    config.measureRefs = 2'000;
    return config;
}

/**
 * The tentpole claim: for every geometry in the matrix — the
 * VIPT-feasible baseline (0 speculated bits) and speculative SIPT
 * points (1..3 speculated bits) under each indexing policy — a
 * replayed trace is functionally indistinguishable from the live
 * run, down to the differential checker's event digest.
 */
TEST(TraceReplay, DigestIdenticalAcrossGeometries)
{
    const auto base = quickConfig();
    const auto path = recordFor("mcf", base, "mcf.sipttrace");

    struct Point
    {
        sim::L1Config l1;
        IndexingPolicy policy;
        const char *name;
    };
    const Point matrix[] = {
        {sim::L1Config::Baseline32K8, IndexingPolicy::Vipt,
         "baseline32k8/vipt"},
        {sim::L1Config::Sipt32K2, IndexingPolicy::SiptCombined,
         "sipt32k2/combined"},
        {sim::L1Config::Sipt64K4, IndexingPolicy::SiptNaive,
         "sipt64k4/naive"},
        {sim::L1Config::Sipt128K4, IndexingPolicy::SiptBypass,
         "sipt128k4/bypass"},
    };

    for (const auto &point : matrix) {
        sim::SystemConfig config = base;
        config.l1Config = point.l1;
        config.policy = point.policy;
        config.check = true;

        const auto live = sim::runSingleCore("mcf", config);
        const auto replay =
            sim::runSingleCore("trace:" + path, config);

        EXPECT_TRUE(live.checkFailure.empty())
            << point.name << ": " << live.checkFailure;
        EXPECT_TRUE(replay.checkFailure.empty())
            << point.name << ": " << replay.checkFailure;
        EXPECT_NE(live.checkDigest, 0u) << point.name;
        EXPECT_EQ(replay.checkDigest, live.checkDigest)
            << point.name;
        EXPECT_EQ(replay.checkEvents, live.checkEvents)
            << point.name;
        EXPECT_DOUBLE_EQ(replay.ipc, live.ipc) << point.name;
        EXPECT_EQ(replay.l1.accesses, live.l1.accesses)
            << point.name;
        EXPECT_EQ(replay.l1.misses, live.l1.misses)
            << point.name;
        EXPECT_EQ(replay.pageWalks, live.pageWalks)
            << point.name;
        EXPECT_DOUBLE_EQ(replay.energy.total(),
                         live.energy.total())
            << point.name;
    }
}

TEST(TraceReplay, LoopsWhenBudgetExceedsTheTrace)
{
    auto small = quickConfig();
    small.warmupRefs = 500;
    small.measureRefs = 500;
    const auto path =
        recordFor("gcc", small, "gcc-small.sipttrace");

    // Replay with a budget 4x the recorded length; the stream
    // recycles and the run completes normally.
    auto big = quickConfig();
    big.l1Config = sim::L1Config::Sipt32K2;
    big.policy = IndexingPolicy::SiptCombined;
    const auto result = sim::runSingleCore("trace:" + path, big);
    EXPECT_GT(result.ipc, 0.0);
    // Stats cover the measured window; the 1000-record trace
    // wrapped at least twice to feed it.
    EXPECT_EQ(result.l1.accesses, big.measureRefs);
}

TEST(TraceReplay, MulticoreSchedulesTraceMixes)
{
    const auto base = quickConfig();
    const auto a = recordFor("mcf", base, "mix-a.sipttrace");
    const auto b = recordFor("gcc", base, "mix-b.sipttrace");

    const std::vector<std::string> mix = {
        "trace:" + a, "trace:" + b, "trace:" + a, "trace:" + b};
    const auto result = sim::runMulticore(mix, base);
    ASSERT_EQ(result.perCore.size(), mix.size());
    EXPECT_GT(result.sumIpc, 0.0);
    for (const auto &core : result.perCore)
        EXPECT_GT(core.ipc, 0.0);
}

} // namespace
} // namespace sipt::workload
