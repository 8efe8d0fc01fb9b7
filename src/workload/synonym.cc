#include "workload/synonym.hh"

#include <cctype>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace sipt::workload
{

namespace
{

/** Data bytes per mapping for the small-page modes: bigger than a
 *  typical L1 so the stream also exercises eviction/refill of
 *  synonym lines, small enough that a quad-core mix of these stays
 *  trivial against physical memory. */
constexpr std::uint64_t smallModeBytes = 32 * pageSize;

/** Pages of the hot reuse set (small-page line indices). */
constexpr std::uint64_t hotPages = 8;

/** Lines of the hot reuse set. */
constexpr std::size_t hotSetLines = 48;

constexpr std::uint32_t minMappings = 2;
constexpr std::uint32_t maxMappings = 8;
constexpr std::uint32_t maxSkewPages = 64;

/** Parse a decimal suffix: "<digits>" -> value, nullopt on junk. */
std::optional<std::uint32_t>
parseNumber(const std::string &token)
{
    if (token.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : token) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
        if (value > 1000000)
            return std::nullopt;
    }
    return static_cast<std::uint32_t>(value);
}

} // namespace

const char *
synonymModeName(SynonymSpec::Mode mode)
{
    switch (mode) {
      case SynonymSpec::Mode::Alias:
        return "alias";
      case SynonymSpec::Mode::Cow:
        return "cow";
      case SynonymSpec::Mode::Shared:
        return "shared";
    }
    return "?";
}

bool
isSynonymApp(const std::string &app)
{
    return app.rfind("synonym:", 0) == 0;
}

std::optional<SynonymSpec>
parseSynonymSpec(const std::string &app)
{
    if (!isSynonymApp(app))
        return std::nullopt;
    const std::string profile = app.substr(8);

    // Split on '-' into mode + option tokens.
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start <= profile.size()) {
        const std::size_t dash = profile.find('-', start);
        if (dash == std::string::npos) {
            tokens.push_back(profile.substr(start));
            break;
        }
        tokens.push_back(profile.substr(start, dash - start));
        start = dash + 1;
    }
    if (tokens.empty())
        return std::nullopt;

    SynonymSpec spec;
    if (tokens[0] == "alias")
        spec.mode = SynonymSpec::Mode::Alias;
    else if (tokens[0] == "cow")
        spec.mode = SynonymSpec::Mode::Cow;
    else if (tokens[0] == "shared")
        spec.mode = SynonymSpec::Mode::Shared;
    else
        return std::nullopt;

    bool saw_a = false;
    bool saw_k = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        if (tok == "huge") {
            if (spec.hugePages)
                return std::nullopt;
            spec.hugePages = true;
        } else if (!tok.empty() && tok[0] == 'a') {
            const auto n = parseNumber(tok.substr(1));
            if (!n || saw_a)
                return std::nullopt;
            spec.mappings = *n;
            saw_a = true;
        } else if (!tok.empty() && tok[0] == 'k') {
            const auto n = parseNumber(tok.substr(1));
            if (!n || saw_k)
                return std::nullopt;
            spec.skewPages = *n;
            saw_k = true;
        } else {
            return std::nullopt;
        }
    }

    if (spec.mappings < minMappings || spec.mappings > maxMappings)
        return std::nullopt;
    if (spec.skewPages > maxSkewPages)
        return std::nullopt;
    if (spec.hugePages && spec.mode != SynonymSpec::Mode::Shared)
        return std::nullopt;
    return spec;
}

SynonymSpec
synonymSpec(const std::string &app)
{
    const auto spec = parseSynonymSpec(app);
    if (!spec) {
        fatal("bad synonym app '", app,
              "': expected synonym:<alias|cow|shared>"
              "[-a<2..8>][-k<0..64>][-huge (shared only)]");
    }
    return *spec;
}

std::uint64_t
synonymMappingBytes(const SynonymSpec &spec)
{
    return spec.hugePages ? hugePageSize : smallModeBytes;
}

std::string
synonymAppName(const SynonymSpec &spec)
{
    std::string name = "synonym:";
    name += synonymModeName(spec.mode);
    name += "-a" + std::to_string(spec.mappings);
    name += "-k" + std::to_string(spec.skewPages);
    if (spec.hugePages)
        name += "-huge";
    return name;
}

SynonymWorkload::SynonymWorkload(const SynonymSpec &spec,
                                 os::AddressSpace &address_space,
                                 std::uint64_t seed,
                                 const os::SharedSegment *shared)
    : spec_(spec), rng_(seed)
{
    if (spec.mappings < minMappings || spec.mappings > maxMappings)
        fatal("SynonymWorkload: mappings out of range");
    if (spec.hugePages && spec.mode != SynonymSpec::Mode::Shared)
        fatal("SynonymWorkload: -huge requires shared mode");

    bytes_ = synonymMappingBytes(spec);
    totalLines_ = bytes_ / lineSize;

    allocatePhase(address_space, shared);

    // Hot reuse set: lines spread over the leading pages, so the
    // same physical lines keep coming back under competing names.
    const std::uint64_t hot_lines =
        hotPages * (pageSize / lineSize);
    for (std::size_t j = 0; j < hotSetLines; ++j)
        hotLines_.push_back((j * 11) % hot_lines);

    // One call site per (mapping, load/store) pair.
    Addr pc = Addr{0x400000};
    for (std::uint32_t m = 0; m < 2 * spec_.mappings; ++m) {
        pcs_.push_back(pc);
        pc += 4;
    }
}

void
SynonymWorkload::allocatePhase(os::AddressSpace &as,
                               const os::SharedSegment *shared)
{
    switch (spec_.mode) {
      case SynonymSpec::Mode::Alias: {
        const Addr base = as.mmap(bytes_, pageShift);
        bases_.push_back(base);
        for (std::uint64_t off = 0; off < bytes_; off += pageSize)
            as.touch(base + off);
        for (std::uint32_t i = 1; i < spec_.mappings; ++i) {
            bases_.push_back(as.mmapAlias(
                base, bytes_, pageShift,
                static_cast<std::uint64_t>(spec_.skewPages) * i));
        }
        break;
      }
      case SynonymSpec::Mode::Cow: {
        const Addr base = as.mmap(bytes_, pageShift);
        bases_.push_back(base);
        for (std::uint64_t off = 0; off < bytes_; off += pageSize)
            as.touch(base + off);
        for (std::uint32_t i = 1; i < spec_.mappings; ++i) {
            bases_.push_back(as.mmapCow(
                base, bytes_, pageShift,
                static_cast<std::uint64_t>(spec_.skewPages) * i));
        }
        // Resolve copy-on-write for the clone pages the steady
        // state will store through. This must complete here: both
        // engines freeze the page table before the first measured
        // reference (the batch pipeline snapshots it outright).
        for (std::uint32_t i = 1; i < spec_.mappings; ++i) {
            for (std::uint64_t p = 0; p < bytes_ / pageSize;
                 p += 2) {
                as.storeTouch(bases_[i] + p * pageSize);
            }
        }
        break;
      }
      case SynonymSpec::Mode::Shared: {
        if (shared == nullptr) {
            ownSegment_ = std::make_shared<os::SharedSegment>(
                as.allocator(), bytes_, spec_.hugePages);
            shared = ownSegment_.get();
        }
        if (shared->length() < bytes_ ||
            shared->hugePages() != spec_.hugePages) {
            fatal("SynonymWorkload: shared segment shape mismatch");
        }
        // Huge mappings can only be skewed in whole 2 MiB chunks;
        // the profile's -k counts chunks in that case.
        const std::uint64_t skew_unit =
            spec_.hugePages ? pagesPerHugePage : 1;
        const unsigned align =
            spec_.hugePages ? hugePageShift : pageShift;
        for (std::uint32_t i = 0; i < spec_.mappings; ++i) {
            bases_.push_back(as.mmapShared(
                *shared, align,
                static_cast<std::uint64_t>(spec_.skewPages) *
                    skew_unit * i));
        }
        break;
      }
    }
}

bool
SynonymWorkload::storeAllowed(std::uint32_t m,
                              std::uint64_t line) const
{
    if (spec_.mode != SynonymSpec::Mode::Cow || m == 0)
        return true;
    // Through a clone, only pages whose copy-on-write was broken
    // during construction are store targets; the page table cannot
    // change mid-run, so a store to a still-shared page would be
    // ill-formed.
    const std::uint64_t page = line / (pageSize / lineSize);
    return page % 2 == 0;
}

std::uint64_t
SynonymWorkload::pickLine()
{
    if (rng_.chance(0.75))
        return hotLines_[rng_.below(hotLines_.size())];
    return rng_.below(totalLines_);
}

bool
SynonymWorkload::generate(MemRef &ref)
{
    ref = MemRef{};
    ref.nonMemBefore =
        static_cast<std::uint32_t>(rng_.below(4));

    if (pendingLoad_) {
        // The second half of a write-through-one /
        // read-through-other pair: the load must return the value
        // just stored under a different virtual name.
        pendingLoad_ = false;
        ref.op = MemOp::Load;
        ref.vaddr = bases_[pendingMapping_] +
                    pendingLine_ * lineSize +
                    rng_.below(lineSize / 8) * 8;
        ref.pc = pcs_[pendingMapping_ * 2];
        return true;
    }

    const std::uint64_t line = pickLine();
    const std::uint32_t mapping = static_cast<std::uint32_t>(
        rng_.below(bases_.size()));
    bool store = rng_.chance(0.4);
    if (store && !storeAllowed(mapping, line))
        store = false;
    ref.op = store ? MemOp::Store : MemOp::Load;
    ref.vaddr = bases_[mapping] + line * lineSize +
                rng_.below(lineSize / 8) * 8;
    ref.pc = pcs_[mapping * 2 + (store ? 1 : 0)];

    if (store && spec_.mappings > 1 && rng_.chance(0.5)) {
        // Queue the cross-name readback for the next reference.
        std::uint32_t other = static_cast<std::uint32_t>(
            rng_.below(bases_.size() - 1));
        if (other >= mapping)
            ++other;
        pendingLoad_ = true;
        pendingMapping_ = other;
        pendingLine_ = line;
    }
    return true;
}

bool
SynonymWorkload::next(MemRef &ref)
{
    return generate(ref);
}

std::size_t
SynonymWorkload::nextBatch(cpu::RefBatch &batch,
                           std::size_t max_refs)
{
    if (max_refs > cpu::RefBatch::capacity)
        max_refs = cpu::RefBatch::capacity;
    batch.clear();
    MemRef ref;
    while (batch.size < max_refs) {
        if (!generate(ref))
            break;
        batch.push(ref);
    }
    return batch.size;
}

} // namespace sipt::workload
