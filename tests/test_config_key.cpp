/**
 * @file
 * SystemConfig as a run-cache key: field-wise equality, hashValue()
 * and the key's JSON (configToJson) must react to every
 * result-influencing field — a field the key ignores would let the
 * cache serve a stale result for a different experiment. All three
 * derive from SystemConfig::forEachField, so this file proves that
 * each row of that table matters and that the key-exempt fields
 * have no row.
 */

#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "sim/sweep.hh"
#include "sim/system.hh"

namespace sipt::sim
{
namespace
{

/**
 * The SystemConfig fields deliberately excluded from the run-cache
 * key: the ones annotated `// sipt-analyze: key-exempt(...)` in
 * sim/system.hh, which the sipt-analyze config-key pass proves
 * have no row in the field table.
 */
const char *const kKeyExemptFields[] = {"engine"};

/** The field table's names. */
std::set<std::string>
tableNames()
{
    std::set<std::string> names;
    const SystemConfig config;
    SystemConfig::forEachField(
        [&names](const char *name, const auto &) {
            names.insert(name);
        },
        config);
    return names;
}

/** Mutate one field, expect inequality, a hash change and a new
 *  key JSON; records @p field as covered in @p covered. */
template <typename Mutate>
void
expectFieldMatters(std::set<std::string> &covered, const char *field,
                   Mutate mutate)
{
    covered.insert(field);
    const SystemConfig base;
    SystemConfig changed = base;
    mutate(changed);
    EXPECT_FALSE(changed == base)
        << field << " does not participate in operator==";
    EXPECT_NE(hashValue(changed), hashValue(base))
        << field << " does not participate in hashValue()";
    EXPECT_NE(configToJson(changed).dump(),
              configToJson(base).dump())
        << field << " does not participate in configToJson()";
}

TEST(ConfigKey, EqualConfigsCompareAndHashEqual)
{
    const SystemConfig a;
    const SystemConfig b;
    EXPECT_TRUE(a == b);
    EXPECT_EQ(hashValue(a), hashValue(b));

    SystemConfig c;
    c.policy = IndexingPolicy::SiptCombined;
    c.l1Config = L1Config::Sipt32K2;
    c.condition = MemCondition::Fragmented;
    c.footprintScale = 0.25;
    SystemConfig d = c;
    EXPECT_TRUE(c == d);
    EXPECT_EQ(hashValue(c), hashValue(d));
}

TEST(ConfigKey, EveryFieldParticipates)
{
    std::set<std::string> covered;
    expectFieldMatters(covered, "outOfOrder", [](SystemConfig &c) {
        c.outOfOrder = !c.outOfOrder;
    });
    expectFieldMatters(covered, "l1Config", [](SystemConfig &c) {
        c.l1Config = L1Config::Sipt64K4;
    });
    expectFieldMatters(covered, "policy", [](SystemConfig &c) {
        c.policy = IndexingPolicy::Ideal;
    });
    expectFieldMatters(covered, "xlatPredEntries", [](SystemConfig &c) {
        c.xlatPredEntries = 64;
    });
    expectFieldMatters(covered, "wayPrediction", [](SystemConfig &c) {
        c.wayPrediction = !c.wayPrediction;
    });
    expectFieldMatters(covered, "radixWalker", [](SystemConfig &c) {
        c.radixWalker = !c.radixWalker;
    });
    expectFieldMatters(covered, "condition", [](SystemConfig &c) {
        c.condition = MemCondition::NoContiguity;
    });
    expectFieldMatters(covered, "physMemBytes", [](SystemConfig &c) {
        c.physMemBytes *= 2;
    });
    expectFieldMatters(covered, "warmupRefs", [](SystemConfig &c) {
        c.warmupRefs += 1;
    });
    expectFieldMatters(covered, "measureRefs", [](SystemConfig &c) {
        c.measureRefs += 1;
    });
    expectFieldMatters(covered, "seed", [](SystemConfig &c) {
        c.seed += 1;
    });
    expectFieldMatters(covered, "footprintScale", [](SystemConfig &c) {
        c.footprintScale = 0.5;
    });
    expectFieldMatters(covered, "l1SizeBytes", [](SystemConfig &c) {
        c.l1SizeBytes = 8 * 1024;
    });
    expectFieldMatters(covered, "l1Assoc", [](SystemConfig &c) {
        c.l1Assoc = 2;
    });
    expectFieldMatters(covered, "l1HitLatency", [](SystemConfig &c) {
        c.l1HitLatency = 3;
    });
    expectFieldMatters(covered, "check", [](SystemConfig &c) {
        c.check = !c.check;
    });
    // Adding a table row means adding its mutation above.
    EXPECT_EQ(covered, tableNames());
}

TEST(ConfigKey, EngineIsTheDeliberateException)
{
    // The batched and scalar engines are bit-identical in every
    // result, so the selector must NOT participate in the key: a
    // sweep memo populated under one engine must be served to the
    // other (the fuzzer flips engines per sample and relies on
    // this).
    const SystemConfig base;
    for (const EngineSelect engine :
         {EngineSelect::Auto, EngineSelect::Scalar,
          EngineSelect::Batch}) {
        SystemConfig changed = base;
        changed.engine = engine;
        EXPECT_TRUE(changed == base)
            << "engine participates in operator==";
        EXPECT_EQ(hashValue(changed), hashValue(base))
            << "engine participates in hashValue()";
    }
}

TEST(ConfigKey, ExemptListFlipsLeaveTheKeyUnchanged)
{
    // Walk kKeyExemptFields and perturb each named field, proving
    // every listed exemption really is outside the key. A field
    // added to the key without removing it from the exemption
    // list (or vice versa) fails either here or in sipt-analyze.
    const SystemConfig base;
    for (const char *field : kKeyExemptFields) {
        EXPECT_EQ(tableNames().count(field), 0u)
            << field << " is exempt but has a field-table row";
        SystemConfig changed = base;
        if (std::string_view{field} == "engine") {
            changed.engine = EngineSelect::Scalar;
        } else {
            FAIL() << "kKeyExemptFields names `" << field
                   << "` but this test has no mutation for it; "
                      "add one so the exemption stays proven";
        }
        EXPECT_TRUE(changed == base)
            << field << " participates in operator== despite "
                        "its key-exempt annotation";
        EXPECT_EQ(hashValue(changed), hashValue(base))
            << field << " participates in hashValue() despite "
                        "its key-exempt annotation";
    }
}

TEST(ConfigKey, ConditionValuesAreDistinct)
{
    // Fig. 18 sweeps all four conditions against one another;
    // each pair must key differently.
    const MemCondition all[] = {
        MemCondition::Normal, MemCondition::Fragmented,
        MemCondition::ThpOff, MemCondition::NoContiguity};
    for (auto a : all) {
        for (auto b : all) {
            SystemConfig ca, cb;
            ca.condition = a;
            cb.condition = b;
            EXPECT_EQ(ca == cb, a == b);
            if (a != b) {
                EXPECT_NE(hashValue(ca), hashValue(cb));
            }
        }
    }
}

TEST(ConfigKey, TraceAppNamesParse)
{
    EXPECT_TRUE(isTraceApp("trace:/tmp/x.sipttrace"));
    EXPECT_TRUE(isTraceApp("trace:relative/path"));
    EXPECT_FALSE(isTraceApp("mcf"));
    EXPECT_FALSE(isTraceApp(""));
    EXPECT_FALSE(isTraceApp("not-trace:x"));
    EXPECT_EQ(traceAppPath("trace:/tmp/x.sipttrace"),
              "/tmp/x.sipttrace");
}

TEST(ConfigKey, L1PresetNamesRoundTrip)
{
    EXPECT_EQ(l1ConfigFromName("baseline32k8"),
              L1Config::Baseline32K8);
    EXPECT_EQ(l1ConfigFromName("small16k4"),
              L1Config::Small16K4);
    EXPECT_EQ(l1ConfigFromName("sipt32k2"), L1Config::Sipt32K2);
    EXPECT_EQ(l1ConfigFromName("sipt32k4"), L1Config::Sipt32K4);
    EXPECT_EQ(l1ConfigFromName("sipt64k4"), L1Config::Sipt64K4);
    EXPECT_EQ(l1ConfigFromName("sipt128k4"),
              L1Config::Sipt128K4);
    // Case-insensitive; unknown names are nullopt, not fatal.
    EXPECT_EQ(l1ConfigFromName("SIPT32K2"), L1Config::Sipt32K2);
    EXPECT_EQ(l1ConfigFromName("vivt"), std::nullopt);
    EXPECT_EQ(l1ConfigFromName(""), std::nullopt);
}

TEST(ConfigKey, ConditionNamesRoundTrip)
{
    EXPECT_EQ(conditionFromName("normal"), MemCondition::Normal);
    EXPECT_EQ(conditionFromName("fragmented"),
              MemCondition::Fragmented);
    EXPECT_EQ(conditionFromName("thp-off"),
              MemCondition::ThpOff);
    EXPECT_EQ(conditionFromName("no-contig"),
              MemCondition::NoContiguity);
    EXPECT_EQ(conditionFromName("Fragmented"),
              MemCondition::Fragmented);
    EXPECT_EQ(conditionFromName("swapped"), std::nullopt);
}

} // namespace
} // namespace sipt::sim
