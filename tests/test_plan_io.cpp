/**
 * @file
 * Tests for plan serialization: round trips, validation against the
 * binding chain, v1 compatibility, and rejection of malformed,
 * truncated, duplicated or stale documents — always as chimera::Error,
 * never as a raw std:: exception.
 */

#include <gtest/gtest.h>

#include "ir/builders.hpp"
#include "plan/plan_io.hpp"
#include "support/error.hpp"

namespace chimera::plan {
namespace {

ir::Chain
chainUnderTest()
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "io-test";
    return ir::makeGemmChain(cfg);
}

ExecutionPlan
planUnderTest(const ir::Chain &chain)
{
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    return planChain(chain, options);
}

/** Serialized document with the "tiles:" line's value replaced. */
std::string
documentWithTiles(const ir::Chain &chain, const std::string &tilesValue)
{
    std::string text = serializePlan(chain, planUnderTest(chain));
    const std::size_t pos = text.find("tiles:");
    const std::size_t eol = text.find('\n', pos);
    text.replace(pos, eol - pos, "tiles: " + tilesValue);
    return text;
}

TEST(PlanIo, RoundTripPreservesScheduleExactly)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string text = serializePlan(chain, plan);
    const ExecutionPlan restored = deserializePlan(chain, text);
    EXPECT_EQ(restored.perm, plan.perm);
    EXPECT_EQ(restored.tiles, plan.tiles);
    EXPECT_DOUBLE_EQ(restored.predictedVolumeBytes,
                     plan.predictedVolumeBytes);
    EXPECT_EQ(restored.memUsageBytes, plan.memUsageBytes);
}

TEST(PlanIo, DocumentIsHumanReadable)
{
    const ir::Chain chain = chainUnderTest();
    const std::string text = serializePlan(chain, planUnderTest(chain));
    EXPECT_NE(text.find("chimera-plan v2"), std::string::npos);
    EXPECT_NE(text.find("order:"), std::string::npos);
    EXPECT_NE(text.find("tiles:"), std::string::npos);
    EXPECT_NE(text.find("io-test"), std::string::npos);
}

TEST(PlanIo, ReadsV1Documents)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    // Rebuild the plan as a seed-era v1 document (no fingerprint key,
    // no volume/mem lines — both were always recomputed).
    std::string v1 = "chimera-plan v1\nchain: io-test\norder: " +
                     orderString(chain, plan.perm) + "\ntiles:";
    for (int a = 0; a < chain.numAxes(); ++a) {
        v1 += " " + chain.axes()[static_cast<std::size_t>(a)].name + "=" +
              std::to_string(plan.tiles[static_cast<std::size_t>(a)]);
    }
    v1 += "\n";
    const ExecutionPlan restored = deserializePlan(chain, v1);
    EXPECT_EQ(restored.perm, plan.perm);
    EXPECT_EQ(restored.tiles, plan.tiles);
    EXPECT_DOUBLE_EQ(restored.predictedVolumeBytes,
                     plan.predictedVolumeBytes);
}

TEST(PlanIo, FingerprintRoundTripAndMismatch)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string text = serializePlan(chain, plan, "deadbeef01234567");
    EXPECT_NE(text.find("fingerprint: deadbeef01234567"),
              std::string::npos);
    // Matching expectation parses; a different or absent fingerprint
    // must throw so the cache replans instead of trusting the entry.
    EXPECT_NO_THROW(deserializePlan(chain, text, "deadbeef01234567"));
    EXPECT_THROW(deserializePlan(chain, text, "0000000000000000"), Error);
    const std::string noFp = serializePlan(chain, plan);
    EXPECT_THROW(deserializePlan(chain, noFp, "deadbeef01234567"), Error);
    // Without an expectation, any embedded fingerprint is accepted.
    EXPECT_NO_THROW(deserializePlan(chain, text));
}

TEST(PlanIo, StalePredictionsAreRecomputed)
{
    // Tamper with the volume field: deserialization must not trust it.
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    std::string text = serializePlan(chain, plan);
    const std::size_t pos = text.find("volume-bytes:");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, text.find('\n', pos) - pos, "volume-bytes: 1");
    const ExecutionPlan restored = deserializePlan(chain, text);
    EXPECT_DOUBLE_EQ(restored.predictedVolumeBytes,
                     plan.predictedVolumeBytes);
}

TEST(PlanIo, RejectsWrongHeader)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(chain, "not-a-plan\norder: m"), Error);
    EXPECT_THROW(deserializePlan(chain, "chimera-plan v3\norder: m"),
                 Error);
    EXPECT_THROW(deserializePlan(chain, ""), Error);
}

TEST(PlanIo, RejectsTruncatedDocuments)
{
    const ir::Chain chain = chainUnderTest();
    // Header only, then order without tiles, then a cut-off tile token.
    EXPECT_THROW(deserializePlan(chain, "chimera-plan v2\n"), Error);
    EXPECT_THROW(deserializePlan(chain, "chimera-plan v2\norder: "
                                        "b,m,l,k,n\n"),
                 Error);
    EXPECT_THROW(
        deserializePlan(chain,
                        "chimera-plan v2\ntiles: b=1 m=8 n=8 k=8 l=8\n"),
        Error);
    EXPECT_THROW(deserializePlan(
                     chain, "chimera-plan v2\norder: b,m,l,k,n\ntiles: m="),
                 Error);
}

TEST(PlanIo, RejectsMalformedNumericsAsChimeraError)
{
    const ir::Chain chain = chainUnderTest();
    // Each of these once escaped as std::invalid_argument from stoll, or
    // was silently truncated ("m=64abc" -> 64). All must throw Error.
    EXPECT_THROW(deserializePlan(chain, documentWithTiles(chain, "m=")),
                 Error);
    EXPECT_THROW(deserializePlan(chain, documentWithTiles(chain, "m=x")),
                 Error);
    EXPECT_THROW(
        deserializePlan(chain, documentWithTiles(chain, "m=64abc")),
        Error);
    EXPECT_THROW(deserializePlan(
                     chain, documentWithTiles(
                                chain, "m=99999999999999999999999999")),
                 Error);

    std::string text = serializePlan(chain, planUnderTest(chain));
    std::string bad = text;
    bad.replace(bad.find("volume-bytes:"),
                bad.find('\n', bad.find("volume-bytes:")) -
                    bad.find("volume-bytes:"),
                "volume-bytes: abc");
    EXPECT_THROW(deserializePlan(chain, bad), Error);
    bad = text;
    bad.replace(bad.find("mem-bytes:"),
                bad.find('\n', bad.find("mem-bytes:")) -
                    bad.find("mem-bytes:"),
                "mem-bytes: 64abc");
    EXPECT_THROW(deserializePlan(chain, bad), Error);
}

TEST(PlanIo, MalformedNumericErrorsNameTheLine)
{
    const ir::Chain chain = chainUnderTest();
    try {
        deserializePlan(chain, documentWithTiles(chain, "m=64abc"));
        FAIL() << "expected chimera::Error";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line"), std::string::npos) << what;
        EXPECT_NE(what.find("64abc"), std::string::npos) << what;
    }
}

TEST(PlanIo, RejectsDuplicateTileTokens)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(chain, documentWithTiles(
                                            chain, "b=1 m=8 m=8 n=8 "
                                                   "k=8 l=8")),
                 Error);
}

TEST(PlanIo, RejectsDuplicateKeys)
{
    const ir::Chain chain = chainUnderTest();
    std::string text = serializePlan(chain, planUnderTest(chain));
    text += "mem-bytes: 1\n";
    EXPECT_THROW(deserializePlan(chain, text), Error);
}

TEST(PlanIo, RejectsForeignAxes)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(chain,
                                 "chimera-plan v2\norder: x,y\ntiles: "
                                 "x=1 y=1\n"),
                 Error);
    EXPECT_THROW(
        deserializePlan(chain, documentWithTiles(chain, "q=4")),
        Error);
}

TEST(PlanIo, RejectsOutOfRangeTiles)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    std::string text = serializePlan(chain, plan);
    const std::size_t pos = text.find("m=");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 4, "m=9999");
    EXPECT_THROW(deserializePlan(chain, text), Error);
}

TEST(PlanIo, RejectsUnknownKeys)
{
    const ir::Chain chain = chainUnderTest();
    std::string text = serializePlan(chain, planUnderTest(chain));
    text += "mystery: 1\n";
    EXPECT_THROW(deserializePlan(chain, text), Error);
}

TEST(PlanIo, RejectsKeylessLines)
{
    const ir::Chain chain = chainUnderTest();
    std::string text = serializePlan(chain, planUnderTest(chain));
    text += "no colon here\n";
    EXPECT_THROW(deserializePlan(chain, text), Error);
}

/** Serialized document with the "concurrency:" line's value replaced. */
std::string
documentWithConcurrency(const ir::Chain &chain, const std::string &value)
{
    std::string text = serializePlan(chain, planUnderTest(chain));
    const std::size_t pos = text.find("concurrency:");
    EXPECT_NE(pos, std::string::npos);
    const std::size_t eol = text.find('\n', pos);
    if (value.empty()) {
        text.erase(pos, eol - pos + 1);
    } else {
        text.replace(pos, eol - pos, "concurrency: " + value);
    }
    return text;
}

TEST(PlanIo, ConcurrencyTableRoundTrips)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string text = serializePlan(chain, plan);
    EXPECT_NE(text.find("concurrency:"), std::string::npos);
    const ExecutionPlan restored = deserializePlan(chain, text);
    EXPECT_EQ(restored.concurrency, plan.concurrency);
}

TEST(PlanIo, MissingConcurrencyFallsBackToFreshAnalysis)
{
    // v2 docs without the line (and every v1 doc) load with the table
    // re-derived from the chain, so older cache entries stay usable.
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const ExecutionPlan restored =
        deserializePlan(chain, documentWithConcurrency(chain, ""));
    EXPECT_EQ(restored.concurrency, plan.concurrency);
}

TEST(PlanIo, RejectsConcurrencyWithUnknownAxis)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(
                     chain, documentWithConcurrency(
                                chain,
                                "b=parallel m=parallel n=parallel "
                                "k=reduction l=reduction q=parallel")),
                 Error);
}

TEST(PlanIo, RejectsConcurrencyWithUnknownKind)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(
                     chain, documentWithConcurrency(
                                chain,
                                "b=parallel m=concurrent n=parallel "
                                "k=reduction l=reduction")),
                 Error);
}

TEST(PlanIo, RejectsDuplicateConcurrencyAxes)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(
                     chain, documentWithConcurrency(
                                chain,
                                "b=parallel m=parallel m=parallel "
                                "k=reduction l=reduction")),
                 Error);
}

TEST(PlanIo, RejectsIncompleteConcurrency)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(
        deserializePlan(chain, documentWithConcurrency(
                                   chain, "b=parallel m=parallel")),
        Error);
}

TEST(PlanIo, RejectsMalformedConcurrencyTokens)
{
    const ir::Chain chain = chainUnderTest();
    for (const char *value : {"=parallel", "m=", "parallel"}) {
        EXPECT_THROW(deserializePlan(
                         chain, documentWithConcurrency(chain, value)),
                     Error)
            << value;
    }
}

TEST(PlanIo, SerialPlanDocumentOmitsChunkingLines)
{
    // Backward compatibility: a serial plan's document must stay
    // byte-identical to the pre-chunking format.
    const ir::Chain chain = chainUnderTest();
    const std::string text = serializePlan(chain, planUnderTest(chain));
    EXPECT_EQ(text.find("threads:"), std::string::npos);
    EXPECT_EQ(text.find("grain:"), std::string::npos);
}

TEST(PlanIo, RoundTripPreservesChunking)
{
    const ir::Chain chain = chainUnderTest();
    ExecutionPlan plan = planUnderTest(chain);
    plan.plannedThreads = 8;
    plan.parallelGrain.assign(
        static_cast<std::size_t>(chain.numAxes()), 1);
    plan.parallelGrain[static_cast<std::size_t>(
        ir::axisIdByName(chain, "m"))] = 2;

    const std::string text = serializePlan(chain, plan);
    EXPECT_NE(text.find("threads: 8"), std::string::npos);
    EXPECT_NE(text.find("grain: m=2"), std::string::npos);

    const ExecutionPlan restored = deserializePlan(chain, text);
    EXPECT_EQ(restored.plannedThreads, 8);
    EXPECT_EQ(restored.parallelGrain, plan.parallelGrain);
    EXPECT_EQ(restored.perm, plan.perm);
    EXPECT_EQ(restored.tiles, plan.tiles);
}

TEST(PlanIo, RejectsMalformedChunking)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string base = serializePlan(chain, plan);

    // Grain without a thread count is meaningless.
    EXPECT_THROW(deserializePlan(chain, base + "grain: m=2\n"), Error);
    // Non-positive grain.
    EXPECT_THROW(
        deserializePlan(chain, base + "threads: 4\ngrain: m=0\n"),
        Error);
    // Unknown axis.
    EXPECT_THROW(
        deserializePlan(chain, base + "threads: 4\ngrain: zz=2\n"),
        Error);
    // Duplicate axis.
    EXPECT_THROW(
        deserializePlan(chain, base + "threads: 4\ngrain: m=2 m=3\n"),
        Error);
    // Non-positive thread count.
    EXPECT_THROW(deserializePlan(chain, base + "threads: 0\n"), Error);
}

TEST(PlanIo, HonorsDeclaredConcurrencyOverDerived)
{
    // A deliberately mis-declared (but well-formed) table must survive
    // the load: the race checker exists to observe what a tampered
    // document actually does, so the loader binds it rather than
    // silently repairing it. chimera-check flags it via SB04.
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const ExecutionPlan restored = deserializePlan(
        chain, documentWithConcurrency(chain,
                                       "b=parallel m=parallel n=parallel "
                                       "k=reduction l=parallel"));
    EXPECT_NE(restored.concurrency, plan.concurrency);
    EXPECT_EQ(restored.concurrency[static_cast<std::size_t>(
                  ir::axisIdByName(chain, "l"))],
              analysis::AxisConcurrency::Parallel);
}

} // namespace
} // namespace chimera::plan
