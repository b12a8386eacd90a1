/**
 * @file
 * Dependence-analysis tests: the per-axis concurrency tables derived
 * from the chain access maps must match the hand-proved classification
 * for every shipped workload form, and the write-write conflict test
 * must catch overlapping-output axes that neither a disjointness nor an
 * accumulation-order argument can save.
 */

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "analysis/race_checker.hpp"
#include "ir/builders.hpp"
#include "support/error.hpp"

namespace chimera::analysis {
namespace {

using ir::AxisId;
using ir::Epilogue;

AxisConcurrency
kindOf(const ConcurrencyTable &table, const ir::Chain &chain,
       const std::string &axis)
{
    return table.kindOf(ir::axisIdByName(chain, axis));
}

std::vector<std::int64_t>
halvedTiles(const ir::Chain &chain)
{
    std::vector<std::int64_t> tiles = chain.fullExtents();
    for (std::int64_t &t : tiles) {
        t = std::max<std::int64_t>(1, t / 2);
    }
    return tiles;
}

TEST(Dependence, GemmChainTableMatchesHandProof)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 2;
    cfg.m = 32;
    cfg.n = 32;
    cfg.k = 32;
    cfg.l = 32;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const ConcurrencyTable table =
        analyzeConcurrency(chain, halvedTiles(chain));

    EXPECT_EQ(kindOf(table, chain, "b"), AxisConcurrency::Parallel);
    EXPECT_EQ(kindOf(table, chain, "m"), AxisConcurrency::Parallel);
    EXPECT_EQ(kindOf(table, chain, "n"), AxisConcurrency::Parallel);
    EXPECT_EQ(kindOf(table, chain, "k"), AxisConcurrency::Reduction);
    EXPECT_EQ(kindOf(table, chain, "l"), AxisConcurrency::Reduction);
    for (const AxisClassification &cls : table.axes) {
        EXPECT_EQ(cls.reason.find("softmax"), std::string::npos);
        EXPECT_FALSE(cls.reason.empty());
    }
}

TEST(Dependence, SoftmaxEpilogueFlagsTheRowAxis)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 2;
    cfg.m = 32;
    cfg.n = 32;
    cfg.k = 32;
    cfg.l = 32;
    cfg.epilogue = Epilogue::Softmax;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const ConcurrencyTable table =
        analyzeConcurrency(chain, halvedTiles(chain));

    // The row sum accumulates across l blocks of the intermediate; l was
    // already a reduction axis (gemm2 contracts it), but the reason must
    // still name the epilogue coupling, since SB04 prints it when a plan
    // re-declares l parallel.
    const AxisId l = ir::axisIdByName(chain, "l");
    EXPECT_EQ(table.kindOf(l), AxisConcurrency::Reduction);
    EXPECT_NE(table.axes[static_cast<std::size_t>(l)].reason.find(
                  "softmax row normalization"),
              std::string::npos);
    EXPECT_EQ(table.axes[static_cast<std::size_t>(
                             ir::axisIdByName(chain, "m"))]
                  .reason.find("softmax"),
              std::string::npos);
}

TEST(Dependence, ConvChainTableMatchesHandProof)
{
    ir::ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 8;
    cfg.h = 16;
    cfg.w = 16;
    cfg.oc1 = 8;
    cfg.oc2 = 8;
    cfg.k1 = 3;
    cfg.k2 = 3;
    const ir::Chain chain = ir::makeConvChain(cfg);
    const ConcurrencyTable table =
        analyzeConcurrency(chain, halvedTiles(chain));

    for (const char *axis : {"b", "oc2", "oh", "ow"}) {
        EXPECT_EQ(kindOf(table, chain, axis), AxisConcurrency::Parallel)
            << axis;
    }
    for (const char *axis : {"oc1", "ic", "kh2", "kw2", "kh1", "kw1"}) {
        EXPECT_EQ(kindOf(table, chain, axis), AxisConcurrency::Reduction)
            << axis;
    }
}

TEST(Dependence, GemmChain3TableMatchesHandProof)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 32;
    cfg.n = 16;
    cfg.k = 16;
    cfg.l = 24;
    cfg.p = 12;
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    const ConcurrencyTable table =
        analyzeConcurrency(chain, halvedTiles(chain));

    for (const char *axis : {"b", "m", "n"}) {
        EXPECT_EQ(kindOf(table, chain, axis), AxisConcurrency::Parallel)
            << axis;
    }
    for (const char *axis : {"k", "l", "p"}) {
        EXPECT_EQ(kindOf(table, chain, axis), AxisConcurrency::Reduction)
            << axis;
    }
}

TEST(Dependence, FullExtentTilesKeepOutputAxesParallel)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 32;
    cfg.n = 32;
    cfg.k = 32;
    cfg.l = 32;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const ConcurrencyTable table =
        analyzeConcurrency(chain, chain.fullExtents());

    // One block per axis: the output axes are trivially parallel. The
    // contracted axes still classify Reduction — the accumulation is a
    // property of the access maps, not of the block count, and a
    // one-block reduction loop runs identically either way.
    EXPECT_EQ(kindOf(table, chain, "m"), AxisConcurrency::Parallel);
    EXPECT_EQ(kindOf(table, chain, "n"), AxisConcurrency::Parallel);
    EXPECT_EQ(kindOf(table, chain, "k"), AxisConcurrency::Reduction);
    EXPECT_EQ(kindOf(table, chain, "l"), AxisConcurrency::Reduction);
}

TEST(Dependence, OverlappingOutputWindowClassifiesSequential)
{
    // A smear operator whose *chain output* is indexed oh + kh: with
    // tiles T_oh = 2, T_kh = 3 a block's window along the dimension has
    // width 1 + 1*(2-1) + 1*(3-1) = 4 while advancing the oh block only
    // shifts it by T_oh = 2. Adjacent blocks overwrite each other and
    // the output is not an intermediate, so no halo-recompute exemption
    // applies: both axes must serialize, in order.
    ir::Chain chain("smear");
    const AxisId oh = chain.addAxis("oh", 8);
    const AxisId kh = chain.addAxis("kh", 3, /*reorderable=*/false);

    ir::TensorDecl in;
    in.name = "I";
    in.kind = ir::TensorKind::Input;
    in.dims = {ir::AccessDim{{{oh, 1}, {kh, 1}}}};
    const int inId = chain.addTensor(in);

    ir::TensorDecl out;
    out.name = "O";
    out.kind = ir::TensorKind::Output;
    out.dims = {ir::AccessDim{{{oh, 1}, {kh, 1}}}};
    const int outId = chain.addTensor(out);

    ir::OpDecl op;
    op.name = "smear";
    op.kind = ir::OpKind::Conv2d;
    op.loops = {oh, kh};
    op.tensorIds = {inId, outId};
    op.outputTensorId = outId;
    op.iterDims = {ir::AccessDim{{{oh, 1}}}, ir::AccessDim{{{kh, 1}}}};
    chain.addOp(op);

    std::vector<std::int64_t> tiles(2);
    tiles[static_cast<std::size_t>(oh)] = 2;
    tiles[static_cast<std::size_t>(kh)] = 3;
    const ConcurrencyTable table = analyzeConcurrency(chain, tiles);
    EXPECT_EQ(table.kindOf(oh), AxisConcurrency::Sequential);

    // But an *intermediate* written with the same overlap is exempt:
    // the fused executors privatize it per worker and recompute halos.
    ir::Chain priv("smear-private");
    const AxisId poh = priv.addAxis("oh", 8);
    const AxisId pkh = priv.addAxis("kh", 3, /*reorderable=*/false);
    ir::TensorDecl pin = in;
    pin.dims = {ir::AccessDim{{{poh, 1}, {pkh, 1}}}};
    const int pinId = priv.addTensor(pin);
    ir::TensorDecl mid = out;
    mid.name = "T";
    mid.kind = ir::TensorKind::Intermediate;
    mid.dims = {ir::AccessDim{{{poh, 1}, {pkh, 1}}}};
    const int midId = priv.addTensor(mid);
    ir::OpDecl pop = op;
    pop.loops = {poh, pkh};
    pop.tensorIds = {pinId, midId};
    pop.outputTensorId = midId;
    pop.iterDims = {ir::AccessDim{{{poh, 1}}}, ir::AccessDim{{{pkh, 1}}}};
    priv.addOp(pop);
    const ConcurrencyTable privTable = analyzeConcurrency(priv, tiles);
    EXPECT_EQ(privTable.kindOf(poh), AxisConcurrency::Parallel);
}

TEST(Dependence, NamesRoundTripAndRejectUnknownKinds)
{
    EXPECT_STREQ(concurrencyName(AxisConcurrency::Parallel), "parallel");
    EXPECT_STREQ(concurrencyName(AxisConcurrency::Reduction), "reduction");
    EXPECT_STREQ(concurrencyName(AxisConcurrency::Sequential),
                 "sequential");
    for (AxisConcurrency kind :
         {AxisConcurrency::Parallel, AxisConcurrency::Reduction,
          AxisConcurrency::Sequential}) {
        EXPECT_EQ(concurrencyFromName(concurrencyName(kind), "test"),
                  kind);
    }
    EXPECT_THROW(concurrencyFromName("concurrent", "test"), Error);
}

TEST(Dependence, SummaryListsEveryAxisInOrder)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 32;
    cfg.n = 32;
    cfg.k = 32;
    cfg.l = 32;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const ConcurrencyTable table =
        analyzeConcurrency(chain, halvedTiles(chain));
    EXPECT_EQ(table.summary(chain),
              "m=parallel n=parallel k=reduction l=reduction");
}

TEST(RaceChecker, DisjointClaimsAreClean)
{
    RaceChecker checker(100);
    checker.beginPhase("blocks");
    checker.claimRange(0, 0, 50);
    checker.claimRange(1, 50, 100);
    checker.claimRange(0, 10, 20); // same task may rewrite its range
    EXPECT_FALSE(checker.hasConflicts());
    EXPECT_EQ(checker.report(), "");
}

TEST(RaceChecker, OverlappingClaimsByDistinctTasksConflict)
{
    RaceChecker checker(100);
    checker.beginPhase("blocks");
    checker.claimRange(0, 0, 60);
    checker.claimRange(1, 40, 80);
    EXPECT_EQ(checker.conflictCount(), 20);
    const std::vector<RaceConflict> details = checker.conflicts();
    ASSERT_FALSE(details.empty());
    EXPECT_EQ(details.front().phase, "blocks");
    EXPECT_EQ(details.front().element, 40);
    EXPECT_EQ(details.front().firstTask, 0);
    EXPECT_EQ(details.front().secondTask, 1);
    EXPECT_LE(details.size(), RaceChecker::kMaxRecorded);
}

TEST(RaceChecker, PhasesResetOwnershipButKeepTheCount)
{
    RaceChecker checker(10);
    checker.beginPhase("first");
    checker.claimRange(0, 0, 10);
    checker.claimRange(1, 0, 5);
    EXPECT_EQ(checker.conflictCount(), 5);

    // The barrier between phases orders cross-phase writes: a different
    // task may rewrite the same elements without a new conflict.
    checker.beginPhase("second");
    checker.claimRange(2, 0, 10);
    EXPECT_EQ(checker.conflictCount(), 5);
}

} // namespace
} // namespace chimera::analysis
