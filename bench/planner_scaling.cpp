/**
 * @file
 * Planner scaling versus chain length: wall-clock planning time and
 * tile solves under each pruning mode, against exhaustive enumeration.
 *
 * The order-search space is factorial in the reorderable axes — 4! for
 * a two-GEMM chain but 6! = 720 for a batched three-GEMM chain — so
 * chain-N planning lives or dies on how many of those orders actually
 * reach the tile solver. This bench plans chains of fused length 2
 * (two-GEMM), 3 (three-GEMM + ReLU) and 4 (the attention pattern
 * QK^T -> softmax -> .V -> proj) under every pruning mode and reports,
 * per mode, the planning wall clock and the candidates-solved count
 * next to the exhaustive baseline. The pruning modes (symmetry,
 * dominance) must reproduce the exhaustive argmin bitwise — the bench
 * exits 1 if they do not, so CI gets a pruning-soundness gate for free.
 *
 * Writes BENCH_planner.json (run from the repo root in CI). --quick
 * shrinks the shapes; --threads N sets the planner thread count.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "exec/gemm_chain3_exec.hpp"

namespace {

using namespace chimera;
using namespace chimera::bench;

struct ModeResult
{
    analysis::PruneMode mode = analysis::PruneMode::None;
    double planSeconds = 0.0;
    analysis::SearchStats stats;
    bool argminMatch = true; // vs the exhaustive plan
};

struct ChainResult
{
    std::string name;
    std::size_t ops = 0; // fused length (epilogue counts as one op)
    int axes = 0;
    std::vector<ModeResult> modes; // [0] is always exhaustive
};

/** Best-of-kRepeats planning run under @p mode; cache bypassed. */
ModeResult
planUnderMode(const ir::Chain &chain,
              const solver::TileConstraints &constraints, int threads,
              analysis::PruneMode mode)
{
    ModeResult result;
    result.mode = mode;
    result.planSeconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kRepeats; ++r) {
        plan::PlannerOptions po;
        po.memCapacityBytes = kCpuCapacityBytes;
        po.constraints = constraints;
        po.threads = threads;
        po.prune = mode;
        const plan::ExecutionPlan plan = plan::planChain(chain, po);
        if (plan.planSeconds < result.planSeconds) {
            result.planSeconds = plan.planSeconds;
        }
        result.stats = plan.search;
    }
    return result;
}

ChainResult
benchChain(const ir::Chain &chain,
           const solver::TileConstraints &constraints, int threads,
           std::size_t fusedOps)
{
    ChainResult result;
    result.name = chain.name();
    result.ops = fusedOps;
    result.axes = chain.numAxes();

    plan::PlannerOptions po;
    po.memCapacityBytes = kCpuCapacityBytes;
    po.constraints = constraints;
    po.threads = threads;
    po.prune = analysis::PruneMode::None;
    const plan::ExecutionPlan exhaustive = plan::planChain(chain, po);

    for (const analysis::PruneMode mode :
         {analysis::PruneMode::None, analysis::PruneMode::Symmetry,
          analysis::PruneMode::Dominance}) {
        ModeResult mr = planUnderMode(chain, constraints, threads, mode);
        if (mode != analysis::PruneMode::None) {
            plan::PlannerOptions check = po;
            check.prune = mode;
            const plan::ExecutionPlan pruned =
                plan::planChain(chain, check);
            mr.argminMatch = pruned.perm == exhaustive.perm &&
                             pruned.tiles == exhaustive.tiles;
        }
        result.modes.push_back(std::move(mr));
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = flagInArgs(argc, argv, "--quick");
    const int threads = threadsFromArgs(argc, argv);
    printHeader(
        "planner scaling — pruned order search vs chain length",
        "Chains of fused length 2/3/4; per pruning mode: planning wall "
        "clock (best of 3) and tile solves vs exhaustive enumeration. "
        "Pruned modes must reproduce the exhaustive argmin bitwise.");

    const std::int64_t s = quick ? 64 : 256;

    ir::GemmChainConfig g2;
    g2.name = "chain2-gemm";
    g2.batch = 1;
    g2.m = s;
    g2.n = s;
    g2.k = s;
    g2.l = s;

    ir::GemmChain3Config g3;
    g3.name = "chain3-gemm";
    g3.batch = 2;
    g3.m = s;
    g3.n = s;
    g3.k = s;
    g3.l = s;
    g3.p = quick ? 32 : 64;

    ir::GemmChain3Config g4 = g3;
    g4.name = "chain4-attention";
    g4.epilogue = ir::Epilogue::Softmax;
    g4.softmaxScale = 1.0f / std::sqrt(static_cast<float>(g4.k));

    const auto &kernel = hostKernel();
    std::vector<ChainResult> results;
    {
        const ir::Chain chain = ir::makeGemmChain(g2);
        results.push_back(benchChain(
            chain, exec::cpuChainConstraints(chain, kernel), threads, 2));
    }
    for (const ir::GemmChain3Config &cfg : {g3, g4}) {
        const ir::Chain chain = ir::makeGemmChain3(cfg);
        const std::size_t fusedOps =
            cfg.epilogue == ir::Epilogue::None ? 3 : 4;
        results.push_back(
            benchChain(chain, exec::gemmChain3Constraints(chain, kernel),
                       threads, fusedOps));
    }

    AsciiTable table({"Chain", "ops", "mode", "plan (ms)", "solved",
                      "enumerated", "solve reduction", "argmin"});
    bool sound = true;
    for (const ChainResult &cr : results) {
        const double exhaustiveSolved =
            static_cast<double>(cr.modes.front().stats.solved);
        for (const ModeResult &mr : cr.modes) {
            const double reduction =
                mr.stats.solved > 0
                    ? exhaustiveSolved /
                          static_cast<double>(mr.stats.solved)
                    : 0.0;
            sound = sound && mr.argminMatch;
            table.addRow(
                {cr.name, std::to_string(cr.ops),
                 analysis::pruneModeName(mr.mode),
                 AsciiTable::num(mr.planSeconds * 1e3, 2),
                 std::to_string(mr.stats.solved),
                 std::to_string(mr.stats.enumerated),
                 AsciiTable::num(reduction, 1) + "x",
                 mr.argminMatch ? "match" : "MISMATCH"});
        }
    }
    std::printf("%s\n", table.render().c_str());

    std::ofstream json("BENCH_planner.json");
    json << "{\n  \"bench\": \"planner_scaling\",\n  \"quick\": "
         << (quick ? "true" : "false") << ",\n  \"chains\": [\n";
    for (std::size_t ci = 0; ci < results.size(); ++ci) {
        const ChainResult &cr = results[ci];
        json << "    {\n      \"name\": \"" << cr.name
             << "\",\n      \"ops\": " << cr.ops
             << ",\n      \"axes\": " << cr.axes
             << ",\n      \"modes\": [\n";
        for (std::size_t mi = 0; mi < cr.modes.size(); ++mi) {
            const ModeResult &mr = cr.modes[mi];
            json << "        {\"mode\": \""
                 << analysis::pruneModeName(mr.mode)
                 << "\", \"plan_seconds\": " << mr.planSeconds
                 << ", \"solved\": " << mr.stats.solved
                 << ", \"enumerated\": " << mr.stats.enumerated
                 << ", \"filtered\": " << mr.stats.filtered
                 << ", \"symmetry_pruned\": " << mr.stats.symmetryPruned
                 << ", \"dominance_pruned\": " << mr.stats.dominancePruned
                 << ", \"argmin_match\": "
                 << (mr.argminMatch ? "true" : "false") << "}"
                 << (mi + 1 < cr.modes.size() ? "," : "") << "\n";
        }
        json << "      ]\n    }"
             << (ci + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    json.close();
    std::printf("wrote BENCH_planner.json\n");

    if (!sound) {
        std::fprintf(stderr, "FATAL: a pruning mode changed the "
                             "planner argmin\n");
        return 1;
    }
    return 0;
}
