#pragma once

/**
 * @file
 * Shared helpers for the per-figure bench binaries: planning with the
 * standard CPU budget, timed executions of the fused/unfused paths, and
 * uniform table headers. Every bench prints the rows of its paper
 * table/figure through AsciiTable so runs are diffable.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/constraints.hpp"
#include "exec/conv_chain_exec.hpp"
#include "exec/exec_options.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace chimera::bench {

/** Planner memory budget: most of the Xeon-class per-core L2. */
inline constexpr double kCpuCapacityBytes = 768.0 * 1024;

/** Timed repetitions per measurement (best-of). */
inline constexpr int kRepeats = 3;

/**
 * Parses `--threads N` from the command line. Returns 0 (defer to
 * CHIMERA_THREADS / the hardware count) when the flag is absent.
 */
inline int
threadsFromArgs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0) {
            return std::atoi(argv[i + 1]);
        }
    }
    return 0;
}

/** True when @p flag appears verbatim on the command line. */
inline bool
flagInArgs(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return true;
        }
    }
    return false;
}

/** Widest micro kernel available on this host. */
inline const kernels::MicroKernel &
hostKernel()
{
    return kernels::MicroKernelRegistry::instance().select(
        detectSimdTier());
}

/** Plans a chain with the executor-aware CPU constraints. */
inline plan::ExecutionPlan
planCpu(const ir::Chain &chain,
        double capacityBytes = kCpuCapacityBytes)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    options.constraints = exec::cpuChainConstraints(chain, hostKernel());
    return plan::planChain(chain, options);
}

/**
 * Thread-aware planCpu: the plan targets @p execThreads workers on the
 * multicore CPU topology, so shared-level per-worker budgets shrink the
 * tiles when the working sets would collide in the LLC, and the plan
 * carries the parallel-axis chunking (plannedThreads / parallelGrain)
 * the chunked executors dispatch by.
 */
inline plan::ExecutionPlan
planCpuThreaded(const ir::Chain &chain, int execThreads,
                double capacityBytes = kCpuCapacityBytes)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    options.constraints = exec::cpuChainConstraints(chain, hostKernel());
    options.execThreads = execThreads;
    options.topology = hw::multicoreCpuTopology();
    return plan::planChain(chain, options);
}

/**
 * planCpu variant consulting @p cache: the first call per chain is a
 * cold miss (plans and stores), repeated calls are warm hits with
 * candidatesExamined == 0. Used by the cache-aware bench columns.
 */
inline plan::ExecutionPlan
planCpuCached(const ir::Chain &chain, plan::PlanCache &cache,
              double capacityBytes = kCpuCapacityBytes)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    options.constraints = exec::cpuChainConstraints(chain, hostKernel());
    options.cache = &cache;
    return plan::planChain(chain, options);
}

/** Holds the tensors of one GEMM-chain workload. */
struct GemmChainData
{
    explicit GemmChainData(const ir::GemmChainConfig &cfg,
                           std::uint64_t seed = 42)
        : a(exec::gemmChainShapeA(cfg)), b(exec::gemmChainShapeB(cfg)),
          d(exec::gemmChainShapeD(cfg)), e(exec::gemmChainShapeE(cfg)),
          scratchC(exec::gemmChainShapeC(cfg))
    {
        Rng rng(seed);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);
    }

    Tensor a, b, d, e, scratchC;
};

/** Holds the tensors of one conv-chain workload. */
struct ConvChainData
{
    explicit ConvChainData(const ir::ConvChainConfig &cfg,
                           std::uint64_t seed = 42)
        : input(exec::convChainShapeI(cfg)), w1(exec::convChainShapeW1(cfg)),
          w2(exec::convChainShapeW2(cfg)),
          output(exec::convChainShapeO(cfg)),
          scratchT(exec::convChainShapeT(cfg))
    {
        Rng rng(seed);
        fillUniform(input, rng);
        fillUniform(w1, rng);
        fillUniform(w2, rng);
    }

    Tensor input, w1, w2, output, scratchT;
};

/** Best-of timed fused GEMM chain run, seconds. */
inline double
timeFusedGemmChain(const ir::GemmChainConfig &cfg,
                   const plan::ExecutionPlan &plan,
                   const exec::ComputeEngine &engine, GemmChainData &data,
                   int repeats = kRepeats,
                   const exec::ExecOptions &options = {})
{
    return bestOfSeconds(
        [&] {
            exec::runFusedGemmChain(cfg, plan, engine, data.a, data.b,
                                    data.d, data.e, options);
        },
        repeats);
}

/** Best-of timed unfused GEMM chain run, seconds. */
inline double
timeUnfusedGemmChain(const ir::GemmChainConfig &cfg,
                     const exec::ComputeEngine &engine, GemmChainData &data,
                     const exec::GemmTiles &tiles1,
                     const exec::GemmTiles &tiles2, int repeats = kRepeats,
                     const exec::ExecOptions &options = {})
{
    return bestOfSeconds(
        [&] {
            exec::runUnfusedGemmChain(cfg, engine, data.a, data.b, data.d,
                                      data.scratchC, data.e, tiles1,
                                      tiles2, options);
        },
        repeats);
}

/** Per-GEMM tiles solved analytically (the tuned-library proxy). */
inline exec::GemmTiles
solvedGemmTiles(std::int64_t batch, std::int64_t m, std::int64_t n,
                std::int64_t k)
{
    const ir::Chain chain = ir::makeSingleGemm(batch, m, n, k);
    const plan::ExecutionPlan plan = planCpu(chain);
    exec::GemmTiles tiles;
    for (int a = 0; a < chain.numAxes(); ++a) {
        const std::string &name =
            chain.axes()[static_cast<std::size_t>(a)].name;
        const std::int64_t tile =
            plan.tiles[static_cast<std::size_t>(a)];
        if (name == "m") {
            tiles.tm = tile;
        } else if (name == "n") {
            tiles.tn = tile;
        } else if (name == "k") {
            tiles.tk = tile;
        }
    }
    return tiles;
}

/** Prints a section header for a bench. */
inline void
printHeader(const std::string &title, const std::string &subtitle)
{
    std::printf("=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
}

} // namespace chimera::bench
