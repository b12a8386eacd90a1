/**
 * @file
 * chimera-check: static legality verifier for chains and plan documents.
 *
 * Describes a chain the same way chimera-plan does, audits the chain IR
 * (rules CH01-CH07), then audits either a plan document supplied with
 * --plan or the planner's own winning schedule (rules PL01-PL14, one
 * SB01-SB04 pass at the certificate's domain or the concrete shape, and
 * the DP04 over-serialization warning), and optionally the micro-kernel
 * register tile (KP01-KP03). Prints every finding as "severity: [rule]
 * location: message" and exits non-zero when any error-severity finding
 * was reported. A chain with no schedule that fits --capacity is an
 * input error, not a finding: exit 2, like bad usage.
 *
 * With --race the tool additionally *executes* the fused chain (gemm,
 * gemm3 and conv modes; dsl chains have no executor) under a
 * shadow-memory race checker: every block task tags the output
 * elements it writes, and two distinct tasks claiming the same element
 * is reported as rule RC01. Detection is
 * keyed on the deterministic block-task index, so the suspect plan is
 * run serially — a mis-declared parallel axis is caught without ever
 * racing for real. This is the dynamic complement of SB04: SB04 says
 * the declared table marks parallel an axis the analysis cannot prove
 * disjoint, RC01 says the mis-declaration produces conflicting writers
 * in practice.
 * RC01 is reported only for observed conflicts.
 *
 * --static and --race run on one resolved plan: the --plan document,
 * read and bound once by verify::verifyPlanDocument (it resolves
 * exactly when plan::deserializePlan would accept it, mis-declared
 * concurrency tables included), else the planner's winner. Without
 * one, each prints "skipped (no resolvable plan)".
 *
 * With --search the tool replays the planner's pruned order search
 * against exhaustive enumeration (rules OE01-OE03,
 * src/verify/search_verifier.hpp): the pruned search must select the
 * bitwise-identical plan, sampled symmetry-class members must solve
 * identically to their representatives, and every solved order must
 * respect its certified lower bound. --prune picks the audited mode
 * (none/symmetry/dominance, default dominance).
 *
 * With --static the tool runs the symbolic plan-safety analyzer (rules
 * SB01-SB04, src/analysis/static_safety.hpp) on the resolved plan:
 * shape-generic bounds containment, workspace budgeting, int64
 * overflow-freedom and race-freedom, proven over a shape domain rather
 * than observed on one shape. --domain axis=max (repeatable) widens an
 * axis to [1, max]; the default domain pins every axis to its concrete
 * extent. A certified plan prints its certificate line plus a
 * machine-parseable per-rule timing line. Findings the plain
 * verification's SB pass already reported are not repeated.
 *
 * Usage:
 *   chimera-check gemm <batch> <M> <N> <K> <L> [options]
 *   chimera-check gemm3 <batch> <M> <N> <K> <L> <P> [options]
 *   chimera-check conv <batch> <IC> <H> <W> <OC1> <OC2> <k1> <k2> \
 *                      <stride1> <stride2> [options]
 *   chimera-check dsl '<einsum statements>' idx=extent... [options]
 * Options:
 *   --plan <file>        verify the plan document instead of planning
 *   --fingerprint <hex>  expected fingerprint for --plan (rule PL10)
 *   --capacity <bytes>   on-chip budget for PL07/SB02 (default 786432)
 *   --softmax | --relu   fuse that epilogue on the intermediate
 *   --registers <N>      also audit the selected micro-kernel params
 *   --no-recount         skip the brute-force Algorithm-1 recount (PL09)
 *   --threads <N>        planner threads when planning fresh
 *   --race               execute the fused chain under the shadow-memory
 *                        race checker (gemm/gemm3/conv; rule RC01)
 *   --search             replay the pruned order search against
 *                        exhaustive enumeration (OE01-OE03)
 *   --prune <mode>       pruning mode for --search: none, symmetry or
 *                        dominance (default)
 *   --static             run the symbolic safety analyzer (SB01-SB04)
 *   --domain axis=max    widen one axis of the --static shape domain to
 *                        [1, max] (repeatable)
 *
 * Exit status: 0 clean (warnings allowed), 1 rule violations found,
 * 2 usage or IO failure (unreadable plan file, bad --domain axis, ...).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>

#include "analysis/race_checker.hpp"
#include "exec/constraints.hpp"
#include "exec/conv_chain_exec.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "ir/builders.hpp"
#include "ir/dsl.hpp"
#include "kernels/kernel_params.hpp"
#include "plan/planner.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "verify/chain_verifier.hpp"
#include "verify/plan_verifier.hpp"
#include "verify/safety_verifier.hpp"
#include "verify/search_verifier.hpp"

namespace {

using namespace chimera;

struct CliOptions
{
    double capacityBytes = 768.0 * 1024;
    ir::Epilogue epilogue = ir::Epilogue::None;
    std::string planFile;
    std::string fingerprint;
    int registers = 0; // 0 = skip the kernel-params audit
    bool recount = true;
    int threads = 0;
    bool race = false;
    bool search = false;
    analysis::PruneMode prune = analysis::PruneMode::Dominance;
    bool staticSafety = false;
    std::map<std::string, std::int64_t> safetyDomain; // axis -> max
};

/** Executes one planned schedule under a RaceChecker; empty for dsl. */
using RaceScan =
    std::function<verify::Report(const plan::ExecutionPlan &)>;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: chimera-check gemm <batch> <M> <N> <K> <L> [options]\n"
        "       chimera-check gemm3 <batch> <M> <N> <K> <L> <P>"
        " [options]\n"
        "       chimera-check conv <batch> <IC> <H> <W> <OC1> <OC2>"
        " <k1> <k2> <st1> <st2> [options]\n"
        "       chimera-check dsl '<einsum statements>' idx=extent..."
        " [options]\n"
        "options: --plan <file> --fingerprint <hex> --capacity <bytes>"
        " --softmax --relu --registers <N> --no-recount --threads <N>"
        " --race (gemm/gemm3/conv) --search"
        " --prune none|symmetry|dominance --static --domain axis=max\n");
    std::exit(2);
}

CliOptions
parseOptions(int argc, char **argv, int firstOption)
{
    CliOptions options;
    for (int i = firstOption; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--plan" && i + 1 < argc) {
            options.planFile = argv[++i];
        } else if (arg == "--fingerprint" && i + 1 < argc) {
            options.fingerprint = argv[++i];
        } else if (arg == "--capacity" && i + 1 < argc) {
            options.capacityBytes = std::atof(argv[++i]);
        } else if (arg == "--softmax") {
            options.epilogue = ir::Epilogue::Softmax;
        } else if (arg == "--relu") {
            options.epilogue = ir::Epilogue::Relu;
        } else if (arg == "--registers" && i + 1 < argc) {
            options.registers = std::atoi(argv[++i]);
        } else if (arg == "--no-recount") {
            options.recount = false;
        } else if (arg == "--race") {
            options.race = true;
        } else if (arg == "--search") {
            options.search = true;
        } else if (arg == "--prune" && i + 1 < argc) {
            const std::optional<analysis::PruneMode> mode =
                analysis::parsePruneMode(argv[++i]);
            if (!mode) {
                usage();
            }
            options.prune = *mode;
        } else if (arg == "--static") {
            options.staticSafety = true;
        } else if (arg == "--domain" && i + 1 < argc) {
            const std::string spec = argv[++i];
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= spec.size()) {
                usage();
            }
            const std::int64_t maxExtent =
                std::atoll(spec.c_str() + eq + 1);
            if (maxExtent < 1) {
                usage();
            }
            options.safetyDomain[spec.substr(0, eq)] = maxExtent;
        } else if (arg == "--threads" && i + 1 < argc) {
            options.threads = std::atoi(argv[++i]);
        } else {
            usage();
        }
    }
    return options;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        return std::nullopt;
    }
    std::string contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
        contents.append(buffer, n);
    }
    const bool ok = std::ferror(file) == 0;
    std::fclose(file);
    if (!ok) {
        return std::nullopt;
    }
    return contents;
}

verify::PlanVerifyOptions
verifyOptions(const CliOptions &options)
{
    verify::PlanVerifyOptions vo;
    vo.memCapacityBytes = options.capacityBytes;
    vo.recount = options.recount;
    return vo;
}

/** Plans the chain fresh and audits the winner. */
verify::Report
checkFreshPlan(const ir::Chain &chain,
               const solver::TileConstraints &constraints,
               const CliOptions &options,
               std::optional<plan::ExecutionPlan> &resolved)
{
    verify::Report report;
    plan::PlannerOptions po;
    po.memCapacityBytes = options.capacityBytes;
    po.constraints = constraints;
    po.threads = options.threads;
    po.verify = false; // we are the verifier; report, don't throw
    try {
        const plan::ExecutionPlan plan = plan::planChain(chain, po);
        std::printf("plan:  order %s, %d candidates solved\n",
                    plan::orderString(chain, plan.perm).c_str(),
                    plan.candidatesExamined);
        report.merge(verify::verifyExecutionPlan(chain, plan,
                                                 verifyOptions(options)));
        resolved = plan;
    } catch (const plan::InfeasiblePlanError &) {
        throw; // an input error (chain or --capacity), exit 2 via main
    } catch (const Error &e) {
        report.error("PL05", "planner",
                     std::string("planning failed: ") + e.what());
    }
    return report;
}

/**
 * The --static pass: runs the symbolic safety analyzer over the
 * resolved plan and the CLI-assembled shape domain, reporting SB
 * violations into @p report and printing the certificate plus a
 * machine-parseable per-rule timing line (consumed by CI's analyzer
 * timing artifact). A bad --domain axis throws out of
 * verifyPlanSafety — a CLI input defect, exit status 2.
 */
void
runStaticSafety(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                const CliOptions &options, verify::Report &report)
{
    verify::SafetyVerifyOptions so;
    so.memCapacityBytes = options.capacityBytes;
    so.workers = std::max(1, options.threads);
    std::string spec;
    for (const auto &[axis, maxExtent] : options.safetyDomain) {
        if (!spec.empty()) {
            spec += ",";
        }
        spec += axis + ":1.." + std::to_string(maxExtent);
    }
    so.domainSpec = spec;
    analysis::SafetyAnalysis analysis;
    const verify::Report found =
        verify::verifyPlanSafety(chain, plan, so, &analysis);
    for (const verify::Finding &f : found.findings()) {
        const bool known = std::any_of(
            report.findings().begin(), report.findings().end(),
            [&f](const verify::Finding &g) {
                return g.ruleId == f.ruleId && g.location == f.location &&
                       g.message == f.message;
            });
        if (!known) {
            report.add(f);
        }
    }
    if (analysis.certificate.certified) {
        std::printf("static-safety: certified domain=%s digest=%s\n",
                    analysis.certificate.domain.c_str(),
                    analysis.certificate.digest.c_str());
    } else {
        std::printf("static-safety: refuted domain=%s (%zu"
                    " violation(s))\n",
                    analysis.certificate.domain.c_str(),
                    analysis.violations.size());
    }
    std::printf("static-safety timing: sb01 %.3f ms sb02 %.3f ms"
                " sb03 %.3f ms sb04 %.3f ms total %.3f ms\n",
                analysis.ruleSeconds[0] * 1e3,
                analysis.ruleSeconds[1] * 1e3,
                analysis.ruleSeconds[2] * 1e3,
                analysis.ruleSeconds[3] * 1e3,
                analysis.totalSeconds * 1e3);
}

/**
 * The --search pass: replays the pruned order search against exhaustive
 * enumeration (verify::replaySearch) and prints both outcomes plus the
 * search stats of the pruned run. OE01-OE03 findings land in
 * @p report; a planner failure is an environment problem and exits 2
 * through main's catch.
 */
void
runSearchReplay(const ir::Chain &chain,
                const solver::TileConstraints &constraints,
                const CliOptions &options, verify::Report &report)
{
    plan::PlannerOptions po;
    po.memCapacityBytes = options.capacityBytes;
    po.constraints = constraints;
    po.threads = options.threads;
    po.prune = options.prune;
    const verify::SearchReplay replay =
        verify::replaySearch(chain, po);
    const analysis::SearchStats &s = replay.pruned.search;
    std::printf(
        "search: mode=%s order %s — solved %lld of %lld enumerated"
        " (filtered %lld, symmetry %lld, dominance %lld%s)\n",
        analysis::pruneModeName(s.mode),
        plan::orderString(chain, replay.pruned.perm).c_str(),
        static_cast<long long>(s.solved),
        static_cast<long long>(s.enumerated),
        static_cast<long long>(s.filtered),
        static_cast<long long>(s.symmetryPruned),
        static_cast<long long>(s.dominancePruned),
        s.truncated ? "; truncated" : "");
    std::printf(
        "search: exhaustive order %s — solved %lld of %lld enumerated\n",
        plan::orderString(chain, replay.exhaustive.perm).c_str(),
        static_cast<long long>(replay.exhaustive.search.solved),
        static_cast<long long>(replay.exhaustive.search.enumerated));
    if (replay.pruned.perm == replay.exhaustive.perm &&
               replay.pruned.tiles == replay.exhaustive.tiles) {
        std::printf("search: pruned and exhaustive argmin agree\n");
    }
    report.merge(replay.report);
}

/**
 * One --race scan: fills @p inputs with seeded data, runs @p execute
 * serially (detection is keyed on the block-task index) under a
 * RaceChecker armed over @p output, and reports its conflicts as RC01 —
 * the only place that rule is reported — or prints the clean summary.
 */
verify::Report
scanForRaces(std::initializer_list<Tensor *> inputs, const Tensor &output,
             const std::function<void(const exec::ExecOptions &)> &execute)
{
    Rng rng(42);
    for (Tensor *input : inputs) {
        fillUniform(*input, rng);
    }
    analysis::RaceChecker checker(output.numel());
    exec::ExecOptions eo;
    eo.threads = 1;
    eo.raceCheck = &checker;
    execute(eo);
    verify::Report report;
    if (checker.hasConflicts()) {
        report.error("RC01", "race", checker.report());
    } else {
        std::printf("race:  no conflicting writers observed\n");
    }
    return report;
}

int
run(const ir::Chain &chain, const solver::TileConstraints &constraints,
    const CliOptions &options, const RaceScan &raceScan = {})
{
    std::printf("chain: %s (%d axes, %zu ops, %zu tensors)\n",
                chain.name().c_str(), chain.numAxes(), chain.ops().size(),
                chain.tensors().size());

    if (options.race && !raceScan) {
        std::fprintf(stderr,
                     "--race needs an executable chain (gemm, gemm3 or"
                     " conv mode)\n");
        usage();
    }

    verify::Report report = verify::verifyChain(chain);
    const bool chainBroken = report.hasErrors();
    std::optional<plan::ExecutionPlan> resolved;
    if (chainBroken) {
        std::printf("chain IR is ill-formed; skipping plan checks\n");
    } else if (!options.planFile.empty()) {
        // An unreadable file is an IO failure, not a rule violation:
        // exit 2 through main's catch.
        const std::optional<std::string> text = readFile(options.planFile);
        if (!text) {
            throw Error("cannot read plan file " + options.planFile);
        }
        report.merge(verify::verifyPlanDocument(chain, *text,
                                                options.fingerprint,
                                                verifyOptions(options),
                                                &resolved));
    } else {
        report.merge(checkFreshPlan(chain, constraints, options, resolved));
    }

    if (options.staticSafety && !chainBroken) {
        if (resolved) {
            runStaticSafety(chain, *resolved, options, report);
        } else {
            std::printf("static-safety: skipped (no resolvable plan)\n");
        }
    }

    if (options.search && !chainBroken) {
        runSearchReplay(chain, constraints, options, report);
    }

    // A scan that throws on a resolved plan is an environment failure,
    // not a race: it exits 2 through main's catch.
    if (options.race && !chainBroken) {
        if (resolved) {
            report.merge(raceScan(*resolved));
        } else {
            std::printf("race:  skipped (no resolvable plan)\n");
        }
    }

    if (options.registers > 0) {
        report.merge(verify::verifyKernelParams(
            kernels::selectCpuKernelParams(options.registers),
            options.registers));
    }

    const std::string rendered = report.render();
    if (!rendered.empty()) {
        std::printf("%s\n", rendered.c_str());
    }
    if (report.hasErrors()) {
        std::printf("chimera-check: %d error(s), %d warning(s)\n",
                    report.errorCount(), report.warningCount());
        return 1;
    }
    if (report.warningCount() > 0) {
        std::printf("chimera-check: clean (%d warning(s))\n",
                    report.warningCount());
    } else {
        std::printf("chimera-check: clean\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
    }
    const std::string mode = argv[1];
    const auto &kernel =
        kernels::MicroKernelRegistry::instance().select(detectSimdTier());

    try {
        if (mode == "gemm" && argc >= 7) {
            const CliOptions options = parseOptions(argc, argv, 7);
            ir::GemmChainConfig cfg;
            cfg.name = "check-gemm-chain";
            cfg.batch = std::atoll(argv[2]);
            cfg.m = std::atoll(argv[3]);
            cfg.n = std::atoll(argv[4]);
            cfg.k = std::atoll(argv[5]);
            cfg.l = std::atoll(argv[6]);
            cfg.epilogue = options.epilogue;
            if (cfg.epilogue == ir::Epilogue::Softmax) {
                cfg.softmaxScale =
                    1.0f / std::sqrt(static_cast<float>(cfg.k));
            }
            const ir::Chain chain = ir::makeGemmChain(cfg);
            const RaceScan scan =
                [&cfg](const plan::ExecutionPlan &plan) {
                    Tensor a(exec::gemmChainShapeA(cfg));
                    Tensor b(exec::gemmChainShapeB(cfg));
                    Tensor d(exec::gemmChainShapeD(cfg));
                    Tensor e(exec::gemmChainShapeE(cfg));
                    return scanForRaces(
                        {&a, &b, &d}, e, [&](const exec::ExecOptions &eo) {
                            exec::runFusedGemmChain(
                                cfg, plan, exec::ComputeEngine::best(), a,
                                b, d, e, eo);
                        });
                };
            return run(chain, exec::cpuChainConstraints(chain, kernel),
                       options, scan);
        }
        if (mode == "gemm3" && argc >= 8) {
            const CliOptions options = parseOptions(argc, argv, 8);
            ir::GemmChain3Config cfg;
            cfg.name = "check-gemm3-chain";
            cfg.batch = std::atoll(argv[2]);
            cfg.m = std::atoll(argv[3]);
            cfg.n = std::atoll(argv[4]);
            cfg.k = std::atoll(argv[5]);
            cfg.l = std::atoll(argv[6]);
            cfg.p = std::atoll(argv[7]);
            cfg.epilogue = options.epilogue;
            if (cfg.epilogue == ir::Epilogue::Softmax) {
                cfg.softmaxScale =
                    1.0f / std::sqrt(static_cast<float>(cfg.k));
            }
            const ir::Chain chain = ir::makeGemmChain3(cfg);
            const RaceScan scan =
                [&cfg](const plan::ExecutionPlan &plan) {
                    Tensor a(exec::gemmChain3ShapeA(cfg));
                    Tensor b(exec::gemmChain3ShapeB(cfg));
                    Tensor d(exec::gemmChain3ShapeD(cfg));
                    Tensor f(exec::gemmChain3ShapeF(cfg));
                    Tensor e(exec::gemmChain3ShapeE(cfg));
                    return scanForRaces(
                        {&a, &b, &d, &f}, e,
                        [&](const exec::ExecOptions &eo) {
                            exec::runFusedGemmChain3(
                                cfg, plan, exec::ComputeEngine::best(), a,
                                b, d, f, e, eo);
                        });
                };
            return run(chain, exec::gemmChain3Constraints(chain, kernel),
                       options, scan);
        }
        if (mode == "conv" && argc >= 12) {
            const CliOptions options = parseOptions(argc, argv, 12);
            ir::ConvChainConfig cfg;
            cfg.name = "check-conv-chain";
            cfg.batch = std::atoll(argv[2]);
            cfg.ic = std::atoll(argv[3]);
            cfg.h = std::atoll(argv[4]);
            cfg.w = std::atoll(argv[5]);
            cfg.oc1 = std::atoll(argv[6]);
            cfg.oc2 = std::atoll(argv[7]);
            cfg.k1 = std::atoi(argv[8]);
            cfg.k2 = std::atoi(argv[9]);
            cfg.stride1 = std::atoi(argv[10]);
            cfg.stride2 = std::atoi(argv[11]);
            cfg.epilogue = options.epilogue;
            const ir::Chain chain = ir::makeConvChain(cfg);
            const RaceScan scan =
                [&cfg](const plan::ExecutionPlan &plan) {
                    Tensor input(exec::convChainShapeI(cfg));
                    Tensor w1(exec::convChainShapeW1(cfg));
                    Tensor w2(exec::convChainShapeW2(cfg));
                    Tensor output(exec::convChainShapeO(cfg));
                    return scanForRaces(
                        {&input, &w1, &w2}, output,
                        [&](const exec::ExecOptions &eo) {
                            exec::runFusedConvChain(
                                cfg, plan, exec::ComputeEngine::best(),
                                input, w1, w2, output, eo);
                        });
                };
            return run(chain, exec::cpuChainConstraints(chain, kernel),
                       options, scan);
        }
        if (mode == "dsl" && argc >= 3) {
            std::map<std::string, std::int64_t> extents;
            int firstOption = argc;
            for (int i = 3; i < argc; ++i) {
                const std::string arg = argv[i];
                if (arg.rfind("--", 0) == 0) {
                    firstOption = i;
                    break;
                }
                const std::size_t eq = arg.find('=');
                if (eq == std::string::npos) {
                    usage();
                }
                extents[arg.substr(0, eq)] =
                    std::atoll(arg.c_str() + eq + 1);
            }
            const CliOptions options =
                parseOptions(argc, argv, firstOption);
            const ir::Chain chain =
                ir::parseEinsumChain(argv[2], extents, "check-dsl-chain");
            return run(chain, plan::alphaConstraints(chain, 16), options);
        }
        usage();
    } catch (const chimera::Error &e) {
        // Errors that escape to here are environment/usage failures
        // (unreadable plan file, unknown --domain axis, chain-builder
        // misuse) — not rule violations, which exit 1 above. CI and the
        // sweep scripts rely on the distinction.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
