#include "verify/plan_verifier.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "model/data_movement.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "verify/safety_verifier.hpp"

namespace chimera::verify {

using ir::AxisId;
using ir::Chain;
using ir::OpDecl;
using ir::TensorDecl;
using ir::TensorKind;

namespace {

std::string
formatDouble(double v)
{
    // Predictions are byte counts; print them integral when they are.
    if (v == std::floor(v) && std::abs(v) < 9e15) {
        return std::to_string(static_cast<std::int64_t>(v));
    }
    return std::to_string(v);
}

/**
 * Tolerance for comparing a declared prediction against the re-derived
 * value: serialization truncates doubles to whole bytes, so allow the
 * rounding slack plus a relative epsilon for large volumes.
 */
bool
predictionsDiffer(double declared, double rederived)
{
    const double tolerance =
        std::max(2.0, 1e-6 * std::abs(rederived));
    return std::abs(declared - rederived) > tolerance;
}

/**
 * PL03: @p perm must be a permutation of all chain axes. Returns true
 * when it is (the model evaluation below needs that to hold).
 */
bool
checkPermutation(const Chain &chain, const std::vector<AxisId> &perm,
                 Report &report)
{
    bool ok = true;
    if (static_cast<int>(perm.size()) != chain.numAxes()) {
        report.error("PL03", "order",
                     "order lists " + std::to_string(perm.size()) +
                         " axes but the chain has " +
                         std::to_string(chain.numAxes()));
        ok = false;
    }
    std::vector<int> seen(static_cast<std::size_t>(chain.numAxes()), 0);
    for (AxisId axis : perm) {
        if (axis < 0 || axis >= chain.numAxes()) {
            report.error("PL03", "order",
                         "order references unknown axis id " +
                             std::to_string(axis));
            ok = false;
            continue;
        }
        if (++seen[static_cast<std::size_t>(axis)] == 2) {
            report.error("PL03", "order",
                         "axis " + chain.axisName(axis) +
                             " appears more than once");
            ok = false;
        }
    }
    return ok;
}

/** PL04/PL05: tile vector arity and per-axis [1, extent] range. */
bool
checkTiles(const Chain &chain, const std::vector<std::int64_t> &tiles,
           Report &report)
{
    if (static_cast<int>(tiles.size()) != chain.numAxes()) {
        report.error("PL05", "tiles",
                     "tile vector has " + std::to_string(tiles.size()) +
                         " entries but the chain has " +
                         std::to_string(chain.numAxes()) + " axes");
        return false;
    }
    bool ok = true;
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const std::int64_t tile = tiles[static_cast<std::size_t>(a)];
        const std::int64_t extent =
            chain.axes()[static_cast<std::size_t>(a)].extent;
        if (tile < 1 || tile > extent) {
            report.error("PL04", "tiles." + chain.axisName(a),
                         "tile " + std::to_string(tile) +
                             " is outside [1, " + std::to_string(extent) +
                             "]");
            ok = false;
        }
    }
    return ok;
}

/**
 * PL03-PL07 and PL09. Returns the re-derived movement, so callers can
 * compare declared predictions, when the order and tiles are
 * structurally valid (no PL03/PL04/PL05); nullopt otherwise.
 */
std::optional<model::DataMovement>
checkSchedule(const Chain &chain, const std::vector<AxisId> &perm,
              const std::vector<std::int64_t> &tiles,
              const PlanVerifyOptions &options, Report &report)
{
    const bool permOk = checkPermutation(chain, perm, report);
    const bool tilesOk = checkTiles(chain, tiles, report);
    if (!permOk || !tilesOk) {
        return std::nullopt;
    }
    if (options.requireExecutableOrder &&
        !model::isExecutableOrder(chain, perm, tiles)) {
        report.error("PL06", "order",
                     "block order is not executable with single on-chip"
                     " intermediate regions (an outer loop revisits an"
                     " intermediate region after eviction)");
    }

    const model::DataMovement dm =
        model::computeDataMovement(chain, perm, tiles, options.model);
    if (options.memCapacityBytes > 0.0 &&
        static_cast<double>(dm.memUsageBytes) > options.memCapacityBytes) {
        report.error(
            "PL07", "mem-bytes",
            "re-derived memory usage " +
                std::to_string(dm.memUsageBytes) +
                " B exceeds the capacity " +
                formatDouble(options.memCapacityBytes) + " B");
    }

    if (options.recount) {
        const std::optional<model::DataMovement> recount =
            bruteForceDataMovement(chain, perm, tiles, options.model,
                                   options.recountMaxBlocks);
        if (!recount) {
            report.note("PL09", "volume-bytes",
                        "block grid too large for the brute-force"
                        " recount; skipped");
        } else {
            for (std::size_t t = 0; t < chain.tensors().size(); ++t) {
                const double algo = dm.perTensorBytes[t];
                const double brute = recount->perTensorBytes[t];
                if (std::abs(algo - brute) > 0.5) {
                    report.error(
                        "PL09",
                        "tensor " + chain.tensors()[t].name,
                        "Algorithm 1 predicts " + formatDouble(algo) +
                            " B moved but the brute-force recount"
                            " measures " +
                            formatDouble(brute) + " B");
                }
            }
            if (recount->memUsageBytes != dm.memUsageBytes) {
                report.error(
                    "PL09", "mem-bytes",
                    "Algorithm 1 predicts " +
                        std::to_string(dm.memUsageBytes) +
                        " B peak usage but the independent recount"
                        " measures " +
                        std::to_string(recount->memUsageBytes) + " B");
            }
        }
    }
    return dm;
}

/**
 * PL13 structural checks of a chunking declaration: grain arity,
 * positivity, and Parallel-only grains (> 1 on a reduction/sequential
 * axis would regroup its serial walk). @p kinds must have chain arity.
 * Returns false when the grain vector has the wrong arity (nothing
 * downstream can index it).
 */
bool
checkChunking(const Chain &chain, int plannedThreads,
              const std::vector<std::int64_t> &grain,
              const std::vector<analysis::AxisConcurrency> &kinds,
              Report &report)
{
    if (plannedThreads < 1) {
        report.error("PL13", "threads",
                     "planned thread count " +
                         std::to_string(plannedThreads) + " must be >= 1");
    }
    if (grain.empty()) {
        return true;
    }
    if (static_cast<int>(grain.size()) != chain.numAxes()) {
        report.error("PL13", "grain",
                     "grain vector has " + std::to_string(grain.size()) +
                         " entries but the chain has " +
                         std::to_string(chain.numAxes()) + " axes");
        return false;
    }
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const std::int64_t g = grain[static_cast<std::size_t>(a)];
        if (g < 1) {
            report.error("PL13", "grain." + chain.axisName(a),
                         "grain " + std::to_string(g) + " must be >= 1");
        } else if (g > 1 &&
                   kinds[static_cast<std::size_t>(a)] !=
                       analysis::AxisConcurrency::Parallel) {
            report.error(
                "PL13", "grain." + chain.axisName(a),
                "grain " + std::to_string(g) + " on axis " +
                    chain.axisName(a) +
                    " which is " +
                    analysis::concurrencyName(
                        kinds[static_cast<std::size_t>(a)]) +
                    ", not parallel — only proven-parallel axes may be"
                    " chunked");
        }
    }
    return true;
}

/**
 * PL13 capacity check: every one of @p workers concurrent workers keeps
 * a full tile working set resident, so the footprint must fit one
 * worker's share of the topology's tightest shared level.
 */
void
checkPerWorkerShare(std::int64_t memUsageBytes, int workers,
                    const model::MachineModel &topology, Report &report)
{
    if (workers <= 1 || !topology.hasTopology()) {
        return;
    }
    const double share =
        model::minSharedPerWorkerCapacityBytes(topology, workers);
    if (static_cast<double>(memUsageBytes) > share) {
        report.error(
            "PL13", "mem-bytes",
            "per-worker footprint " + std::to_string(memUsageBytes) +
                " B exceeds one of " + std::to_string(workers) +
                " workers' share (" + formatDouble(share) +
                " B) of machine " + topology.name +
                "'s tightest shared level");
    }
}

/**
 * DP04: an axis @p declared reduction or sequential that @p derived
 * (the SB pass's classification) proves parallel is sound but
 * serializes independent work. Executors ignore a table without one
 * entry per axis (hand-assembled plans, documents without a concurrency
 * line) and analyze fresh, so there is nothing to compare.
 */
void
checkOverSerialization(const Chain &chain,
                       const std::vector<analysis::AxisConcurrency> &declared,
                       const analysis::ConcurrencyTable &derived,
                       Report &report)
{
    if (static_cast<int>(declared.size()) != chain.numAxes()) {
        return;
    }
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const analysis::AxisConcurrency want =
            declared[static_cast<std::size_t>(a)];
        if (want == analysis::AxisConcurrency::Parallel ||
            !derived.isParallel(a)) {
            continue;
        }
        report.warning("DP04", "concurrency." + chain.axisName(a),
                       "axis " + chain.axisName(a) + " is declared " +
                           analysis::concurrencyName(want) +
                           " but the analysis proves it parallel — sound,"
                           " but over-serialized (" +
                           derived.axes[static_cast<std::size_t>(a)].reason +
                           ")");
    }
}

/** PL08: declared predictions against the re-derived values. */
void
checkDeclaredPredictions(const model::DataMovement &dm,
                         double declaredVolume, bool haveVolume,
                         std::int64_t declaredMem, bool haveMem,
                         Report &report)
{
    if (haveVolume && predictionsDiffer(declaredVolume, dm.volumeBytes)) {
        report.error("PL08", "volume-bytes",
                     "declared volume " + formatDouble(declaredVolume) +
                         " B disagrees with the re-derived " +
                         formatDouble(dm.volumeBytes) + " B");
    }
    if (haveMem &&
        predictionsDiffer(static_cast<double>(declaredMem),
                          static_cast<double>(dm.memUsageBytes))) {
        report.error("PL08", "mem-bytes",
                     "declared memory usage " +
                         std::to_string(declaredMem) +
                         " B disagrees with the re-derived " +
                         std::to_string(dm.memUsageBytes) + " B");
    }
}

/**
 * verifyExecutionPlan's checks, with PL08 limited to the predictions
 * the plan declares (@p haveVolume / @p haveMem: a plan document may
 * omit either line). Returns what checkSchedule returns.
 */
std::optional<model::DataMovement>
checkExecutionPlan(const Chain &chain, const plan::ExecutionPlan &plan,
                   const PlanVerifyOptions &options, bool haveVolume,
                   bool haveMem, Report &report)
{
    const std::optional<model::DataMovement> dm =
        checkSchedule(chain, plan.perm, plan.tiles, options, report);
    if (!dm) {
        return dm;
    }
    checkDeclaredPredictions(*dm, plan.predictedVolumeBytes, haveVolume,
                             plan.memUsageBytes, haveMem, report);
    // PL13: chunking structure against the classes the executors will
    // actually obey, then the per-worker LLC share.
    const bool grainOk =
        checkChunking(chain, plan.plannedThreads, plan.parallelGrain,
                      plan::effectiveConcurrency(chain, plan), report);
    const int workers = plan.plannedThreads > 1 ? plan.plannedThreads
                                                : options.plannedThreads;
    checkPerWorkerShare(dm->memUsageBytes, workers, options.topology,
                        report);
    if (!grainOk) {
        return dm;
    }
    // One SB pass per plan: PL14's re-proof over a certified plan's own
    // domain, else the concrete shape. SB04 is what refutes a table that
    // marks parallel an axis the dependence analysis does not prove
    // parallel (PlanCache lookups audit through here too).
    SafetyVerifyOptions so;
    so.memCapacityBytes = options.memCapacityBytes;
    so.topology = options.topology;
    so.workers = workers;
    analysis::SafetyAnalysis sa;
    report.merge(verifySafety(chain, plan, so, &sa));
    checkOverSerialization(chain, plan.concurrency, sa.concurrency, report);
    return dm;
}

} // namespace

PlanVerifyOptions
planVerifyOptions(const plan::PlannerOptions &options)
{
    PlanVerifyOptions vo;
    vo.memCapacityBytes = options.memCapacityBytes;
    vo.requireExecutableOrder = options.onlyExecutableOrders;
    vo.model = options.model;
    vo.plannedThreads = options.execThreads;
    vo.topology = options.topology;
    return vo;
}

std::optional<model::DataMovement>
bruteForceDataMovement(const Chain &chain, const std::vector<AxisId> &perm,
                       const std::vector<std::int64_t> &tiles,
                       const model::ModelOptions &options,
                       std::int64_t maxBlocksPerOp)
{
    model::DataMovement result;
    result.perTensorBytes.assign(chain.tensors().size(), 0.0);

    for (const OpDecl &op : chain.ops()) {
        // The operator's block loops, outermost first, with trip counts.
        std::vector<std::int64_t> blocks;
        std::vector<AxisId> opAxes;
        std::int64_t steps = 1;
        for (AxisId axis : perm) {
            if (!op.usesLoop(axis)) {
                continue;
            }
            const auto a = static_cast<std::size_t>(axis);
            const std::int64_t count =
                ceilDiv(chain.axes()[a].extent, tiles[a]);
            opAxes.push_back(axis);
            blocks.push_back(count);
            if (steps > maxBlocksPerOp / std::max<std::int64_t>(count, 1)) {
                return std::nullopt;
            }
            steps *= count;
        }
        if (steps > maxBlocksPerOp) {
            return std::nullopt;
        }

        // Peak usage: every operand tile resident at once.
        std::int64_t footprintBytes = 0;
        for (int t : op.tensorIds) {
            const TensorDecl &tensor =
                chain.tensors()[static_cast<std::size_t>(t)];
            footprintBytes +=
                tensor.footprintElems(tiles) * tensor.elementSize;
        }
        result.memUsageBytes =
            std::max(result.memUsageBytes, footprintBytes);

        // One simulated on-chip slot per counted tensor: walk every
        // block of the nest in execution order and reload the tensor's
        // tile whenever the block's projection onto the tensor's axes
        // differs from what is resident.
        for (int t : op.tensorIds) {
            const TensorDecl &tensor =
                chain.tensors()[static_cast<std::size_t>(t)];
            const bool counted = options.intermediatesAreIO ||
                                 tensor.kind != TensorKind::Intermediate;
            if (!counted) {
                continue;
            }
            std::vector<char> accessed(opAxes.size(), 0);
            for (std::size_t i = 0; i < opAxes.size(); ++i) {
                accessed[i] = tensor.usesAxis(opAxes[i]) ? 1 : 0;
            }

            std::vector<std::int64_t> idx(opAxes.size(), 0);
            std::vector<std::int64_t> resident(opAxes.size(), -1);
            std::int64_t loads = 0;
            for (std::int64_t step = 0; step < steps; ++step) {
                bool match = true;
                for (std::size_t i = 0; i < opAxes.size(); ++i) {
                    if (accessed[i] != 0 && resident[i] != idx[i]) {
                        match = false;
                        break;
                    }
                }
                if (!match) {
                    ++loads;
                    for (std::size_t i = 0; i < opAxes.size(); ++i) {
                        if (accessed[i] != 0) {
                            resident[i] = idx[i];
                        }
                    }
                }
                // Odometer increment, innermost loop fastest.
                for (std::size_t d = opAxes.size(); d-- > 0;) {
                    if (++idx[d] < blocks[d]) {
                        break;
                    }
                    idx[d] = 0;
                }
            }
            if (steps > 0 && loads == 0) {
                loads = 1; // tensor indexed by no loop: one load
            }
            const double movement =
                static_cast<double>(loads) *
                static_cast<double>(tensor.footprintElems(tiles) *
                                    tensor.elementSize);
            result.volumeBytes += movement;
            result.perTensorBytes[static_cast<std::size_t>(t)] += movement;
        }
    }
    return result;
}

Report
verifyPlan(const Chain &chain, const std::vector<AxisId> &perm,
           const std::vector<std::int64_t> &tiles,
           const PlanVerifyOptions &options)
{
    Report report;
    checkSchedule(chain, perm, tiles, options, report);
    return report;
}

Report
verifyExecutionPlan(const Chain &chain, const plan::ExecutionPlan &plan,
                    const PlanVerifyOptions &options)
{
    Report report;
    checkExecutionPlan(chain, plan, options, true, true, report);
    return report;
}

Report
verifyPlanDocument(const Chain &chain, const std::string &text,
                   const std::string &expectedFingerprint,
                   const PlanVerifyOptions &options,
                   std::optional<plan::ExecutionPlan> *resolved)
{
    Report report;
    plan::ParsedPlanDoc doc;
    try {
        doc = plan::parsePlanDocument(text);
    } catch (const Error &e) {
        report.error("PL01", "document", e.what());
        return report;
    }
    if (!expectedFingerprint.empty() &&
        doc.fingerprint != expectedFingerprint) {
        report.error("PL10", "fingerprint",
                     "expected " + expectedFingerprint +
                         " but the document carries " +
                         (doc.fingerprint.empty() ? std::string("none")
                                                  : doc.fingerprint));
    }
    plan::ExecutionPlan plan = plan::bindPlanDocument(chain, doc, report);
    const bool bound = !report.hasErrors();
    if (plan.perm.empty() || plan.tiles.empty()) {
        return report; // no schedule to verify
    }
    const std::optional<model::DataMovement> dm = checkExecutionPlan(
        chain, plan, options, doc.haveVolume, doc.haveMem, report);
    if (resolved != nullptr && bound && dm) {
        // What deserializePlan returns for this document.
        plan.concurrency = plan::effectiveConcurrency(chain, plan);
        plan.predictedVolumeBytes = dm->volumeBytes;
        plan.memUsageBytes = dm->memUsageBytes;
        *resolved = std::move(plan);
    }
    return report;
}

Report
verifyMultiLevelPlan(const Chain &chain,
                     const model::MachineModel &machine,
                     const std::vector<model::LevelSchedule> &levels,
                     const PlanVerifyOptions &options)
{
    Report report;
    if (levels.size() != machine.levels.size()) {
        report.error("PL11", "levels",
                     "schedule has " + std::to_string(levels.size()) +
                         " levels but machine " + machine.name +
                         " has " +
                         std::to_string(machine.levels.size()));
        return report;
    }
    for (std::size_t d = 0; d < levels.size(); ++d) {
        PlanVerifyOptions levelOptions = options;
        levelOptions.memCapacityBytes =
            machine.levels[d].capacityBytes;
        Report levelReport = verifyPlan(chain, levels[d].perm,
                                        levels[d].tiles, levelOptions);
        for (Finding finding : levelReport.findings()) {
            finding.location = "level " + machine.levels[d].name + " / " +
                               finding.location;
            report.add(std::move(finding));
        }
    }
    if (report.hasErrors()) {
        return report; // nesting needs well-formed tile vectors
    }
    for (std::size_t d = 0; d + 1 < levels.size(); ++d) {
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            const std::int64_t inner =
                levels[d].tiles[static_cast<std::size_t>(a)];
            const std::int64_t outer =
                levels[d + 1].tiles[static_cast<std::size_t>(a)];
            if (inner > outer) {
                report.error(
                    "PL11",
                    "level " + machine.levels[d].name + " / tiles." +
                        chain.axisName(a),
                    "inner tile " + std::to_string(inner) +
                        " does not nest inside the enclosing level's " +
                        std::to_string(outer));
            }
        }
    }
    return report;
}

Report
verifyKernelParams(const kernels::CpuKernelParams &params,
                   int numRegisters)
{
    Report report;
    if (params.mi < 1 || params.ni < 1 || params.mii < 1) {
        report.error("KP03", "kernel-params",
                     "register-tile parameters (MI=" +
                         std::to_string(params.mi) +
                         ", NI=" + std::to_string(params.ni) +
                         ", MII=" + std::to_string(params.mii) +
                         ") must all be positive");
        return report;
    }
    const int used = params.mi * params.ni + params.ni + params.mii;
    if (used > numRegisters) {
        report.error("KP01", "kernel-params",
                     "register usage MI*NI + NI + MII = " +
                         std::to_string(used) + " exceeds the budget of " +
                         std::to_string(numRegisters) + " registers");
    }
    if (params.mii < 2) {
        report.error("KP02", "kernel-params",
                     "MII = " + std::to_string(params.mii) +
                         " cannot hide the A-broadcast latency"
                         " (Algorithm 2 requires MII >= 2)");
    }
    if (params.mi % params.mii != 0) {
        report.error("KP02", "kernel-params",
                     "MII = " + std::to_string(params.mii) +
                         " does not divide MI = " +
                         std::to_string(params.mi) +
                         " (the mo loop steps by MII)");
    }
    return report;
}

} // namespace chimera::verify
