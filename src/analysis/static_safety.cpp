#include "analysis/static_safety.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "support/str.hpp"
#include "support/timer.hpp"

namespace chimera::analysis {

using ir::AxisId;
using ir::Chain;

namespace {

/** Joins int64 values with commas ("16,8,1"). */
std::string
joinInts(const std::vector<std::int64_t> &values)
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) {
            out += ",";
        }
        out += std::to_string(values[i]);
    }
    return out;
}

} // namespace

SymRange
addRanges(const SymRange &a, const SymRange &b)
{
    SymRange out;
    out.overflow = a.overflow || b.overflow;
    out.lo = checkedAdd(a.lo, b.lo, out.overflow);
    out.hi = checkedAdd(a.hi, b.hi, out.overflow);
    return out;
}

SymRange
mulRanges(const SymRange &a, const SymRange &b)
{
    SymRange out;
    out.overflow = a.overflow || b.overflow;
    // Saturation is monotone, so the bounds of the saturated products
    // are the saturated bounds of the exact ones.
    const std::int64_t products[4] = {
        checkedMul(a.lo, b.lo, out.overflow),
        checkedMul(a.lo, b.hi, out.overflow),
        checkedMul(a.hi, b.lo, out.overflow),
        checkedMul(a.hi, b.hi, out.overflow),
    };
    out.lo = *std::min_element(products, products + 4);
    out.hi = *std::max_element(products, products + 4);
    return out;
}

ShapeDomain
ShapeDomain::concrete(const Chain &chain)
{
    ShapeDomain d;
    d.lo = chain.fullExtents();
    d.hi = d.lo;
    return d;
}

void
ShapeDomain::widen(const Chain &chain, const std::string &axisName,
                   std::int64_t maxExtent)
{
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const ir::Axis &axis = chain.axes()[static_cast<std::size_t>(a)];
        if (axis.name != axisName) {
            continue;
        }
        CHIMERA_CHECK(maxExtent >= axis.extent,
                      "shape domain for axis \"" + axisName +
                          "\" must admit the chain's concrete extent " +
                          std::to_string(axis.extent) + " (got max " +
                          std::to_string(maxExtent) + ")");
        lo[static_cast<std::size_t>(a)] = 1;
        hi[static_cast<std::size_t>(a)] = maxExtent;
        return;
    }
    throw Error("shape domain names unknown axis \"" + axisName + "\"");
}

bool
ShapeDomain::isConcrete(const Chain &chain) const
{
    const std::vector<std::int64_t> extents = chain.fullExtents();
    return lo == extents && hi == extents;
}

std::string
ShapeDomain::summary(const Chain &chain) const
{
    std::string out;
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const std::size_t i = static_cast<std::size_t>(a);
        const std::int64_t extent = chain.axes()[i].extent;
        if (lo[i] == extent && hi[i] == extent) {
            continue;
        }
        if (!out.empty()) {
            out += ",";
        }
        out += chain.axes()[i].name + ":" + std::to_string(lo[i]) + ".." +
               std::to_string(hi[i]);
    }
    return out.empty() ? "concrete" : out;
}

ShapeDomain
parseShapeDomain(const Chain &chain, const std::string &spec,
                 const std::string &context)
{
    ShapeDomain domain = ShapeDomain::concrete(chain);
    if (spec == "concrete") {
        return domain;
    }
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string entry =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const std::size_t colon = entry.find(':');
        const std::size_t dots = entry.find("..");
        if (entry.empty() || colon == std::string::npos ||
            dots == std::string::npos || dots < colon) {
            throw Error(context + ": malformed shape-domain entry \"" +
                        entry + "\" (expected axis:lo..hi)");
        }
        const std::string name = entry.substr(0, colon);
        const std::int64_t lo = parseInt64Strict(
            entry.substr(colon + 1, dots - colon - 1), context + " domain lo");
        const std::int64_t hi =
            parseInt64Strict(entry.substr(dots + 2), context + " domain hi");
        AxisId axis = -1;
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            if (chain.axes()[static_cast<std::size_t>(a)].name == name) {
                axis = a;
                break;
            }
        }
        if (axis < 0) {
            throw Error(context + ": shape domain names unknown axis \"" +
                        name + "\"");
        }
        const std::size_t i = static_cast<std::size_t>(axis);
        const std::int64_t extent = chain.axes()[i].extent;
        if (lo < 1 || hi < lo || extent < lo || extent > hi) {
            throw Error(context + ": shape-domain range " + name + ":" +
                        std::to_string(lo) + ".." + std::to_string(hi) +
                        " must satisfy 1 <= lo <= extent " +
                        std::to_string(extent) + " <= hi");
        }
        domain.lo[i] = lo;
        domain.hi[i] = hi;
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return domain;
}

const char *
safetyRuleName(SafetyRule rule)
{
    switch (rule) {
      case SafetyRule::SB01: return "SB01";
      case SafetyRule::SB02: return "SB02";
      case SafetyRule::SB03: return "SB03";
      case SafetyRule::SB04: return "SB04";
    }
    return "?";
}

std::string
SafetyAnalysis::renderViolations() const
{
    std::string out;
    for (const SafetyViolation &v : violations) {
        if (!out.empty()) {
            out += "; ";
        }
        out += std::string(safetyRuleName(v.rule)) + " " + v.location + ": " +
               v.message;
    }
    return out;
}

std::string
safetyDigest(const Chain &chain, const std::vector<AxisId> &perm,
             const std::vector<std::int64_t> &tiles, int workers,
             const std::vector<std::int64_t> &grain,
             const std::string &domain)
{
    std::string blob = ir::chainSignature(chain);
    blob += "|order=";
    for (std::size_t i = 0; i < perm.size(); ++i) {
        if (i != 0) {
            blob += ",";
        }
        blob += std::to_string(perm[i]);
    }
    blob += "|tiles=" + joinInts(tiles);
    blob += "|threads=" + std::to_string(workers);
    // An empty grain vector means grain 1 on every axis.
    blob += "|grain=" +
            (grain.empty()
                 ? joinInts(std::vector<std::int64_t>(
                       static_cast<std::size_t>(chain.numAxes()), 1))
                 : joinInts(grain));
    blob += "|domain=" + domain;
    // The certificate always claims every SB rule; the fixed rule list
    // stays in the blob so digests match documents written when the
    // list was a `rules=` field of the line.
    blob += "|rules=sb01,sb02,sb03,sb04";
    return fnv1a64Hex(blob);
}

namespace {

/** Shared state threaded through the per-rule passes. */
struct Pass
{
    const Chain &chain;
    const std::vector<std::int64_t> &tiles;
    const std::vector<AxisConcurrency> &kinds;
    const ShapeDomain &domain;
    int workers;
    const std::vector<std::int64_t> &grain; // empty or numAxes entries
    std::vector<SafetyViolation> &violations;

    void add(SafetyRule rule, std::string location, std::string message)
    {
        violations.push_back(
            {rule, std::move(location), std::move(message)});
    }
};

/**
 * SB01: containment of every block window. The executors clamp block
 * windows at the tensor edge, so for an access dimension with terms
 * coeff_t * i_t the maximal accessed index under clamping is exactly
 * sum_t coeff_t * (L_t - 1) — the dimension extent minus one — for
 * every shape, *provided* each tile satisfies 1 <= T_t <= L_t. The
 * symbolic difference (accessed max) - (extent - 1) cancels term by
 * term to 0, shape-independently. A tile above the domain's smallest
 * admissible extent breaks the cancellation with a concrete witness
 * (L_t = lo_t), so containment fails for that shape; a tile below 1
 * makes the window degenerate.
 */
void
checkBounds(Pass &p)
{
    std::vector<bool> tileReported(p.tiles.size(), false);
    for (const ir::TensorDecl &tensor : p.chain.tensors()) {
        for (std::size_t d = 0; d < tensor.dims.size(); ++d) {
            for (const ir::AccessTerm &term : tensor.dims[d].terms) {
                const std::size_t a = static_cast<std::size_t>(term.axis);
                const std::int64_t tile = p.tiles[a];
                const std::string loc =
                    tensor.name + " dim " + std::to_string(d);
                if (tile < 1) {
                    if (!tileReported[a]) {
                        tileReported[a] = true;
                        p.add(SafetyRule::SB01, loc,
                              "tile " + std::to_string(tile) + " on axis " +
                                  p.chain.axisName(term.axis) +
                                  " is degenerate; block windows are "
                                  "ill-formed");
                    }
                    continue;
                }
                const std::int64_t minExtent = p.domain.lo[a];
                if (tile > minExtent) {
                    bool ovf = false;
                    const std::int64_t reach =
                        checkedMul(term.coeff, tile - 1, ovf);
                    p.add(SafetyRule::SB01, loc,
                          "axis " + p.chain.axisName(term.axis) + " tile " +
                              std::to_string(tile) +
                              " exceeds the smallest admissible extent " +
                              std::to_string(minExtent) +
                              ": the first block's window reaches index " +
                              (ovf ? std::string("> int64")
                                   : std::to_string(reach)) +
                              " outside the dimension");
                }
                // tile within [1, min extent]: the clamped window's max
                // index cancels exactly against the dimension extent for
                // every shape in the domain — contained, no violation.
            }
        }
    }
}

/**
 * Exact full-tile footprint of @p tensor in bytes under the pass's
 * tiles, in 128-bit-checked arithmetic. Returns saturated int64 and
 * sets @p ovf on overflow.
 */
std::int64_t
checkedFootprintBytes(const Pass &p, const ir::TensorDecl &tensor, bool &ovf)
{
    std::int64_t elems = 1;
    for (const ir::AccessDim &dim : tensor.dims) {
        std::int64_t width = 1;
        for (const ir::AccessTerm &term : dim.terms) {
            const std::size_t a = static_cast<std::size_t>(term.axis);
            width = checkedAdd(
                width, checkedMul(term.coeff, p.tiles[a] - 1, ovf), ovf);
        }
        elems = checkedMul(elems, width, ovf);
    }
    return checkedMul(elems, tensor.elementSize, ovf);
}

/**
 * SB02: the per-worker budget must dominate the maximum live window
 * over the block grid. Footprint terms 1 + coeff*(T-1) are maximized
 * by full-tile blocks (edge blocks clamp to smaller windows), so the
 * symbolic max over the whole grid — for every shape in the domain —
 * is the sum of full-tile operand footprints of the widest operator.
 * This is the integer-exact cross-check of the Section V-B budget the
 * planner (PL07) and kernel-parameter rules (KP) evaluate in doubles.
 */
void
checkWorkspace(Pass &p, const SafetyOptions &options,
               std::int64_t &maxLiveBytes, bool &liveOverflow)
{
    maxLiveBytes = 0;
    liveOverflow = false;
    std::string widestOp;
    for (const ir::OpDecl &op : p.chain.ops()) {
        std::int64_t live = 0;
        bool ovf = false;
        for (const int tid : op.tensorIds) {
            live = checkedAdd(
                live,
                checkedFootprintBytes(
                    p, p.chain.tensors()[static_cast<std::size_t>(tid)], ovf),
                ovf);
        }
        if (ovf) {
            liveOverflow = true;
            p.add(SafetyRule::SB03, op.name,
                  "live-window size computation overflows int64");
            continue;
        }
        if (live > maxLiveBytes) {
            maxLiveBytes = live;
            widestOp = op.name;
        }
    }

    if (options.memCapacityBytes <= 0.0 || liveOverflow) {
        return; // unconstrained planning mode, or already an SB03
    }
    const double budget = model::clampedPerWorkerBudgetBytes(
        options.memCapacityBytes, options.topology, p.workers);
    if (static_cast<double>(maxLiveBytes) > budget) {
        p.add(SafetyRule::SB02, widestOp,
              "maximum live window " + std::to_string(maxLiveBytes) +
                  " bytes exceeds the per-worker budget " +
                  std::to_string(static_cast<std::int64_t>(budget)) +
                  " bytes at " + std::to_string(p.workers) + " worker(s)");
    }
}

/**
 * SB03: interval range analysis of the index arithmetic the lowered
 * nests and dispatch loops perform, at the domain's upper extents
 * (where every quantity is largest): linearized tensor element/byte
 * offsets, per-operator block-grid task counts, chunk strides through
 * the grain multiplications, and the aggregate per-worker workspace.
 */
void
checkOverflow(Pass &p, std::int64_t maxLiveBytes, bool liveOverflow)
{
    // Linearized element and byte offsets per tensor at upper extents.
    for (const ir::TensorDecl &tensor : p.chain.tensors()) {
        bool ovf = false;
        std::int64_t elems = 1;
        for (const ir::AccessDim &dim : tensor.dims) {
            std::int64_t extent = 1;
            for (const ir::AccessTerm &term : dim.terms) {
                const std::size_t a = static_cast<std::size_t>(term.axis);
                extent = checkedAdd(
                    extent,
                    checkedMul(term.coeff, p.domain.hi[a] - 1, ovf), ovf);
            }
            elems = checkedMul(elems, extent, ovf);
        }
        const std::int64_t bytes =
            checkedMul(elems, tensor.elementSize, ovf);
        (void)bytes;
        if (ovf) {
            p.add(SafetyRule::SB03, tensor.name,
                  "linearized element/byte offset overflows int64 at the "
                  "domain's upper extents");
        }
    }

    // Block-grid task counts and chunk arithmetic per operator.
    for (const ir::OpDecl &op : p.chain.ops()) {
        bool ovf = false;
        std::int64_t tasks = 1;
        for (AxisId a = 0; a < p.chain.numAxes(); ++a) {
            if (!op.usesLoop(a)) {
                continue;
            }
            const std::size_t i = static_cast<std::size_t>(a);
            const std::int64_t tile = std::max<std::int64_t>(1, p.tiles[i]);
            tasks =
                checkedMul(tasks, ceilDiv(p.domain.hi[i], tile), ovf);
        }
        if (ovf) {
            p.add(SafetyRule::SB03, op.name,
                  "block-grid task count overflows int64 at the domain's "
                  "upper extents");
        }
    }

    // Chunk stride grain*T per parallel axis (the dispatch loops
    // advance block indices in grain-sized strides).
    for (std::size_t i = 0; i < p.grain.size(); ++i) {
        const AxisId a = static_cast<AxisId>(i);
        if (p.grain[i] <= 1) {
            continue;
        }
        bool ovf = false;
        (void)checkedMul(p.grain[i], std::max<std::int64_t>(1, p.tiles[i]),
                         ovf);
        if (ovf) {
            p.add(SafetyRule::SB03, "axis " + p.chain.axisName(a),
                  "chunk stride grain*tile overflows int64");
        }
    }

    // Aggregate workspace: every worker keeps a private live window.
    if (!liveOverflow) {
        bool ovf = false;
        (void)checkedMul(maxLiveBytes, std::max(1, p.workers), ovf);
        if (ovf) {
            p.add(SafetyRule::SB03, "workspace",
                  "aggregate per-worker workspace allocation overflows "
                  "int64");
        }
    }
}

/**
 * SB04: every parallel-marked axis must classify Parallel under
 * analyzeConcurrency at the domain's *upper* extents. The classifier's
 * window width only grows with the extents while its block step
 * coeff_a * T_a is shape-free, and reduction and softmax-coupling facts
 * do not depend on the shape, so Parallel at the upper extents implies
 * Parallel for every admissible shape.
 */
void
checkDisjointness(Pass &p, const ConcurrencyTable &atUpper)
{
    for (AxisId axis = 0; axis < p.chain.numAxes(); ++axis) {
        const std::size_t ai = static_cast<std::size_t>(axis);
        if (p.kinds[ai] != AxisConcurrency::Parallel ||
            atUpper.isParallel(axis)) {
            continue;
        }
        p.add(SafetyRule::SB04, "axis " + p.chain.axisName(axis),
              std::string("marked parallel but classifies ") +
                  concurrencyName(atUpper.kindOf(axis)) +
                  " at the domain's upper extents: " +
                  atUpper.axes[ai].reason);
    }
}

} // namespace

SafetyAnalysis
analyzeSafety(const Chain &chain, const std::vector<AxisId> &perm,
              const std::vector<std::int64_t> &tiles,
              const std::vector<AxisConcurrency> &kinds, int workers,
              const std::vector<std::int64_t> &grain,
              const ShapeDomain &domain, const SafetyOptions &options)
{
    CHIMERA_CHECK(static_cast<int>(tiles.size()) == chain.numAxes(),
                  "static safety analysis needs one tile per axis");
    CHIMERA_CHECK(static_cast<int>(kinds.size()) == chain.numAxes(),
                  "static safety analysis needs one concurrency kind per "
                  "axis");
    CHIMERA_CHECK(static_cast<int>(domain.lo.size()) == chain.numAxes() &&
                      static_cast<int>(domain.hi.size()) == chain.numAxes(),
                  "shape domain arity mismatch");
    CHIMERA_CHECK(grain.empty() ||
                      static_cast<int>(grain.size()) == chain.numAxes(),
                  "grain vector must be empty or one entry per axis");

    const WallTimer total;
    SafetyAnalysis analysis;
    Pass pass{chain,
              tiles,
              kinds,
              domain,
              std::max(1, workers),
              grain,
              analysis.violations};

    {
        const WallTimer t;
        checkBounds(pass);
        analysis.ruleSeconds[0] = t.seconds();
    }
    std::int64_t maxLiveBytes = 0;
    bool liveOverflow = false;
    {
        const WallTimer t;
        checkWorkspace(pass, options, maxLiveBytes, liveOverflow);
        analysis.ruleSeconds[1] = t.seconds();
    }
    {
        const WallTimer t;
        checkOverflow(pass, maxLiveBytes, liveOverflow);
        analysis.ruleSeconds[2] = t.seconds();
    }
    {
        const WallTimer t;
        analysis.concurrency = analyzeConcurrency(chain, tiles, domain.hi);
        checkDisjointness(pass, analysis.concurrency);
        analysis.ruleSeconds[3] = t.seconds();
    }

    SafetyCertificate &cert = analysis.certificate;
    cert.domain = domain.summary(chain);
    cert.digest = safetyDigest(chain, perm, tiles, std::max(1, workers),
                               pass.grain, cert.domain);
    cert.certified = analysis.violations.empty();
    analysis.totalSeconds = total.seconds();
    return analysis;
}

} // namespace chimera::analysis
