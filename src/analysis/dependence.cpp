#include "analysis/dependence.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::analysis {

using ir::AxisId;
using ir::Chain;

namespace {

/** Severity order for combining per-operator classes over the chain. */
int
rankOf(AxisConcurrency kind)
{
    switch (kind) {
      case AxisConcurrency::Parallel: return 0;
      case AxisConcurrency::Reduction: return 1;
      case AxisConcurrency::Sequential: return 2;
    }
    return 2;
}

/**
 * Write-write conflict test for axis @p axis on one access dimension of
 * an output tensor: true when advancing the block index of the axis
 * shifts the written window by at least the window's width, which
 * spans the other axes' @p extents.
 */
bool
blocksDisjointAlongDim(const ir::AccessDim &dim, AxisId axis,
                       std::int64_t tile,
                       const std::vector<std::int64_t> &extents)
{
    bool overflow = false;
    std::int64_t step = 0;
    std::int64_t width = 1;
    for (const ir::AccessTerm &term : dim.terms) {
        if (term.axis == axis) {
            step = checkedMul(term.coeff, tile, overflow);
            width = checkedAdd(
                width, checkedMul(term.coeff, tile - 1, overflow), overflow);
        } else {
            width = checkedAdd(
                width,
                checkedMul(term.coeff,
                           extents[static_cast<std::size_t>(term.axis)] - 1,
                           overflow),
                overflow);
        }
    }
    return !overflow && step >= width;
}

/** Per-operator classification of @p axis (the op must use the axis). */
AxisClassification
classifyForOp(const Chain &chain, const ir::OpDecl &op, AxisId axis,
              std::int64_t tile, const std::vector<std::int64_t> &extents)
{
    const std::string &axisName =
        chain.axes()[static_cast<std::size_t>(axis)].name;
    const ir::TensorDecl &out =
        chain.tensors()[static_cast<std::size_t>(op.outputTensorId)];

    AxisClassification cls;
    if (!out.usesAxis(axis)) {
        cls.kind = AxisConcurrency::Reduction;
        cls.reason = op.name + " accumulates into " + out.name +
                     ", whose access map does not use " + axisName;
        return cls;
    }

    if (ceilDiv(extents[static_cast<std::size_t>(axis)], tile) <= 1) {
        cls.kind = AxisConcurrency::Parallel;
        cls.reason = "single block covers the full extent of " + axisName;
        return cls;
    }

    for (const ir::AccessDim &dim : out.dims) {
        if (dim.usesAxis(axis) &&
            blocksDisjointAlongDim(dim, axis, tile, extents)) {
            cls.kind = AxisConcurrency::Parallel;
            cls.reason = "distinct " + axisName + " blocks write disjoint " +
                         out.name + " indices";
            return cls;
        }
    }
    if (out.kind == ir::TensorKind::Intermediate) {
        // The fused executors privatize intermediate regions per worker
        // and recompute the halo, so the overlap is redundant work, not
        // a write conflict.
        cls.kind = AxisConcurrency::Parallel;
        cls.reason = "overlapping " + out.name +
                     " halo is recomputed per block (intermediate)";
        return cls;
    }
    cls.kind = AxisConcurrency::Sequential;
    cls.reason = "distinct " + axisName + " blocks write overlapping " +
                 out.name + " indices";
    return cls;
}

} // namespace

const char *
concurrencyName(AxisConcurrency kind)
{
    switch (kind) {
      case AxisConcurrency::Parallel: return "parallel";
      case AxisConcurrency::Reduction: return "reduction";
      case AxisConcurrency::Sequential: return "sequential";
    }
    return "?";
}

AxisConcurrency
concurrencyFromName(const std::string &name, const std::string &context)
{
    if (name == "parallel") {
        return AxisConcurrency::Parallel;
    }
    if (name == "reduction") {
        return AxisConcurrency::Reduction;
    }
    if (name == "sequential") {
        return AxisConcurrency::Sequential;
    }
    throw Error(context + ": unknown concurrency kind \"" + name +
                "\" (expected parallel, reduction or sequential)");
}

AxisConcurrency
ConcurrencyTable::kindOf(AxisId axis) const
{
    return axes[static_cast<std::size_t>(axis)].kind;
}

bool
ConcurrencyTable::isParallel(AxisId axis) const
{
    return kindOf(axis) == AxisConcurrency::Parallel;
}

std::vector<AxisConcurrency>
ConcurrencyTable::kinds() const
{
    std::vector<AxisConcurrency> out;
    out.reserve(axes.size());
    for (const AxisClassification &cls : axes) {
        out.push_back(cls.kind);
    }
    return out;
}

std::string
ConcurrencyTable::summary(const Chain &chain) const
{
    std::string out;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        if (!out.empty()) {
            out += " ";
        }
        out += chain.axes()[a].name;
        out += "=";
        out += concurrencyName(axes[a].kind);
    }
    return out;
}

ConcurrencyTable
analyzeConcurrency(const Chain &chain,
                   const std::vector<std::int64_t> &tiles)
{
    return analyzeConcurrency(chain, tiles, chain.fullExtents());
}

ConcurrencyTable
analyzeConcurrency(const Chain &chain,
                   const std::vector<std::int64_t> &tiles,
                   const std::vector<std::int64_t> &extents)
{
    CHIMERA_CHECK(static_cast<int>(tiles.size()) == chain.numAxes() &&
                      static_cast<int>(extents.size()) == chain.numAxes(),
                  "concurrency analysis needs one tile and one extent per "
                  "axis");

    ConcurrencyTable table;
    table.axes.resize(static_cast<std::size_t>(chain.numAxes()));
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        AxisClassification &cls =
            table.axes[static_cast<std::size_t>(a)];
        cls.kind = AxisConcurrency::Parallel;
        cls.reason = "axis is not used by any operator";
        bool used = false;
        for (const ir::OpDecl &op : chain.ops()) {
            if (!op.usesLoop(a)) {
                continue;
            }
            const AxisClassification opCls = classifyForOp(
                chain, op, a,
                std::max<std::int64_t>(1,
                                       tiles[static_cast<std::size_t>(a)]),
                extents);
            if (!used || rankOf(opCls.kind) > rankOf(cls.kind)) {
                cls.kind = opCls.kind;
                cls.reason = opCls.reason;
            }
            used = true;
        }
    }

    // A softmax epilogue accumulates a row sum across the intermediate's
    // last access dimension: every block of an axis in that dimension
    // contributes to the same per-row totals, so those axes cannot run
    // in parallel even though the operator-level write sets are disjoint.
    // The coupling is named in the reason even when an operator already
    // made the axis a reduction.
    if (chain.intermediateEpilogue() == ir::Epilogue::Softmax) {
        for (const ir::TensorDecl &tensor : chain.tensors()) {
            if (tensor.kind != ir::TensorKind::Intermediate ||
                tensor.dims.empty()) {
                continue;
            }
            for (const ir::AccessTerm &term : tensor.dims.back().terms) {
                AxisClassification &cls =
                    table.axes[static_cast<std::size_t>(term.axis)];
                const std::string coupling =
                    "softmax row normalization accumulates across " +
                    chain.axisName(term.axis) + " blocks of " + tensor.name;
                if (cls.kind == AxisConcurrency::Parallel) {
                    cls.kind = AxisConcurrency::Reduction;
                    cls.reason = coupling;
                } else {
                    cls.reason += "; " + coupling;
                }
            }
        }
    }
    return table;
}

} // namespace chimera::analysis
