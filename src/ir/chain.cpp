#include "ir/chain.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace chimera::ir {

std::int64_t
TensorDecl::footprintElems(const std::vector<std::int64_t> &tiles) const
{
    std::int64_t fp = 1;
    for (const AccessDim &dim : dims) {
        fp *= dim.footprint(tiles);
    }
    return fp;
}

bool
TensorDecl::usesAxis(AxisId axis) const
{
    for (const AccessDim &dim : dims) {
        if (dim.usesAxis(axis)) {
            return true;
        }
    }
    return false;
}

bool
OpDecl::usesLoop(AxisId axis) const
{
    return std::find(loops.begin(), loops.end(), axis) != loops.end();
}

double
OpDecl::effectiveIters(const std::vector<std::int64_t> &extents,
                       const std::vector<std::int64_t> &tiles) const
{
    // Exact per-dimension iteration count over the block grid with tail
    // blocks truncated: for footprint 1 + sum_i c_i*(s_i - 1) summed over
    // all blocks,
    //   iters = N*(1 - sum_i c_i) + sum_i c_i * L_i * N / n_i
    // where n_i = ceil(L_i / T_i) and N = prod_i n_i. Single-axis dims
    // collapse to exactly L; halo dims to st*(L-1) + k per walk.
    double total = 1.0;
    for (const AccessDim &dim : iterDims) {
        double nProd = 1.0;
        for (const AccessTerm &term : dim.terms) {
            const auto axis = static_cast<std::size_t>(term.axis);
            nProd *= static_cast<double>(
                (extents[axis] + tiles[axis] - 1) / tiles[axis]);
        }
        double coeffSum = 0.0;
        double weighted = 0.0;
        for (const AccessTerm &term : dim.terms) {
            const auto axis = static_cast<std::size_t>(term.axis);
            const double blocks = static_cast<double>(
                (extents[axis] + tiles[axis] - 1) / tiles[axis]);
            coeffSum += static_cast<double>(term.coeff);
            weighted += static_cast<double>(term.coeff) *
                        static_cast<double>(extents[axis]) * nProd /
                        blocks;
        }
        total *= nProd * (1.0 - coeffSum) + weighted;
    }
    return total;
}

Chain::Chain(std::string name)
    : name_(std::move(name))
{
}

AxisId
Chain::addAxis(std::string name, std::int64_t extent, bool reorderable)
{
    CHIMERA_CHECK(extent >= 1, "axis extent must be positive");
    axes_.push_back(Axis{std::move(name), extent, reorderable});
    return static_cast<AxisId>(axes_.size()) - 1;
}

int
Chain::addTensor(TensorDecl tensor)
{
    tensors_.push_back(std::move(tensor));
    return static_cast<int>(tensors_.size()) - 1;
}

int
Chain::addOp(OpDecl op)
{
    ops_.push_back(std::move(op));
    return static_cast<int>(ops_.size()) - 1;
}

std::vector<AxisId>
Chain::reorderableAxes() const
{
    std::vector<AxisId> result;
    for (int i = 0; i < numAxes(); ++i) {
        if (axes_[static_cast<std::size_t>(i)].reorderable) {
            result.push_back(i);
        }
    }
    return result;
}

AxisId
Chain::findAxis(const std::string &name) const
{
    for (AxisId a = 0; a < numAxes(); ++a) {
        if (axisName(a) == name) {
            return a;
        }
    }
    return -1;
}

bool
Chain::isRegionAxis(AxisId axis) const
{
    return axes_[static_cast<std::size_t>(axis)].reorderable &&
           std::all_of(ops_.begin(), ops_.end(), [axis](const OpDecl &op) {
               return op.usesLoop(axis);
           });
}

std::vector<AxisId>
Chain::pinnedAxes() const
{
    std::vector<AxisId> result;
    for (int i = 0; i < numAxes(); ++i) {
        if (!axes_[static_cast<std::size_t>(i)].reorderable) {
            result.push_back(i);
        }
    }
    return result;
}

std::vector<int>
Chain::ioTensorIds() const
{
    std::vector<int> result;
    for (std::size_t t = 0; t < tensors_.size(); ++t) {
        if (tensors_[t].kind != TensorKind::Intermediate) {
            result.push_back(static_cast<int>(t));
        }
    }
    return result;
}

std::vector<AxisId>
Chain::privateAxesOf(int opIndex) const
{
    CHIMERA_CHECK(opIndex >= 0 && opIndex < static_cast<int>(ops_.size()),
                  "op index out of range");
    std::vector<AxisId> result;
    const OpDecl &op = ops_[static_cast<std::size_t>(opIndex)];
    for (AxisId axis : op.loops) {
        bool usedLater = false;
        for (std::size_t later = static_cast<std::size_t>(opIndex) + 1;
             later < ops_.size(); ++later) {
            if (ops_[later].usesLoop(axis)) {
                usedLater = true;
                break;
            }
        }
        if (!usedLater) {
            result.push_back(axis);
        }
    }
    return result;
}

std::vector<std::int64_t>
Chain::fullExtents() const
{
    std::vector<std::int64_t> extents;
    extents.reserve(axes_.size());
    for (const Axis &axis : axes_) {
        extents.push_back(axis.extent);
    }
    return extents;
}

std::int64_t
Chain::ioBytes() const
{
    const std::vector<std::int64_t> full = fullExtents();
    std::int64_t total = 0;
    for (int t : ioTensorIds()) {
        const TensorDecl &decl = tensors_[static_cast<std::size_t>(t)];
        total += decl.footprintElems(full) * decl.elementSize;
    }
    return total;
}

double
Chain::totalFlops() const
{
    const std::vector<std::int64_t> full = fullExtents();
    double total = 0.0;
    for (const OpDecl &op : ops_) {
        if (!op.iterDims.empty()) {
            // multiply + add per innermost iteration
            total += 2.0 * op.effectiveIters(full, full);
            continue;
        }
        double opFlops = 2.0;
        for (AxisId axis : op.loops) {
            opFlops *=
                static_cast<double>(axes_[static_cast<std::size_t>(axis)]
                                        .extent);
        }
        total += opFlops;
    }
    return total;
}

void
Chain::setElementSize(int bytes)
{
    CHIMERA_CHECK(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8,
                  "unsupported element size");
    for (TensorDecl &tensor : tensors_) {
        tensor.elementSize = bytes;
    }
}

void
Chain::validate() const
{
    CHIMERA_CHECK(!ops_.empty(), "chain has no operators");
    for (const OpDecl &op : ops_) {
        CHIMERA_CHECK(!op.loops.empty(), "operator has no loops");
        for (AxisId axis : op.loops) {
            CHIMERA_CHECK(axis >= 0 && axis < numAxes(),
                          "operator references unknown axis");
        }
        CHIMERA_CHECK(!op.tensorIds.empty(), "operator touches no tensors");
        for (int t : op.tensorIds) {
            CHIMERA_CHECK(t >= 0 && t < static_cast<int>(tensors_.size()),
                          "operator references unknown tensor");
        }
        CHIMERA_CHECK(op.outputTensorId >= 0 &&
                          op.outputTensorId <
                              static_cast<int>(tensors_.size()),
                      "operator output tensor out of range");
    }
    for (const TensorDecl &tensor : tensors_) {
        CHIMERA_CHECK(!tensor.dims.empty(), "tensor has no dimensions");
        for (const AccessDim &dim : tensor.dims) {
            for (const AccessTerm &term : dim.terms) {
                CHIMERA_CHECK(term.axis >= 0 && term.axis < numAxes(),
                              "access term references unknown axis");
                CHIMERA_CHECK(term.coeff >= 1,
                              "access coefficients must be positive");
            }
        }
    }
    // The last operator must produce the chain output.
    const OpDecl &last = ops_.back();
    CHIMERA_CHECK(tensors_[static_cast<std::size_t>(last.outputTensorId)]
                          .kind == TensorKind::Output,
                  "last operator must produce the chain output tensor");
}

std::string
chainSignature(const Chain &chain)
{
    // Plain string appends, no ostringstream: this sits on the plan
    // cache's warm lookup path, where the first stream construction in
    // a fresh process costs ~100us of locale initialization alone.
    std::string out;
    auto emitAccessDims = [&out](const std::vector<AccessDim> &dims) {
        for (const AccessDim &dim : dims) {
            out += "[";
            for (const AccessTerm &term : dim.terms) {
                out += std::to_string(term.coeff) + "*a" +
                       std::to_string(term.axis) + ";";
            }
            out += "]";
        }
    };
    out += "axes:";
    for (const Axis &axis : chain.axes()) {
        out += axis.name + "," + std::to_string(axis.extent) + "," +
               (axis.reorderable ? "1" : "0") + ";";
    }
    out += "|tensors:";
    for (const TensorDecl &tensor : chain.tensors()) {
        out += std::to_string(static_cast<int>(tensor.kind)) + "," +
               std::to_string(tensor.elementSize) + ",";
        emitAccessDims(tensor.dims);
        out += ";";
    }
    out += "|ops:";
    for (const OpDecl &op : chain.ops()) {
        out += std::to_string(static_cast<int>(op.kind)) + ",loops=";
        for (AxisId axis : op.loops) {
            out += std::to_string(axis) + ".";
        }
        out += ",tensors=";
        for (int t : op.tensorIds) {
            out += std::to_string(t) + ".";
        }
        out += ",out=" + std::to_string(op.outputTensorId) + ",iter=";
        emitAccessDims(op.iterDims);
        out += ";";
    }
    out += "|epilogue:" +
           std::to_string(static_cast<int>(chain.intermediateEpilogue()));
    return out;
}

} // namespace chimera::ir
