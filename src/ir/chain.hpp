#pragma once

/**
 * @file
 * The Chain IR: a compute DAG of compute-intensive operators plus the
 * memory-intensive epilogues between them.
 *
 * This is the input to Chimera's optimizer (Figure 3 of the paper). A
 * Chain owns the independent axes, the tensor declarations with their
 * affine access maps, and the operators in topological order. The
 * analytical model (src/model) and the planner (src/plan) work purely on
 * this representation, and so does the executors' region walk
 * (exec/region_schedule.hpp): its loops, dispatch and race claims come
 * from the chain. Only the per-block arithmetic of each executor reads
 * the builder's workload config (extents, epilogue, strides).
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/axis.hpp"

namespace chimera::ir {

/** Role of a tensor within the chain (Algorithm 1 line 7). */
enum class TensorKind
{
    Input, ///< Chain input: counted in the data movement volume.
    Intermediate, ///< Producer/consumer buffer kept on chip (DM = 0).
    Output, ///< Chain output: counted in the data movement volume.
};

/** Kind of compute-intensive operator (executor dispatch tag). */
enum class OpKind
{
    Gemm, ///< Plain or batched matrix multiplication.
    Conv2d, ///< NCHW direct convolution.
};

/** Memory-intensive operator fused between/after compute operators. */
enum class Epilogue
{
    None,
    Relu, ///< Elementwise max(x, 0).
    Softmax, ///< Row-wise softmax (exp/sum/div, fused per §VI-B).
};

/** A tensor referenced by the chain. */
struct TensorDecl
{
    std::string name;
    TensorKind kind = TensorKind::Input;

    /** Affine access expression per tensor dimension. */
    std::vector<AccessDim> dims;

    /** Element size in bytes (fp32 on the CPU substrate). */
    int elementSize = 4;

    /** Tile footprint in elements for a tile-size vector. */
    std::int64_t footprintElems(const std::vector<std::int64_t> &tiles) const;

    /** True when @p axis appears anywhere in the access map. */
    bool usesAxis(AxisId axis) const;
};

/** One compute-intensive operator of the chain. */
struct OpDecl
{
    std::string name;
    OpKind kind = OpKind::Gemm;

    /** All loop axes of this operator's nest (paper: op.allLoops()). */
    std::vector<AxisId> loops;

    /** Tensors touched by the operator (inputs first, output last). */
    std::vector<int> tensorIds;

    /** Index into tensorIds-referenced tensors of the produced tensor. */
    int outputTensorId = -1;

    /**
     * The operator's iteration space, one affine dimension per loop of
     * its nest. For fused convolution chains the producer's spatial dims
     * carry halo terms, so the per-block iteration count (and therefore
     * the effective FLOPs including sliding-window re-computation, §VI-B)
     * follows directly from the footprints.
     */
    std::vector<AccessDim> iterDims;

    /** True when @p axis is one of this operator's loops. */
    bool usesLoop(AxisId axis) const;

    /**
     * Total scalar multiply-accumulate iterations executed under tiling:
     * per dimension, (product of per-term block counts) * footprint.
     * With full-extent tiles this is the untiled iteration count; smaller
     * spatial tiles inflate it by the halo re-compute factor.
     */
    double effectiveIters(const std::vector<std::int64_t> &extents,
                          const std::vector<std::int64_t> &tiles) const;
};

/** Compute DAG for one fusible operator chain. */
class Chain
{
  public:
    /** Creates an empty chain with a display name. */
    explicit Chain(std::string name);

    /** Adds an axis and returns its id. */
    AxisId addAxis(std::string name, std::int64_t extent,
                   bool reorderable = true);

    /** Adds a tensor declaration and returns its id. */
    int addTensor(TensorDecl tensor);

    /** Appends an operator (ops must be added in topological order). */
    int addOp(OpDecl op);

    /** Sets the epilogue applied to the intermediate tensor. */
    void setIntermediateEpilogue(Epilogue e) { intermediateEpilogue_ = e; }

    const std::string &name() const { return name_; }
    const std::vector<Axis> &axes() const { return axes_; }
    const std::vector<TensorDecl> &tensors() const { return tensors_; }
    const std::vector<OpDecl> &ops() const { return ops_; }
    Epilogue intermediateEpilogue() const { return intermediateEpilogue_; }

    /** Number of independent axes I. */
    int numAxes() const { return static_cast<int>(axes_.size()); }

    /** Id of the axis named @p name, or -1 when the chain has none. */
    AxisId findAxis(const std::string &name) const;

    /** Name of axis @p axis. */
    const std::string &axisName(AxisId axis) const
    {
        return axes_[static_cast<std::size_t>(axis)].name;
    }

    /** Axis ids the planner may permute (Axis::reorderable). */
    std::vector<AxisId> reorderableAxes() const;

    /**
     * True when @p axis is a fused region loop: a reorderable axis every
     * operator loops over. The executors walk these blocked
     * (exec::regionLoops) and the planner chunks the Parallel ones
     * across workers.
     */
    bool isRegionAxis(AxisId axis) const;

    /** Axis ids pinned innermost, in declaration order. */
    std::vector<AxisId> pinnedAxes() const;

    /** Tensor ids whose kind is Input or Output (Ops.IOTensors()). */
    std::vector<int> ioTensorIds() const;

    /**
     * Axes private to op @p opIndex: used by it and by no later operator
     * (Algorithm 1 lines 17-19 remove them before visiting consumers).
     */
    std::vector<AxisId> privateAxesOf(int opIndex) const;

    /** Full extents vector (the maximal tile sizes). */
    std::vector<std::int64_t> fullExtents() const;

    /** Total bytes of all Input/Output tensors (the DV lower bound). */
    std::int64_t ioBytes() const;

    /** Sum over ops of 2 * prod(loop extents): total chain FLOPs. */
    double totalFlops() const;

    /**
     * Overrides the element size of every tensor (bytes). The CPU
     * executors are fp32; the simulated GPU/NPU backends model fp16.
     */
    void setElementSize(int bytes);

    /** Validates internal consistency; throws Error on malformed IR. */
    void validate() const;

  private:
    std::string name_;
    std::vector<Axis> axes_;
    std::vector<TensorDecl> tensors_;
    std::vector<OpDecl> ops_;
    Epilogue intermediateEpilogue_ = Epilogue::None;
};

/**
 * Canonical textual signature of everything that affects planning:
 * axes (name, extent, reorderability), tensor declarations (kind,
 * element size, access maps), operators (kind, loops, operands,
 * iteration dims) and the epilogue. The display name is deliberately
 * excluded — two chains with identical structure share every valid
 * plan. The plan cache hashes this string into its lookup key.
 */
std::string chainSignature(const Chain &chain);

} // namespace chimera::ir
