#include "exec/region_schedule.hpp"

#include <algorithm>

#include "analysis/race_checker.hpp"
#include "obs/trace.hpp"
#include "support/aligned.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::exec {

namespace {

/** Floats per aligned scratch segment boundary. */
constexpr std::int64_t kSegmentFloats =
    static_cast<std::int64_t>(kBufferAlignment / sizeof(float));

std::int64_t
blockCount(const RegionLoop &loop)
{
    return ceilDiv(loop.extent, loop.tile);
}

BlockRange
blockAt(const RegionLoop &loop, std::int64_t index)
{
    const std::int64_t start = index * loop.tile;
    return BlockRange{start,
                      std::min<std::int64_t>(loop.tile, loop.extent - start)};
}

/**
 * Advances the odometer @p idx over [lo, hi) per digit, last digit
 * fastest; returns false once it wraps (an empty odometer never
 * advances).
 */
bool
nextIndex(std::vector<std::int64_t> &idx, const std::vector<std::int64_t> &lo,
          const std::vector<std::int64_t> &hi)
{
    for (std::size_t d = idx.size(); d-- > 0;) {
        if (++idx[d] < hi[d]) {
            return true;
        }
        idx[d] = lo[d];
    }
    return false;
}

/** The chain's output tensor: what the last operator produces. */
const ir::TensorDecl &
outputTensor(const ir::Chain &chain)
{
    return chain.tensors()[static_cast<std::size_t>(
        chain.ops().back().outputTensorId)];
}

/**
 * Race-checker claims of each region's output window: the row-major
 * window the output tensor's access map gives over the region's blocks.
 * Trailing dimensions the window covers in full coalesce into one
 * range. Sized once per worker; claim() allocates nothing.
 */
class OutputClaims
{
  public:
    explicit OutputClaims(const ir::Chain &chain)
        : dims_(outputTensor(chain).dims), rank_(dims_.size()),
          full_(rank_), stride_(rank_, 1), lo_(rank_), size_(rank_),
          index_(rank_), hi_(rank_)
    {
        const std::vector<std::int64_t> extents = chain.fullExtents();
        for (std::size_t d = 0; d < rank_; ++d) {
            full_[d] = dims_[d].footprint(extents);
        }
        for (std::size_t d = rank_; d-- > 1;) {
            stride_[d - 1] = stride_[d] * full_[d];
        }
    }

    /** Element count of the whole output tensor. */
    std::int64_t elements() const
    {
        return rank_ == 0 ? 1 : stride_[0] * full_[0];
    }

    void claim(analysis::RaceChecker &race, const Region &region)
    {
        for (std::size_t d = 0; d < rank_; ++d) {
            lo_[d] = 0;
            size_[d] = 1;
            for (const ir::AccessTerm &term : dims_[d].terms) {
                const BlockRange block = region.block(term.axis);
                lo_[d] += term.coeff * block.start;
                size_[d] += term.coeff * (block.size - 1);
            }
        }
        // Innermost dimension the window does not cover in full; the
        // outer dimensions are walked, everything from it inward is one
        // contiguous run.
        std::size_t inner = rank_;
        while (inner > 0 && size_[inner - 1] == full_[inner - 1]) {
            --inner;
        }
        if (inner == 0) {
            race.claimRange(region.task(), 0, elements());
            return;
        }
        --inner;
        const std::int64_t run = size_[inner] * stride_[inner];
        for (std::size_t d = 0; d < rank_; ++d) {
            index_[d] = lo_[d];
            hi_[d] = d < inner ? lo_[d] + size_[d] : lo_[d] + 1;
        }
        do {
            std::int64_t at = 0;
            for (std::size_t d = 0; d <= inner; ++d) {
                at += index_[d] * stride_[d];
            }
            race.claimRange(region.task(), at, at + run);
        } while (nextIndex(index_, lo_, hi_));
    }

  private:
    std::vector<ir::AccessDim> dims_;
    std::size_t rank_;
    std::vector<std::int64_t> full_, stride_, lo_, size_, index_, hi_;
};

} // namespace

std::vector<RegionLoop>
regionLoops(const ir::Chain &chain, const plan::ExecutionPlan &plan)
{
    std::vector<RegionLoop> loops;
    for (ir::AxisId axis : plan.perm) {
        if (chain.isRegionAxis(axis)) {
            loops.push_back(RegionLoop{
                axis, chain.axes()[static_cast<std::size_t>(axis)].extent,
                plan.tiles[static_cast<std::size_t>(axis)]});
        }
    }
    return loops;
}

void
dispatchChunks(
    ThreadPool *pool, std::int64_t chunks,
    const std::function<ChunkTasks(std::int64_t chunk, int worker)> &body)
{
    obs::TraceRecorder *const tracer = obs::trace();
    parallelFor(pool, 0, chunks, [&](std::int64_t chunk, int worker) {
        const std::int64_t start = obs::nowNanos();
        const ChunkTasks tasks = body(chunk, worker);
        const std::int64_t nanos = obs::nowNanos() - start;
        if (tracer != nullptr) {
            std::vector<obs::TraceArg> args = {
                {"chunk", chunk},
                {"worker", static_cast<std::int64_t>(worker)}};
            if (tasks.lo >= 0) {
                args.emplace_back("task_lo", tasks.lo);
                args.emplace_back("task_hi", tasks.hi);
            }
            tracer->complete("exec.chunk", "exec", start, nanos,
                             std::move(args));
        }
    });
}

RegionWalker::RegionWalker(const ir::Chain &chain,
                           const plan::ExecutionPlan &plan,
                           const ExecOptions &options)
    : chain_(chain), plan_(plan), options_(options), pool_(execPool(options))
{
    // A region loop missing from perm would run at full extent and
    // overflow the scratch the executor sized from its tile.
    std::vector<bool> seen(static_cast<std::size_t>(chain.numAxes()), false);
    for (ir::AxisId axis : plan.perm) {
        CHIMERA_CHECK(axis >= 0 && axis < chain.numAxes() &&
                          !seen[static_cast<std::size_t>(axis)],
                      "plan order is not a permutation of the chain axes");
        seen[static_cast<std::size_t>(axis)] = true;
    }
    CHIMERA_CHECK(static_cast<int>(plan.tiles.size()) == chain.numAxes() &&
                      static_cast<int>(plan.perm.size()) == chain.numAxes(),
                  "plan does not match the chain configuration");
    CHIMERA_CHECK(std::all_of(plan.tiles.begin(), plan.tiles.end(),
                              [](std::int64_t t) { return t >= 1; }),
                  "plan tiles must be positive");
    const std::vector<analysis::AxisConcurrency> table =
        plan::effectiveConcurrency(chain, plan);
    for (const RegionLoop &loop : regionLoops(chain, plan)) {
        const auto axis = static_cast<std::size_t>(loop.axis);
        if (axis < table.size() &&
            table[axis] == analysis::AxisConcurrency::Parallel) {
            parallel_.push_back(loop);
            grain_.push_back(axis < plan.parallelGrain.size()
                                 ? std::max<std::int64_t>(
                                       1, plan.parallelGrain[axis])
                                 : 1);
        } else {
            serial_.push_back(loop);
        }
    }
}

std::int64_t
RegionWalker::chunkCount() const
{
    std::int64_t total = 1;
    for (std::size_t i = 0; i < parallel_.size(); ++i) {
        total *= ceilDiv(blockCount(parallel_[i]), grain_[i]);
    }
    return total;
}

void
RegionWalker::run(const char *spanName,
                  const std::vector<std::size_t> &scratchFloats,
                  const std::function<void(const Region &)> &body) const
{
    const int workers = execWorkerCount(pool_);
    analysis::RaceChecker *race = options_.raceCheck;
    std::vector<OutputClaims> claims; // one per worker when checking
    if (race != nullptr) {
        claims.assign(static_cast<std::size_t>(workers),
                      OutputClaims(chain_));
        CHIMERA_CHECK(race->numElements() == claims.front().elements(),
                      "race checker must be sized to the " +
                          outputTensor(chain_).name + " output");
        race->beginPhase(chain_.name() + " fused blocks");
    }

    // Per-worker state, allocated once: the scratch buffer, the region
    // handed to the body (every axis at full extent until a loop sets
    // it) and the odometers.
    struct WorkerState
    {
        AlignedBuffer<float> buffer;
        Region region;
        std::vector<std::int64_t> lo, hi, task, serial;
    };
    std::vector<std::size_t> offsets;
    std::size_t total = 0;
    for (std::size_t floats : scratchFloats) {
        offsets.push_back(total);
        total += static_cast<std::size_t>(
            roundUp(static_cast<std::int64_t>(floats), kSegmentFloats));
    }
    const std::size_t npar = parallel_.size();
    const std::size_t nser = serial_.size();
    std::vector<std::int64_t> serialLo(nser, 0), serialHi(nser);
    for (std::size_t j = 0; j < nser; ++j) {
        serialHi[j] = blockCount(serial_[j]);
    }
    std::vector<std::int64_t> taskStride(npar, 1);
    for (std::size_t i = npar; i-- > 1;) {
        taskStride[i - 1] = taskStride[i] * blockCount(parallel_[i]);
    }
    std::vector<WorkerState> states;
    states.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        WorkerState &state = states.emplace_back(WorkerState{
            allocateAligned<float>(std::max<std::size_t>(1, total)), Region{},
            std::vector<std::int64_t>(npar),
            std::vector<std::int64_t>(npar), std::vector<std::int64_t>(npar),
            std::vector<std::int64_t>(nser)});
        for (const ir::Axis &axis : chain_.axes()) {
            state.region.blocks_.push_back(BlockRange{0, axis.extent});
        }
        for (std::size_t offset : offsets) {
            state.region.scratch_.push_back(state.buffer.get() + offset);
        }
    }

    const std::int64_t chunks = chunkCount();
    obs::Span execSpan(obs::trace(), spanName, "exec");
    execSpan.arg("chunks", chunks).arg("workers", workers);
    dispatchChunks(pool_, chunks,
                   [&](std::int64_t chunk, int worker) {
        WorkerState &state = states[static_cast<std::size_t>(worker)];
        Region &region = state.region;
        // Decode the chunk over the per-loop chunk grid (first loop
        // outermost) into each parallel loop's block sub-range.
        for (std::size_t i = npar; i-- > 0;) {
            const std::int64_t blocks = blockCount(parallel_[i]);
            const std::int64_t perChunk = ceilDiv(blocks, grain_[i]);
            state.lo[i] = (chunk % perChunk) * grain_[i];
            state.hi[i] = std::min(blocks, state.lo[i] + grain_[i]);
            chunk /= perChunk;
        }
        state.task = state.lo;
        ChunkTasks covered;
        do {
            region.task_ = 0;
            for (std::size_t i = 0; i < npar; ++i) {
                region.task_ += state.task[i] * taskStride[i];
                region.blocks_[static_cast<std::size_t>(
                    parallel_[i].axis)] =
                    blockAt(parallel_[i], state.task[i]);
            }
            if (covered.lo < 0) {
                covered.lo = region.task_;
            }
            covered.hi = region.task_;
            std::fill(state.serial.begin(), state.serial.end(), 0);
            do {
                for (std::size_t j = 0; j < nser; ++j) {
                    region.blocks_[static_cast<std::size_t>(
                        serial_[j].axis)] =
                        blockAt(serial_[j], state.serial[j]);
                }
                if (race != nullptr) {
                    claims[static_cast<std::size_t>(worker)].claim(*race,
                                                                   region);
                }
                body(region);
            } while (nextIndex(state.serial, serialLo, serialHi));
        } while (nextIndex(state.task, state.lo, state.hi));
        return covered;
    });
}

std::vector<std::string>
fusedParallelAxes(const ir::Chain &chain, const plan::ExecutionPlan &plan)
{
    const RegionWalker walker(chain, plan, ExecOptions{1});
    std::vector<std::string> names;
    for (const RegionLoop &loop : walker.parallelLoops()) {
        names.push_back(
            chain.axes()[static_cast<std::size_t>(loop.axis)].name);
    }
    return names;
}

} // namespace chimera::exec
