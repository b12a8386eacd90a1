#include "analysis/order_equivalence.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::analysis {

using ir::AxisId;
using ir::Chain;

const char *
pruneModeName(PruneMode mode)
{
    switch (mode) {
    case PruneMode::None:
        return "none";
    case PruneMode::Symmetry:
        return "symmetry";
    case PruneMode::Dominance:
        return "dominance";
    }
    return "none";
}

std::optional<PruneMode>
parsePruneMode(std::string_view name)
{
    if (name == "none") {
        return PruneMode::None;
    }
    if (name == "symmetry") {
        return PruneMode::Symmetry;
    }
    if (name == "dominance") {
        return PruneMode::Dominance;
    }
    return std::nullopt;
}

OrderAnalyzer::OrderAnalyzer(const Chain &chain,
                             const solver::TileConstraints &constraints,
                             double memCapacityBytes,
                             const model::ModelOptions &model)
    : chain_(chain), numAxes_(chain.numAxes())
{
    const auto n = static_cast<std::size_t>(numAxes_);
    minBlocks_.assign(n, 1);
    inKey_.assign(n, 1);
    axisTerms_.resize(n);
    posScratch_.assign(n, 0);

    // Per-axis candidate lattices under the search's constraints, plus
    // the all-minimum tile vector (the least feasible footprint).
    std::vector<std::vector<std::int64_t>> candidates;
    candidates.reserve(n);
    std::vector<std::int64_t> minTiles(n, 1);
    for (AxisId a = 0; a < numAxes_; ++a) {
        candidates.push_back(
            solver::axisTileCandidates(chain, a, constraints));
        minTiles[static_cast<std::size_t>(a)] =
            candidates[static_cast<std::size_t>(a)].front();
    }

    // Identity order for the capacity probes: memory usage does not
    // depend on the order, only on the tiles.
    std::vector<AxisId> identity(n);
    for (AxisId a = 0; a < numAxes_; ++a) {
        identity[static_cast<std::size_t>(a)] = a;
    }

    for (AxisId a = 0; a < numAxes_; ++a) {
        const auto ai = static_cast<std::size_t>(a);
        const std::int64_t extent = chain.axes()[ai].extent;

        // alwaysSingleBlock: even the smallest candidate covers the
        // whole extent, so the model never counts this axis.
        const bool alwaysSingle =
            ceilDiv(extent, candidates[ai].front()) == 1;

        // The executability filter's notion of a free axis (planner's
        // filterTiles: fixed axes at their fix, everything else fully
        // blocked). An axis invisible to both the model and the filter
        // can be excluded from symmetry keys without changing either
        // the DV expression or the filter decision.
        std::int64_t filterTile = 1;
        if (const auto it = constraints.fixed.find(a);
            it != constraints.fixed.end()) {
            filterTile = std::min(it->second, extent);
        }
        const bool filterFree = chain.axes()[ai].reorderable &&
                                extent > 1 &&
                                ceilDiv(extent, filterTile) > 1;
        inKey_[ai] = (alwaysSingle && !filterFree) ? 0 : 1;

        // Capacity-certified maximum candidate: the largest candidate
        // c such that (a = c, everything else minimal) still fits the
        // budget. Memory usage is monotone in every tile, so any
        // feasible tile vector has tiles[a] <= that candidate, which
        // certifies minBlocks_[a] blocks for every feasible solve.
        std::int64_t cappedMax = candidates[ai].front();
        if (memCapacityBytes > 0.0) {
            for (std::size_t ci = candidates[ai].size(); ci-- > 0;) {
                std::vector<std::int64_t> probe = minTiles;
                probe[ai] = candidates[ai][ci];
                const model::DataMovement dm = model::computeDataMovement(
                    chain, identity, probe, model);
                if (static_cast<double>(dm.memUsageBytes) <=
                    memCapacityBytes) {
                    cappedMax = candidates[ai][ci];
                    break;
                }
            }
        } else {
            cappedMax = candidates[ai].back();
        }
        minBlocks_[ai] = std::max<std::int64_t>(
            1, ceilDiv(extent, std::max<std::int64_t>(1, cappedMax)));
    }

    // Per-op loop bitmaps and the per-(op, tensor) lower-bound terms.
    opUses_.resize(chain.ops().size());
    for (std::size_t o = 0; o < chain.ops().size(); ++o) {
        opUses_[o].assign(n, 0);
        for (AxisId a : chain.ops()[o].loops) {
            opUses_[o][static_cast<std::size_t>(a)] = 1;
        }
    }
    for (const ir::OpDecl &op : chain.ops()) {
        for (int t : op.tensorIds) {
            const ir::TensorDecl &tensor =
                chain.tensors()[static_cast<std::size_t>(t)];
            const bool counted =
                model.intermediatesAreIO ||
                tensor.kind != ir::TensorKind::Intermediate;
            if (!counted) {
                continue;
            }
            const double minFootBytes =
                static_cast<double>(tensor.footprintElems(minTiles)) *
                tensor.elementSize;
            // Blocked loop axes of this operator, split by whether they
            // index the tensor. With no blocked tensor axis the
            // multiplier bound is 1 for every order.
            std::vector<std::pair<AxisId, bool>> blocked;
            bool anyTensorAxis = false;
            for (AxisId a : op.loops) {
                if (minBlocks_[static_cast<std::size_t>(a)] <= 1) {
                    continue;
                }
                const bool usesA = tensor.usesAxis(a);
                anyTensorAxis = anyTensorAxis || usesA;
                blocked.emplace_back(a, usesA);
            }
            if (!anyTensorAxis) {
                constBase_ += minFootBytes;
                continue;
            }
            const int termIdx = static_cast<int>(terms_.size());
            terms_.push_back(Term{minFootBytes});
            for (const auto &[a, usesA] : blocked) {
                axisTerms_[static_cast<std::size_t>(a)].emplace_back(
                    termIdx, usesA);
            }
        }
    }
}

std::int64_t
OrderAnalyzer::minBlocks(AxisId axis) const
{
    return minBlocks_[static_cast<std::size_t>(axis)];
}

bool
OrderAnalyzer::alwaysSingleBlock(AxisId axis) const
{
    return inKey_[static_cast<std::size_t>(axis)] == 0;
}

std::string
OrderAnalyzer::symmetryKey(const std::vector<AxisId> &perm) const
{
    // One character per (op, key axis) occurrence keeps the key compact
    // enough for hash-set probing on the hot enumeration path; chains
    // have far fewer axes than the printable range used here.
    std::string key;
    key.reserve(opUses_.size() * perm.size());
    for (const std::vector<char> &uses : opUses_) {
        for (const AxisId a : perm) {
            const auto ai = static_cast<std::size_t>(a);
            if (uses[ai] != 0 && inKey_[ai] != 0) {
                key += static_cast<char>('A' + a);
            }
        }
        key += '|';
    }
    return key;
}

double
OrderAnalyzer::lowerBound(const std::vector<AxisId> &perm) const
{
    CHIMERA_ASSERT(static_cast<int>(perm.size()) == numAxes_,
                   "order arity does not match the chain");
    std::vector<int> &pos = posScratch_;
    for (std::size_t i = 0; i < perm.size(); ++i) {
        pos[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
    }
    // Pass 1: per term, the deepest position of a tensor-using blocked
    // axis (the multiplier's certified boundary). Pass 2: multiply the
    // minimum block counts of every blocked axis at or outside it.
    std::vector<int> boundary(terms_.size(), -1);
    for (AxisId a = 0; a < numAxes_; ++a) {
        const auto ai = static_cast<std::size_t>(a);
        for (const auto &[ti, usesA] : axisTerms_[ai]) {
            if (usesA) {
                boundary[static_cast<std::size_t>(ti)] = std::max(
                    boundary[static_cast<std::size_t>(ti)], pos[ai]);
            }
        }
    }
    std::vector<double> prod(terms_.size(), 1.0);
    for (AxisId a = 0; a < numAxes_; ++a) {
        const auto ai = static_cast<std::size_t>(a);
        for (const auto &[ti, usesA] : axisTerms_[ai]) {
            if (pos[ai] <= boundary[static_cast<std::size_t>(ti)]) {
                prod[static_cast<std::size_t>(ti)] *=
                    static_cast<double>(minBlocks_[ai]);
            }
        }
    }
    double lb = constBase_;
    for (std::size_t ti = 0; ti < terms_.size(); ++ti) {
        lb += terms_[ti].minFootprintBytes * prod[ti];
    }
    return lb;
}

double
OrderAnalyzer::lowerBoundIncremental(const std::vector<AxisId> &perm)
{
    CHIMERA_ASSERT(static_cast<int>(perm.size()) == numAxes_,
                   "order arity does not match the chain");
    std::size_t common = 0;
    while (common < prefix_.size() && common < perm.size() &&
           prefix_[common] == perm[common]) {
        ++common;
    }
    prefix_.resize(common);
    prefixStates_.resize(common);
    for (std::size_t d = common; d < perm.size(); ++d) {
        std::vector<TermState> state =
            d == 0 ? std::vector<TermState>(terms_.size())
                   : prefixStates_[d - 1];
        const AxisId a = perm[d];
        const auto ai = static_cast<std::size_t>(a);
        for (const auto &[ti, usesA] : axisTerms_[ai]) {
            TermState &st = state[static_cast<std::size_t>(ti)];
            st.prodAll *= static_cast<double>(minBlocks_[ai]);
            if (usesA) {
                // The certified boundary moved to this depth: every
                // blocked axis placed so far now counts.
                st.prodBound = st.prodAll;
            }
        }
        prefix_.push_back(a);
        prefixStates_.push_back(std::move(state));
    }
    double lb = constBase_;
    if (prefixStates_.empty()) {
        for (const Term &term : terms_) {
            lb += term.minFootprintBytes;
        }
        return lb;
    }
    const std::vector<TermState> &last = prefixStates_.back();
    for (std::size_t ti = 0; ti < terms_.size(); ++ti) {
        lb += terms_[ti].minFootprintBytes * last[ti].prodBound;
    }
    return lb;
}

} // namespace chimera::analysis
