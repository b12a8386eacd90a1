#include "verify/concurrency_verifier.hpp"

namespace chimera::verify {

using analysis::AxisConcurrency;

namespace {

/** Permissiveness rank: parallel allows most, sequential least. */
int
permissiveness(AxisConcurrency kind)
{
    switch (kind) {
      case AxisConcurrency::Parallel: return 2;
      case AxisConcurrency::Reduction: return 1;
      case AxisConcurrency::Sequential: return 0;
    }
    return 0;
}

} // namespace

Report
verifyConcurrency(const ir::Chain &chain,
                  const std::vector<std::int64_t> &tiles,
                  const std::vector<AxisConcurrency> &declared)
{
    Report report;
    if (static_cast<int>(declared.size()) != chain.numAxes()) {
        report.error("DP01", "concurrency",
                     "declared table covers " +
                         std::to_string(declared.size()) +
                         " axes but the chain has " +
                         std::to_string(chain.numAxes()));
        return report;
    }

    const analysis::ConcurrencyTable derived =
        analysis::analyzeConcurrency(chain, tiles);
    for (ir::AxisId a = 0; a < chain.numAxes(); ++a) {
        const auto slot = static_cast<std::size_t>(a);
        const AxisConcurrency want = declared[slot];
        const analysis::AxisClassification &have = derived.axes[slot];
        if (want == have.kind) {
            continue;
        }
        const std::string location = "concurrency." + chain.axisName(a);
        if (permissiveness(want) < permissiveness(have.kind)) {
            report.warning("DP04", location,
                           "axis " + chain.axisName(a) +
                               " is declared " +
                               analysis::concurrencyName(want) +
                               " but the analysis proves it " +
                               analysis::concurrencyName(have.kind) +
                               " — sound, but over-serialized (" +
                               have.reason + ")");
            continue;
        }
        if (want == AxisConcurrency::Parallel && have.epilogueInduced) {
            report.error("DP05", location,
                         "axis " + chain.axisName(a) +
                             " is declared parallel but the epilogue"
                             " couples blocks along it: " +
                             have.reason);
        } else if (want == AxisConcurrency::Parallel &&
                   have.kind == AxisConcurrency::Reduction) {
            report.error("DP02", location,
                         "axis " + chain.axisName(a) +
                             " is declared parallel but is a reduction"
                             " axis: " +
                             have.reason);
        } else {
            report.error("DP03", location,
                         "axis " + chain.axisName(a) + " is declared " +
                             analysis::concurrencyName(want) +
                             " but carries a block dependence: " +
                             have.reason);
        }
    }
    return report;
}

} // namespace chimera::verify
