#include "support/mathutil.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace chimera {

namespace {

/** Clamps a 128-bit value into int64, recording saturation. */
std::int64_t
clamp128(__int128 v, bool &overflow)
{
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    if (v > static_cast<__int128>(kMax)) {
        overflow = true;
        return kMax;
    }
    if (v < static_cast<__int128>(kMin)) {
        overflow = true;
        return kMin;
    }
    return static_cast<std::int64_t>(v);
}

} // namespace

std::int64_t
checkedAdd(std::int64_t a, std::int64_t b, bool &overflow)
{
    return clamp128(static_cast<__int128>(a) + static_cast<__int128>(b),
                    overflow);
}

std::int64_t
checkedMul(std::int64_t a, std::int64_t b, bool &overflow)
{
    return clamp128(static_cast<__int128>(a) * static_cast<__int128>(b),
                    overflow);
}

std::vector<std::int64_t>
divisorsOf(std::int64_t n)
{
    CHIMERA_CHECK(n >= 1, "divisorsOf requires a positive integer");
    std::vector<std::int64_t> divs;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            divs.push_back(d);
            if (d != n / d) {
                divs.push_back(n / d);
            }
        }
    }
    std::sort(divs.begin(), divs.end());
    return divs;
}

std::vector<std::int64_t>
tileCandidates(std::int64_t n)
{
    CHIMERA_CHECK(n >= 1, "tileCandidates requires a positive extent");
    std::vector<std::int64_t> cands = divisorsOf(n);
    for (std::int64_t p = 1; p <= n; p *= 2) {
        cands.push_back(p);
    }
    for (std::int64_t m = 8; m <= n; m += 8) {
        cands.push_back(m);
    }
    cands.push_back(n);
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    return cands;
}

std::int64_t
factorial(int n)
{
    CHIMERA_CHECK(n >= 0 && n <= 20, "factorial argument out of range");
    std::int64_t result = 1;
    for (int i = 2; i <= n; ++i) {
        result *= i;
    }
    return result;
}

std::vector<std::vector<int>>
allPermutations(int n)
{
    CHIMERA_CHECK(n >= 0 && n <= 10,
                  "permutation enumeration capped at 10 axes");
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) {
        perm[i] = i;
    }
    std::vector<std::vector<int>> result;
    result.reserve(static_cast<std::size_t>(factorial(n)));
    do {
        result.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return result;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double logSum = 0.0;
    for (double v : values) {
        CHIMERA_CHECK(v > 0.0, "geometricMean requires positive values");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
rSquared(const std::vector<double> &predicted,
         const std::vector<double> &measured)
{
    CHIMERA_CHECK(predicted.size() == measured.size() && !measured.empty(),
                  "rSquared requires equal-length non-empty vectors");
    double mean = 0.0;
    for (double m : measured) {
        mean += m;
    }
    mean /= static_cast<double>(measured.size());

    double ssRes = 0.0;
    double ssTot = 0.0;
    for (std::size_t i = 0; i < measured.size(); ++i) {
        const double res = measured[i] - predicted[i];
        const double dev = measured[i] - mean;
        ssRes += res * res;
        ssTot += dev * dev;
    }
    if (ssTot == 0.0) {
        return ssRes == 0.0 ? 1.0 : 0.0;
    }
    return 1.0 - ssRes / ssTot;
}

} // namespace chimera
