/**
 * @file
 * Order statistics the benchmark reports: linear-interpolated
 * quantiles, and the tail rule — a timing's tail is the highest
 * percentile on a fixed ladder that still has at least ten samples
 * beyond it, so a tail is never read off a handful of outliers.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Quantile @p q in [0, 1] of @p samples (linear interpolation
 *  between closest ranks); 0 for an empty set. */
inline double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo))
                             * (samples[hi] - samples[lo]);
}

inline double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

/** Percentile ladder of the tail rule, in tenths of a percent. */
inline constexpr unsigned kTailLadderPermille[] = {999, 990, 950,
                                                   900, 750, 500};

/** Samples a percentile must have beyond it to count as a tail. */
inline constexpr std::size_t kTailMinBeyond = 10;

/**
 * The tail percentile (in tenths of a percent) for @p n samples: the
 * highest ladder rung with at least kTailMinBeyond samples beyond
 * it, i.e. n * (1 - p) >= 10. Fewer than 20 samples leave no tail;
 * the rule then answers the median (500).
 */
inline unsigned
tailPermille(std::size_t n)
{
    for (unsigned p : kTailLadderPermille) {
        if (n * (1000 - p) >= kTailMinBeyond * 1000)
            return p;
    }
    return 500;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
