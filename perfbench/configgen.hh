/**
 * @file
 * Seeded workload inputs. Every config the benchmark feeds the
 * simulator comes from here, as a pure function of the --seed, so the
 * same seed always gives the same inputs.
 */

#ifndef PERFBENCH_CONFIGGEN_HH
#define PERFBENCH_CONFIGGEN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "study/experiment.hh"

namespace perfbench
{

/** The paper's default config (1024^2 corner turn, 4 x 8K CSLC in 73
 *  sub-bands, 1608 x 4 beam steering) with @p seed as its data seed.
 *  The kernels are data-oblivious, so cycles match any seed's. */
triarch::study::StudyConfig paperConfig(std::uint64_t seed);

/**
 * @p n seeded small configs: corner-turn matrix 64-256, 1-16
 * sub-bands, 1-256 beam elements. Matrix size and sub-band count are
 * stratified over the pool index (index i gets matrix 64 * (1 + i % 4)
 * and 1 + (i / 4) % 16 sub-bands), so every pool of 64 covers the
 * same shape grid. Stride, elements, directions and dwells are spread
 * evenly over their ranges and dealt out by a seeded permutation, so
 * per-config cost does not swing with the seed. The seed draws the
 * rest (shift, jammer bins, data seed). Every config passes
 * study::validateConfig.
 */
std::vector<triarch::study::StudyConfig>
smallConfigPool(std::uint64_t seed, std::size_t n);

} // namespace perfbench

#endif // PERFBENCH_CONFIGGEN_HH
