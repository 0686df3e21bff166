#include "configgen.hh"

#include "sim/rng.hh"

namespace perfbench
{

using triarch::study::StudyConfig;

StudyConfig
paperConfig(std::uint64_t seed)
{
    StudyConfig cfg;
    cfg.seed = seed;
    return cfg;
}

std::vector<StudyConfig>
smallConfigPool(std::uint64_t seed, std::size_t n)
{
    triarch::Rng rng(seed ^ 0x5EED5EED5EEDULL);
    const auto below = [&rng](std::uint64_t bound) {
        return static_cast<unsigned>(rng.nextBelow(bound));
    };
    // A seeded permutation of the pool indices per field: each field
    // takes every value of its range once per n configs, so the seed
    // moves values between configs but not the pool's overall cost.
    const auto spread = [&](unsigned lo, unsigned hi) {
        std::vector<unsigned> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = lo + static_cast<unsigned>(i * (hi - lo + 1) / n);
        for (std::size_t i = n; i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
        return v;
    };
    const auto strides = spread(1, 128);
    const auto elements = spread(1, 256);
    const auto directions = spread(1, 4);
    const auto dwells = spread(1, 2);

    std::vector<StudyConfig> pool;
    pool.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        StudyConfig c;
        c.matrixSize = 64 * (1 + static_cast<unsigned>(i % 4));
        c.cslc.subBands = 1 + static_cast<unsigned>((i / 4) % 16);
        c.cslc.subBandStride = strides[i];
        c.cslc.samples = (c.cslc.subBands - 1) * c.cslc.subBandStride
                         + c.cslc.subBandLen;
        c.beam.elements = elements[i];
        c.beam.directions = directions[i];
        c.beam.dwells = dwells[i];
        c.beam.shift = below(32);
        c.jammerBins.clear();
        for (unsigned b = below(4); b > 0; --b)
            c.jammerBins.push_back(below(c.cslc.samples));
        c.seed = 1 + rng.nextBelow(1u << 20);
        pool.push_back(std::move(c));
    }
    return pool;
}

} // namespace perfbench
