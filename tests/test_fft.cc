/**
 * @file
 * Tests for the FFT family: correctness against the reference DFT,
 * algebraic properties (linearity, Parseval, impulse response,
 * inverse round trip), equivalence of the radix variants, and the
 * operation-count models including the paper's radix-2 / radix-4
 * op-ratio claim (Section 4.3).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "kernels/fft.hh"
#include "sim/rng.hh"

namespace triarch::kernels
{
namespace
{

std::vector<cfloat>
randomSignal(unsigned n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<cfloat> x(n);
    for (auto &v : x)
        v = cfloat(rng.nextSignedFloat(), rng.nextSignedFloat());
    return x;
}

double
maxError(const std::vector<cfloat> &a, const std::vector<cfloat> &b)
{
    double e = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        e = std::max<double>(e, std::abs(a[i] - b[i]));
    return e;
}

class FftSizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FftSizes, Radix2MatchesDft)
{
    const unsigned n = GetParam();
    auto x = randomSignal(n, n);
    auto ref = dftReference(x);
    fftRadix2(x);
    EXPECT_LT(maxError(x, ref), 1e-3 * n);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u,
                                           128u, 256u, 1024u));

class Radix4Sizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Radix4Sizes, Radix4MatchesDft)
{
    const unsigned n = GetParam();
    auto x = randomSignal(n, n + 1);
    auto ref = dftReference(x);
    fftRadix4(x);
    EXPECT_LT(maxError(x, ref), 1e-3 * n);
}

INSTANTIATE_TEST_SUITE_P(PowersOfFour, Radix4Sizes,
                         ::testing::Values(4u, 16u, 64u, 256u));

TEST(Fft, Mixed128MatchesDft)
{
    auto x = randomSignal(128, 77);
    auto ref = dftReference(x);
    fftMixed128(x);
    EXPECT_LT(maxError(x, ref), 1e-3);
}

TEST(Fft, Mixed128MatchesRadix2)
{
    auto x = randomSignal(128, 5);
    auto y = x;
    fftMixed128(x);
    fftRadix2(y);
    EXPECT_LT(maxError(x, y), 1e-4);
}

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    std::vector<cfloat> x(128, cfloat(0, 0));
    x[0] = cfloat(1, 0);
    fftMixed128(x);
    for (const auto &v : x) {
        EXPECT_NEAR(v.real(), 1.0f, 1e-5);
        EXPECT_NEAR(v.imag(), 0.0f, 1e-5);
    }
}

TEST(Fft, ToneLandsInItsBin)
{
    constexpr unsigned n = 128, bin = 9;
    std::vector<cfloat> x(n);
    for (unsigned t = 0; t < n; ++t) {
        const double a = 2.0 * M_PI * bin * t / n;
        x[t] = cfloat(std::cos(a), std::sin(a));
    }
    fftMixed128(x);
    for (unsigned k = 0; k < n; ++k) {
        if (k == bin)
            EXPECT_NEAR(std::abs(x[k]), n, 1e-2);
        else
            EXPECT_LT(std::abs(x[k]), 1e-2);
    }
}

TEST(Fft, Linearity)
{
    auto x = randomSignal(128, 1);
    auto y = randomSignal(128, 2);
    std::vector<cfloat> sum(128);
    for (unsigned i = 0; i < 128; ++i)
        sum[i] = 2.0f * x[i] + 3.0f * y[i];

    fftMixed128(x);
    fftMixed128(y);
    fftMixed128(sum);
    std::vector<cfloat> expect(128);
    for (unsigned i = 0; i < 128; ++i)
        expect[i] = 2.0f * x[i] + 3.0f * y[i];
    EXPECT_LT(maxError(sum, expect), 1e-3);
}

TEST(Fft, ParsevalHolds)
{
    auto x = randomSignal(256, 3);
    double timePower = 0.0;
    for (auto &v : x)
        timePower += std::norm(v);
    auto spec = x;
    fftRadix2(spec);
    double freqPower = 0.0;
    for (auto &v : spec)
        freqPower += std::norm(v);
    EXPECT_NEAR(freqPower / 256.0, timePower, 1e-3 * timePower);
}

TEST(Fft, InverseRoundTripRadix2)
{
    auto x = randomSignal(512, 4);
    auto y = x;
    fftRadix2(y);
    ifft(y);
    EXPECT_LT(maxError(x, y), 1e-4);
}

TEST(Fft, InverseRoundTripMixed128)
{
    auto x = randomSignal(128, 6);
    auto y = x;
    fftMixed128(y);
    ifftMixed128(y);
    EXPECT_LT(maxError(x, y), 1e-4);
}

TEST(Fft, BitReversalIsInvolution)
{
    auto x = randomSignal(64, 8);
    auto y = x;
    bitReversePermute(y);
    EXPECT_NE(maxError(x, y), 0.0);
    bitReversePermute(y);
    EXPECT_EQ(maxError(x, y), 0.0);
}

TEST(FftOpsModel, Radix2CountScalesNLogN)
{
    const FftOps a = radix2Ops(128);
    // 448 butterflies: 10 flops, 6 loads, 4 stores each.
    EXPECT_EQ(a.fadds, 448u * 6);
    EXPECT_EQ(a.fmuls, 448u * 4);
    EXPECT_EQ(a.loads, 448u * 6);
    EXPECT_EQ(a.stores, 448u * 4);
    EXPECT_EQ(a.flops(), 4480u);
}

TEST(FftOpsModel, Radix4CheaperPerPoint)
{
    const double r2 = static_cast<double>(radix2Ops(64).flops());
    const double r4 = static_cast<double>(radix4Ops(64).flops());
    EXPECT_LT(r4, r2);
}

TEST(FftOpsModel, PaperRadixRatioAboutOnePointFive)
{
    // Section 4.3: "The number of operations (including loads and
    // stores) in the radix-2 FFT is about 1.5 the number in the
    // radix-4 FFT" for the 128-point CSLC transform.
    const double ratio = static_cast<double>(radix2Ops(128).total())
                         / static_cast<double>(mixed128Ops().total());
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 1.7);
}

TEST(FftOpsModel, TwiddleTableUnitCircle)
{
    auto tw = twiddleTable(64);
    ASSERT_EQ(tw.size(), 64u);
    for (auto &w : tw)
        EXPECT_NEAR(std::abs(w), 1.0f, 1e-5);
    EXPECT_NEAR(tw[16].imag(), -1.0f, 1e-5);    // W^(n/4) = -i
}

TEST(FftOpsModel, CachedTwiddlesAreBitIdenticalAndStable)
{
    // Interleave sizes so a later fill cannot disturb an earlier
    // table: each size keeps its own slot and its own address.
    const std::vector<cfloat> &t128 = cachedTwiddleTable(128);
    const std::vector<cfloat> &t64 = cachedTwiddleTable(64);
    for (unsigned n : {2u, 64u, 128u, 1024u}) {
        const std::vector<cfloat> fresh = twiddleTable(n);
        const std::vector<cfloat> &cached = cachedTwiddleTable(n);
        ASSERT_EQ(cached.size(), n);
        EXPECT_EQ(std::memcmp(cached.data(), fresh.data(),
                              n * sizeof(cfloat)),
                  0)
            << "n=" << n;
    }
    EXPECT_EQ(&cachedTwiddleTable(128), &t128);
    EXPECT_EQ(&cachedTwiddleTable(64), &t64);
}

} // namespace
} // namespace triarch::kernels
