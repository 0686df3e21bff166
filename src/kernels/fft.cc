#include "fft.hh"

#include <array>
#include <cmath>
#include <numbers>

#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::kernels
{

std::vector<cfloat>
twiddleTable(unsigned n)
{
    std::vector<cfloat> w(n);
    for (unsigned k = 0; k < n; ++k) {
        const double angle =
            -2.0 * std::numbers::pi * static_cast<double>(k) / n;
        w[k] = cfloat(static_cast<float>(std::cos(angle)),
                      static_cast<float>(std::sin(angle)));
    }
    return w;
}

const std::vector<cfloat> &
cachedTwiddleTable(unsigned n)
{
    triarch_assert(isPowerOf2(n), "cached twiddles need n = 2^k, got ",
                   n);
    // One slot per power of two: a filled slot is never rebuilt, so
    // the returned reference outlives later calls for other sizes.
    static thread_local std::array<std::vector<cfloat>, 32> tables;
    std::vector<cfloat> &table = tables[floorLog2(n)];
    if (table.empty())
        table = twiddleTable(n);
    return table;
}

std::vector<cfloat>
dftReference(const std::vector<cfloat> &in)
{
    const std::size_t n = in.size();
    std::vector<cfloat> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        double re = 0.0, im = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            const double angle = -2.0 * std::numbers::pi
                * static_cast<double>(k) * static_cast<double>(t) / n;
            const double c = std::cos(angle), s = std::sin(angle);
            re += in[t].real() * c - in[t].imag() * s;
            im += in[t].real() * s + in[t].imag() * c;
        }
        out[k] = cfloat(static_cast<float>(re), static_cast<float>(im));
    }
    return out;
}

void
bitReversePermute(std::vector<cfloat> &data)
{
    const unsigned n = static_cast<unsigned>(data.size());
    triarch_assert(isPowerOf2(n), "bit reversal needs power-of-two size");
    const unsigned nbits = floorLog2(n);
    for (unsigned i = 0; i < n; ++i) {
        const unsigned j = reverseBits(i, nbits);
        if (j > i)
            std::swap(data[i], data[j]);
    }
}

void
fftRadix2(std::vector<cfloat> &data)
{
    const unsigned n = static_cast<unsigned>(data.size());
    triarch_assert(isPowerOf2(n) && n >= 2, "radix-2 FFT needs n = 2^k");
    const std::vector<cfloat> &twiddles = cachedTwiddleTable(n);

    bitReversePermute(data);

    for (unsigned len = 2; len <= n; len <<= 1) {
        const unsigned half = len >> 1;
        const unsigned step = n / len;
        for (unsigned base = 0; base < n; base += len) {
            for (unsigned k = 0; k < half; ++k) {
                const cfloat w = twiddles[k * step];
                const cfloat t = w * data[base + k + half];
                const cfloat u = data[base + k];
                data[base + k] = u + t;
                data[base + k + half] = u - t;
            }
        }
    }
}

namespace
{

/**
 * Radix-4 DIT over a strided view: length @p n (power of four),
 * elements data[off + i*stride] transformed using twiddles of the
 * full size @p rootN.
 */
void
radix4Strided(std::vector<cfloat> &data, unsigned off, unsigned stride,
              unsigned n, const std::vector<cfloat> &tw, unsigned rootN)
{
    // Digit-reverse (base-4) permutation of the strided view.
    const unsigned pairs = floorLog2(n);    // even, since n = 4^m
    auto digitRev4 = [pairs](unsigned v) {
        unsigned r = 0;
        for (unsigned i = 0; i < pairs; i += 2) {
            r = (r << 2) | (v & 3);
            v >>= 2;
        }
        return r;
    };
    for (unsigned i = 0; i < n; ++i) {
        const unsigned j = digitRev4(i);
        if (j > i)
            std::swap(data[off + i * stride], data[off + j * stride]);
    }

    const cfloat jneg(0.0f, -1.0f);     // -i, forward transform
    for (unsigned len = 4; len <= n; len <<= 2) {
        const unsigned quarter = len >> 2;
        const unsigned step = rootN / len * (rootN == n ? 1 : 1);
        const unsigned twStep = (rootN / len);
        (void)step;
        for (unsigned base = 0; base < n; base += len) {
            for (unsigned k = 0; k < quarter; ++k) {
                const cfloat w1 = tw[(k * twStep) % rootN];
                const cfloat w2 = tw[(2 * k * twStep) % rootN];
                const cfloat w3 = tw[(3 * k * twStep) % rootN];

                const unsigned i0 = off + (base + k) * stride;
                const unsigned i1 = i0 + quarter * stride;
                const unsigned i2 = i1 + quarter * stride;
                const unsigned i3 = i2 + quarter * stride;

                const cfloat a = data[i0];
                const cfloat b = w1 * data[i1];
                const cfloat c = w2 * data[i2];
                const cfloat d = w3 * data[i3];

                const cfloat apc = a + c;
                const cfloat amc = a - c;
                const cfloat bpd = b + d;
                const cfloat bmd = jneg * (b - d);

                data[i0] = apc + bpd;
                data[i1] = amc + bmd;
                data[i2] = apc - bpd;
                data[i3] = amc - bmd;
            }
        }
    }
}

} // namespace

void
fftRadix4(std::vector<cfloat> &data)
{
    const unsigned n = static_cast<unsigned>(data.size());
    triarch_assert(isPowerOf2(n) && (floorLog2(n) % 2 == 0),
                   "radix-4 FFT needs n = 4^m, got n=", n);
    radix4Strided(data, 0, 1, n, cachedTwiddleTable(n), n);
}

void
fftMixed128(std::vector<cfloat> &data)
{
    constexpr unsigned n = 128;
    triarch_assert(data.size() == n, "fftMixed128 needs 128 points");

    // DIT radix-2 split: evens and odds are 64-point radix-4 FFTs.
    std::vector<cfloat> even(64), odd(64);
    for (unsigned i = 0; i < 64; ++i) {
        even[i] = data[2 * i];
        odd[i] = data[2 * i + 1];
    }
    fftRadix4(even);
    fftRadix4(odd);

    const std::vector<cfloat> &tw = cachedTwiddleTable(n);
    for (unsigned k = 0; k < 64; ++k) {
        const cfloat t = tw[k] * odd[k];
        data[k] = even[k] + t;
        data[k + 64] = even[k] - t;
    }
}

void
ifft(std::vector<cfloat> &data)
{
    for (auto &v : data)
        v = std::conj(v);
    fftRadix2(data);
    const float inv = 1.0f / static_cast<float>(data.size());
    for (auto &v : data)
        v = std::conj(v) * inv;
}

void
ifftMixed128(std::vector<cfloat> &data)
{
    for (auto &v : data)
        v = std::conj(v);
    fftMixed128(data);
    const float inv = 1.0f / static_cast<float>(data.size());
    for (auto &v : data)
        v = std::conj(v) * inv;
}

FftOps
radix2Ops(unsigned n)
{
    triarch_assert(isPowerOf2(n), "radix-2 op count needs n = 2^k");
    const std::uint64_t stages = floorLog2(n);
    const std::uint64_t butterflies = (n / 2) * stages;
    FftOps ops;
    // Per butterfly: one complex multiply (4 mul + 2 add) and two
    // complex add/sub (4 adds).
    ops.fmuls = butterflies * 4;
    ops.fadds = butterflies * 6;
    // Two complex points in + one twiddle, two complex points out.
    ops.loads = butterflies * 6;
    ops.stores = butterflies * 4;
    return ops;
}

FftOps
radix4Ops(unsigned n)
{
    triarch_assert(isPowerOf2(n) && floorLog2(n) % 2 == 0,
                   "radix-4 op count needs n = 4^m");
    const std::uint64_t stages = floorLog2(n) / 2;
    const std::uint64_t butterflies = (n / 4) * stages;
    FftOps ops;
    // Per radix-4 butterfly: 3 complex multiplies (12 mul + 6 add)
    // and 8 complex add/subs (16 adds).
    ops.fmuls = butterflies * 12;
    ops.fadds = butterflies * 22;
    // Four complex points + three twiddles in, four complex out.
    ops.loads = butterflies * 14;
    ops.stores = butterflies * 8;
    return ops;
}

FftOps
mixed128Ops()
{
    // Two 64-point radix-4 transforms plus one 64-butterfly radix-2
    // combining stage.
    FftOps r4 = radix4Ops(64);
    FftOps ops;
    ops.fadds = 2 * r4.fadds + 64 * 6;
    ops.fmuls = 2 * r4.fmuls + 64 * 4;
    ops.loads = 2 * r4.loads + 64 * 6;
    ops.stores = 2 * r4.stores + 64 * 4;
    return ops;
}

} // namespace triarch::kernels
