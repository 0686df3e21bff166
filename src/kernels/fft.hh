/**
 * @file
 * FFT family used by the CSLC kernel: a reference O(n^2) DFT, an
 * iterative radix-2 FFT, a radix-4 FFT for power-of-four sizes, and
 * the mixed-radix 128-point transform the paper uses on VIRAM and
 * Imagine (three radix-4 stages and one radix-2 stage, since 128 is
 * not a power of four).
 *
 * Alongside the numerics, each algorithm exposes an operation-count
 * model (flops, loads, stores) that the architecture timing models
 * and the performance model of DESIGN.md consume. Section 4.3 of the
 * paper notes the radix-2 FFT performs about 1.5x the operations of
 * the radix-4 FFT; a unit test pins that ratio.
 */

#ifndef TRIARCH_KERNELS_FFT_HH
#define TRIARCH_KERNELS_FFT_HH

#include <complex>
#include <cstdint>
#include <vector>

namespace triarch::kernels
{

using cfloat = std::complex<float>;

/** Forward twiddle factors W_n^k = exp(-2*pi*i*k/n) for k in [0, n). */
std::vector<cfloat> twiddleTable(unsigned n);

/**
 * twiddleTable(@p n) computed once per thread and size and kept for
 * the thread's lifetime (the reference stays valid); @p n must be a
 * power of two. The values are bit-identical to twiddleTable(n).
 */
const std::vector<cfloat> &cachedTwiddleTable(unsigned n);

/** O(n^2) reference DFT with double-precision accumulation. */
std::vector<cfloat> dftReference(const std::vector<cfloat> &in);

/** In-place iterative radix-2 DIT FFT; n must be a power of two. */
void fftRadix2(std::vector<cfloat> &data);

/** In-place radix-4 DIT FFT; n must be a power of four. */
void fftRadix4(std::vector<cfloat> &data);

/**
 * 128-point transform decomposed as one radix-2 split over two
 * 64-point radix-4 FFTs — the paper's "three radix-4 stages and one
 * radix-2 stage".
 */
void fftMixed128(std::vector<cfloat> &data);

/** Inverse FFT via conjugation; uses fftRadix2 internally. */
void ifft(std::vector<cfloat> &data);

/** Inverse of fftMixed128, same decomposition. */
void ifftMixed128(std::vector<cfloat> &data);

/** Permute @p data into bit-reversed order (radix-2 input order). */
void bitReversePermute(std::vector<cfloat> &data);

/** Operation counts for one transform of a given algorithm. */
struct FftOps
{
    std::uint64_t fadds = 0;
    std::uint64_t fmuls = 0;
    std::uint64_t loads = 0;    //!< 32-bit words read (data + twiddles)
    std::uint64_t stores = 0;   //!< 32-bit words written

    std::uint64_t flops() const { return fadds + fmuls; }
    std::uint64_t total() const { return flops() + loads + stores; }
};

/** Counts for an n-point radix-2 FFT. */
FftOps radix2Ops(unsigned n);

/** Counts for an n-point radix-4 FFT (n a power of four). */
FftOps radix4Ops(unsigned n);

/** Counts for the mixed-radix 128-point FFT. */
FftOps mixed128Ops();

} // namespace triarch::kernels

#endif // TRIARCH_KERNELS_FFT_HH
