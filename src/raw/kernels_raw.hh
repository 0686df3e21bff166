/**
 * @file
 * The three study kernels mapped onto Raw (Section 3), as real
 * assembled tile programs:
 *
 *  - corner turn: the MIT-designed block algorithm — each tile
 *    streams 64x64-word blocks from its DRAM port through the static
 *    network, transposes them in local SRAM using exactly one store
 *    (network -> local) and one load (local -> network) per word,
 *    and streams them back out (Sections 3.1, 4.2);
 *  - CSLC: MIMD mode — each tile independently processes whole
 *    sub-band sets from cached global memory with an assembled
 *    radix-2 FFT (radix-2 avoids the register spilling the paper
 *    hit with radix-4; ~1.5x the operations), exposing the 73-on-16
 *    load imbalance the paper reports (Sections 3.2, 4.3);
 *  - beam steering: stream mode — calibration data is streamed from
 *    the ports straight into the tiles' $csti network registers and
 *    results leave through $csto, so the inner loop has no loads or
 *    stores at all (Sections 3.3, 4.4).
 */

#ifndef TRIARCH_RAW_KERNELS_RAW_HH
#define TRIARCH_RAW_KERNELS_RAW_HH

#include <cstdint>
#include <vector>

#include "kernels/beam_steering.hh"
#include "kernels/corner_turn.hh"
#include "kernels/cslc.hh"
#include "raw/assembler.hh"
#include "raw/machine.hh"

namespace triarch::raw
{

/** Block edge for the corner turn (64x64 words fits tile SRAM). */
constexpr unsigned cornerTurnBlock = 64;

/**
 * Corner turn on Raw. Requires rows == cols, divisible by 64, and
 * rows/64 >= the mesh tile count is not required (tiles share block
 * rows round-robin).
 */
Cycles cornerTurnRaw(RawMachine &machine,
                     const kernels::WordMatrix &src,
                     kernels::WordMatrix &dst);

/** Result of the CSLC run, including the load-balance breakdown. */
struct RawCslcResult
{
    Cycles cycles = 0;          //!< measured wall clock
    /**
     * Perfect-load-balance extrapolation the paper reports in Table
     * 3: measured time scaled by (subBands / tiles) / maxSetsPerTile
     * (Section 4.3: input sets arrive continuously in a real system).
     */
    Cycles balancedCycles = 0;
    double idleFraction = 0.0;  //!< tile-cycles idle due to imbalance
};

/**
 * CSLC on Raw (data-parallel MIMD, radix-2 FFT, cached memory).
 * @p intervals processes the interval that many times with the sets
 * handed out round-robin across tiles, modelling the continuously
 * arriving input of a real system (Section 4.3: with a continuous
 * queue the 73-on-16 imbalance amortizes away).
 */
RawCslcResult cslcRaw(RawMachine &machine,
                      const kernels::CslcConfig &cfg,
                      const kernels::CslcInput &in,
                      const kernels::CslcWeights &weights,
                      kernels::CslcOutput &out,
                      unsigned intervals = 1);

/**
 * CSLC on Raw in stream mode — the variant Section 4.3 sketches but
 * the paper did not complete: sub-band blocks and weights are
 * streamed to each tile through the static network by the DRAM
 * ports (input words are stored once at bit-reversed offsets as
 * they arrive; weight words are consumed directly from $csti as
 * instruction operands) and results leave through $csto, so the
 * kernel performs no cached global-memory accesses at all and
 * cache-miss stalls disappear.
 */
RawCslcResult cslcRawStreamed(RawMachine &machine,
                              const kernels::CslcConfig &cfg,
                              const kernels::CslcInput &in,
                              const kernels::CslcWeights &weights,
                              kernels::CslcOutput &out);

/** Beam steering on Raw (stream mode, no loads/stores per output). */
Cycles beamSteeringRaw(RawMachine &machine,
                       const kernels::BeamConfig &cfg,
                       const kernels::BeamTables &tables,
                       std::vector<std::int32_t> &out);

// The tile programs behind the mappings above. Each is a function
// of one per-tile count (plus per-cell constants), so a mapping
// assembles each distinct program once per cell; exposed for the
// decode tests.

/** Corner turn over @p num_blocks 64x64 blocks. */
std::vector<Instr> cornerTurnProgram(unsigned num_blocks);
/** Cached-memory CSLC over @p sets sub-band sets. */
std::vector<Instr> cslcProgram(unsigned sets);
/** Stream-mode CSLC over @p sets sub-band sets. */
std::vector<Instr> cslcStreamedProgram(unsigned sets);
/** Beam steering of @p count elements over @p configs
 *  (dwell, direction) pairs, shifting results right by @p shift. */
std::vector<Instr> beamSteeringProgram(unsigned count, unsigned configs,
                                       unsigned shift);

/**
 * Emit an in-place radix-2 128-point FFT over a local-SRAM buffer of
 * interleaved complex floats; exposed for tests and the radix
 * ablation bench. @p tw_local points at a 128-entry complex twiddle
 * table (forward or conjugated for the inverse transform). Pass
 * @p skip_bitrev = true when the buffer was filled in bit-reversed
 * order already (by the bit-reversing copy).
 */
void emitFft128Local(Assembler &as, std::int32_t buf_local,
                     std::int32_t tw_local, bool skip_bitrev = false,
                     bool inverse = false);

} // namespace triarch::raw

#endif // TRIARCH_RAW_KERNELS_RAW_HH
