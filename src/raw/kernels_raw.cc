#include "kernels_raw.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "kernels/fft.hh"
#include "raw/assembler.hh"
#include "sim/bitutil.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace triarch::raw
{

using kernels::cfloat;

// ----------------------------------------------------------------
// Corner turn.
// ----------------------------------------------------------------

namespace
{

/**
 * Load tile t with build(keys[t]), assembling and decoding each
 * distinct program once: a mapping's tile programs differ only in a
 * per-tile count, which most tiles share, and tiles with equal keys
 * share one decoded copy.
 */
template <typename Build>
void
loadPrograms(RawMachine &machine, const std::vector<unsigned> &keys,
             Build build)
{
    std::map<unsigned, std::shared_ptr<const DecodedProgram>> programs;
    for (unsigned t = 0; t < keys.size(); ++t) {
        auto [it, fresh] = programs.try_emplace(keys[t]);
        if (fresh) {
            it->second = std::make_shared<const DecodedProgram>(
                decodeProgram(build(keys[t])));
        }
        machine.setProgram(t, it->second);
    }
}

/** Interleaved (re, im) words of the 128-point twiddle table,
 *  conjugated for the inverse transform. */
std::vector<Word>
twiddleWords(bool inverse)
{
    const auto &tw = kernels::cachedTwiddleTable(128);
    std::vector<Word> words(256);
    for (unsigned k = 0; k < 128; ++k) {
        words[2 * k] = floatToWord(tw[k].real());
        words[2 * k + 1] =
            floatToWord(inverse ? -tw[k].imag() : tw[k].imag());
    }
    return words;
}

} // namespace

/**
 * Tile program for the corner turn: per block, receive 64x64 words
 * from $csti storing each word once into local SRAM at the
 * transposed offset, then load each word once sending it to $csto —
 * the paper's "one load and one store operation for each
 * DRAM-to-DRAM transfer".
 */
std::vector<Instr>
cornerTurnProgram(unsigned num_blocks)
{
    constexpr unsigned edge = cornerTurnBlock;
    Assembler as;

    if (num_blocks == 0) {
        as.halt();
        return as.finish();
    }

    as.li(5, static_cast<std::int32_t>(num_blocks));
    Label blockLoop = as.label();
    as.bind(blockLoop);

    // Phase 1: store $csti words at transposed local offsets.
    // Receive order is row-major (r, c); local layout is c*64 + r.
    as.li(1, 0);                            // r * 4
    as.li(4, edge * 4);                     // bound
    Label outer = as.label();
    as.bind(outer);
    as.move(2, 1);                          // addr = r*4
    as.li(3, 4);                            // 4 groups of 16 columns
    Label inner = as.label();
    as.bind(inner);
    for (unsigned k = 0; k < 16; ++k)
        as.sw(regCsti, 2, static_cast<std::int32_t>(k * edge * 4));
    as.addi(2, 2, 16 * edge * 4);
    as.addi(3, 3, -1);
    as.bne(3, 0, inner);
    as.addi(1, 1, 4);
    as.bne(1, 4, outer);

    // Phase 2: stream the block back out in transposed order.
    as.li(2, 0);
    as.li(4, static_cast<std::int32_t>(edge * edge * 4));
    Label out = as.label();
    as.bind(out);
    for (unsigned k = 0; k < 16; ++k)
        as.lw(regCsto, 2, static_cast<std::int32_t>(k * 4));
    as.addi(2, 2, 64);
    as.bne(2, 4, out);

    as.addi(5, 5, -1);
    as.bne(5, 0, blockLoop);
    as.halt();
    return as.finish();
}

Cycles
cornerTurnRaw(RawMachine &machine, const kernels::WordMatrix &src,
              kernels::WordMatrix &dst)
{
    trace::TraceScope setup("raw.ct.setup", "raw");
    constexpr unsigned edge = cornerTurnBlock;
    triarch_assert(src.rows == src.cols && src.rows % edge == 0,
                   "Raw corner turn needs a square matrix, rows % 64 == 0");
    const unsigned n = src.rows;
    const unsigned grid = n / edge;
    const unsigned tiles = machine.config().tiles();

    const Addr srcBase = machine.allocGlobal(
        static_cast<std::uint64_t>(n) * n * 4, "ct src");
    const Addr dstBase = machine.allocGlobal(
        static_cast<std::uint64_t>(n) * n * 4, "ct dst");
    machine.pokeGlobal(srcBase, src.data);

    // Tile t owns block rows t, t + tiles, ...; its DMA port feeds
    // source block rows in and writes transposed blocks out.
    std::vector<unsigned> blocksPerTile(tiles, 0);
    for (unsigned br = 0; br < grid; ++br) {
        const unsigned t = br % tiles;
        blocksPerTile[t] += grid;
        for (unsigned bc = 0; bc < grid; ++bc) {
            for (unsigned r = 0; r < edge; ++r) {
                machine.dmaIn(t, t,
                              srcBase + ((static_cast<Addr>(br) * edge
                                          + r) * n + bc * edge) * 4,
                              edge);
            }
            for (unsigned r2 = 0; r2 < edge; ++r2) {
                machine.dmaOut(t,
                               dstBase + ((static_cast<Addr>(bc) * edge
                                           + r2) * n + br * edge) * 4,
                               edge);
            }
        }
    }

    for (unsigned t = 0; t < tiles; ++t)
        machine.setRoute(t, portEndpoint(t));
    loadPrograms(machine, blocksPerTile, cornerTurnProgram);

    setup.end();
    trace::TraceScope runScope("raw.ct.run", "raw",
                               &machine.statGroup());
    const Cycles cycles = machine.run();
    runScope.end();

    trace::TraceScope readback("raw.ct.readback", "raw");
    dst = kernels::WordMatrix(n, n);
    machine.peekGlobalInto(dstBase, dst.data);
    return cycles;
}

// ----------------------------------------------------------------
// CSLC.
// ----------------------------------------------------------------

namespace
{

// Local SRAM layout for the CSLC tile program.
constexpr std::int32_t twFwdLocal = 0;          // 128 complex
constexpr std::int32_t twInvLocal = 1024;
constexpr std::int32_t bufA0Local = 2048;       // aux0 spectrum
constexpr std::int32_t bufA1Local = 3072;
constexpr std::int32_t bufMLocal = 4096;        // main work buffer
constexpr std::int32_t descLocal = 5120;
constexpr unsigned descWords = 10;

/**
 * Emit: copy 128 complex values from the global address in r1 into
 * local @p dst in bit-reversed order, folding the FFT input
 * reordering into the copy (straight-line; the store offsets are
 * baked in, so no separate reversal pass is needed).
 */
void
emitCopyInBitrev(Assembler &as, std::int32_t dst)
{
    for (unsigned group = 0; group < 32; ++group) {
        // 4 complex values (8 words) per group.
        for (unsigned k = 0; k < 8; ++k)
            as.lw(6 + k, 1, static_cast<std::int32_t>(k * 4));
        for (unsigned c = 0; c < 4; ++c) {
            const unsigned i = group * 4 + c;
            const std::int32_t at =
                dst + static_cast<std::int32_t>(reverseBits(i, 7)) * 8;
            as.sw(6 + 2 * c, 0, at);
            as.sw(6 + 2 * c + 1, 0, at + 4);
        }
        as.addi(1, 1, 32);
    }
}

/**
 * Emit: copy 256 words from local @src to the global address in r1,
 * scaling every float by the constant in r21 (the IFFT 1/N).
 */
void
emitCopyOutScaled(Assembler &as, std::int32_t src)
{
    as.li(2, src);
    as.li(3, 32);
    Label loop = as.label();
    as.bind(loop);
    for (unsigned k = 0; k < 8; ++k)
        as.lw(6 + k, 2, static_cast<std::int32_t>(k * 4));
    for (unsigned k = 0; k < 8; ++k)
        as.fmul(6 + k, 6 + k, 21);
    for (unsigned k = 0; k < 8; ++k)
        as.sw(6 + k, 1, static_cast<std::int32_t>(k * 4));
    as.addi(1, 1, 32);
    as.addi(2, 2, 32);
    as.addi(3, 3, -1);
    as.bne(3, 0, loop);
}

/**
 * Emit the weight-application loop: main buffer (local) minus
 * w0*aux0 minus w1*aux1 over 128 bins. Weight pointers (global) are
 * in r1 and r2 on entry.
 */
void
emitWeightApply(Assembler &as)
{
    as.li(3, bufA0Local);
    as.li(4, bufA1Local);
    as.li(5, bufMLocal);
    as.li(18, 128);
    Label loop = as.label();
    as.bind(loop);
    as.lw(6, 5, 0);             // m.re
    as.lw(7, 5, 4);             // m.im
    for (unsigned a = 0; a < 2; ++a) {
        const unsigned wp = 1 + a;      // weight pointer reg
        const unsigned ap = 3 + a;      // aux spectrum pointer reg
        as.lw(8, wp, 0);        // w.re
        as.lw(9, wp, 4);        // w.im
        as.lw(10, ap, 0);       // a.re
        as.lw(11, ap, 4);       // a.im
        as.fmul(12, 8, 10);
        as.fmul(13, 9, 11);
        as.fmul(14, 8, 11);
        as.fmul(15, 9, 10);
        as.fsub(16, 12, 13);    // t.re
        as.fadd(17, 14, 15);    // t.im
        as.fsub(6, 6, 16);
        as.fsub(7, 7, 17);
    }
    as.sw(6, 5, 0);
    as.sw(7, 5, 4);
    for (unsigned p : {1u, 2u, 3u, 4u, 5u})
        as.addi(p, p, 8);
    as.addi(18, 18, -1);
    as.bne(18, 0, loop);
}

} // namespace

void
emitFft128Local(Assembler &as, std::int32_t buf_local,
                std::int32_t tw_local, bool skip_bitrev, bool inverse)
{
    constexpr unsigned n = 128;

    // Bit-reversal: straight-line swaps of complex pairs (skipped
    // when the buffer was filled by emitCopyInBitrev).
    for (unsigned i = 0; !skip_bitrev && i < n; ++i) {
        const unsigned j = reverseBits(i, 7);
        if (j <= i)
            continue;
        const std::int32_t ia = buf_local
                                + static_cast<std::int32_t>(i) * 8;
        const std::int32_t ja = buf_local
                                + static_cast<std::int32_t>(j) * 8;
        as.lw(6, 0, ia);
        as.lw(7, 0, ia + 4);
        as.lw(8, 0, ja);
        as.lw(9, 0, ja + 4);
        as.sw(8, 0, ia);
        as.sw(9, 0, ia + 4);
        as.sw(6, 0, ja);
        as.sw(7, 0, ja + 4);
    }

    // Butterfly stages. The first two stages have trivial twiddles
    // (1 and -i) and are emitted multiply-free, as hand-optimized
    // radix-2 codes do; later stages use a single data pointer with
    // immediate offsets for the butterfly partner, and the loop
    // bookkeeping is slotted between dependent FP operations to
    // absorb latency.
    for (unsigned len = 2; len <= n; len <<= 1) {
        const unsigned half = len >> 1;
        const unsigned step = n / len;
        const auto off = static_cast<std::int32_t>(half * 8);

        as.li(1, buf_local);                // data pointer
        as.li(5, static_cast<std::int32_t>(n / len));   // group count
        Label groups = as.label();
        as.bind(groups);

        if (len == 2) {
            // w = 1: a = u + v, b = u - v.
            as.lw(6, 1, 0);
            as.lw(7, 1, 4);
            as.lw(8, 1, off);
            as.lw(9, 1, off + 4);
            as.fadd(18, 6, 8);
            as.fadd(19, 7, 9);
            as.fsub(20, 6, 8);
            as.fsub(21, 7, 9);
            as.sw(18, 1, 0);
            as.sw(19, 1, 4);
            as.sw(20, 1, off);
            as.sw(21, 1, off + 4);
            as.addi(1, 1, static_cast<std::int32_t>(len * 8));
        } else if (len == 4) {
            // k = 0: w = 1.
            as.lw(6, 1, 0);
            as.lw(7, 1, 4);
            as.lw(8, 1, off);
            as.lw(9, 1, off + 4);
            as.fadd(18, 6, 8);
            as.fadd(19, 7, 9);
            as.fsub(20, 6, 8);
            as.fsub(21, 7, 9);
            as.sw(18, 1, 0);
            as.sw(19, 1, 4);
            as.sw(20, 1, off);
            as.sw(21, 1, off + 4);
            // k = 1: w = -i (forward) so t = (v.im, -v.re), or
            // w = +i (inverse) so t = (-v.im, v.re).
            as.lw(6, 1, 8);
            as.lw(7, 1, 12);
            as.lw(8, 1, off + 8);
            as.lw(9, 1, off + 12);
            if (!inverse) {
                as.fsub(17, 0, 8);      // t.im = -v.re
                as.fadd(18, 6, 9);      // a.re = u.re + v.im
                as.fadd(19, 7, 17);
                as.fsub(20, 6, 9);
                as.fsub(21, 7, 17);
            } else {
                as.fsub(16, 0, 9);      // t.re = -v.im
                as.fadd(18, 6, 16);
                as.fadd(19, 7, 8);      // a.im = u.im + v.re
                as.fsub(20, 6, 16);
                as.fsub(21, 7, 8);
            }
            as.sw(18, 1, 8);
            as.sw(19, 1, 12);
            as.sw(20, 1, off + 8);
            as.sw(21, 1, off + 12);
            as.addi(1, 1, static_cast<std::int32_t>(len * 8));
        } else {
            as.li(3, tw_local);
            as.li(4, static_cast<std::int32_t>(half));
            Label bfly = as.label();
            as.bind(bfly);
            as.lw(6, 1, 0);     // u.re
            as.lw(7, 1, 4);     // u.im
            as.lw(8, 1, off);   // v.re
            as.lw(9, 1, off + 4);
            as.lw(10, 3, 0);    // w.re
            as.lw(11, 3, 4);    // w.im
            as.fmul(12, 10, 8);
            as.fmul(13, 11, 9);
            as.fmul(14, 10, 9);
            as.fmul(15, 11, 8);
            as.fsub(16, 12, 13);    // t.re
            as.fadd(17, 14, 15);    // t.im
            as.fadd(18, 6, 16);     // a.re
            as.fadd(19, 7, 17);     // a.im
            as.addi(3, 3, static_cast<std::int32_t>(step * 8));
            as.addi(4, 4, -1);
            as.fsub(20, 6, 16);     // b.re
            as.fsub(21, 7, 17);     // b.im
            as.sw(18, 1, 0);
            as.sw(19, 1, 4);
            as.sw(20, 1, off);
            as.sw(21, 1, off + 4);
            as.addi(1, 1, 8);
            as.bne(4, 0, bfly);
            as.addi(1, 1, off);     // skip the partner half
        }

        as.addi(5, 5, -1);
        as.bne(5, 0, groups);
    }
}

std::vector<Instr>
cslcProgram(unsigned sets)
{
    Assembler as;
    if (sets == 0) {
        as.halt();
        return as.finish();
    }

    as.li(22, descLocal);
    as.li(23, descLocal + static_cast<std::int32_t>(sets * descWords * 4));
    Label subLoop = as.label();
    as.bind(subLoop);

    // Aux channels: copy in (bit-reversing) and transform.
    as.lw(1, 22, 0);
    emitCopyInBitrev(as, bufA0Local);
    emitFft128Local(as, bufA0Local, twFwdLocal, true);
    as.lw(1, 22, 4);
    emitCopyInBitrev(as, bufA1Local);
    emitFft128Local(as, bufA1Local, twFwdLocal, true);

    for (unsigned m = 0; m < 2; ++m) {
        as.lw(1, 22, static_cast<std::int32_t>(8 + m * 4));
        emitCopyInBitrev(as, bufMLocal);
        emitFft128Local(as, bufMLocal, twFwdLocal, true);

        as.lw(1, 22, static_cast<std::int32_t>(16 + m * 8));
        as.lw(2, 22, static_cast<std::int32_t>(20 + m * 8));
        emitWeightApply(as);

        emitFft128Local(as, bufMLocal, twInvLocal, false, true);
        as.li(21, static_cast<std::int32_t>(floatToWord(1.0f / 128.0f)));
        as.lw(1, 22, static_cast<std::int32_t>(32 + m * 4));
        emitCopyOutScaled(as, bufMLocal);
    }

    as.addi(22, 22, descWords * 4);
    as.bne(22, 23, subLoop);
    as.halt();
    return as.finish();
}

RawCslcResult
cslcRaw(RawMachine &machine, const kernels::CslcConfig &cfg,
        const kernels::CslcInput &in,
        const kernels::CslcWeights &weights, kernels::CslcOutput &out,
        unsigned intervals)
{
    trace::TraceScope setup("raw.cslc.setup", "raw");
    triarch_assert(intervals >= 1, "need at least one interval");
    triarch_assert(cfg.subBandLen == 128,
                   "Raw CSLC mapping is built for 128-point sub-bands");
    triarch_assert(cfg.mainChannels == 2 && cfg.auxChannels == 2,
                   "Raw CSLC mapping assumes 2 main + 2 aux channels");
    const unsigned tiles = machine.config().tiles();

    // Global memory: channel time series, weights, output.
    auto pokeComplex = [&machine](Addr base,
                                  const std::vector<cfloat> &x) {
        std::vector<Word> words(2 * x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            words[2 * i] = floatToWord(x[i].real());
            words[2 * i + 1] = floatToWord(x[i].imag());
        }
        machine.pokeGlobal(base, words);
    };

    std::vector<Addr> chBase(4);
    for (unsigned a = 0; a < 2; ++a) {
        chBase[a] = machine.allocGlobal(cfg.samples * 8ULL, "aux");
        pokeComplex(chBase[a], in.aux[a]);
    }
    for (unsigned m = 0; m < 2; ++m) {
        chBase[2 + m] = machine.allocGlobal(cfg.samples * 8ULL, "main");
        pokeComplex(chBase[2 + m], in.main[m]);
    }

    std::vector<std::vector<Addr>> wBase(2, std::vector<Addr>(2));
    for (unsigned m = 0; m < 2; ++m) {
        for (unsigned a = 0; a < 2; ++a) {
            wBase[m][a] = machine.allocGlobal(
                static_cast<std::uint64_t>(cfg.subBands) * 128 * 8,
                "weights");
            pokeComplex(wBase[m][a], weights.w[m][a]);
        }
    }

    std::vector<Addr> outBase(2);
    for (unsigned m = 0; m < 2; ++m) {
        outBase[m] = machine.allocGlobal(
            static_cast<std::uint64_t>(cfg.subBands) * 128 * 8, "out");
    }

    // Twiddle tables (forward and conjugate) into every tile's SRAM.
    const std::vector<Word> twF = twiddleWords(false);
    const std::vector<Word> twI = twiddleWords(true);

    // Per-tile sub-band descriptors and programs. With more than
    // one processing interval, sets from consecutive intervals are
    // handed out round-robin, as a continuously arriving input
    // queue would be (Section 4.3's load-balance argument).
    const unsigned totalSets = intervals * cfg.subBands;
    std::vector<unsigned> setsPerTile(tiles);
    for (unsigned t = 0; t < tiles; ++t) {
        std::vector<Word> desc;
        unsigned sets = 0;
        for (unsigned sIdx = t; sIdx < totalSets;
             sIdx += tiles, ++sets) {
            const unsigned b = sIdx % cfg.subBands;
            const Addr blockOff =
                static_cast<Addr>(b) * cfg.subBandStride * 8;
            desc.push_back(static_cast<Word>(chBase[0] + blockOff));
            desc.push_back(static_cast<Word>(chBase[1] + blockOff));
            desc.push_back(static_cast<Word>(chBase[2] + blockOff));
            desc.push_back(static_cast<Word>(chBase[3] + blockOff));
            const Addr bandOff = static_cast<Addr>(b) * 128 * 8;
            desc.push_back(static_cast<Word>(wBase[0][0] + bandOff));
            desc.push_back(static_cast<Word>(wBase[0][1] + bandOff));
            desc.push_back(static_cast<Word>(wBase[1][0] + bandOff));
            desc.push_back(static_cast<Word>(wBase[1][1] + bandOff));
            desc.push_back(static_cast<Word>(outBase[0] + bandOff));
            desc.push_back(static_cast<Word>(outBase[1] + bandOff));
        }
        setsPerTile[t] = sets;

        machine.pokeLocal(t, twFwdLocal, twF);
        machine.pokeLocal(t, twInvLocal, twI);
        if (!desc.empty())
            machine.pokeLocal(t, descLocal, desc);
    }
    const unsigned maxSets =
        *std::max_element(setsPerTile.begin(), setsPerTile.end());
    loadPrograms(machine, setsPerTile, cslcProgram);

    setup.end();
    trace::TraceScope runScope("raw.cslc.run", "raw",
                               &machine.statGroup());
    const Cycles cycles = machine.run();
    runScope.end();

    trace::TraceScope readback("raw.cslc.readback", "raw");
    RawCslcResult result;
    result.cycles = cycles;
    // Section 4.3: report perfect-load-balance extrapolation; in a
    // real system sub-band sets arrive continuously.
    const double meanSets = static_cast<double>(totalSets) / tiles;
    result.balancedCycles = static_cast<Cycles>(
        static_cast<double>(cycles) * meanSets / maxSets);
    std::uint64_t idle = 0;
    for (unsigned t = 0; t < tiles; ++t)
        idle += machine.tileIdleAfterHalt(t);
    result.idleFraction = static_cast<double>(idle)
                          / (static_cast<double>(tiles) * cycles);

    out.main.assign(2, std::vector<cfloat>(
        static_cast<std::size_t>(cfg.subBands) * 128));
    for (unsigned m = 0; m < 2; ++m) {
        auto words = machine.peekGlobal(
            outBase[m], static_cast<std::size_t>(cfg.subBands) * 256);
        for (std::size_t i = 0; i < out.main[m].size(); ++i) {
            out.main[m][i] = cfloat(wordToFloat(words[2 * i]),
                                    wordToFloat(words[2 * i + 1]));
        }
    }
    return result;
}

namespace
{

/**
 * Emit: receive 128 complex values from $csti and store them into
 * local @p dst in bit-reversed order — the stream-mode replacement
 * for the cached copy-in (no loads, no cache misses; the network
 * supplies the data in natural order and the store offsets bake in
 * the reordering).
 */
void
emitRecvBitrev(Assembler &as, std::int32_t dst)
{
    for (unsigned i = 0; i < 128; ++i) {
        const std::int32_t at =
            dst + static_cast<std::int32_t>(reverseBits(i, 7)) * 8;
        as.sw(regCsti, 0, at);
        as.sw(regCsti, 0, at + 4);
    }
}

/**
 * Emit the stream-mode weight application: weights arrive through
 * $csti interleaved per bin (w0.re, w0.im, w1.re, w1.im) and are
 * consumed as instruction operands; only the main buffer and the
 * aux spectra (all local) are loaded.
 */
void
emitWeightApplyStreamed(Assembler &as)
{
    as.li(3, bufA0Local);
    as.li(4, bufA1Local);
    as.li(5, bufMLocal);
    as.li(18, 128);
    Label loop = as.label();
    as.bind(loop);
    as.lw(6, 5, 0);             // m.re
    as.lw(7, 5, 4);             // m.im
    for (unsigned a = 0; a < 2; ++a) {
        const unsigned ap = 3 + a;
        as.move(8, regCsti);    // w.re
        as.move(9, regCsti);    // w.im
        as.lw(10, ap, 0);       // a.re
        as.lw(11, ap, 4);       // a.im
        as.fmul(12, 8, 10);
        as.fmul(13, 9, 11);
        as.fmul(14, 8, 11);
        as.fmul(15, 9, 10);
        as.fsub(16, 12, 13);
        as.fadd(17, 14, 15);
        as.fsub(6, 6, 16);
        as.fsub(7, 7, 17);
    }
    as.sw(6, 5, 0);
    as.sw(7, 5, 4);
    for (unsigned p : {3u, 4u, 5u})
        as.addi(p, p, 8);
    as.addi(18, 18, -1);
    as.bne(18, 0, loop);
}

/**
 * Emit: send 256 words from local @p src to $csto, scaling each
 * float by the constant in r21 (fused IFFT normalization + output
 * streaming; the DMA-out port writes them to memory).
 */
void
emitDrainScaled(Assembler &as, std::int32_t src)
{
    as.li(2, src);
    as.li(3, 32);
    Label loop = as.label();
    as.bind(loop);
    for (unsigned k = 0; k < 8; ++k) {
        as.lw(6 + (k % 4), 2, static_cast<std::int32_t>(k * 4));
        as.fmul(regCsto, 6 + (k % 4), 21);
    }
    as.addi(2, 2, 32);
    as.addi(3, 3, -1);
    as.bne(3, 0, loop);
}

} // namespace

std::vector<Instr>
cslcStreamedProgram(unsigned sets)
{
    Assembler as;
    if (sets == 0) {
        as.halt();
        return as.finish();
    }

    as.li(23, static_cast<std::int32_t>(sets));
    Label subLoop = as.label();
    as.bind(subLoop);

    emitRecvBitrev(as, bufA0Local);
    emitFft128Local(as, bufA0Local, twFwdLocal, true);
    emitRecvBitrev(as, bufA1Local);
    emitFft128Local(as, bufA1Local, twFwdLocal, true);

    for (unsigned m = 0; m < 2; ++m) {
        emitRecvBitrev(as, bufMLocal);
        emitFft128Local(as, bufMLocal, twFwdLocal, true);
        emitWeightApplyStreamed(as);
        emitFft128Local(as, bufMLocal, twInvLocal, false, true);
        as.li(21, static_cast<std::int32_t>(floatToWord(1.0f / 128.0f)));
        emitDrainScaled(as, bufMLocal);
    }

    as.addi(23, 23, -1);
    as.bne(23, 0, subLoop);
    as.halt();
    return as.finish();
}

RawCslcResult
cslcRawStreamed(RawMachine &machine, const kernels::CslcConfig &cfg,
                const kernels::CslcInput &in,
                const kernels::CslcWeights &weights,
                kernels::CslcOutput &out)
{
    trace::TraceScope setup("raw.cslc_stream.setup", "raw");
    triarch_assert(cfg.subBandLen == 128,
                   "Raw CSLC mapping is built for 128-point sub-bands");
    triarch_assert(cfg.mainChannels == 2 && cfg.auxChannels == 2,
                   "Raw CSLC mapping assumes 2 main + 2 aux channels");
    const unsigned tiles = machine.config().tiles();

    auto pokeComplex = [&machine](Addr base,
                                  const std::vector<cfloat> &x) {
        std::vector<Word> words(2 * x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            words[2 * i] = floatToWord(x[i].real());
            words[2 * i + 1] = floatToWord(x[i].imag());
        }
        machine.pokeGlobal(base, words);
    };

    std::vector<Addr> chBase(4);
    for (unsigned a = 0; a < 2; ++a) {
        chBase[a] = machine.allocGlobal(cfg.samples * 8ULL, "aux");
        pokeComplex(chBase[a], in.aux[a]);
    }
    for (unsigned m = 0; m < 2; ++m) {
        chBase[2 + m] = machine.allocGlobal(cfg.samples * 8ULL, "main");
        pokeComplex(chBase[2 + m], in.main[m]);
    }

    // Stream-friendly weight layout: per (main, band), bins carry
    // (w0.re, w0.im, w1.re, w1.im) so the DMA order matches the
    // kernel's $csti consumption order.
    std::vector<Addr> wsBase(2);
    for (unsigned m = 0; m < 2; ++m) {
        wsBase[m] = machine.allocGlobal(
            static_cast<std::uint64_t>(cfg.subBands) * 128 * 16,
            "weights stream");
        std::vector<Word> words(
            static_cast<std::size_t>(cfg.subBands) * 512);
        for (unsigned b = 0; b < cfg.subBands; ++b) {
            for (unsigned k = 0; k < 128; ++k) {
                const std::size_t at =
                    static_cast<std::size_t>(b) * 512 + k * 4;
                const cfloat w0 = weights.w[m][0][b * 128ULL + k];
                const cfloat w1 = weights.w[m][1][b * 128ULL + k];
                words[at] = floatToWord(w0.real());
                words[at + 1] = floatToWord(w0.imag());
                words[at + 2] = floatToWord(w1.real());
                words[at + 3] = floatToWord(w1.imag());
            }
        }
        machine.pokeGlobal(wsBase[m], words);
    }

    std::vector<Addr> outBase(2);
    for (unsigned m = 0; m < 2; ++m) {
        outBase[m] = machine.allocGlobal(
            static_cast<std::uint64_t>(cfg.subBands) * 128 * 8, "out");
    }

    const std::vector<Word> twF = twiddleWords(false);
    const std::vector<Word> twI = twiddleWords(true);

    std::vector<unsigned> setsPerTile(tiles);
    for (unsigned t = 0; t < tiles; ++t) {
        machine.pokeLocal(t, twFwdLocal, twF);
        machine.pokeLocal(t, twInvLocal, twI);
        machine.setRoute(t, portEndpoint(t));

        unsigned sets = 0;
        for (unsigned b = t; b < cfg.subBands; b += tiles, ++sets) {
            const Addr blockOff =
                static_cast<Addr>(b) * cfg.subBandStride * 8;
            const Addr bandOff = static_cast<Addr>(b) * 128 * 8;
            // DMA order must match program consumption order.
            machine.dmaIn(t, t, chBase[0] + blockOff, 256);
            machine.dmaIn(t, t, chBase[1] + blockOff, 256);
            for (unsigned m = 0; m < 2; ++m) {
                machine.dmaIn(t, t, chBase[2 + m] + blockOff, 256);
                machine.dmaIn(t, t,
                              wsBase[m] + static_cast<Addr>(b) * 2048,
                              512);
                machine.dmaOut(t, outBase[m] + bandOff, 256);
            }
        }
        setsPerTile[t] = sets;
    }
    const unsigned maxSets =
        *std::max_element(setsPerTile.begin(), setsPerTile.end());
    loadPrograms(machine, setsPerTile, cslcStreamedProgram);

    setup.end();
    trace::TraceScope runScope("raw.cslc_stream.run", "raw",
                               &machine.statGroup());
    const Cycles cycles = machine.run();
    runScope.end();

    trace::TraceScope readback("raw.cslc_stream.readback", "raw");
    RawCslcResult result;
    result.cycles = cycles;
    const double meanSets = static_cast<double>(cfg.subBands) / tiles;
    result.balancedCycles = static_cast<Cycles>(
        static_cast<double>(cycles) * meanSets / maxSets);
    std::uint64_t idle = 0;
    for (unsigned t = 0; t < tiles; ++t)
        idle += machine.tileIdleAfterHalt(t);
    result.idleFraction = static_cast<double>(idle)
                          / (static_cast<double>(tiles) * cycles);

    out.main.assign(2, std::vector<cfloat>(
        static_cast<std::size_t>(cfg.subBands) * 128));
    for (unsigned m = 0; m < 2; ++m) {
        auto words = machine.peekGlobal(
            outBase[m], static_cast<std::size_t>(cfg.subBands) * 256);
        for (std::size_t i = 0; i < out.main[m].size(); ++i) {
            out.main[m][i] = cfloat(wordToFloat(words[2 * i]),
                                    wordToFloat(words[2 * i + 1]));
        }
    }
    return result;
}

// ----------------------------------------------------------------
// Beam steering.
// ----------------------------------------------------------------

std::vector<Instr>
beamSteeringProgram(unsigned count, unsigned configs, unsigned shift)
{
    Assembler as;
    if (count == 0) {
        as.halt();
        return as.finish();
    }

    as.li(6, 0);                                // config pointer
    as.li(7, static_cast<std::int32_t>(configs * 16));
    Label cfgLoop = as.label();
    as.bind(cfgLoop);
    as.lw(1, 6, 0);     // acc (pre-offset for this tile's slice)
    as.lw(2, 6, 4);     // delta
    as.lw(3, 6, 8);     // dwell offset
    as.lw(4, 6, 12);    // bias

    // The six-operation output body: 5 adds + 1 shift, with
    // both table operands read straight from the network and
    // the result sent straight back out (no loads or stores).
    auto body = [&] {
        as.add(1, 1, 2);                // add 1: acc += delta
        as.add(5, regCsti, regCsti);    // add 2: coarse + fine
        as.add(5, 5, 1);                // add 3: += acc
        as.add(5, 5, 3);                // add 4: += dwell offset
        as.add(5, 5, 4);                // add 5: += bias
        as.sra(regCsto, 5, shift);      // shift and send
    };

    const unsigned unroll = 4;
    const unsigned groups = count / unroll;
    if (groups > 0) {
        as.li(8, static_cast<std::int32_t>(groups));
        Label elemLoop = as.label();
        as.bind(elemLoop);
        for (unsigned k = 0; k < unroll; ++k)
            body();
        as.addi(8, 8, -1);
        as.bne(8, 0, elemLoop);
    }
    for (unsigned k = 0; k < count % unroll; ++k)
        body();

    as.addi(6, 6, 16);
    as.bne(6, 7, cfgLoop);
    as.halt();
    return as.finish();
}

Cycles
beamSteeringRaw(RawMachine &machine, const kernels::BeamConfig &cfg,
                const kernels::BeamTables &tables,
                std::vector<std::int32_t> &out)
{
    trace::TraceScope setup("raw.bs.setup", "raw");
    const unsigned tiles = machine.config().tiles();

    // Calibration tables laid out interleaved (coarse, fine) pairs
    // so one DMA stream per tile supplies both operands in $csti
    // order.
    const Addr tabBase =
        machine.allocGlobal(cfg.elements * 8ULL, "bs tables");
    {
        std::vector<Word> words(cfg.elements * 2);
        for (unsigned e = 0; e < cfg.elements; ++e) {
            words[2 * e] = static_cast<Word>(tables.calCoarse[e]);
            words[2 * e + 1] = static_cast<Word>(tables.calFine[e]);
        }
        machine.pokeGlobal(tabBase, words);
    }
    const Addr outBase =
        machine.allocGlobal(cfg.outputs() * 4ULL, "bs out");

    const unsigned configs = cfg.dwells * cfg.directions;
    std::vector<unsigned> counts(tiles);
    for (unsigned t = 0; t < tiles; ++t) {
        const unsigned e0 = static_cast<unsigned>(
            static_cast<std::uint64_t>(t) * cfg.elements / tiles);
        const unsigned e1 = static_cast<unsigned>(
            static_cast<std::uint64_t>(t + 1) * cfg.elements / tiles);
        const unsigned count = e1 - e0;

        machine.setRoute(t, portEndpoint(t));

        // Per-(dwell, direction) constants in local SRAM, in the
        // same order the DMA segments stream.
        std::vector<Word> cfgTable;
        for (unsigned dw = 0; dw < cfg.dwells; ++dw) {
            for (unsigned dir = 0; dir < cfg.directions; ++dir) {
                cfgTable.push_back(static_cast<Word>(
                    tables.steerBase[dir]
                    + static_cast<std::int32_t>(e0)
                      * tables.steerDelta[dir]));
                cfgTable.push_back(
                    static_cast<Word>(tables.steerDelta[dir]));
                cfgTable.push_back(
                    static_cast<Word>(tables.dwellOffset[dw]));
                cfgTable.push_back(static_cast<Word>(tables.bias));

                // Tiles left without elements (fewer elements than
                // tiles) stream nothing and just halt.
                if (count > 0) {
                    machine.dmaIn(t, t, tabBase + e0 * 8ULL,
                                  count * 2);
                    machine.dmaOut(t,
                                   outBase
                                   + ((static_cast<Addr>(dw)
                                       * cfg.directions + dir)
                                      * cfg.elements + e0) * 4,
                                   count);
                }
            }
        }
        machine.pokeLocal(t, 0, cfgTable);

        counts[t] = count;
    }
    loadPrograms(machine, counts, [&](unsigned count) {
        return beamSteeringProgram(count, configs, cfg.shift);
    });

    setup.end();
    trace::TraceScope runScope("raw.bs.run", "raw",
                               &machine.statGroup());
    const Cycles cycles = machine.run();
    runScope.end();

    trace::TraceScope readback("raw.bs.readback", "raw");
    auto words = machine.peekGlobal(outBase, cfg.outputs());
    out.resize(words.size());
    for (std::size_t i = 0; i < words.size(); ++i)
        out[i] = static_cast<std::int32_t>(words[i]);
    return cycles;
}

} // namespace triarch::raw
