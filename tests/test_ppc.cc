/**
 * @file
 * Tests for the PowerPC G4 + AltiVec baseline model: the issue and
 * memory timing primitives, cache-hierarchy behavior, and the
 * paper's Section 4.5 speedup structure (AltiVec ~6x on CSLC, ~2x
 * on beam steering, little on the bus-bound corner turn).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "mem/mem_mode.hh"
#include "ppc/kernels_ppc.hh"
#include "ppc/machine.hh"

namespace triarch::ppc
{
namespace
{

TEST(PpcMachine, IntIssueWidth)
{
    PpcMachine m;
    m.intOps(100);              // independent: 2 per cycle
    EXPECT_EQ(m.cycles(), 50u);
    m.resetTiming();
    m.intOps(100, true);        // dependent chain: 1 per cycle
    EXPECT_EQ(m.cycles(), 100u);
}

TEST(PpcMachine, FpChainLatency)
{
    PpcConfig cfg;
    PpcMachine m(cfg);
    m.fpOps(10, true);
    EXPECT_EQ(m.cycles(), 10 * cfg.fpChainLatency);
    m.resetTiming();
    m.fpOps(10, false);
    EXPECT_EQ(m.cycles(), 10u);
}

TEST(PpcMachine, CompiledFpPaysOperandTraffic)
{
    PpcConfig cfg;
    PpcMachine m(cfg);
    m.fpOpsCompiled(10);
    EXPECT_EQ(m.cycles(),
              10 * (cfg.fpChainLatency + cfg.fpMemOverhead));
}

TEST(PpcMachine, LoadHitVsMissLatency)
{
    PpcConfig cfg;
    PpcMachine m(cfg);
    m.load(0x1000);             // cold miss: DRAM latency
    const Cycles miss = m.cycles();
    EXPECT_GE(miss, cfg.memLatency);
    m.load(0x1004);             // same line: L1 hit
    EXPECT_EQ(m.cycles() - miss, cfg.l1HitCycles);
}

TEST(PpcMachine, L2CatchesL1Evictions)
{
    PpcConfig cfg;
    PpcMachine m(cfg);
    // Touch more than L1 but less than L2, then re-touch.
    for (Addr a = 0; a < 64 * 1024; a += 32)
        m.load(a);
    const Cycles coldDone = m.cycles();
    m.load(0);                  // L1-evicted, L2 hit
    EXPECT_EQ(m.cycles() - coldDone, cfg.l2HitCycles);
}

TEST(PpcMachine, StoreMissesDoNotPayFullLatency)
{
    PpcConfig cfg;
    PpcMachine loads(cfg), stores(cfg);
    for (unsigned i = 0; i < 64; ++i)
        loads.load(i * 4096);
    for (unsigned i = 0; i < 64; ++i)
        stores.store(i * 4096);
    // Store misses drain through the store queue.
    EXPECT_LT(stores.cycles(), loads.cycles() / 3);
}

TEST(PpcMachine, SustainedStoresThrottleOnBus)
{
    PpcConfig cfg;
    PpcMachine m(cfg);
    // Far more store-miss traffic than the slack window hides.
    for (unsigned i = 0; i < 4096; ++i)
        m.store(i * 4096);
    // 4096 line fills at 0.8 words/cycle is ~41k bus cycles; the
    // store queue must have throttled execution to roughly that.
    EXPECT_GT(m.cycles(), 30000u);
}

TEST(PpcMachine, DescribeMentionsAltivec)
{
    PpcMachine m;
    EXPECT_NE(m.describe().find("AltiVec"), std::string::npos);
    EXPECT_NE(m.describe().find("front-side bus"), std::string::npos);
}

// ---------------------------------------------------------------
// Kernels: correctness + Section 4.5 structure.
// ---------------------------------------------------------------

TEST(PpcKernels, CornerTurnBothVariantsCorrect)
{
    kernels::WordMatrix src(128, 96);
    kernels::fillMatrix(src, 4);
    for (bool altivec : {false, true}) {
        PpcMachine m;
        kernels::WordMatrix dst;
        const Cycles cycles = cornerTurnPpc(m, src, dst, altivec);
        EXPECT_TRUE(kernels::isTransposeOf(src, dst));
        EXPECT_GT(cycles, 0u);
    }
}

TEST(PpcKernels, CornerTurnAltivecGainsLittle)
{
    kernels::WordMatrix src(512, 512);
    kernels::fillMatrix(src, 7);
    PpcMachine ms, mv;
    kernels::WordMatrix dst;
    const Cycles scalar = cornerTurnPpc(ms, src, dst, false);
    const Cycles vec = cornerTurnPpc(mv, src, dst, true);
    // Section 4.5: AltiVec "does not significantly improve" the
    // corner turn — bounded by memory, well under the 4x datapath.
    EXPECT_LT(scalar, 2 * vec);
    EXPECT_GE(scalar, vec);
}

/** Corner-turn counts pinned for one shape and variant: the
 *  simulated results, then the full set scans (SetAssocCache::
 *  scans()) each memory model sends through L1 and L2. */
struct CtPin
{
    unsigned rows, cols, edge;
    bool altivec;
    Cycles cycles;
    std::uint64_t l1Misses, l2Misses, fsbWords;
    std::uint64_t spanL1Scans, spanL2Scans, refL1Scans, refL2Scans;
};

void
expectCornerTurnPin(const CtPin &pin)
{
    kernels::WordMatrix src(pin.rows, pin.cols);
    kernels::fillMatrix(src, 3);
    for (const mem::MemModel mode :
         {mem::MemModel::Span, mem::MemModel::Reference}) {
        const bool span = mode == mem::MemModel::Span;
        SCOPED_TRACE(testing::Message()
                     << pin.rows << "x" << pin.cols << " edge "
                     << pin.edge << (pin.altivec ? " altivec" : " scalar")
                     << (span ? " span" : " reference"));
        PpcConfig cfg;
        cfg.memModel = mode;
        PpcMachine m(cfg);
        kernels::WordMatrix dst;
        EXPECT_EQ(cornerTurnPpc(m, src, dst, pin.altivec, pin.edge),
                  pin.cycles);
        EXPECT_TRUE(kernels::isTransposeOf(src, dst));
        EXPECT_EQ(m.l1Misses(), pin.l1Misses);
        EXPECT_EQ(m.l2Misses(), pin.l2Misses);
        EXPECT_EQ(m.fsbWords(), pin.fsbWords);
        EXPECT_EQ(m.l1Scans(), span ? pin.spanL1Scans : pin.refL1Scans);
        EXPECT_EQ(m.l2Scans(), span ? pin.spanL2Scans : pin.refL2Scans);
    }
}

TEST(PpcKernels, CornerTurnPaperCountsPinned)
{
    // The 1024^2 Table-3 cells. The 4096 B destination stride sends
    // each 32-store block column into one 8-way L1 set, so every
    // store misses (1,048,576 of the scalar L1 misses; the rest are
    // source-line fills) and walks L2. Reference mode scans L1 on
    // every access; span mode only where slot 0 of the set misses.
    expectCornerTurnPin({1024, 1024, 32, false, 25'261'710, 1'179'648,
                         262'144, 3'143'680, 1'186'816, 1'180'544,
                         2'097'152, 2'228'217});
    expectCornerTurnPin({1024, 1024, 32, true, 17'008'072, 393'216,
                         262'144, 3'143'680, 524'288, 393'728,
                         524'288, 655'356});
}

TEST(PpcKernels, CornerTurnOddShapeCountsPinned)
{
    // ablation_blocking sweeps the block edge; partial edge blocks
    // (1000 = 83 x 12 + 4) and a non-power-of-two row pitch take
    // set mappings the paper shape never reaches.
    expectCornerTurnPin({1000, 600, 4, false, 10'411'283, 153'171,
                         150'000, 1'765'072, 238'555, 226'680,
                         1'200'000, 230'742});
    expectCornerTurnPin({1000, 600, 4, true, 9'026'438, 153'235,
                         150'000, 1'765'072, 227'382, 226'692,
                         300'000, 230'870});
    expectCornerTurnPin({1000, 600, 12, false, 10'489'515, 175'092,
                         150'000, 1'764'656, 196'648, 261'576,
                         1'200'000, 274'536});
    expectCornerTurnPin({1000, 600, 12, true, 9'111'639, 175'098,
                         150'000, 1'764'656, 184'905, 261'512,
                         300'000, 274'548});
    expectCornerTurnPin({1000, 600, 64, false, 10'295'028, 150'000,
                         150'000, 1'764'248, 189'829, 211'131,
                         1'200'000, 224'469});
    expectCornerTurnPin({1000, 600, 64, true, 8'945'385, 150'000,
                         150'000, 1'764'248, 171'873, 210'794,
                         300'000, 224'475});
}

TEST(PpcKernels, BeamSteeringBothVariantsMatchReference)
{
    kernels::BeamConfig cfg;
    cfg.elements = 256;
    cfg.dwells = 2;
    auto tables = kernels::makeBeamTables(cfg, 3);
    auto ref = kernels::beamSteerReference(cfg, tables);
    for (bool altivec : {false, true}) {
        PpcMachine m;
        std::vector<std::int32_t> out;
        beamSteeringPpc(m, cfg, tables, out, altivec);
        EXPECT_EQ(out, ref);
    }
}

TEST(PpcKernels, BeamSteeringAltivecAboutTwoX)
{
    kernels::BeamConfig cfg;
    auto tables = kernels::makeBeamTables(cfg, 5);
    PpcMachine ms, mv;
    std::vector<std::int32_t> out;
    const Cycles scalar = beamSteeringPpc(ms, cfg, tables, out, false);
    const Cycles vec = beamSteeringPpc(mv, cfg, tables, out, true);
    const double gain = static_cast<double>(scalar) / vec;
    // Section 4.5: "about two for beam steering".
    EXPECT_GT(gain, 1.4);
    EXPECT_LT(gain, 2.6);
}

TEST(PpcKernels, CslcBothVariantsMatchReference)
{
    kernels::CslcConfig cfg;
    cfg.subBands = 4;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {64}, 13);
    auto weights = kernels::estimateWeights(cfg, in);
    auto ref = kernels::cslcReference(cfg, in, weights,
                                      kernels::FftAlgo::Radix2);
    for (bool altivec : {false, true}) {
        PpcMachine m;
        kernels::CslcOutput out;
        cslcPpc(m, cfg, in, weights, out, altivec);
        double maxErr = 0.0;
        for (unsigned mc = 0; mc < cfg.mainChannels; ++mc) {
            for (std::size_t i = 0; i < ref.main[mc].size(); ++i) {
                maxErr = std::max<double>(
                    maxErr,
                    std::abs(ref.main[mc][i] - out.main[mc][i]));
            }
        }
        EXPECT_LT(maxErr, 2e-2);
    }
}

TEST(PpcKernels, CslcAltivecAboutSixX)
{
    kernels::CslcConfig cfg;
    cfg.subBands = 8;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {99}, 21);
    auto weights = kernels::estimateWeights(cfg, in);
    PpcMachine ms, mv;
    kernels::CslcOutput out;
    const Cycles scalar = cslcPpc(ms, cfg, in, weights, out, false);
    const Cycles vec = cslcPpc(mv, cfg, in, weights, out, true);
    const double gain = static_cast<double>(scalar) / vec;
    // Section 4.5: "a performance factor of about six for the CSLC".
    EXPECT_GT(gain, 4.0);
    EXPECT_LT(gain, 8.0);
}

TEST(PpcKernels, CslcCancelsJammer)
{
    kernels::CslcConfig cfg;
    cfg.subBands = 6;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {200}, 23);
    auto weights = kernels::estimateWeights(cfg, in);
    PpcMachine m;
    kernels::CslcOutput out;
    cslcPpc(m, cfg, in, weights, out, true);
    EXPECT_GT(kernels::cancellationDepthDb(cfg, in, out), 15.0);
}

} // namespace
} // namespace triarch::ppc
