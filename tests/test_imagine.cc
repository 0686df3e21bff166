/**
 * @file
 * Tests for the Imagine machine model: SRF allocation, stream
 * transfer semantics and timing, the VLIW kernel schedule model,
 * overlap/descriptor-register behavior, and end-to-end kernel
 * correctness against the reference implementations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "imagine/kernels_imagine.hh"
#include "imagine/machine.hh"
#include "imagine/srf.hh"
#include "sim/bitutil.hh"

namespace triarch::imagine
{
namespace
{

TEST(SrfAllocator, AllocatesBlockAligned)
{
    SrfAllocator alloc(1024, 128);  // 8 blocks
    auto a = alloc.alloc(1, "a");   // 1 word -> 1 block
    auto b = alloc.alloc(33, "b");  // 33 words -> 2 blocks
    EXPECT_EQ(a.offsetWords % 32, 0u);
    EXPECT_EQ(b.offsetWords % 32, 0u);
    EXPECT_NE(a.offsetWords, b.offsetWords);
    EXPECT_EQ(alloc.blocksInUse(), 3u);
}

TEST(SrfAllocator, FreeMakesRoom)
{
    SrfAllocator alloc(1024, 128);
    auto a = alloc.alloc(256, "a");     // whole SRF (8 blocks)
    alloc.free(a);
    EXPECT_EQ(alloc.blocksInUse(), 0u);
    auto b = alloc.alloc(256, "b");
    EXPECT_EQ(b.offsetWords, 0u);
    alloc.free(b);
}

TEST(SrfAllocator, FirstFitReusesGaps)
{
    SrfAllocator alloc(1024, 128);
    auto a = alloc.alloc(32, "a");
    auto b = alloc.alloc(32, "b");
    auto c = alloc.alloc(32, "c");
    alloc.free(b);
    auto d = alloc.alloc(32, "d");  // should land in b's hole
    EXPECT_EQ(d.offsetWords, b.offsetWords);
    alloc.free(a);
    alloc.free(c);
    alloc.free(d);
}

TEST(SrfAllocator, ExhaustionIsFatal)
{
    EXPECT_DEATH(
        {
            SrfAllocator alloc(256, 128);
            alloc.alloc(64, "a");
            alloc.alloc(64, "b");   // 2nd block taken
            alloc.alloc(1, "c");    // no room
        },
        "SRF exhausted");
}

TEST(SrfAllocator, PeakTracksHighWater)
{
    SrfAllocator alloc(1024, 128);
    auto a = alloc.alloc(128, "a");
    alloc.free(a);
    auto b = alloc.alloc(32, "b");
    EXPECT_EQ(alloc.peakBlocks(), 4u);
    alloc.free(b);
}

TEST(ImagineMachine, StreamLoadStoreRoundTrip)
{
    ImagineMachine m;
    const Addr src = m.allocMem(1024, "src");
    const Addr dst = m.allocMem(1024, "dst");
    std::vector<Word> data(256);
    for (unsigned i = 0; i < 256; ++i)
        data[i] = i * 7;
    m.pokeWords(src, data);

    auto s = m.allocStream(256, "s");
    m.loadStream(s, MemPattern::sequential(src, 256));
    m.storeStream(s, MemPattern::sequential(dst, 256));
    EXPECT_EQ(m.peekWords(dst, 256), data);
    std::vector<Word> into(256);
    m.peekWordsInto(dst, into);
    EXPECT_EQ(into, data);
    m.freeStream(s);
}

TEST(ImagineMachine, StridedRecordGather)
{
    ImagineMachine m;
    const Addr src = m.allocMem(4096, "src");
    std::vector<Word> data(1024);
    for (unsigned i = 0; i < 1024; ++i)
        data[i] = i;
    m.pokeWords(src, data);

    // 8 records of 4 words, stride 64 words.
    MemPattern pat{src, 4, 256, 8};
    auto s = m.allocStream(32, "s");
    m.loadStream(s, pat);
    auto view = m.srfData(s);
    for (unsigned r = 0; r < 8; ++r) {
        for (unsigned w = 0; w < 4; ++w)
            EXPECT_EQ(view[r * 4 + w], r * 64 + w);
    }
    m.freeStream(s);
}

TEST(ImagineMachine, KernelIiFollowsResources)
{
    ImagineMachine m;
    KernelDesc d;
    d.adds = 6;                     // 3 adders -> 2
    EXPECT_EQ(m.kernelIi(d), 2u);
    d.mults = 8;                    // 2 mults -> 4
    EXPECT_EQ(m.kernelIi(d), 4u);
    d.comm = 5;                     // 1 comm -> 5
    EXPECT_EQ(m.kernelIi(d), 5u);
    d.divs = 7;                     // 1 divider -> 7
    EXPECT_EQ(m.kernelIi(d), 7u);
    d.srfWords = 40;                // 4/cycle -> 10
    EXPECT_EQ(m.kernelIi(d), 10u);
}

TEST(ImagineMachine, KernelTimeIncludesPrologue)
{
    ImagineMachine m;
    KernelDesc d;
    d.iterations = 100;
    d.adds = 3;     // II = 1
    d.pipelineDepth = 20;
    auto s = m.allocStream(8, "s");
    const Cycles t0 = m.completionTime();
    m.runKernel(d, {}, {&s}, [] {});
    EXPECT_GE(m.completionTime() - t0, 120u);
    m.freeStream(s);
}

TEST(ImagineMachine, KernelWaitsForInputStream)
{
    ImagineMachine m;
    const Addr src = m.allocMem(1 << 20, "src");
    auto s = m.allocStream(8192, "s");
    m.loadStream(s, MemPattern::sequential(src, 8192));
    const Cycles loadDone = m.completionTime();

    KernelDesc d;
    d.name = "tiny";
    d.iterations = 1;
    d.adds = 1;
    m.runKernel(d, {&s}, {}, [] {});
    // Kernel cannot start before its input stream arrived.
    EXPECT_GT(m.completionTime(), loadDone);
    m.freeStream(s);
}

TEST(ImagineMachine, LoadsOverlapAcrossEngines)
{
    ImagineMachine m;
    const Addr a = m.allocMem(1 << 20, "a");
    auto s1 = m.allocStream(8192, "s1");
    auto s2 = m.allocStream(8192, "s2");
    m.loadStream(s1, MemPattern::sequential(a, 8192));
    m.loadStream(s2, MemPattern::sequential(a + 65536, 8192));
    // Two engines at ~1 word/cycle: both loads take ~8192 cycles and
    // run concurrently, so total is much less than 2 x 8192.
    EXPECT_LT(m.completionTime(), 13000u);
    EXPECT_GE(m.completionTime(), 8192u);
    m.freeStream(s1);
    m.freeStream(s2);
}

TEST(ImagineMachine, MemoryAndKernelsOverlap)
{
    ImagineMachine m;
    const Addr a = m.allocMem(1 << 20, "a");
    auto s1 = m.allocStream(8192, "s1");
    auto s2 = m.allocStream(8192, "s2");
    m.loadStream(s1, MemPattern::sequential(a, 8192));

    KernelDesc d;
    d.iterations = 4000;
    d.adds = 3;     // II 1 -> ~4000 cycles
    m.runKernel(d, {&s1}, {}, [] {});   // waits for s1

    // An independent load overlaps with the kernel.
    m.loadStream(s2, MemPattern::sequential(a + 65536, 8192));
    EXPECT_LT(m.completionTime(), 8500u + 4200u + 4000u);
    m.freeStream(s1);
    m.freeStream(s2);
}

TEST(ImagineMachine, DescriptorRegistersLimitInflightOps)
{
    ImagineConfig cfg;
    cfg.streamDescRegs = 1;     // fully serializing
    ImagineMachine serial(cfg);
    const Addr a = serial.allocMem(1 << 22, "a");

    std::vector<StreamRef> streams;
    for (unsigned i = 0; i < 8; ++i) {
        streams.push_back(serial.allocStream(4096, "s"));
        serial.loadStream(streams.back(),
                          MemPattern::sequential(a + i * 65536, 4096));
    }
    const Cycles serialTime = serial.completionTime();

    ImagineMachine parallel;    // default: 6 descriptor registers
    const Addr b = parallel.allocMem(1 << 22, "b");
    std::vector<StreamRef> streams2;
    for (unsigned i = 0; i < 8; ++i) {
        streams2.push_back(parallel.allocStream(4096, "s"));
        parallel.loadStream(streams2.back(),
                            MemPattern::sequential(b + i * 65536, 4096));
    }
    EXPECT_GT(serialTime, parallel.completionTime() * 3 / 2);
}

TEST(ImagineMachine, StridedStoreSlowerThanSequential)
{
    ImagineMachine m;
    const Addr a = m.allocMem(1 << 22, "a");
    auto s = m.allocStream(8192, "s");
    m.loadStream(s, MemPattern::sequential(a, 8192));

    m.resetTiming();
    m.storeStream(s, MemPattern::sequential(a + (1 << 21), 8192));
    const Cycles seq = m.completionTime();

    m.resetTiming();
    MemPattern blocks{a + (1 << 21), 8, 4096, 1024};
    m.storeStream(s, blocks);
    const Cycles strided = m.completionTime();
    // Short records with a non-unit stride miss a DRAM row per
    // record; Section 4.2's corner-turn store pattern.
    EXPECT_GT(strided, seq + seq / 8);
    m.freeStream(s);
}

TEST(ImagineMachine, UtilizationAndDescribe)
{
    ImagineMachine m;
    KernelDesc d;
    d.iterations = 100;
    d.adds = 3;
    d.mults = 2;
    d.usefulFlops = 100 * 8 * 5;
    m.runKernel(d, {}, {}, [] {});
    EXPECT_GT(m.aluUtilization(), 0.0);
    EXPECT_LE(m.aluUtilization(), 1.0);

    const std::string desc = m.describe();
    EXPECT_NE(desc.find("SIMD ALU clusters"), std::string::npos);
    EXPECT_NE(desc.find("stream register file"), std::string::npos);
}

TEST(ImagineMachine, ResetTimingClearsClock)
{
    ImagineMachine m;
    const Addr a = m.allocMem(4096, "a");
    auto s = m.allocStream(64, "s");
    m.loadStream(s, MemPattern::sequential(a, 64));
    EXPECT_GT(m.completionTime(), 0u);
    m.resetTiming();
    EXPECT_EQ(m.completionTime(), 0u);
    EXPECT_EQ(m.memWords(), 0u);
    m.freeStream(s);
}

// ---------------------------------------------------------------
// End-to-end kernels vs reference.
// ---------------------------------------------------------------

TEST(ImagineKernels, CornerTurnSmallMatchesReference)
{
    ImagineMachine m;
    kernels::WordMatrix src(64, 48);
    kernels::fillMatrix(src, 5);
    kernels::WordMatrix dst;
    const Cycles cycles = cornerTurnImagine(m, src, dst);
    EXPECT_TRUE(kernels::isTransposeOf(src, dst));
    EXPECT_GT(cycles, 0u);
}

TEST(ImagineKernels, CornerTurnIsMemoryBound)
{
    ImagineMachine m;
    kernels::WordMatrix src(128, 128);
    kernels::fillMatrix(src, 6);
    kernels::WordMatrix dst;
    cornerTurnImagine(m, src, dst);
    // Section 4.2: 87% of corner-turn cycles are memory transfers.
    EXPECT_GT(m.memoryFraction(), 0.5);
    EXPECT_GT(m.memBusy(), m.clusterBusy());
}

TEST(ImagineKernels, BeamSteeringMatchesReference)
{
    ImagineMachine m;
    kernels::BeamConfig cfg;
    cfg.elements = 200;
    cfg.dwells = 2;
    auto tables = kernels::makeBeamTables(cfg, 3);
    auto ref = kernels::beamSteerReference(cfg, tables);

    std::vector<std::int32_t> out;
    const Cycles cycles = beamSteeringImagine(m, cfg, tables, out);
    EXPECT_EQ(out, ref);
    EXPECT_GT(cycles, 0u);
}

TEST(ImagineKernels, BeamSteeringIsMemoryBound)
{
    ImagineMachine m;
    kernels::BeamConfig cfg;
    auto tables = kernels::makeBeamTables(cfg, 4);
    std::vector<std::int32_t> out;
    beamSteeringImagine(m, cfg, tables, out);
    // Section 4.4: loads/stores take ~89% of beam-steering time.
    EXPECT_GT(m.memoryFraction(), 0.6);
}

TEST(ImagineKernels, CslcMatchesReference)
{
    ImagineMachine m;
    kernels::CslcConfig cfg;
    cfg.subBands = 5;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {100, 351}, 17);
    auto weights = kernels::estimateWeights(cfg, in);
    auto ref = kernels::cslcReference(cfg, in, weights,
                                      kernels::FftAlgo::Mixed128);

    kernels::CslcOutput out;
    const Cycles cycles = cslcImagine(m, cfg, in, weights, out);
    EXPECT_GT(cycles, 0u);

    // Imagine's functional path uses the same mixed-radix FFT as
    // the reference, so agreement is tight.
    double maxErr = 0.0;
    for (unsigned mc = 0; mc < cfg.mainChannels; ++mc) {
        for (std::size_t i = 0; i < ref.main[mc].size(); ++i) {
            maxErr = std::max<double>(
                maxErr, std::abs(ref.main[mc][i] - out.main[mc][i]));
        }
    }
    EXPECT_LT(maxErr, 1e-5);
}

TEST(ImagineKernels, CslcIsComputeBoundWithCommOverhead)
{
    ImagineMachine m;
    kernels::CslcConfig cfg;
    cfg.subBands = 8;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {77}, 9);
    auto weights = kernels::estimateWeights(cfg, in);
    kernels::CslcOutput out;
    cslcImagine(m, cfg, in, weights, out);

    // Working set fits the SRF: clusters dominate, comm happened.
    EXPECT_GT(m.clusterBusy(), m.completionTime() / 2);
    EXPECT_GT(m.commOps(), 0u);
    // Section 4.3: ALU utilization around 25%.
    EXPECT_GT(m.aluUtilization(), 0.10);
    EXPECT_LT(m.aluUtilization(), 0.45);
}

} // namespace
} // namespace triarch::imagine

// Re-opened for the completed Section 4.3 alternative mapping.
namespace triarch::imagine
{
namespace
{

TEST(ImagineKernels, IndependentFftCslcMatchesReference)
{
    ImagineMachine m;
    kernels::CslcConfig cfg;
    cfg.subBands = 5;   // odd count exercises the tail single band
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {100, 351}, 17);
    auto weights = kernels::estimateWeights(cfg, in);
    auto ref = kernels::cslcReference(cfg, in, weights,
                                      kernels::FftAlgo::Mixed128);

    kernels::CslcOutput out;
    const Cycles cycles =
        cslcImagineIndependent(m, cfg, in, weights, out);
    EXPECT_GT(cycles, 0u);

    double maxErr = 0.0;
    for (unsigned mc = 0; mc < cfg.mainChannels; ++mc) {
        for (std::size_t i = 0; i < ref.main[mc].size(); ++i) {
            maxErr = std::max<double>(
                maxErr, std::abs(ref.main[mc][i] - out.main[mc][i]));
        }
    }
    EXPECT_LT(maxErr, 1e-5);
}

TEST(ImagineKernels, IndependentFftFasterAndCommFree)
{
    kernels::CslcConfig cfg;
    cfg.subBands = 16;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {70}, 5);
    auto weights = kernels::estimateWeights(cfg, in);

    ImagineMachine parallel, independent;
    kernels::CslcOutput out;
    const Cycles base = cslcImagine(parallel, cfg, in, weights, out);
    const Cycles indep =
        cslcImagineIndependent(independent, cfg, in, weights, out);

    // Section 4.3: eliminating inter-cluster communication helps.
    EXPECT_LT(indep, base);
    EXPECT_EQ(independent.commOps(), 0u);
    EXPECT_GT(parallel.commOps(), 0u);
}

} // namespace
} // namespace triarch::imagine
