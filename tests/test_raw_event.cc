/**
 * @file
 * Differential tests for the event-driven Raw stepper. The event
 * scheduler (wake times, bulk stall credit, tile-local instruction
 * batching) is an optimization of the reference cycle-by-cycle
 * interpreter, never a semantic change: every program and every
 * study-level Raw cell must produce bit-identical cycle counts,
 * stall tallies, and memory contents under both steppers, serially
 * and at every thread count.
 */

#include <gtest/gtest.h>

#include <functional>

#include "kernels/corner_turn.hh"
#include "raw/assembler.hh"
#include "raw/kernels_raw.hh"
#include "raw/machine.hh"
#include "sim/bitutil.hh"
#include "study/fuzz.hh"
#include "study/parallel.hh"

namespace triarch::raw
{
namespace
{

/** @p base with the stepper set to @p stepper. */
RawConfig
withStepper(RawConfig base, RawStepper stepper)
{
    base.stepper = stepper;
    return base;
}

/**
 * Require every observable of two finished runs of the same workload
 * — cycle count, scalar stats, the six per-tile-cycle tallies,
 * per-tile instruction/idle figures, and the hardware report (epoch
 * timeline channels and the FIFO-occupancy metric fed by the
 * residency integral) — to match exactly.
 */
void
expectSameRun(RawMachine &ref, Cycles refCycles, RawMachine &evt,
              Cycles evtCycles)
{
    EXPECT_EQ(refCycles, evtCycles);

    EXPECT_EQ(ref.instructions(), evt.instructions());
    EXPECT_EQ(ref.netStalls(), evt.netStalls());
    EXPECT_EQ(ref.depStalls(), evt.depStalls());
    EXPECT_EQ(ref.cacheStallCycles(), evt.cacheStallCycles());
    EXPECT_EQ(ref.loadStores(), evt.loadStores());
    EXPECT_EQ(ref.fpOps(), evt.fpOps());

    const auto a = ref.stallTallies();
    const auto b = evt.stallTallies();
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.dep, b.dep);
    EXPECT_EQ(a.cache, b.cache);
    EXPECT_EQ(a.net, b.net);
    EXPECT_EQ(a.dma, b.dma);
    EXPECT_EQ(a.idle, b.idle);

    for (unsigned t = 0; t < 16; ++t) {
        EXPECT_EQ(ref.tileInstructions(t), evt.tileInstructions(t))
            << "tile " << t;
        EXPECT_EQ(ref.tileIdleAfterHalt(t), evt.tileIdleAfterHalt(t))
            << "tile " << t;
    }

    const hw::HwCell refHw =
        ref.hwCell(refCycles, ref.cycleBreakdown(refCycles));
    const hw::HwCell evtHw =
        evt.hwCell(evtCycles, evt.cycleBreakdown(evtCycles));
    EXPECT_EQ(refHw.metrics, evtHw.metrics);
    EXPECT_EQ(refHw.timeline, evtHw.timeline);
    EXPECT_EQ(refHw, evtHw);
}

/** The global words a workload writes, through DMA-out segments
 *  or stores; none when words is 0. */
struct OutRegion
{
    Addr base = 0;
    std::size_t words = 0;
};

/**
 * Build the same workload on a reference-stepped and an
 * event-stepped machine, run both, and require every observable
 * (expectSameRun) and the written region @p setup returns to match.
 * Returns the event machine's streamedInstructions().
 */
std::uint64_t
expectSteppersAgree(const std::function<OutRegion(RawMachine &)> &setup,
                    RawConfig base = RawConfig{})
{
    RawMachine ref(withStepper(base, RawStepper::Reference));
    RawMachine evt(withStepper(base, RawStepper::Event));
    const OutRegion out = setup(ref);
    setup(evt);
    const Cycles refCycles = ref.run();
    const Cycles evtCycles = evt.run();
    expectSameRun(ref, refCycles, evt, evtCycles);
    if (out.words != 0) {
        EXPECT_EQ(ref.peekGlobal(out.base, out.words),
                  evt.peekGlobal(out.base, out.words));
    }
    EXPECT_EQ(ref.streamedInstructions(), 0u);
    return evt.streamedInstructions();
}

TEST(RawEventDifferential, DependentLatencyChain)
{
    // Pure tile-local code: exercises the batch executor's dep-gap
    // accounting (tcDep bumped per stall event, not per call).
    expectSteppersAgree([](RawMachine &m) {
        Assembler as;
        as.li(1, static_cast<std::int32_t>(floatToWord(1.0f)));
        for (int i = 0; i < 40; ++i)
            as.fmul(1, 1, 1);
        for (int i = 0; i < 40; ++i)
            as.fmul(2 + (i % 8), 1, 1);
        as.halt();
        m.setProgram(0, as.finish());
        return OutRegion{};
    });
}

TEST(RawEventDifferential, StaticNetworkPingPong)
{
    // Blocking $csti/$csto between distant tiles: the event stepper
    // must resolve unknown wake times via FIFO-push notification.
    expectSteppersAgree([](RawMachine &m) {
        m.setRoute(0, 15);
        m.setRoute(15, 0);
        Assembler t0;
        t0.li(1, 5);
        Label loop = t0.label();
        t0.bind(loop);
        t0.move(regCsto, 1);
        t0.move(2, regCsti);
        t0.addi(1, 1, -1);
        t0.bne(1, 0, loop);
        t0.halt();
        m.setProgram(0, t0.finish());
        Assembler t15;
        t15.li(3, 5);
        Label echo = t15.label();
        t15.bind(echo);
        t15.move(regCsto, regCsti);
        t15.addi(3, 3, -1);
        t15.bne(3, 0, echo);
        t15.halt();
        m.setProgram(15, t15.finish());
        return OutRegion{};
    });
}

TEST(RawEventDifferential, FullFifoBackpressure)
{
    // A fast sender against a slow consumer: the sender re-polls a
    // full FIFO every cycle, the exact path of the net-stall
    // re-count fix.
    expectSteppersAgree([](RawMachine &m) {
        m.setRoute(0, 1);
        Assembler fast;
        fast.li(1, 64);
        Label send = fast.label();
        fast.bind(send);
        fast.move(regCsto, 1);
        fast.addi(1, 1, -1);
        fast.bne(1, 0, send);
        fast.halt();
        m.setProgram(0, fast.finish());
        Assembler slow;
        slow.li(1, static_cast<std::int32_t>(floatToWord(2.0f)));
        slow.li(2, 64);
        Label eat = slow.label();
        slow.bind(eat);
        slow.move(3, regCsti);
        slow.fmul(4, 1, 1);     // latency padding between pops
        slow.fmul(4, 4, 4);
        slow.addi(2, 2, -1);
        slow.bne(2, 0, eat);
        slow.halt();
        m.setProgram(1, slow.finish());
        return OutRegion{};
    });
}

TEST(RawEventDifferential, DmaRoundTripWithRowMisses)
{
    // DMA ports on both sides of a tile, long enough to cross DRAM
    // row boundaries (the per-port wake path).
    expectSteppersAgree([](RawMachine &m) {
        const Addr in = m.allocGlobal(4096, "in");
        const Addr out = m.allocGlobal(4096, "out");
        std::vector<Word> data(1024);
        for (unsigned i = 0; i < 1024; ++i)
            data[i] = i * 7;
        m.pokeGlobal(in, data);
        m.dmaIn(5, 5, in, 1024);
        m.dmaOut(5, out, 1024);
        m.setRoute(5, portEndpoint(5));
        Assembler as;
        as.li(2, 1024);
        Label loop = as.label();
        as.bind(loop);
        as.add(regCsto, regCsti, 0);
        as.addi(2, 2, -1);
        as.bne(2, 0, loop);
        as.halt();
        m.setProgram(5, as.finish());
        return OutRegion{out, 1024};
    });
}

TEST(RawEventDifferential, CachedGlobalAccesses)
{
    // Global lw/sw through the per-tile cache: the batch executor
    // must hand these back to the per-cycle path untouched.
    expectSteppersAgree([](RawMachine &m) {
        const Addr buf = m.allocGlobal(16384, "buf");
        std::vector<Word> data(4096);
        for (unsigned i = 0; i < 4096; ++i)
            data[i] = i;
        m.pokeGlobal(buf, data);
        Assembler as;
        as.li(1, static_cast<std::int32_t>(buf));
        as.li(2, 2048);
        as.li(3, 0);
        Label loop = as.label();
        as.bind(loop);
        as.lw(4, 1, 0);
        as.add(3, 3, 4);
        as.sw(3, 1, 0);
        as.addi(1, 1, 4);
        as.addi(2, 2, -1);
        as.bne(2, 0, loop);
        as.halt();
        m.setProgram(0, as.finish());
        return OutRegion{buf, 4096};
    });
}

TEST(RawEventDifferential, DynamicNetworkGather)
{
    // dsend/drecv with unknown receiver wake times and send
    // occupancy stalls.
    expectSteppersAgree([](RawMachine &m) {
        for (unsigned t = 1; t < 16; ++t) {
            Assembler as;
            as.li(1, 0);
            for (int i = 0; i < 4; ++i) {
                as.li(2, static_cast<std::int32_t>(t * 10 + i));
                as.dsend(1, 2);
            }
            as.halt();
            m.setProgram(t, as.finish());
        }
        Assembler hub;
        hub.li(1, 0);
        hub.li(2, 60);
        Label loop = hub.label();
        hub.bind(loop);
        hub.drecv(3);
        hub.add(1, 1, 3);
        hub.addi(2, 2, -1);
        hub.bne(2, 0, loop);
        hub.sw(1, 0, 0);
        hub.halt();
        m.setProgram(0, hub.finish());
        return OutRegion{};
    });
}

/**
 * The corner-turn tile program streaming an n x n matrix through the
 * co-batch's fused stream loop, under @p base: every observable and
 * the transposed matrix agree with the reference stepper, and every
 * $csti store and $csto load (one each per word) retires in the
 * fused loop.
 */
void
expectCornerTurnAgrees(unsigned n, const RawConfig &base)
{
    SCOPED_TRACE(std::to_string(n) + "^2, fifo "
                 + std::to_string(base.fifoCapacity) + ", row "
                 + std::to_string(base.portRowBytes) + " B, miss "
                 + std::to_string(base.portRowMissPenalty));
    kernels::WordMatrix src(n, n);
    kernels::fillMatrix(src, n);
    RawMachine ref(withStepper(base, RawStepper::Reference));
    RawMachine evt(withStepper(base, RawStepper::Event));
    kernels::WordMatrix refDst, evtDst;
    const Cycles refCycles = cornerTurnRaw(ref, src, refDst);
    const Cycles evtCycles = cornerTurnRaw(evt, src, evtDst);
    expectSameRun(ref, refCycles, evt, evtCycles);
    EXPECT_TRUE(kernels::isTransposeOf(src, evtDst));
    EXPECT_EQ(refDst.data, evtDst.data);
    EXPECT_EQ(ref.streamedInstructions(), 0u);
    EXPECT_EQ(evt.streamedInstructions(), 2ULL * n * n);
}

TEST(RawEventDifferential, CornerTurnFusedStreamAcrossFifoCapacities)
{
    // A one- or two-word FIFO makes the port stall on a full FIFO
    // and the tile on an empty one almost every cycle: the fused
    // loop's exits and re-entries at both edges.
    for (const unsigned n : {64u, 128u}) {
        for (const unsigned fifo : {1u, 2u}) {
            RawConfig cfg;
            cfg.fifoCapacity = fifo;
            expectCornerTurnAgrees(n, cfg);
        }
    }
}

TEST(RawEventDifferential, CornerTurnFusedStreamAcrossRowGeometry)
{
    // No row-miss penalty, a long one, and row sizes that are not a
    // power of two (the division path of the row lookup), including
    // one that is not a whole number of words, so rows end mid-word
    // and DMA segments open rows at odd offsets.
    for (const Cycles penalty : {Cycles{0}, Cycles{100}}) {
        RawConfig cfg;
        cfg.portRowMissPenalty = penalty;
        expectCornerTurnAgrees(128, cfg);
    }
    for (const Addr rowBytes : {Addr{1000}, Addr{6}, Addr{4}}) {
        RawConfig cfg;
        cfg.portRowBytes = rowBytes;
        expectCornerTurnAgrees(64, cfg);
    }
}

TEST(RawEventDifferential, StreamToAnotherTileFallsBack)
{
    // Tile 0 stores DMA-fed words into SRAM and loads them back out
    // to tile 1 (not to its own port), which forwards them to port 1:
    // the chains are not independent, so the co-batch and its fused
    // stream loop must stand aside.
    const std::uint64_t streamed = expectSteppersAgree([](RawMachine &m) {
        constexpr unsigned words = 256;
        const Addr in = m.allocGlobal(words * 4, "in");
        const Addr out = m.allocGlobal(words * 4, "out");
        std::vector<Word> data(words);
        for (unsigned i = 0; i < words; ++i)
            data[i] = i * 13 + 1;
        m.pokeGlobal(in, data);
        m.dmaIn(0, 0, in, words);
        m.dmaOut(1, out, words);
        m.setRoute(0, 1);
        m.setRoute(1, portEndpoint(1));

        Assembler t0;
        t0.li(1, 0);
        t0.li(2, static_cast<std::int32_t>(words * 4));
        Label store = t0.label();
        t0.bind(store);
        t0.sw(regCsti, 1, 0);
        t0.addi(1, 1, 4);
        t0.bne(1, 2, store);
        t0.li(1, 0);
        Label load = t0.label();
        t0.bind(load);
        t0.lw(regCsto, 1, 0);
        t0.addi(1, 1, 4);
        t0.bne(1, 2, load);
        t0.halt();
        m.setProgram(0, t0.finish());

        Assembler t1;
        t1.li(1, static_cast<std::int32_t>(words));
        Label fwd = t1.label();
        t1.bind(fwd);
        t1.move(regCsto, regCsti);
        t1.addi(1, 1, -1);
        t1.bne(1, 0, fwd);
        t1.halt();
        m.setProgram(1, t1.finish());
        return OutRegion{out, words};
    });
    EXPECT_EQ(streamed, 0u);
}

/**
 * Run a tile that sends @p words words to its own port, one per
 * cycle, drained by two back-to-back DMA-out segments starting
 * @p offset bytes into a fresh allocation; returns the cycle count
 * (the same under both steppers).
 */
Cycles
drainCycles(const RawConfig &base, Addr offset, unsigned words)
{
    Cycles cycles = 0;
    for (const RawStepper s : {RawStepper::Reference, RawStepper::Event}) {
        RawMachine m(withStepper(base, s));
        const Addr out = m.allocGlobal(offset + words * 4, "out") + offset;
        const unsigned first = words / 3;
        m.dmaOut(0, out, first);
        m.dmaOut(0, out + first * 4, words - first);
        m.setRoute(0, portEndpoint(0));
        Assembler as;
        for (unsigned k = 0; k < words; ++k)
            as.li(regCsto, static_cast<std::int32_t>(k));
        as.halt();
        m.setProgram(0, as.finish());
        const Cycles c = m.run();
        EXPECT_TRUE(s == RawStepper::Reference || c == cycles);
        cycles = c;
        std::vector<Word> expect(words);
        for (unsigned k = 0; k < words; ++k)
            expect[k] = k;
        EXPECT_EQ(m.peekGlobal(out, words), expect);
    }
    return cycles;
}

/**
 * Stream @p words words from two back-to-back DMA-in segments starting
 * @p offset bytes into a fresh allocation into tile 0, which stores
 * one per cycle into its SRAM with `sw $csti` (a fused stream
 * instruction under the event stepper); returns the cycle count (the
 * same under both steppers).
 */
Cycles
fillCycles(const RawConfig &base, Addr offset, unsigned words)
{
    Cycles cycles = 0;
    std::vector<Word> data(words);
    for (unsigned k = 0; k < words; ++k)
        data[k] = 3 * k + 1;
    for (const RawStepper s : {RawStepper::Reference, RawStepper::Event}) {
        RawMachine m(withStepper(base, s));
        const Addr in = m.allocGlobal(offset + words * 4, "in") + offset;
        m.pokeGlobal(in, data);
        const unsigned first = words / 3;
        m.dmaIn(0, 0, in, first);
        m.dmaIn(0, 0, in + first * 4, words - first);
        Assembler as;
        for (unsigned k = 0; k < words; ++k)
            as.sw(regCsti, 0, static_cast<std::int32_t>(k * 4));
        as.halt();
        m.setProgram(0, as.finish());
        const Cycles c = m.run();
        EXPECT_TRUE(s == RawStepper::Reference || c == cycles);
        EXPECT_EQ(m.streamedInstructions(),
                  s == RawStepper::Event ? words : 0u);
        cycles = c;
        EXPECT_EQ(m.peekLocal(0, 0, words), data);
    }
    return cycles;
}

/**
 * DRAM rows opened by every word but the last of a @p words-word
 * stream starting @p offset bytes into the first allocation (which
 * starts 64 bytes into global memory), counted from the addresses.
 */
std::uint64_t
rowsOpenedBeforeLastWord(Addr rowBytes, Addr offset, unsigned words)
{
    std::uint64_t opened = 0;
    Addr lastRow = ~Addr{0};
    for (unsigned k = 0; k + 1 < words; ++k) {
        const Addr row = (64 + offset + k * 4) / rowBytes;
        if (row != lastRow) {
            ++opened;
            lastRow = row;
        }
    }
    return opened;
}

TEST(RawPortRows, RowMissPenaltyChargesEveryOpenedRow)
{
    // The tile runs faster than a penalised port moves words, in
    // either direction, so each row-miss penalty delays the rest of
    // the stream by exactly its length, except the last word's
    // (nothing waits behind it). The row a word opens is counted
    // straight from its address, across the segment boundary too,
    // for row sizes that are a power of two, that are not, and that
    // are not a whole number of words.
    constexpr unsigned words = 600;
    constexpr Cycles penalty = 7;
    for (const Addr rowBytes : {Addr{2048}, Addr{1000}, Addr{6}, Addr{64}}) {
        for (const Addr offset : {Addr{0}, Addr{12}, Addr{1000}}) {
            SCOPED_TRACE("row " + std::to_string(rowBytes) + " B, offset "
                         + std::to_string(offset));
            const std::uint64_t opened =
                rowsOpenedBeforeLastWord(rowBytes, offset, words);
            RawConfig cfg;
            cfg.portRowBytes = rowBytes;
            cfg.portRowMissPenalty = 0;
            const Cycles flatOut = drainCycles(cfg, offset, words);
            const Cycles flatIn = fillCycles(cfg, offset, words);
            cfg.portRowMissPenalty = penalty;
            EXPECT_EQ(drainCycles(cfg, offset, words) - flatOut,
                      penalty * opened);
            EXPECT_EQ(fillCycles(cfg, offset, words) - flatIn,
                      penalty * opened);
        }
    }
}

TEST(RawStreamDeathTest, UnroutedSendDiesUnderBothSteppers)
{
    // A $csto load with no route configured: the fused stream loop
    // hands it to the general step, which must trap exactly like the
    // reference stepper.
    for (const RawStepper s :
         {RawStepper::Reference, RawStepper::Event}) {
        EXPECT_DEATH(
            {
                RawMachine m(withStepper(RawConfig{}, s));
                const Addr out = m.allocGlobal(4, "out");
                m.dmaOut(0, out, 1);
                Assembler as;
                as.lw(regCsto, 0, 0);
                as.halt();
                m.setProgram(0, as.finish());
                m.run();
            },
            "tile 0 writes \\$csto without a configured route");
    }
}

TEST(RawEventDifferential, MaxCyclesDeadlockIsFatalInBothModes)
{
    // The skip-ahead must not jump past the runaway guard.
    for (const RawStepper s :
         {RawStepper::Reference, RawStepper::Event}) {
        RawConfig cfg;
        cfg.maxCycles = 5000;
        cfg.stepper = s;
        EXPECT_DEATH(
            {
                RawMachine m(cfg);
                Assembler as;
                as.move(1, regCsti);
                as.halt();
                m.setProgram(0, as.finish());
                m.run();
            },
            "deadlock");
    }
}

} // namespace
} // namespace triarch::raw

// Study-level: the fuzz sweep's boundary configs, run on every Raw
// cell under both steppers and at several thread counts.
namespace triarch::study
{
namespace
{

/** RAII override of the process-wide default stepper. */
class StepperOverride
{
  public:
    explicit StepperOverride(raw::RawStepper s)
        : saved(raw::defaultRawStepper())
    {
        raw::setDefaultRawStepper(s);
    }
    ~StepperOverride() { raw::setDefaultRawStepper(saved); }

  private:
    raw::RawStepper saved;
};

TEST(RawEventDifferential, BoundaryConfigsAcrossThreadCounts)
{
    FuzzOptions opts;
    opts.randomConfigs = 0;     // the hand-written boundary set only
    const std::vector<Cell> rawCells = {
        {MachineId::Raw, KernelId::CornerTurn},
        {MachineId::Raw, KernelId::Cslc},
        {MachineId::Raw, KernelId::BeamSteering},
    };

    unsigned checked = 0;
    for (const StudyConfig &cfg : enumerateFuzzConfigs(opts)) {
        if (validateConfig(cfg))
            continue;           // invalid-on-purpose boundary config
        if (checked == 8)
            break;              // keep the suite seconds-fast
        ++checked;
        SCOPED_TRACE(describeConfig(cfg));

        std::vector<RunResult> expect;
        {
            StepperOverride guard(raw::RawStepper::Reference);
            ParallelRunner runner(cfg, 1, nullptr,
                                  ParallelRunner::noCache());
            expect = runner.runCells(rawCells);
        }
        StepperOverride guard(raw::RawStepper::Event);
        for (const unsigned threads : {1u, 2u, 8u}) {
            ParallelRunner runner(cfg, threads, nullptr,
                                  ParallelRunner::noCache());
            const std::vector<RunResult> got =
                runner.runCells(rawCells);
            ASSERT_EQ(got.size(), expect.size());
            for (std::size_t i = 0; i < expect.size(); ++i) {
                EXPECT_EQ(got[i], expect[i])
                    << threads << " threads, cell " << i;
            }
        }
    }
    EXPECT_GE(checked, 4u) << "boundary set shrank unexpectedly";
}

} // namespace
} // namespace triarch::study
