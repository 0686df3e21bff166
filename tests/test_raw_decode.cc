/**
 * @file
 * Tests for the decoded Raw program form (raw/decode.hh): every
 * kernel program and a seeded random instruction set decode
 * losslessly, the derived fields say what the interpreter used to
 * re-derive per step, tiles loading the same program share one
 * decoded copy, the sentinel traps "ran off its program" under both
 * steppers, and the batch and stream coverage counters are exact.
 */

#include <gtest/gtest.h>

#include <random>

#include "raw/assembler.hh"
#include "raw/decode.hh"
#include "raw/kernels_raw.hh"
#include "raw/machine.hh"

namespace triarch::raw
{
namespace
{

/**
 * Require @p d to decode @p program: each record gives back its
 * Instr, and the derived fields agree with the per-opcode table.
 */
void
expectDecodes(const std::vector<Instr> &program, const DecodedProgram &d)
{
    ASSERT_EQ(d.size(), program.size());
    ASSERT_EQ(d.code.size(), program.size() + 1) << "no sentinel";
    const auto size = static_cast<std::int64_t>(program.size());
    bool dynamic = false;
    for (std::size_t i = 0; i < program.size(); ++i) {
        const Instr &in = program[i];
        const DecodedInstr &di = d.code[i];
        SCOPED_TRACE("instruction " + std::to_string(i) + ": "
                     + disassemble(in));
        EXPECT_EQ(di.instr(), in);

        const OpInfo info = opInfo(in.op);
        const bool popS = info.readsRs && in.rs == regCsti;
        const bool popT = info.readsRt && in.rt == regCsti;
        EXPECT_EQ(di.pops, unsigned{popS} + unsigned{popT});
        EXPECT_EQ(di.srcS, info.readsRs && !popS ? in.rs : 0);
        EXPECT_EQ(di.srcT, info.readsRt && !popT ? in.rt : 0);
        EXPECT_EQ(di.dst, in.rd == 0 ? regSink : in.rd);
        const bool sends = info.sendEligible && in.rd == regCsto;
        EXPECT_EQ(static_cast<bool>(di.sends), sends);
        const bool net = in.op == Op::Dsend || in.op == Op::Drecv;
        dynamic = dynamic || net;
        EXPECT_EQ(static_cast<bool>(di.local),
                  !net && !popS && !popT && !sends);
        const bool addrInReg = in.rs != regCsti;
        EXPECT_EQ(static_cast<bool>(di.stream),
                  addrInReg
                      && ((in.op == Op::Sw && in.rt == regCsti)
                          || (in.op == Op::Lw && in.rd == regCsto)));
        const bool inside = in.imm >= 0 && in.imm < size;
        EXPECT_EQ(di.target, inside ? static_cast<std::uint32_t>(in.imm)
                                    : d.size());
    }
    EXPECT_FALSE(d.code.back().local) << "the sentinel must not batch";
    EXPECT_FALSE(d.code.back().stream) << "the sentinel must not stream";
    EXPECT_EQ(d.usesDynamicNetwork, dynamic);
    EXPECT_TRUE(d.matches(program));
}

TEST(RawDecode, EveryKernelProgramDecodesLosslessly)
{
    std::vector<std::vector<Instr>> programs;
    for (unsigned blocks : {0u, 1u, 2u, 32u})
        programs.push_back(cornerTurnProgram(blocks));
    for (unsigned sets : {0u, 1u, 4u, 5u}) {
        programs.push_back(cslcProgram(sets));
        programs.push_back(cslcStreamedProgram(sets));
    }
    for (unsigned count : {0u, 1u, 3u, 4u, 100u, 101u})
        programs.push_back(beamSteeringProgram(count, 4, 3));
    for (const auto &program : programs)
        expectDecodes(program, decodeProgram(program));
}

TEST(RawDecode, RandomInstructionsDecodeLosslessly)
{
    // Every opcode with every register role, $csti/$csto included,
    // and branch targets inside, at the edge of, past and before the
    // program.
    std::mt19937 rng(20031);
    std::uniform_int_distribution<unsigned> op(
        0, static_cast<unsigned>(Op::Drecv));
    std::uniform_int_distribution<unsigned> reg(0, numRegs - 1);
    std::uniform_int_distribution<std::int32_t> imm(-4, 1100);
    for (unsigned round = 0; round < 20; ++round) {
        std::vector<Instr> program(1 + round * 53);
        for (Instr &in : program) {
            in.op = static_cast<Op>(op(rng));
            in.rd = static_cast<std::uint8_t>(reg(rng));
            in.rs = static_cast<std::uint8_t>(reg(rng));
            in.rt = static_cast<std::uint8_t>(reg(rng));
            in.imm = imm(rng);
        }
        expectDecodes(program, decodeProgram(program));
    }
}

TEST(RawDecode, RegisterOutsideTheFileDies)
{
    EXPECT_DEATH(decodeProgram(std::vector<Instr>{{Op::Add, 1, 40, 2, 0}}),
                 "register index out of range");
}

TEST(RawDecode, TilesLoadingTheSameProgramShareOneCopy)
{
    RawMachine m;
    EXPECT_EQ(m.decodedProgram(0), nullptr);
    m.setProgram(0, cslcProgram(5));
    m.setProgram(1, cslcProgram(5));
    m.setProgram(2, cslcProgram(4));
    m.setProgram(3, cslcProgram(4));
    ASSERT_NE(m.decodedProgram(0), nullptr);
    EXPECT_EQ(m.decodedProgram(0), m.decodedProgram(1));
    EXPECT_EQ(m.decodedProgram(2), m.decodedProgram(3));
    EXPECT_NE(m.decodedProgram(0), m.decodedProgram(2))
        << "programs differing in one immediate must not share";

    // Reloading a tile leaves the other holders' copy alone.
    const DecodedProgram *five = m.decodedProgram(1);
    m.setProgram(0, cslcProgram(4));
    EXPECT_EQ(m.decodedProgram(0), m.decodedProgram(2));
    EXPECT_EQ(m.decodedProgram(1), five);
    expectDecodes(cslcProgram(5), *five);
}

TEST(RawDecode, DecodedProgramsLoadWithoutCopying)
{
    const auto decoded = std::make_shared<const DecodedProgram>(
        decodeProgram(cornerTurnProgram(2)));
    RawMachine m;
    m.setProgram(0, decoded);
    m.setProgram(5, decoded);
    EXPECT_EQ(m.decodedProgram(0), decoded.get());
    EXPECT_EQ(m.decodedProgram(5), decoded.get());
    EXPECT_EQ(decoded.use_count(), 3);

    // Loading the same instructions later interns against it, and
    // reloading a holder releases its reference.
    m.setProgram(7, cornerTurnProgram(2));
    EXPECT_EQ(m.decodedProgram(7), decoded.get());
    m.setProgram(0, cornerTurnProgram(1));
    EXPECT_NE(m.decodedProgram(0), decoded.get());
    EXPECT_EQ(decoded.use_count(), 3);

    EXPECT_DEATH(m.setProgram(1, std::shared_ptr<const DecodedProgram>()),
                 "tile 1 given no decoded program");
}

TEST(RawDecode, KernelTilesWithEqualWorkShareTheirProgram)
{
    // 128x128 corner turn: two block rows, so tiles 0 and 1 each
    // turn two blocks and the other fourteen only halt.
    RawMachine m;
    kernels::WordMatrix src(128, 128);
    kernels::fillMatrix(src, 5);
    kernels::WordMatrix dst;
    cornerTurnRaw(m, src, dst);
    EXPECT_TRUE(kernels::isTransposeOf(src, dst));
    EXPECT_EQ(m.decodedProgram(0), m.decodedProgram(1));
    for (unsigned t = 3; t < 16; ++t)
        EXPECT_EQ(m.decodedProgram(t), m.decodedProgram(2)) << t;
    EXPECT_NE(m.decodedProgram(0), m.decodedProgram(2));
    EXPECT_EQ(m.decodedProgram(2)->size(), 1u);
}

/** Run @p program on tile 0 under @p stepper. */
void
runOnTile0(RawStepper stepper, std::vector<Instr> program)
{
    RawConfig cfg;
    cfg.stepper = stepper;
    RawMachine m(cfg);
    m.setProgram(0, std::move(program));
    m.run();
}

TEST(RawDecodeDeathTest, RunningOffTheProgramDiesUnderBothSteppers)
{
    const std::vector<std::vector<Instr>> programs = {
        // No halt: one stepped instruction, then the end.
        {{Op::Li, 1, 0, 0, 7}},
        // No halt after a batchable run (event stepper: the batch
        // stops at the sentinel).
        {{Op::Li, 1, 0, 0, 7}, {Op::Li, 2, 0, 0, 8},
         {Op::Add, 3, 1, 2, 0}},
        // Jump past the end.
        {{Op::Li, 1, 0, 0, 7}, {Op::Jump, 0, 0, 0, 100}, {Op::Halt}},
        // Jump to exactly the program size.
        {{Op::Li, 1, 0, 0, 7}, {Op::Jump, 0, 0, 0, 3}, {Op::Halt}},
        // Taken branch to a negative target.
        {{Op::Li, 1, 0, 0, 7}, {Op::Beq, 0, 0, 0, -1}, {Op::Halt}},
        // Taken conditional branch past the end.
        {{Op::Li, 1, 0, 0, 7}, {Op::Bne, 0, 1, 0, 9}, {Op::Halt}},
    };
    for (const RawStepper s : {RawStepper::Reference, RawStepper::Event}) {
        for (std::size_t i = 0; i < programs.size(); ++i) {
            SCOPED_TRACE("program " + std::to_string(i));
            EXPECT_DEATH(runOnTile0(s, programs[i]),
                         "tile 0 ran off its program");
        }
    }
}

TEST(RawBatchCoverage, CountsInstructionsRetiredInsideBatches)
{
    // li r1, 5; loop: addi r1, r1, -1; bne r1, r0, loop; halt
    // = 12 retired. The li steps through the normal path and hands
    // over to the batch, which retires the other 11, halt included.
    auto program = [] {
        Assembler as;
        as.li(1, 5);
        Label loop = as.label();
        as.bind(loop);
        as.addi(1, 1, -1);
        as.bne(1, 0, loop);
        as.halt();
        return as.finish();
    };
    for (const RawStepper s : {RawStepper::Reference, RawStepper::Event}) {
        RawConfig cfg;
        cfg.stepper = s;
        RawMachine m(cfg);
        m.setProgram(0, program());
        m.run();
        EXPECT_EQ(m.instructions(), 12u);
        EXPECT_EQ(m.batchedInstructions(),
                  s == RawStepper::Event ? 11u : 0u);
    }
}

TEST(RawBatchCoverage, NetworkInstructionsNeverBatch)
{
    // Both $csto writes step through the normal path; only the halt
    // behind them is local, so the batch retires exactly one.
    RawConfig cfg;
    cfg.stepper = RawStepper::Event;
    RawMachine m(cfg);
    m.setRoute(0, portEndpoint(0));
    Assembler as;
    as.li(1, 3);
    as.move(regCsto, 1);
    as.move(regCsto, 1);
    as.halt();
    m.setProgram(0, as.finish());
    const Addr out = m.allocGlobal(8, "out");
    m.dmaOut(0, out, 2);
    m.run();
    EXPECT_EQ(m.instructions(), 4u);
    EXPECT_EQ(m.batchedInstructions(), 1u);
    EXPECT_EQ(m.peekGlobal(out, 2), (std::vector<Word>{3, 3}));
}

TEST(RawStreamCoverage, PaperCornerTurnStreamsEveryStreamInstruction)
{
    // 1024 x 1024 words: one $csti store and one $csto load per word,
    // 2,097,152 of the cell's 2,491,936 instructions. Every one of
    // them retires in the co-batch's fused stream loop; the rest is
    // loop overhead, nearly all of it in tile-local batches.
    kernels::WordMatrix src(1024, 1024);
    kernels::fillMatrix(src, 1);
    RawConfig cfg;
    cfg.stepper = RawStepper::Event;
    RawMachine m(cfg);
    kernels::WordMatrix dst;
    cornerTurnRaw(m, src, dst);
    EXPECT_TRUE(kernels::isTransposeOf(src, dst));
    EXPECT_EQ(m.instructions(), 2'491'936u);
    EXPECT_EQ(m.streamedInstructions(), 2'097'152u);
    // All but each tile's first instruction, which hands over.
    EXPECT_EQ(m.batchedInstructions(), 394'768u);
}

TEST(RawStreamCoverage, ReferenceStepperNeverStreams)
{
    kernels::WordMatrix src(1024, 1024);
    kernels::fillMatrix(src, 1);
    RawConfig cfg;
    cfg.stepper = RawStepper::Reference;
    RawMachine m(cfg);
    kernels::WordMatrix dst;
    cornerTurnRaw(m, src, dst);
    EXPECT_EQ(m.instructions(), 2'491'936u);
    EXPECT_EQ(m.streamedInstructions(), 0u);
    EXPECT_EQ(m.batchedInstructions(), 0u);
}

} // namespace
} // namespace triarch::raw
