/**
 * @file
 * The decoded form of a Raw tile program (DESIGN D12). A program is
 * decoded once, when it is loaded, into one compact record per
 * instruction: the original fields plus everything the interpreter
 * would otherwise re-derive before every step — which registers
 * stand for the operands' ready times and values, how many $csti
 * words the instruction pops, whether it sends on $csto, whether it
 * may run in the tile-local batch, and where a branch lands.
 * Decoding is lossless: DecodedInstr::instr() returns the Instr it
 * came from.
 */

#ifndef TRIARCH_RAW_DECODE_HH
#define TRIARCH_RAW_DECODE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "raw/isa.hh"

namespace triarch::raw
{

/**
 * Write-only register index one past the architectural ones: the
 * batch executor writes an r0 destination here instead of testing
 * for it. Register 0 itself is never written, so its value and
 * ready time stay 0 and it serves as the zero source.
 */
constexpr unsigned regSink = numRegs;

/** One instruction as the interpreter executes it. */
struct DecodedInstr
{
    Op op = Op::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::uint8_t rt = 0;
    std::int32_t imm = 0;
    /** Register whose ready time (and, in the local batch, value)
     *  stands for operand rs: rs itself, or 0 when rs is not read,
     *  is r0, or is $csti. */
    std::uint8_t srcS = 0;
    /** The same for operand rt. */
    std::uint8_t srcT = 0;
    /** Register the local batch writes: rd, or regSink for r0. */
    std::uint8_t dst = 0;
    /** Number of $csti operands (each pops one network word). */
    std::uint8_t pops : 2 = 0;
    /** Writes $csto, i.e. sends on the tile's static route. */
    std::uint8_t sends : 1 = 0;
    /** Touches no network: no $csti, $csto, dsend or drecv, so it
     *  may run in the tile-local batch (global lw/sw still break
     *  the batch at run time). */
    std::uint8_t local : 1 = 0;
    /** A stream instruction the fused chain loop may retire (D13):
     *  `sw $csti, imm(rs)` or `lw $csto, imm(rs)` with the address in
     *  a register, whose only outside effects are one pop from the
     *  tile's input FIFO or one send on its static route. */
    std::uint8_t stream : 1 = 0;
    /** Branch/jump destination: imm when it lies inside the
     *  program, otherwise the sentinel index (the program size). */
    std::uint32_t target = 0;

    /** The instruction this record was decoded from. */
    Instr instr() const { return {op, rd, rs, rt, imm}; }
};

static_assert(sizeof(DecodedInstr) == 16,
              "a decoded instruction packs into 16 bytes");

/**
 * A decoded program: size() instructions followed by one sentinel
 * record. Falling off the end or branching outside the program lands
 * on the sentinel, which is never local, so the batch executor needs
 * no bounds check and the stepper's "ran off its program" trap
 * fires exactly where it would for the raw program counter.
 */
struct DecodedProgram
{
    std::vector<DecodedInstr> code;
    /** Some instruction is a dsend or drecv. */
    bool usesDynamicNetwork = false;

    /** Instructions, excluding the sentinel. */
    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(code.size() - 1);
    }

    /** True if this program decodes @p program. */
    bool matches(std::span<const Instr> program) const;
};

/** Decode @p program (panics on an unknown opcode or a register
 *  index outside the architectural file). */
DecodedProgram decodeProgram(std::span<const Instr> program);

} // namespace triarch::raw

#endif // TRIARCH_RAW_DECODE_HH
