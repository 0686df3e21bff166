#include "decode.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace triarch::raw
{

bool
DecodedProgram::matches(std::span<const Instr> program) const
{
    return program.size() == size()
           && std::equal(program.begin(), program.end(), code.begin(),
                         [](const Instr &in, const DecodedInstr &d) {
                             return in == d.instr();
                         });
}

DecodedProgram
decodeProgram(std::span<const Instr> program)
{
    const auto size = static_cast<std::uint32_t>(program.size());
    DecodedProgram out;
    out.code.reserve(program.size() + 1);
    for (const Instr &in : program) {
        triarch_assert(static_cast<unsigned>(in.op)
                           <= static_cast<unsigned>(Op::Drecv),
                       "unknown Raw opcode ",
                       static_cast<unsigned>(in.op));
        triarch_assert(in.rd < numRegs && in.rs < numRegs
                           && in.rt < numRegs,
                       "register index out of range in ",
                       disassemble(in));
        const OpInfo info = opInfo(in.op);
        DecodedInstr d;
        d.op = in.op;
        d.rd = in.rd;
        d.rs = in.rs;
        d.rt = in.rt;
        d.imm = in.imm;
        const bool popsS = info.readsRs && in.rs == regCsti;
        const bool popsT = info.readsRt && in.rt == regCsti;
        d.srcS = info.readsRs && !popsS ? in.rs : 0;
        d.srcT = info.readsRt && !popsT ? in.rt : 0;
        d.dst = in.rd == 0 ? regSink : in.rd;
        d.pops = static_cast<std::uint8_t>(popsS + popsT);
        d.sends = info.sendEligible && in.rd == regCsto;
        const bool dynamic = in.op == Op::Dsend || in.op == Op::Drecv;
        d.local = !dynamic && d.pops == 0 && !d.sends;
        d.stream = in.rs != regCsti
                   && ((in.op == Op::Sw && in.rt == regCsti)
                       || (in.op == Op::Lw && in.rd == regCsto));
        d.target = in.imm >= 0 && static_cast<std::uint32_t>(in.imm)
                                      < size
                       ? static_cast<std::uint32_t>(in.imm)
                       : size;
        out.usesDynamicNetwork = out.usesDynamicNetwork || dynamic;
        out.code.push_back(d);
    }
    // The sentinel: a non-local record the pc reaches only by
    // running off the program.
    out.code.push_back(DecodedInstr{});
    return out;
}

} // namespace triarch::raw
