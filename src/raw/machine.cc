#include "machine.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::raw
{

RawMachine::RawMachine(const RawConfig &machine_config)
    : cfg(machine_config), hot(cfg.tiles()), cold(cfg.tiles()),
      wake(cfg.tiles(), kNever), ports(cfg.tiles()),
      global(cfg.globalBytes), group("raw")
{
    triarch_assert(cfg.portRowBytes > 0, "portRowBytes must be > 0");
    if (isPowerOf2(cfg.portRowBytes))
        portRowShift = static_cast<int>(floorLog2(cfg.portRowBytes));
    for (unsigned t = 0; t < cfg.tiles(); ++t) {
        cold[t].sram.assign(cfg.sramBytes, 0);
        mem::CacheConfig cc;
        cc.name = "raw.tile" + std::to_string(t) + ".dcache";
        cc.sizeBytes = cfg.cacheBytes;
        cc.assoc = cfg.cacheAssoc;
        cc.lineBytes = cfg.cacheLineBytes;
        cold[t].cache = std::make_unique<mem::SetAssocCache>(cc);
        hot[t].sram = cold[t].sram.data();
        hot[t].cache = cold[t].cache.get();
        hot[t].halted = true;       // no program yet
        // The input FIFO is capacity-limited, so reserving it here
        // makes every later push allocation-free.
        hot[t].inFifo.reserve(cfg.fifoCapacity);
    }
    group.addScalar("instructions", &_instrs, "instructions retired");
    group.addScalar("net_stalls", &_netStalls,
                    "cycles stalled on empty network FIFO");
    group.addScalar("dep_stalls", &_depStalls,
                    "stalls on operand latency");
    group.addScalar("cache_stall_cycles", &_cacheStalls,
                    "cycles stalled on cache misses");
    group.addScalar("loads_stores", &_ldst, "lw/sw instructions");
    group.addScalar("fp_ops", &_fpops, "floating-point instructions");
    group.addScalar("dma_in_words", &_wordsDmaIn, "words streamed in");
    group.addScalar("dma_out_words", &_wordsDmaOut,
                    "words streamed out");
    group.addScalar("cycles", &_cycles, "total machine cycles");
    group.addDistribution("tile_instr_share", &_tileShare,
                          "per-tile instructions relative to the "
                          "busiest tile");
    accountStats.registerIn(group);
    hostPhases.addTo(group);
}

Addr
RawMachine::allocGlobal(std::uint64_t bytes, const std::string &what)
{
    Addr addr = 0;
    // Checked arithmetic throughout: a huge `bytes` (or an allocNext
    // near the top of the address space) must exhaust, not wrap the
    // bound check and hand out overlapping memory.
    if (!roundUpChecked(allocNext, 64, addr) || bytes > global.size()
        || addr > global.size() - bytes) {
        triarch_fatal("Raw global DRAM exhausted allocating ", bytes,
                      " bytes for ", what);
    }
    allocNext = addr + bytes;
    return globalBase + addr;
}

void
RawMachine::pokeGlobal(Addr addr, std::span<const Word> words)
{
    triarch_assert(addr >= globalBase, "poke below global base");
    const Addr off = addr - globalBase;
    triarch_assert(off + words.size() * 4 <= global.size(),
                   "poke outside global DRAM");
    std::memcpy(global.data() + off, words.data(), words.size() * 4);
}

std::vector<Word>
RawMachine::peekGlobal(Addr addr, std::size_t count) const
{
    std::vector<Word> out(count);
    peekGlobalInto(addr, out);
    return out;
}

void
RawMachine::peekGlobalInto(Addr addr, std::span<Word> out) const
{
    triarch_assert(addr >= globalBase, "peek below global base");
    const Addr off = addr - globalBase;
    triarch_assert(off + out.size() * 4 <= global.size(),
                   "peek outside global DRAM");
    std::memcpy(out.data(), global.data() + off, out.size() * 4);
}

void
RawMachine::setProgram(unsigned tile, std::span<const Instr> program)
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    // Content-intern: a tile loading a program another tile already
    // holds shares that decoded copy instead of decoding its own.
    for (const TileCold &other : cold) {
        if (other.program && other.program->matches(program)) {
            setProgram(tile, other.program);
            return;
        }
    }
    setProgram(tile,
               std::make_shared<const DecodedProgram>(decodeProgram(program)));
}

void
RawMachine::setProgram(unsigned tile,
                       std::shared_ptr<const DecodedProgram> program)
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    triarch_assert(program && !program->code.empty(),
                   "tile ", tile, " given no decoded program");
    TileCold &c = cold[tile];
    TileHot &h = hot[tile];
    const bool wasHalted = h.halted;
    c.program = std::move(program);
    h.prog = c.program->code.data();
    h.progLen = c.program->size();
    h.pc = 0;
    h.halted = h.progLen == 0;
    if (wasHalted && !h.halted)
        ++liveTiles;
    else if (!wasHalted && h.halted)
        --liveTiles;
}

const DecodedProgram *
RawMachine::decodedProgram(unsigned tile) const
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    return cold[tile].program.get();
}

void
RawMachine::pokeLocal(unsigned tile, Addr byte_offset,
                      std::span<const Word> words)
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    triarch_assert(byte_offset + words.size() * 4 <= cfg.sramBytes,
                   "poke outside tile SRAM");
    std::memcpy(cold[tile].sram.data() + byte_offset, words.data(),
                words.size() * 4);
}

std::vector<Word>
RawMachine::peekLocal(unsigned tile, Addr byte_offset,
                      std::size_t count) const
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    triarch_assert(byte_offset + count * 4 <= cfg.sramBytes,
                   "peek outside tile SRAM");
    std::vector<Word> out(count);
    std::memcpy(out.data(), cold[tile].sram.data() + byte_offset,
                count * 4);
    return out;
}

void
RawMachine::setRoute(unsigned tile, unsigned endpoint)
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    triarch_assert(endpoint < cfg.tiles()
                       || (endpoint >= 1000
                           && endpoint < 1000 + cfg.tiles()),
                   "bad route endpoint");
    hot[tile].route = endpoint;
}

void
RawMachine::dmaIn(unsigned port, unsigned dstTile, Addr base,
                  unsigned words)
{
    triarch_assert(port < ports.size() && dstTile < cfg.tiles(),
                   "bad port or tile");
    triarch_assert(base >= globalBase, "DMA below global base");
    // A zero-word segment is a no-op. Queueing it would wedge the
    // port: stepPorts() only retires a segment after streaming a
    // word, so done (1, 2, ...) never equals words (0) and the run
    // loop spins forever waiting for the queue to drain.
    if (words == 0)
        return;
    hot[dstTile].dmaFed = true;
    ports[port].inQueue.push_back({base - globalBase, words, dstTile});
    ++ports[port].work;
    ++portWork;
}

void
RawMachine::dmaOut(unsigned port, Addr base, unsigned words)
{
    triarch_assert(port < ports.size(), "bad port");
    triarch_assert(base >= globalBase, "DMA below global base");
    if (words == 0)
        return;
    ports[port].outQueue.push_back({base - globalBase, words, 0});
    ++ports[port].work;
    ++portWork;
}

unsigned
RawMachine::hops(unsigned a, unsigned b) const
{
    const int ar = a / cfg.meshWidth, ac = a % cfg.meshWidth;
    const int br = b / cfg.meshWidth, bc = b % cfg.meshWidth;
    return static_cast<unsigned>(std::abs(ar - br) + std::abs(ac - bc));
}

[[gnu::always_inline]] inline void
RawMachine::noteFifoPush(unsigned t)
{
    // If the tile went to sleep on $csti with too few queued words
    // to know its wake cycle, this push may be the one it awaits.
    TileHot &h = hot[t];
    if (h.waitPops != 0 && h.inFifo.size() >= h.waitPops) {
        wake[t] = h.inFifo[h.waitPops - 1].first;
        h.waitPops = 0;
    }
}

void
RawMachine::send(unsigned t, Word value, Cycles now)
{
    const unsigned route = hot[t].route;
    triarch_assert(route != ~0u, "tile ", t,
                   " writes $csto without a configured route");
    if (route >= 1000) {
        // Peripheral port: one hop from the attached tile.
        ports[route - 1000].arrivals.emplace_back(
            now + cfg.netBaseLatency + 1, value);
        ++ports[route - 1000].work;
        ++portWork;
    } else {
        const Cycles arrival =
            now + cfg.netBaseLatency + std::max(1u, hops(t, route));
        hot[route].inFifo.emplace_back(arrival, value);
        noteFifoPush(route);
    }
}

void
RawMachine::tallyStall(TileStall kind, Cycles now)
{
    switch (kind) {
      case TileStall::Dep:
        ++tcDep;
        break;
      case TileStall::Cache:
        ++tcCache;
        break;
      case TileStall::Net:
        ++tcNet;
        break;
      case TileStall::Dma:
        ++tcDma;
        break;
      case TileStall::None:
        // Every path that pushes stallUntil into the future records
        // why; a future stall with no kind is a modelling bug.
        triarch_panic("Raw tile stalled with no recorded stall kind");
    }
    // Epoch channel index = TileStall ordinal - 1 (None panics above).
    hwSamp.addAt(static_cast<std::size_t>(kind) - 1, now);
}

void
RawMachine::stepTile(unsigned t, Cycles now)
{
    TileHot &tile = hot[t];
    if (tile.halted) {
        ++tcIdle;
        hwSamp.addAt(4, now);
        wake[t] = kNever;
        return;
    }
    if (tile.stallUntil > now) {
        tallyStall(tile.stallKind, now);
        // The scalar has to agree with the tallies: re-stall cycles
        // of a network-kind stall (Dsend injection occupancy) are
        // network stall cycles too.
        if (tile.stallKind == TileStall::Net
            || tile.stallKind == TileStall::Dma) {
            ++_netStalls;
        }
        wake[t] = tile.stallUntil;
        return;
    }
    triarch_assert(tile.pc < tile.progLen,
                   "tile ", t, " ran off its program");
    const DecodedInstr &in = tile.prog[tile.pc];

    // Source operands: each $csti source pops one network word; the
    // others are scoreboarded register reads (decode maps unread and
    // r0 operands to register 0, whose ready time is always 0).
    const unsigned pops = in.pops;
    const Cycles rdy = std::max(tile.ready[in.srcS], tile.ready[in.srcT]);

    // Network-input availability.
    if (pops > 0) {
        if (tile.inFifo.size() < pops
            || tile.inFifo[pops - 1].first > now) {
            ++_netStalls;
            tile.stallKind =
                tile.dmaFed ? TileStall::Dma : TileStall::Net;
            tallyStall(tile.stallKind, now);
            tile.stallUntil = now + 1;
            if (tile.inFifo.size() >= pops) {
                wake[t] = tile.inFifo[pops - 1].first;
            } else {
                tile.waitPops = static_cast<std::uint8_t>(pops);
                wake[t] = kNever;
            }
            return;
        }
    }

    // Dynamic-network receive availability.
    if (in.op == Op::Drecv) {
        if (tile.dynFifo.empty() || tile.dynFifo.front().first > now) {
            ++_netStalls;
            tile.stallKind = TileStall::Net;
            tallyStall(tile.stallKind, now);
            tile.stallUntil = now + 1;
            if (!tile.dynFifo.empty()) {
                wake[t] = tile.dynFifo.front().first;
            } else {
                tile.waitDyn = true;
                wake[t] = kNever;
            }
            return;
        }
    }

    // Operand readiness (scoreboarded latencies).
    if (rdy > now) {
        ++_depStalls;
        tile.stallKind = TileStall::Dep;
        tallyStall(tile.stallKind, now);
        tile.stallUntil = rdy;
        wake[t] = rdy;
        return;
    }

    // If this instruction sends to a tile whose FIFO is full, block.
    // No wake cycle is knowable (the consumer frees a slot whenever
    // it happens to pop), so re-poll every cycle like the reference.
    if (in.sends && tile.route < 1000
        && hot[tile.route].inFifo.size() >= cfg.fifoCapacity) {
        ++_netStalls;
        tile.stallKind = TileStall::Net;
        tallyStall(tile.stallKind, now);
        tile.stallUntil = now + 1;
        wake[t] = now + 1;
        return;
    }

    auto readReg = [&](unsigned r) -> std::uint32_t {
        if (r == regCsti) {
            // Availability was checked above, so arrival <= now; the
            // difference is the word's FIFO residency.
            fifoWordCycles += now - tile.inFifo.front().first;
            const Word v = tile.inFifo.front().second;
            tile.inFifo.pop_front();
            return v;
        }
        return r == 0 ? 0 : tile.regs[r];
    };

    auto writeReg = [&](unsigned rd, std::uint32_t v, Cycles lat) {
        if (rd == regCsto) {
            send(t, v, now);
        } else if (rd != 0) {
            tile.regs[rd] = v;
            tile.ready[rd] = now + lat;
        }
    };

    bool branched = false;
    switch (in.op) {
      case Op::Nop:
        break;
      case Op::Add:
        writeReg(in.rd, readReg(in.rs) + readReg(in.rt),
                 cfg.intLatency);
        break;
      case Op::Addi:
        writeReg(in.rd, readReg(in.rs)
                 + static_cast<std::uint32_t>(in.imm), cfg.intLatency);
        break;
      case Op::Sub:
        writeReg(in.rd, readReg(in.rs) - readReg(in.rt),
                 cfg.intLatency);
        break;
      case Op::Mul:
        writeReg(in.rd, readReg(in.rs) * readReg(in.rt),
                 cfg.mulLatency);
        break;
      case Op::Sll:
        writeReg(in.rd, readReg(in.rs) << (in.imm & 31),
                 cfg.intLatency);
        break;
      case Op::Sra:
        writeReg(in.rd, static_cast<std::uint32_t>(
                     static_cast<std::int32_t>(readReg(in.rs))
                     >> (in.imm & 31)), cfg.intLatency);
        break;
      case Op::Srl:
        writeReg(in.rd, readReg(in.rs) >> (in.imm & 31),
                 cfg.intLatency);
        break;
      case Op::And:
        writeReg(in.rd, readReg(in.rs) & readReg(in.rt),
                 cfg.intLatency);
        break;
      case Op::Or:
        writeReg(in.rd, readReg(in.rs) | readReg(in.rt),
                 cfg.intLatency);
        break;
      case Op::Xor:
        writeReg(in.rd, readReg(in.rs) ^ readReg(in.rt),
                 cfg.intLatency);
        break;
      case Op::Li:
        writeReg(in.rd, static_cast<std::uint32_t>(in.imm),
                 cfg.intLatency);
        break;
      case Op::FAdd:
        writeReg(in.rd, floatToWord(wordToFloat(readReg(in.rs))
                                    + wordToFloat(readReg(in.rt))),
                 cfg.fpLatency);
        ++_fpops;
        break;
      case Op::FSub:
        writeReg(in.rd, floatToWord(wordToFloat(readReg(in.rs))
                                    - wordToFloat(readReg(in.rt))),
                 cfg.fpLatency);
        ++_fpops;
        break;
      case Op::FMul:
        writeReg(in.rd, floatToWord(wordToFloat(readReg(in.rs))
                                    * wordToFloat(readReg(in.rt))),
                 cfg.fpLatency);
        ++_fpops;
        break;
      case Op::Lw: {
        // The address operand is peeked, not popped: a fused chain
        // run must park on a global access before any state changes
        // (D13), and the committed pop below replays readReg exactly.
        const std::uint32_t rsv =
            in.rs == regCsti ? tile.inFifo.front().second
            : in.rs == 0     ? 0
                             : tile.regs[in.rs];
        const Addr addr = rsv + static_cast<std::uint32_t>(in.imm);
        if (addr >= globalBase) {
            if (chainMode) [[unlikely]] {
                chainParked = true;
                wake[t] = now;
                return;
            }
            if (!hazardBoxes.empty()) [[unlikely]]
                checkChainHazard(t, addr);
        }
        if (in.rs == regCsti) {
            fifoWordCycles += now - tile.inFifo.front().first;
            tile.inFifo.pop_front();
        }
        Word value = 0;
        Cycles extra = 0;
        if (addr >= globalBase) {
            const Addr off = addr - globalBase;
            triarch_assert(off + 4 <= global.size(),
                           "tile ", t, " lw outside global DRAM");
            std::memcpy(&value, global.data() + off, 4);
            // MRU hit fast path (D13): exact by construction, so
            // no mode gate — a hit charges nothing extra.
            if (!tile.cache->accessFast(addr, false)) {
                auto res = tile.cache->access(addr, false);
                if (!res.hit) {
                    extra = cfg.cacheMissPenalty;
                    if (res.writebackAddr)
                        extra += cfg.writebackPenalty;
                    _cacheStalls += extra;
                }
            }
        } else {
            triarch_assert(addr + 4 <= cfg.sramBytes,
                           "tile ", t, " lw outside SRAM @", addr);
            std::memcpy(&value, tile.sram + addr, 4);
        }
        writeReg(in.rd, value, extra + cfg.loadLatency);
        if (extra > 0) {
            tile.stallKind = TileStall::Cache;
            tile.stallUntil = now + 1 + extra;
        }
        ++_ldst;
        break;
      }
      case Op::Sw: {
        // Same peek-before-pop dance as Lw, for the same reason.
        const std::uint32_t rsv =
            in.rs == regCsti ? tile.inFifo.front().second
            : in.rs == 0     ? 0
                             : tile.regs[in.rs];
        const Addr addr = rsv + static_cast<std::uint32_t>(in.imm);
        if (addr >= globalBase) {
            if (chainMode) [[unlikely]] {
                chainParked = true;
                wake[t] = now;
                return;
            }
            if (!hazardBoxes.empty()) [[unlikely]]
                checkChainHazard(t, addr);
        }
        if (in.rs == regCsti) {
            fifoWordCycles += now - tile.inFifo.front().first;
            tile.inFifo.pop_front();
        }
        const Word value = readReg(in.rt);
        if (addr >= globalBase) {
            const Addr off = addr - globalBase;
            triarch_assert(off + 4 <= global.size(),
                           "tile ", t, " sw outside global DRAM");
            std::memcpy(global.data() + off, &value, 4);
            // MRU hit fast path (D13): exact, no mode gate — a
            // store hit stalls nothing.
            if (!tile.cache->accessFast(addr, true)) {
                auto res = tile.cache->access(addr, true);
                if (!res.hit) {
                    Cycles extra = cfg.cacheMissPenalty;
                    if (res.writebackAddr)
                        extra += cfg.writebackPenalty;
                    _cacheStalls += extra;
                    tile.stallKind = TileStall::Cache;
                    tile.stallUntil = now + 1 + extra;
                }
            }
        } else {
            triarch_assert(addr + 4 <= cfg.sramBytes,
                           "tile ", t, " sw outside SRAM @", addr);
            std::memcpy(tile.sram + addr, &value, 4);
        }
        ++_ldst;
        break;
      }
      case Op::Dsend: {
        const unsigned dest = readReg(in.rs);
        const Word value = readReg(in.rt);
        triarch_assert(dest < cfg.tiles(),
                       "tile ", t, " dsend to bad tile ", dest);
        const Cycles arrival =
            now + cfg.dynBaseLatency + std::max(1u, hops(t, dest));
        hot[dest].dynFifo.emplace_back(arrival, value);
        if (hot[dest].waitDyn) {
            hot[dest].waitDyn = false;
            wake[dest] = arrival;
        }
        // The packet (header + data) occupies the injection port.
        tile.stallKind = TileStall::Net;
        tile.stallUntil = now + cfg.dynSendOccupancy;
        break;
      }
      case Op::Drecv:
        writeReg(in.rd, tile.dynFifo.front().second, cfg.intLatency);
        tile.dynFifo.pop_front();
        break;
      case Op::Beq:
        branched = readReg(in.rs) == readReg(in.rt);
        break;
      case Op::Bne:
        branched = readReg(in.rs) != readReg(in.rt);
        break;
      case Op::Blt:
        branched = static_cast<std::int32_t>(readReg(in.rs))
                   < static_cast<std::int32_t>(readReg(in.rt));
        break;
      case Op::Bge:
        branched = static_cast<std::int32_t>(readReg(in.rs))
                   >= static_cast<std::int32_t>(readReg(in.rt));
        break;
      case Op::Jump:
        branched = true;
        break;
      case Op::Halt:
        tile.halted = true;
        cold[t].haltCycle = now;
        --liveTiles;
        break;
    }

    if (branched)
        tile.pc = in.target;
    else if (!tile.halted)
        ++tile.pc;

    ++tile.instrs;

    if (debugTrace) [[unlikely]] {
        debugLog("raw tile ", t, " @", now, ": ",
                 disassemble(in.instr()));
    }

    // A retire with no pending stall window can keep going: as long
    // as the following instructions touch only tile-private state,
    // nothing else in the machine can observe the difference, so the
    // whole run executes in one call (event stepper only). The first
    // instruction's break test runs inline so streaming code (whose
    // every instruction touches the network) skips the call; the
    // sentinel past the program's end is never local.
    if (batching && !tile.halted && tile.stallUntil <= now + 1
        && tile.prog[tile.pc].local) {
        batchTile(t, now + 1);
        return;
    }

    // Next wake: immediately unless the retire scheduled a stall
    // window (cache-miss service, Dsend injection occupancy).
    wake[t] = tile.halted ? kNever : std::max(now + 1, tile.stallUntil);
}

/**
 * Execute a run of tile-local instructions — register/SRAM compute,
 * branches, halt — in one call, advancing a private cycle cursor.
 *
 * Soundness: while a tile executes only local operations, no other
 * actor reads its private state (FIFO pushes append without looking
 * at registers or SRAM), and the tile reads nothing another actor
 * writes. The batch therefore commutes with the rest of the cycle
 * interleaving and every counter lands on exactly the value the
 * cycle-at-a-time reference accrues: busy cycles are the retired
 * instruction count, operand-latency gaps add to tcDep in bulk with
 * one dep_stalls event each, exactly like the reference's stall
 * entry plus its per-cycle stallUntil re-polls.
 *
 * The batch breaks BEFORE any externally-visible instruction:
 * $csti/$csto traffic, dynamic network ops, and loads/stores that
 * reach global DRAM (other tiles and DMA ports share it, and the
 * cache model bills those accesses); the instruction re-runs through
 * the normal stepTile path at the cursor cycle.
 */
void
RawMachine::batchTile(unsigned t, Cycles cur)
{
    TileHot &tile = hot[t];
    // Everything the loop touches lives in locals: SRAM stores go
    // through a byte pointer that may alias any member, so counters
    // kept in the machine would be reloaded after every store.
    const DecodedInstr *const prog = tile.prog;
    std::uint32_t *const regs = tile.regs.data();
    Cycles *const ready = tile.ready.data();
    std::uint8_t *const sram = tile.sram;
    const Addr sramBytes = cfg.sramBytes;
    const Cycles limit = cfg.maxCycles;
    const Cycles intLat = cfg.intLatency;
    const Cycles mulLat = cfg.mulLatency;
    const Cycles fpLat = cfg.fpLatency;
    const Cycles loadLat = cfg.loadLatency;
    std::uint32_t pc = tile.pc;
    std::uint64_t retired = 0, depCycles = 0, depEvents = 0;
    std::uint64_t fpOps = 0, loadStores = 0;
    bool halted = false;

    while (cur <= limit) {
        const DecodedInstr &in = prog[pc];
        if (!in.local)
            break;

        const Cycles rdy = std::max(ready[in.srcS], ready[in.srcT]);
        if (rdy > cur) {
            depCycles += rdy - cur;
            hwSamp.addRange(0, cur, rdy);
            ++depEvents;
            cur = rdy;
        }

        // Local instructions never read $csti, so the mapped sources
        // carry the operand values (register 0 reads as zero).
        const std::uint32_t rs = regs[in.srcS];
        const std::uint32_t rt = regs[in.srcT];
        const auto wr = [&](std::uint32_t v, Cycles lat) {
            regs[in.dst] = v;
            ready[in.dst] = cur + lat;
        };

        std::uint32_t next = pc + 1;
        switch (in.op) {
          case Op::Nop:
            break;
          case Op::Add:
            wr(rs + rt, intLat);
            break;
          case Op::Addi:
            wr(rs + static_cast<std::uint32_t>(in.imm), intLat);
            break;
          case Op::Sub:
            wr(rs - rt, intLat);
            break;
          case Op::Mul:
            wr(rs * rt, mulLat);
            break;
          case Op::Sll:
            wr(rs << (in.imm & 31), intLat);
            break;
          case Op::Sra:
            wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(rs)
                                          >> (in.imm & 31)),
               intLat);
            break;
          case Op::Srl:
            wr(rs >> (in.imm & 31), intLat);
            break;
          case Op::And:
            wr(rs & rt, intLat);
            break;
          case Op::Or:
            wr(rs | rt, intLat);
            break;
          case Op::Xor:
            wr(rs ^ rt, intLat);
            break;
          case Op::Li:
            wr(static_cast<std::uint32_t>(in.imm), intLat);
            break;
          case Op::FAdd:
            wr(floatToWord(wordToFloat(rs) + wordToFloat(rt)), fpLat);
            ++fpOps;
            break;
          case Op::FSub:
            wr(floatToWord(wordToFloat(rs) - wordToFloat(rt)), fpLat);
            ++fpOps;
            break;
          case Op::FMul:
            wr(floatToWord(wordToFloat(rs) * wordToFloat(rt)), fpLat);
            ++fpOps;
            break;
          case Op::Lw: {
            const Addr addr = rs + static_cast<std::uint32_t>(in.imm);
            if (addr >= globalBase)
                goto out;       // cached access: slow path bills it
            triarch_assert(addr + 4 <= sramBytes,
                           "tile ", t, " lw outside SRAM @", addr);
            Word value = 0;
            std::memcpy(&value, sram + addr, 4);
            wr(value, loadLat);
            ++loadStores;
            break;
          }
          case Op::Sw: {
            const Addr addr = rs + static_cast<std::uint32_t>(in.imm);
            if (addr >= globalBase)
                goto out;
            triarch_assert(addr + 4 <= sramBytes,
                           "tile ", t, " sw outside SRAM @", addr);
            std::memcpy(sram + addr, &rt, 4);
            ++loadStores;
            break;
          }
          case Op::Beq:
            if (rs == rt)
                next = in.target;
            break;
          case Op::Bne:
            if (rs != rt)
                next = in.target;
            break;
          case Op::Blt:
            if (static_cast<std::int32_t>(rs)
                < static_cast<std::int32_t>(rt))
                next = in.target;
            break;
          case Op::Bge:
            if (static_cast<std::int32_t>(rs)
                >= static_cast<std::int32_t>(rt))
                next = in.target;
            break;
          case Op::Jump:
            next = in.target;
            break;
          case Op::Halt:
            ++retired;
            halted = true;
            goto out;
          case Op::Dsend:
          case Op::Drecv:
            triarch_panic("network op reached the local batch");
        }

        pc = next;
        ++retired;
        ++cur;
    }
out:
    tile.pc = pc;
    tile.instrs += retired;
    batchedInstrs += retired;
    tcDep += depCycles;
    _depStalls += depEvents;
    _fpops += fpOps;
    _ldst += loadStores;
    if (halted) {
        tile.halted = true;
        cold[t].haltCycle = cur;
        --liveTiles;
        tile.talliedThrough = cur + 1;
        wake[t] = kNever;
        batchedHaltEnd = std::max(batchedHaltEnd, cur + 1);
        return;
    }
    // The instruction at `pc` issues at `cur` through the normal
    // path; every cycle below `cur` is accounted (busy via the
    // per-tile retire count, waits via tcDep).
    tile.talliedThrough = cur;
    wake[t] = cur;
}

[[gnu::always_inline]] inline Cycles
RawMachine::rowCost(Addr a, Addr &lastRow) const
{
    const Addr row = rowOf(a);
    if (row == lastRow)
        return 1;
    lastRow = row;
    return 1 + cfg.portRowMissPenalty;
}

[[gnu::always_inline]] inline void
RawMachine::advancePort(Port &port, Cycles now, PortTally &tally,
                        TileHot *own)
{
    std::uint8_t *const dram = global.data();
    // DMA in: stream one word per cycle into the tile FIFO.
    if (!port.inQueue.empty() && port.inFree <= now) {
        DmaSegment &seg = port.inQueue.front();
        TileHot &dst = own ? *own : hot[seg.dstTile];
        if (dst.inFifo.size() < cfg.fifoCapacity) {
            const Addr a = seg.base + static_cast<Addr>(seg.done) * 4;
            Word v = 0;
            std::memcpy(&v, dram + a, 4);
            dst.inFifo.emplace_back(now + cfg.netBaseLatency + 1, v);
            if (!own)
                noteFifoPush(seg.dstTile);
            ++tally.wordsIn;

            port.inFree = now + rowCost(a, port.inLastRow);
            if (++seg.done == seg.words) {
                port.inQueue.pop_front();
                ++tally.retired;
            }
        }
    }

    // DMA out: drain one arrived word per cycle to memory.
    if (!port.outQueue.empty() && port.outFree <= now
        && !port.arrivals.empty()
        && port.arrivals.front().first <= now) {
        DmaSegment &seg = port.outQueue.front();
        const Word v = port.arrivals.front().second;
        port.arrivals.pop_front();
        ++tally.retired;
        const Addr a = seg.base + static_cast<Addr>(seg.done) * 4;
        std::memcpy(dram + a, &v, 4);
        ++tally.wordsOut;

        port.outFree = now + rowCost(a, port.outLastRow);
        if (++seg.done == seg.words) {
            port.outQueue.pop_front();
            ++tally.retired;
        }
    }
}

void
RawMachine::settlePort(Port &port, const PortTally &tally)
{
    _wordsDmaIn += tally.wordsIn;
    _wordsDmaOut += tally.wordsOut;
    port.work -= tally.retired;
    portWork -= tally.retired;
}

void
RawMachine::stepPort(Port &port, Cycles now)
{
    PortTally tally;
    advancePort(port, now, tally, nullptr);
    settlePort(port, tally);
}

void
RawMachine::stepPorts(Cycles now)
{
    for (auto &port : ports) {
        if (port.inQueue.empty() && port.outQueue.empty())
            continue;
        stepPort(port, now);
    }
}

bool
RawMachine::allDone() const
{
    for (const auto &tile : hot) {
        if (!tile.halted)
            return false;
    }
    for (const auto &port : ports) {
        if (!port.inQueue.empty() || !port.outQueue.empty())
            return false;
        if (!port.arrivals.empty())
            return false;
    }
    return true;
}

void
RawMachine::creditSleep(unsigned t, Cycles now)
{
    TileHot &tile = hot[t];
    if (now <= tile.talliedThrough)
        return;
    const Cycles from = tile.talliedThrough;
    const std::uint64_t delta = now - from;
    tile.talliedThrough = now;
    // A sleeping tile's state cannot change, so every skipped cycle
    // tallies exactly what a cycle-at-a-time loop would have: idle
    // for halted tiles, otherwise the recorded stall kind. The
    // event-count scalars (dep_stalls, cache_stall_cycles) were
    // already bumped when the stall began; net_stalls counts
    // per-cycle and follows the tally. The epoch samples land on the
    // same cycles the reference loop's per-cycle tallies would.
    if (tile.halted) {
        tcIdle += delta;
        hwSamp.addRange(4, from, now);
        return;
    }
    switch (tile.stallKind) {
      case TileStall::Dep:
        tcDep += delta;
        break;
      case TileStall::Cache:
        tcCache += delta;
        break;
      case TileStall::Net:
        tcNet += delta;
        _netStalls += delta;
        break;
      case TileStall::Dma:
        tcDma += delta;
        _netStalls += delta;
        break;
      case TileStall::None:
        triarch_panic("Raw tile slept with no recorded stall kind");
    }
    hwSamp.addRange(static_cast<std::size_t>(tile.stallKind) - 1,
                    from, now);
}

Cycles
RawMachine::nextEventCycle(Cycles from) const
{
    Cycles next = kNever;
    for (const Cycles w : wake)
        next = std::min(next, w);
    // Candidates below clamp to `from`, so nothing can beat it: the
    // all-tiles-busy steady state (ct, bs) exits here without ever
    // touching the port scan.
    if (next <= from)
        return from;
    if (portWork == 0)
        return next;
    for (const Port &port : ports) {
        // A port with queued DMA-in work can act as soon as it is
        // free, unless the destination FIFO is full — then its next
        // chance strictly follows a consumer pop, which is itself a
        // tile-wake event, so no candidate is needed here.
        if (!port.inQueue.empty()
            && hot[port.inQueue.front().dstTile].inFifo.size()
                   < cfg.fifoCapacity) {
            next = std::min(next, std::max(port.inFree, from));
        }
        if (!port.outQueue.empty() && !port.arrivals.empty()) {
            next = std::min(
                next, std::max({port.outFree,
                                port.arrivals.front().first, from}));
        }
        if (next <= from)
            return from;
    }
    return next;
}

bool
RawMachine::coBatchEligible()
{
    // Tile side: every live tile must keep all its traffic inside
    // its own (tile t, port t) chain — static route to its own port
    // (or none), and no dynamic-network instructions anywhere in the
    // program (Dsend/Drecv cross chains by construction).
    for (unsigned t = 0; t < cfg.tiles(); ++t) {
        if (hot[t].halted)
            continue;
        if (hot[t].route != ~0u && hot[t].route != portEndpoint(t))
            return false;
        if (cold[t].program->usesDynamicNetwork)
            return false;
    }

    // Port side: every DMA-in segment on port p must feed tile p,
    // and DMA footprints must be order-independent across chains.
    // DMA-in only reads DRAM, so in-in overlap is harmless; any
    // write range overlapping another chain's footprint is not.
    //
    // Intervals are globalBase-relative [lo, hi) byte ranges. The
    // corpus queues its write segments in ascending address order
    // per port (out-of-order ports get a local sort — they are rare
    // and short), so the cross-port write check is a 16-way merge
    // rather than a global sort of tens of thousands of segments.
    struct Box
    {
        Addr lo = ~Addr{0};
        Addr hi = 0;
        bool
        overlaps(const Box &other) const
        {
            return lo < other.hi && other.lo < hi;
        }
    };
    const unsigned n = static_cast<unsigned>(ports.size());
    std::vector<Box> readBox(n), writeBox(n);
    std::vector<std::vector<Box>> writes(n);
    chainBoxes.assign(cfg.tiles(), {});
    for (unsigned p = 0; p < n; ++p) {
        const Port &port = ports[p];
        if (!port.arrivals.empty())
            return false;
        for (std::size_t i = 0; i < port.inQueue.size(); ++i) {
            const DmaSegment &seg = port.inQueue[i];
            if (seg.dstTile != p)
                return false;
            const Addr hi = seg.base + static_cast<Addr>(seg.words) * 4;
            readBox[p].lo = std::min(readBox[p].lo, seg.base);
            readBox[p].hi = std::max(readBox[p].hi, hi);
        }
        bool sorted = true;
        writes[p].reserve(port.outQueue.size());
        for (std::size_t i = 0; i < port.outQueue.size(); ++i) {
            const DmaSegment &seg = port.outQueue[i];
            const Addr hi = seg.base + static_cast<Addr>(seg.words) * 4;
            sorted = sorted
                     && (writes[p].empty()
                         || writes[p].back().lo <= seg.base);
            writes[p].push_back({seg.base, hi});
            writeBox[p].lo = std::min(writeBox[p].lo, seg.base);
            writeBox[p].hi = std::max(writeBox[p].hi, hi);
        }
        if (!sorted) {
            std::sort(writes[p].begin(), writes[p].end(),
                      [](const Box &a, const Box &b) {
                          return a.lo < b.lo;
                      });
        }
        chainBoxes[p].owner = p;
        chainBoxes[p].lo = std::min(readBox[p].lo, writeBox[p].lo);
        chainBoxes[p].hi = std::max(readBox[p].hi, writeBox[p].hi);
    }

    // Reads vs writes: box-level check. Every corpus kernel reads
    // and writes disjoint allocations, so a box overlap means an
    // unusual layout — fall back to the plain event loop rather
    // than resolving it segment by segment.
    for (unsigned p = 0; p < n; ++p) {
        if (readBox[p].hi == 0)
            continue;
        for (unsigned q = 0; q < n; ++q) {
            if (q != p && readBox[p].overlaps(writeBox[q]))
                return false;
        }
    }

    // Writes vs writes: merge the per-port sorted lists in ascending
    // lo order, tracking the largest end seen (maxHi1, from port1)
    // and the largest end seen from any other port (maxHi2). A new
    // interval conflicts iff it starts before the furthest end among
    // OTHER ports' intervals — same-port overlap stays ordered
    // inside its chain and is fine.
    std::vector<std::size_t> head(n, 0);
    Addr maxHi1 = 0, maxHi2 = 0;
    unsigned port1 = ~0u;
    for (;;) {
        unsigned best = ~0u;
        for (unsigned p = 0; p < n; ++p) {
            if (head[p] < writes[p].size()
                && (best == ~0u
                    || writes[p][head[p]].lo < writes[best][head[best]].lo)) {
                best = p;
            }
        }
        if (best == ~0u)
            break;
        const Box &b = writes[best][head[best]++];
        const Addr otherHi = best == port1 ? maxHi2 : maxHi1;
        if (b.lo < otherHi)
            return false;
        if (best == port1) {
            maxHi1 = std::max(maxHi1, b.hi);
        } else if (b.hi >= maxHi1) {
            // New furthest end; the old one came from a different
            // port, so it is exactly the new runner-up.
            maxHi2 = maxHi1;
            maxHi1 = b.hi;
            port1 = best;
        } else {
            maxHi2 = std::max(maxHi2, b.hi);
        }
    }
    return true;
}

Cycles
RawMachine::runChain(unsigned t)
{
    // The private two-actor event loop: same structure as runEvent,
    // restricted to tile t and port t. The eligibility gate proved
    // no other actor can observe or influence this pair, so stepping
    // it in isolation visits exactly the cycles the global loop
    // would and leaves identical state and tallies.
    TileHot &tile = hot[t];
    Port &port = ports[t];
    Cycles now = 0;
    while (!tile.halted || port.work != 0) {
        if (port.work != 0)
            stepPort(port, now);
        if (wake[t] <= now) {
            if (now > tile.talliedThrough)
                creditSleep(t, now);
            // A woken tile is never halted and its stall window is
            // over unless it re-polls one (stepTile's first test).
            if (tile.stallUntil <= now && tile.prog[tile.pc].stream)
                now = runStream(t, now);
            else
                stepTile(t, now);
            if (chainParked)
                return now;
            if (tile.talliedThrough < now + 1)
                tile.talliedThrough = now + 1;
        }
        ++now;
        if (now > cfg.maxCycles) {
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
        if (tile.halted && port.work == 0)
            break;
        Cycles next = wake[t];
        // Busy steady state: the tile runs this very cycle, and the
        // port candidates below clamp to >= now, so they cannot move
        // the cursor earlier — skip computing them.
        if (next > now && port.work != 0) {
            // Mirror nextEventCycle's port candidates for this port.
            if (!port.inQueue.empty()
                && tile.inFifo.size() < cfg.fifoCapacity) {
                next = std::min(next, std::max(port.inFree, now));
            }
            if (!port.outQueue.empty() && !port.arrivals.empty()) {
                next = std::min(
                    next, std::max({port.outFree,
                                    port.arrivals.front().first, now}));
            }
        }
        if (next > cfg.maxCycles) {
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
        now = next;
    }
    return now;
}

/**
 * Soundness: the loop interleaves the two actors exactly as runChain
 * does — port first, then tile, every cycle — and a stream
 * instruction touches only the tile's FIFO, registers and SRAM and
 * its own port's arrivals, so no state outside the chain moves. The
 * tile is busy every cycle it retires, which is what the tallies
 * already say (busy = retired instructions); everything else it
 * would have done through stepTile is bookkeeping kept in locals and
 * settled on exit. A tile-local run between stream instructions goes
 * to batchTile as after any retire; the batch touches nothing the
 * port reads, so stepping the port through the cycles it covered
 * afterwards commutes with it. The loop ends at the first
 * instruction that is neither, or cannot retire here — a FIFO word
 * not yet arrived, an operand not ready, an address outside SRAM
 * (global, or out of range), a send with no route to its own port —
 * which then steps through stepTile at the same cycle; or at a halt
 * inside a batch. Chain runs exist only while batching, so
 * debugTrace is off.
 */
Cycles
RawMachine::runStream(unsigned t, Cycles now)
{
    TileHot &tile = hot[t];
    Port &port = ports[t];
    auto &fifo = tile.inFifo;
    const DecodedInstr *const prog = tile.prog;
    const std::uint32_t *const regs = tile.regs.data();
    const Cycles *const ready = tile.ready.data();
    std::uint8_t *const sram = tile.sram;
    const Addr sramBytes = cfg.sramBytes;
    const Cycles sendLatency = cfg.netBaseLatency + 1;
    const bool ownRoute = tile.route == portEndpoint(t);
    std::uint32_t pc = tile.pc;
    std::uint64_t retired = 0, residency = 0, sent = 0;
    PortTally tally;
    // The tile has not stepped at `now`: stepTile takes over there.
    bool handOff = false;

    for (;;) {
        const DecodedInstr &in = prog[pc];
        const Addr addr = regs[in.srcS] + static_cast<std::uint32_t>(in.imm);
        if (ready[in.srcS] > now || addr >= globalBase
            || addr + 4 > sramBytes) {
            handOff = true;
            break;
        }
        if (in.op == Op::Sw) {
            if (fifo.empty() || fifo.front().first > now) {
                handOff = true;
                break;
            }
            residency += now - fifo.front().first;
            std::memcpy(sram + addr, &fifo.front().second, 4);
            fifo.pop_front();
        } else {
            if (!ownRoute) {
                handOff = true;
                break;
            }
            Word v = 0;
            std::memcpy(&v, sram + addr, 4);
            port.arrivals.emplace_back(now + sendLatency, v);
            ++sent;
        }
        ++pc;
        ++retired;
        Cycles resume = now + 1;
        if (!prog[pc].stream) {
            if (!prog[pc].local)
                break;
            // A tile-local run (loop bookkeeping): the batch runs it
            // ahead on the tile's private cursor, exactly as after a
            // stepTile retire, and the port catches up below.
            tile.pc = pc;
            batchTile(t, now + 1);
            pc = tile.pc;
            if (tile.halted)
                break;
            resume = wake[t];
        }
        // Step the port through every cycle up to the tile's next
        // issue (a no-op on cycles where it cannot act, so the same
        // cycles the chain loop's port candidates visit).
        while (now < resume) {
            if (++now > cfg.maxCycles) {
                triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                              " cycles — deadlock or runaway program");
            }
            advancePort(port, now, tally, &tile);
        }
        if (!prog[pc].stream) {
            handOff = true;
            break;
        }
    }

    tile.pc = pc;
    tile.instrs += retired;
    streamedInstrs += retired;
    _ldst += retired;
    fifoWordCycles += residency;
    port.work += sent;
    portWork += sent;
    settlePort(port, tally);
    if (tile.halted)
        return now;
    // Busy through the cycle before `now`; the step at `now` (the
    // last retire, or stepTile below) tallies that cycle.
    tile.talliedThrough = now;
    if (handOff)
        stepTile(t, now);
    else
        wake[t] = now + 1;
    return now;
}

Cycles
RawMachine::runCoBatch(bool &poisoned)
{
    chainMode = true;
    Cycles end = 0;
    for (unsigned t = 0; t < cfg.tiles(); ++t) {
        chainParked = false;
        const Cycles chainEnd = runChain(t);
        if (chainParked) {
            poisoned = true;
            chainMode = false;
            // Chains 0..t ran ahead of global time (chain t exactly
            // up to its park cycle). Any later global access into
            // their DMA footprints — except the parked chain's own
            // tile touching its own footprint, which stays in exact
            // cycle order — would observe future memory; arm the
            // traps.
            for (unsigned c = 0; c <= t; ++c) {
                if (chainBoxes[c].hi > chainBoxes[c].lo)
                    hazardBoxes.push_back(chainBoxes[c]);
            }
            // The general loop's cursor can exit behind the chains
            // that already completed; fold their ends into the
            // existing exit clamp.
            batchedHaltEnd = std::max(batchedHaltEnd, end);
            return end;
        }
        end = std::max(end, chainEnd);
    }
    chainMode = false;

    if (batchedHaltEnd > end)
        end = batchedHaltEnd;
    if (end > cfg.maxCycles) {
        triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                      " cycles — deadlock or runaway program");
    }
    // Settle the books exactly like runEvent's epilogue: every tile
    // sleeps from its own chain's end to the machine-wide end.
    for (unsigned t = 0; t < cfg.tiles(); ++t)
        creditSleep(t, end);
    return end;
}

void
RawMachine::checkChainHazard(unsigned t, Addr addr) const
{
    const Addr off = addr - globalBase;
    for (const ChainBox &box : hazardBoxes) {
        if (t != box.owner && off + 4 > box.lo && off < box.hi) {
            triarch_fatal(
                "Raw tile ", t, " global access @", addr,
                " lands in the DMA footprint of chain ", box.owner,
                ", which a fused co-batch run already completed "
                "ahead of global time; this access cannot be "
                "ordered correctly (DESIGN D13) — run with the "
                "reference stepper");
        }
    }
}

Cycles
RawMachine::runReference()
{
    Cycles now = 0;
    while (!allDone()) {
        stepPorts(now);
        for (unsigned t = 0; t < cfg.tiles(); ++t)
            stepTile(t, now);
        ++now;
        if (now > cfg.maxCycles) {
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
    }
    return now;
}

Cycles
RawMachine::runEvent()
{
    // Re-arm the scheduler state (a machine can run more than once):
    // tallies restart at cycle 0, and a tile left with a pending
    // stall window re-enters through stepTile's stallUntil branch
    // exactly like the reference loop re-polling it from cycle 0.
    for (unsigned t = 0; t < cfg.tiles(); ++t) {
        hot[t].talliedThrough = 0;
        hot[t].waitPops = 0;
        hot[t].waitDyn = false;
        wake[t] = hot[t].halted ? kNever : 0;
    }
    batchedHaltEnd = 0;

    // Grid-wide fast path (D13): when the machine decomposes into
    // independent (tile t, port t) chains, run each chain to
    // completion in a fused two-actor loop instead of interleaving
    // all 32 actors cycle by cycle. Bit-identical by construction;
    // a dynamic global lw/sw parks its tile and falls back to the
    // general loop below, which resumes every tile from its exact
    // per-tile progress (talliedThrough / wake are already correct)
    // while checkChainHazard() traps accesses into footprints that
    // completed chains already touched ahead of global time.
    if (batching && portWork != 0 && coBatchEligible()) {
        bool poisoned = false;
        const Cycles end = runCoBatch(poisoned);
        if (!poisoned)
            return end;
    }

    Cycles now = 0;
    while (liveTiles != 0 || portWork != 0) {
        if (portWork != 0)
            stepPorts(now);
        for (unsigned t = 0; t < cfg.tiles(); ++t) {
            if (wake[t] <= now) {
                if (now > hot[t].talliedThrough)
                    creditSleep(t, now);
                stepTile(t, now);
                if (hot[t].talliedThrough < now + 1)
                    hot[t].talliedThrough = now + 1;
            }
        }
        ++now;
        if (now > cfg.maxCycles) {
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
        if (liveTiles == 0 && portWork == 0)
            break;
        const Cycles next = nextEventCycle(now);
        if (next > cfg.maxCycles) {
            // Nothing can happen before the cap: the reference loop
            // would spin there tallying sleep, then die the same way.
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
        now = next;
    }

    // The loop cursor can exit behind a halt that executed inside a
    // batch: the reference loop's allDone() only releases the run
    // once every tile's halt cycle has passed, and its maxCycles
    // check fires on the way there.
    if (batchedHaltEnd > now) {
        now = batchedHaltEnd;
        if (now > cfg.maxCycles) {
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
    }

    // Settle the books: cycles [talliedThrough, now) of every tile
    // were slept through (all remaining tiles are halted), so the
    // per-tile tally count reaches exactly `now`, the same partition
    // the reference loop accrues cycle by cycle.
    for (unsigned t = 0; t < cfg.tiles(); ++t)
        creditSleep(t, now);
    return now;
}

Cycles
RawMachine::run()
{
    debugTrace = logLevel() >= LogLevel::Debug;
    hazardBoxes.clear();
    const RawStepper mode = cfg.stepper == RawStepper::Default
                                ? defaultRawStepper()
                                : cfg.stepper;
    // Batched execution changes the order debug-trace lines
    // interleave across tiles (never their content), so tracing runs
    // stay cycle-at-a-time.
    batching = mode == RawStepper::Event && !debugTrace;
    const Cycles now = mode == RawStepper::Reference ? runReference()
                                                     : runEvent();
    _cycles.set(now);

    // Close the FIFO-residency integral: words still queued at the
    // end of the run occupied their FIFO from arrival to the final
    // wall clock. Both steppers end at the same `now` with the same
    // queue contents, so this stays stepper-identical.
    for (const TileHot &tile : hot) {
        for (std::size_t i = 0; i < tile.inFifo.size(); ++i) {
            if (tile.inFifo[i].first < now)
                fifoWordCycles += now - tile.inFifo[i].first;
        }
    }

    // The per-instruction retire bookkeeping keeps only the per-tile
    // counter; the machine-wide scalar and the busy tally are its
    // exact (cumulative) sum, settled once per run.
    std::uint64_t retired = 0;
    for (const TileHot &tile : hot)
        retired += tile.instrs;
    _instrs.set(retired);
    tcBusy = retired;

    // Load-balance fingerprint: each tile's instruction count
    // relative to the busiest tile.
    std::uint64_t busiest = 0;
    for (const TileHot &t : hot)
        busiest = std::max(busiest, t.instrs);
    if (busiest > 0) {
        for (const TileHot &t : hot) {
            _tileShare.sample(static_cast<double>(t.instrs)
                              / static_cast<double>(busiest));
        }
    }

    // The net_stalls scalar counts per stalled cycle, so it must
    // track the network tile-cycle tallies exactly.
    triarch_assert(_netStalls.value() == tcNet + tcDma,
                   "net_stalls (", _netStalls.value(),
                   ") out of sync with network tile-cycle tallies (",
                   tcNet + tcDma, ")");
    return now;
}

stats::CycleBreakdown
RawMachine::cycleBreakdown(Cycles total)
{
    stats::CycleAccount account;
    // Average the per-tile-cycle tallies over the mesh: tiles() of
    // them accrue per wall cycle, so dividing by tiles() partitions
    // the wall clock. tiles() is a power of two, so the divisions
    // are exact in binary floating point and the exact finalize()
    // path holds when total is the measured wall clock.
    const double tiles = static_cast<double>(cfg.tiles());
    account.charge(stats::CycleCategory::Compute,
                   static_cast<double>(tcBusy + tcDep) / tiles);
    account.charge(stats::CycleCategory::CacheStall,
                   static_cast<double>(tcCache) / tiles);
    account.charge(stats::CycleCategory::DramDma,
                   static_cast<double>(tcDma) / tiles);
    account.charge(stats::CycleCategory::NetworkSync,
                   static_cast<double>(tcNet + tcIdle) / tiles);
    const stats::CycleBreakdown b =
        total == _cycles.value()
            ? account.finalize(total, stats::CycleCategory::NetworkSync)
            : account.finalizeScaled(total);
    accountStats.record(b);
    return b;
}

std::vector<std::pair<std::string, stats::StatGroup *>>
RawMachine::componentGroups()
{
    std::vector<std::pair<std::string, stats::StatGroup *>> out;
    for (unsigned t = 0; t < cfg.tiles(); ++t)
        out.emplace_back("dcache" + std::to_string(t),
                         &cold[t].cache->statGroup());
    return out;
}

hw::HwCell
RawMachine::hwCell(Cycles total, const stats::CycleBreakdown &breakdown)
{
    const Cycles measured = _cycles.value();
    const double tileCycles =
        static_cast<double>(cfg.tiles())
        * static_cast<double>(measured ? measured : 1);
    auto frac = [&](std::uint64_t part) {
        return measured
                   ? std::min(1.0, static_cast<double>(part)
                                       / tileCycles)
                   : 0.0;
    };

    std::uint64_t dHits = 0, dMisses = 0;
    for (const TileCold &c : cold) {
        dHits += c.cache->hits();
        dMisses += c.cache->misses();
    }
    const std::uint64_t dTotal = dHits + dMisses;
    const double dcacheHit =
        dTotal ? static_cast<double>(dHits) / dTotal : 0.0;
    const double fifoOcc =
        measured
            ? std::min(1.0, static_cast<double>(fifoWordCycles)
                                / (tileCycles * cfg.fifoCapacity))
            : 0.0;
    const double busyFrac = frac(tcBusy);
    const double idleFrac = frac(tcIdle);

    hw::HwCell cell;
    cell.cycles = total;
    cell.breakdown = breakdown;
    cell.metrics = {
        {"dcache_hit_rate", dcacheHit, true},
        {"mesh_fifo_occupancy", fifoOcc, true},
        {"tile_busy_fraction", busyFrac, true},
        {"idle_fraction", idleFrac, true},
        {"net_stall_fraction", frac(tcNet), true},
        {"dma_words_per_cycle",
         measured ? static_cast<double>(_wordsDmaIn.value()
                                        + _wordsDmaOut.value())
                        / static_cast<double>(measured)
                  : 0.0,
         false},
    };

    cell.verdict.category = hw::dominantCategory(breakdown);
    switch (cell.verdict.category) {
      case stats::CycleCategory::Compute:
        cell.verdict.component = "tiles";
        cell.verdict.detail = "issue-limited across the mesh, "
                              "busy frac "
                              + hw::fmt2(busyFrac) + ", dcache hit "
                              + hw::fmt2(dcacheHit);
        break;
      case stats::CycleCategory::CacheStall:
        cell.verdict.component = "dcache";
        cell.verdict.detail = "bound by tile cache misses, "
                              "dcache hit "
                              + hw::fmt2(dcacheHit);
        break;
      case stats::CycleCategory::DramDma:
        cell.verdict.component = "dma";
        cell.verdict.detail = "bound by DMA-fed FIFO waits, "
                              "fifo occ "
                              + hw::fmt2(fifoOcc) + ", busy frac "
                              + hw::fmt2(busyFrac);
        break;
      case stats::CycleCategory::NetworkSync:
        cell.verdict.component = "mesh";
        cell.verdict.detail = "bound by network waits and imbalance "
                              "idle, idle frac "
                              + hw::fmt2(idleFrac) + ", fifo occ "
                              + hw::fmt2(fifoOcc);
        break;
      case stats::CycleCategory::SetupReadback:
        cell.verdict.component = "host";
        cell.verdict.detail = "host setup dominates";
        break;
    }

    // The timeline closes over the measured wall clock — for the
    // CSLC extrapolated cell, events happened on the unbalanced run.
    cell.timeline = hwSamp.finalize(measured);

    // Derive the busy channel: every tile-cycle not tallied to a
    // stall or idle channel was a retire, so per epoch it is the
    // residual against tiles() x epoch span (exact; clamped only to
    // keep unsigned arithmetic safe against modelling drift).
    const std::size_t epochs = cell.timeline.epochs();
    hw::EpochChannel busy;
    busy.name = "busy";
    busy.counts.resize(epochs, 0);
    for (std::size_t e = 0; e < epochs; ++e) {
        const Cycles start =
            static_cast<Cycles>(e) * cell.timeline.epochCycles;
        const Cycles span =
            e + 1 == epochs ? measured - start
                            : cell.timeline.epochCycles;
        const std::uint64_t capacity =
            static_cast<std::uint64_t>(cfg.tiles()) * span;
        std::uint64_t others = 0;
        for (const hw::EpochChannel &ch : cell.timeline.channels)
            others += ch.counts[e];
        busy.counts[e] = capacity > others ? capacity - others : 0;
    }
    cell.timeline.channels.insert(cell.timeline.channels.begin(),
                                  std::move(busy));
    return cell;
}

std::uint64_t
RawMachine::tileInstructions(unsigned tile) const
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    return hot[tile].instrs;
}

std::uint64_t
RawMachine::tileIdleAfterHalt(unsigned tile) const
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    // A tile that never got a (non-empty) program never ran, so it
    // never *halted* — the constructor only parks it. Reporting the
    // whole run as idle-after-halt would poison imbalance metrics.
    if (hot[tile].progLen == 0)
        return 0;
    if (!hot[tile].halted || _cycles.value() == 0)
        return 0;
    return _cycles.value() - cold[tile].haltCycle;
}

std::string
RawMachine::describe() const
{
    std::ostringstream os;
    os << "Raw (tiled processor, MIT)\n"
       << "  " << cfg.meshWidth << "x" << cfg.meshHeight
       << " tiles, each a single-issue MIPS-like core with FPU and "
       << cfg.sramBytes / 1024 << " KB SRAM\n"
       << "  static mesh network: "
       << (cfg.netBaseLatency + 1)
       << "-cycle nearest-neighbour latency, 1 word/cycle/link, "
       << "+1 cycle per hop\n"
       << "  $csti/$csto network registers usable as instruction "
       << "operands\n"
       << "  " << cfg.tiles()
       << " peripheral DRAM ports, 1 word/cycle each\n"
       << "  clock " << cfg.clockMhz << " MHz, peak "
       << (cfg.clockMhz / 1000.0 * cfg.tiles()) << " GOPS\n";
    return os.str();
}

} // namespace triarch::raw
