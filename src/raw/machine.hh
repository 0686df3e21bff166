/**
 * @file
 * The Raw machine model: a cycle-stepped interpreter over 16 tile
 * cores, the static mesh network, peripheral DRAM ports with DMA
 * stream sessions, and per-tile data caches for the MIMD mode.
 *
 * Execution model per cycle: every tile retires at most one
 * instruction; a tile stalls when a source register is not ready
 * (scoreboarded latencies), when it reads $csti and the input FIFO
 * is empty, or while a cache miss is serviced. DMA-in ports stream
 * global memory into tile FIFOs at one word per cycle (plus row-miss
 * penalties); DMA-out ports drain words the tiles route to them and
 * write global memory sequentially.
 *
 * Two interchangeable run loops execute that model (DESIGN D12): the
 * reference stepper spins one cycle at a time calling every tile,
 * while the event-driven stepper keeps a next-wake cycle per tile,
 * jumps `now` to the minimum pending wake, and credits the skipped
 * cycles to the sleeping tiles' stall tallies in bulk. Both produce
 * bit-identical cycle counts and statistics.
 *
 * On top of the event stepper sits the fused DMA co-batch (DESIGN
 * D13): when the machine decomposes into independent (tile t, port t)
 * chains — every live tile routes $csto to its own port, every DMA
 * segment on port t targets tile t, no dynamic-network traffic, and
 * no cross-chain DMA footprint overlap — each chain runs to
 * completion in a private two-actor loop before the next one starts.
 * Chains share no observable state, so the per-chain runs commute
 * with the global cycle interleaving and every counter, tally, and
 * memory byte lands exactly where the plain event loop puts it.
 * Inside a chain run, stream instructions ($csti stores and $csto
 * loads against tile SRAM) retire in a fused loop that steps the
 * port inline each cycle.
 */

#ifndef TRIARCH_RAW_MACHINE_HH
#define TRIARCH_RAW_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "raw/config.hh"
#include "raw/decode.hh"
#include "raw/isa.hh"
#include "sim/cycle_account.hh"
#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "sim/ring_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/zero_buffer.hh"

namespace triarch::raw
{

/** Route endpoint: tiles are 0..15, port p is portEndpoint(p). */
constexpr unsigned
portEndpoint(unsigned port)
{
    return 1000 + port;
}

/** The 16-tile Raw chip plus its memory ports. */
class RawMachine
{
  public:
    explicit RawMachine(const RawConfig &machine_config = {});

    const RawConfig &config() const { return cfg; }

    // ------------------------------------------------------------
    // Host-side setup (not timed).
    // ------------------------------------------------------------

    /** Bump-allocate global DRAM; returns a globalBase-relative
     *  absolute address usable in tile programs. */
    Addr allocGlobal(std::uint64_t bytes, const std::string &what);

    void pokeGlobal(Addr addr, std::span<const Word> words);
    std::vector<Word> peekGlobal(Addr addr, std::size_t count) const;
    /** Copy-free variant: read global DRAM straight into @p out. */
    void peekGlobalInto(Addr addr, std::span<Word> out) const;

    /** Load a program into a tile (pc resets to 0). The program is
     *  decoded once here; tiles loading an identical program share
     *  one decoded copy. */
    void setProgram(unsigned tile, std::span<const Instr> program);

    /** Load an already decoded program into a tile (pc resets to 0),
     *  sharing it as is: no copy and no comparison against the other
     *  tiles' programs. */
    void setProgram(unsigned tile,
                    std::shared_ptr<const DecodedProgram> program);

    /** The decoded program loaded into @p tile (nullptr before the
     *  first setProgram()). */
    const DecodedProgram *decodedProgram(unsigned tile) const;

    /** Host write into a tile's local SRAM. */
    void pokeLocal(unsigned tile, Addr byte_offset,
                   std::span<const Word> words);
    std::vector<Word> peekLocal(unsigned tile, Addr byte_offset,
                                std::size_t count) const;

    /** Configure a tile's static route for $csto writes. */
    void setRoute(unsigned tile, unsigned endpoint);

    /**
     * Queue a DMA-in segment: port @p port streams @p words global
     * words from @p base into tile @p dstTile's input FIFO.
     */
    void dmaIn(unsigned port, unsigned dstTile, Addr base,
               unsigned words);

    /**
     * Queue a DMA-out segment: the next @p words words arriving at
     * port @p port are written sequentially to global @p base.
     */
    void dmaOut(unsigned port, Addr base, unsigned words);

    // ------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------

    /**
     * Run until every tile halts and all DMA queues drain; returns
     * the cycle count. Fatal if cfg.maxCycles is exceeded (deadlock
     * or runaway program).
     */
    Cycles run();

    // ------------------------------------------------------------
    // Statistics.
    // ------------------------------------------------------------

    stats::StatGroup &statGroup() { return group; }

    /** Where the registry mapping samples this cell's coarse
     *  setup/run/readback host-time split (profiling-gated). */
    host::HostPhases &hostTime() { return hostPhases; }

    std::uint64_t instructions() const { return _instrs.value(); }
    std::uint64_t netStalls() const { return _netStalls.value(); }
    std::uint64_t depStalls() const { return _depStalls.value(); }
    std::uint64_t cacheStallCycles() const
    {
        return _cacheStalls.value();
    }
    std::uint64_t loadStores() const { return _ldst.value(); }
    std::uint64_t fpOps() const { return _fpops.value(); }

    /**
     * Instructions retired inside tile-local batches (D12), summed
     * over every run() of this machine: a deterministic measure of
     * how much of the run the batch executor covered. Always 0 under
     * the reference stepper, so it stays out of the stats group,
     * whose documents are stepper-identical.
     */
    std::uint64_t batchedInstructions() const { return batchedInstrs; }

    /**
     * Instructions retired inside the fused stream loop of a co-batch
     * chain run (D13), summed over every run() of this machine. Like
     * batchedInstructions(), deterministic, always 0 under the
     * reference stepper, and kept out of the stats group.
     */
    std::uint64_t streamedInstructions() const { return streamedInstrs; }

    /** Instructions retired by one tile (load-balance studies). */
    std::uint64_t tileInstructions(unsigned tile) const;

    /** Cycles tile spent fully idle after halting. A tile that was
     *  never given a (non-empty) program never ran and never halted,
     *  so it reports 0 rather than the whole run. */
    std::uint64_t tileIdleAfterHalt(unsigned tile) const;

    /**
     * The raw per-tile-cycle tallies behind cycleBreakdown(): each
     * tile accrues exactly one tally per run() cycle, so the fields
     * sum to tiles() x cycles. Exposed so tests can pin accounting
     * invariants (net == net_stalls - dma, partition sum, ...).
     */
    struct StallTallies
    {
        std::uint64_t busy;     //!< retired an instruction
        std::uint64_t dep;      //!< operand-latency stall
        std::uint64_t cache;    //!< cache-miss stall
        std::uint64_t net;      //!< network wait / send occupancy
        std::uint64_t dma;      //!< DMA-fed FIFO wait
        std::uint64_t idle;     //!< halted (imbalance idle)
    };
    StallTallies stallTallies() const
    {
        return {tcBusy, tcDep, tcCache, tcNet, tcDma, tcIdle};
    }

    /**
     * Finalize the cycle account against @p total. Every tile is in
     * exactly one state each cycle of run() — retiring (compute),
     * stalled on an operand (compute: pipeline latency), stalled on
     * a cache miss (cache_stall), waiting on a DMA-fed FIFO
     * (dram_dma), waiting on the network or another tile
     * (network_sync), or halted (network_sync: imbalance idle) —
     * and the wall clock is attributed by averaging the tile-cycle
     * tallies over the mesh. When @p total differs from the
     * measured wall clock (the Raw CSLC perfect-load-balance
     * extrapolation of Section 4.3), the measured proportions are
     * rescaled to @p total. Also records the breakdown into the
     * stat group's account_* scalars.
     */
    stats::CycleBreakdown cycleBreakdown(Cycles total);

    /** The component StatGroups (one per tile data cache) behind the
     *  main group, as (label-suffix, group) pairs for per-cell
     *  capture. */
    std::vector<std::pair<std::string, stats::StatGroup *>>
    componentGroups();

    /**
     * Roll the mesh counters into the cell's hardware report:
     * aggregate dcache hit rate, FIFO occupancy, tile busy/idle
     * fractions, the per-stall-kind epoch timeline (with the busy
     * channel derived as the tile-cycle residual), and a bottleneck
     * verdict consistent with @p breakdown (hw_report.hh, D14).
     * @p total may be the CSLC balanced extrapolation; the timeline
     * always closes over the measured wall clock.
     */
    hw::HwCell hwCell(Cycles total,
                      const stats::CycleBreakdown &breakdown);

    /** One-paragraph block-diagram description (Figure 3). */
    std::string describe() const;

  private:
    struct DmaSegment
    {
        Addr base;
        unsigned words;
        unsigned dstTile;   //!< DMA-in only
        unsigned done = 0;
    };

    /** Why a tile is not retiring this cycle (for the account). */
    enum class TileStall : std::uint8_t { None, Dep, Cache, Net, Dma };

    /** A tile's next-wake cycle of "never" (halted / unknown). */
    static constexpr Cycles kNever = ~Cycles{0};

    /**
     * Per-tile state the interpreter touches every step, laid out
     * contiguously (one vector element per tile). Cold bulk — the
     * program and SRAM backing stores, the cache object, halt
     * bookkeeping — lives in TileCold; the hot struct carries raw
     * pointers into it.
     */
    struct TileHot
    {
        unsigned pc = 0;
        std::uint32_t progLen = 0;
        /** progLen records plus the sentinel (decode.hh). */
        const DecodedInstr *prog = nullptr;
        Cycles stallUntil = 0;
        TileStall stallKind = TileStall::None;
        bool halted = false;
        bool dmaFed = false;    //!< a DMA-in segment targets this tile
        /** Event stepper: csti words awaited while the FIFO is too
         *  short to know a wake cycle (0 = not waiting on a push). */
        std::uint8_t waitPops = 0;
        /** Event stepper: blocked on an empty dynamic-network FIFO. */
        bool waitDyn = false;
        unsigned route = ~0u;
        /** Event stepper: stall tallies cover cycles
         *  [0, talliedThrough); the gap up to `now` is credited in
         *  bulk before the tile steps again. */
        Cycles talliedThrough = 0;
        std::uint8_t *sram = nullptr;
        mem::SetAssocCache *cache = nullptr;
        std::uint64_t instrs = 0;
        /** Architectural registers plus regSink. */
        std::array<std::uint32_t, numRegs + 1> regs{};
        std::array<Cycles, numRegs + 1> ready{};
        RingQueue<std::pair<Cycles, Word>> inFifo;  //!< arrival,value
        RingQueue<std::pair<Cycles, Word>> dynFifo; //!< dynamic net
    };

    struct TileCold
    {
        /** Shared with every tile that loaded the same program. */
        std::shared_ptr<const DecodedProgram> program;
        std::vector<std::uint8_t> sram;
        std::unique_ptr<mem::SetAssocCache> cache;
        Cycles haltCycle = 0;
    };

    struct Port
    {
        RingQueue<DmaSegment> inQueue;
        RingQueue<DmaSegment> outQueue;
        RingQueue<std::pair<Cycles, Word>> arrivals; //!< from tiles
        Cycles inFree = 0;
        Cycles outFree = 0;
        Addr inLastRow = ~Addr{0};
        Addr outLastRow = ~Addr{0};
        /** This port's share of portWork (queued segments plus
         *  in-flight arrivals), so a fused chain run can test "this
         *  chain's port is drained" in O(1). */
        std::uint64_t work = 0;
    };

    /** Bounding box of one chain's DMA footprint (globalBase-
     *  relative bytes), armed as a hazard trap when a co-batch run
     *  is abandoned after some chains already ran ahead of global
     *  time (D13). */
    struct ChainBox
    {
        Addr lo = ~Addr{0};
        Addr hi = 0;
        unsigned owner = 0;     //!< chain (tile/port) index
    };

    /** Step one tile by one cycle; records one tally and refreshes
     *  the tile's next-wake cycle (ignored by the reference loop). */
    void stepTile(unsigned t, Cycles now);
    void batchTile(unsigned t, Cycles cur);

    /** Account one cycle of @p kind for a tile at cycle @p now. */
    void tallyStall(TileStall kind, Cycles now);

    /** Advance DMA engines for one cycle. */
    void stepPorts(Cycles now);

    /** Work one DMA engine cycle did, accumulated by the caller so a
     *  hot loop keeps the counts in registers and settles them once
     *  (settlePort). */
    struct PortTally
    {
        std::uint64_t wordsIn = 0;
        std::uint64_t wordsOut = 0;
        /** Finished work items: segments and drained arrivals. */
        std::uint64_t retired = 0;
    };

    /** Advance one DMA engine for one cycle. */
    void stepPort(Port &port, Cycles now);

    /** stepPort() with the counters left in @p tally. @p own is the
     *  tile every DMA-in segment of the port feeds, known to be awake
     *  (a chain run's tile), or nullptr to look the destination up
     *  per segment and wake it on a push. */
    void advancePort(Port &port, Cycles now, PortTally &tally,
                     TileHot *own);

    /** Fold @p tally into the stats and the port's work counts. */
    void settlePort(Port &port, const PortTally &tally);

    /** Port cycles to move the word at @p a: 1, plus the row-miss
     *  penalty when it opens a DRAM row other than @p lastRow. */
    Cycles rowCost(Addr a, Addr &lastRow) const;

    /** Deliver a $csto write from tile @p t. */
    void send(unsigned t, Word value, Cycles now);

    /** XY-hop count between two tiles. */
    unsigned hops(unsigned a, unsigned b) const;

    /** Event stepper: credit a sleeping tile's tallies for cycles
     *  [talliedThrough, now) in one addition. */
    void creditSleep(unsigned t, Cycles now);

    /** Event stepper: earliest cycle >= @p from where any tile wakes
     *  or any DMA port can act; kNever when nothing is pending. */
    Cycles nextEventCycle(Cycles from) const;

    /** Event stepper: a word was pushed into tile @p t's input FIFO
     *  — wake the tile if it was waiting for the push. */
    void noteFifoPush(unsigned t);

    /** The original cycle-at-a-time loop (kept as the differential
     *  reference for the event stepper). */
    Cycles runReference();

    /** The event-driven loop: jump to the minimum pending wake. */
    Cycles runEvent();

    /**
     * Fused co-batch gate (D13): true when every live tile and every
     * queued DMA segment stays inside its own (tile t, port t) chain
     * and no DMA write range can overlap another chain's DMA
     * footprint. Side effect: fills chainBoxes. Global lw/sw cannot
     * be ruled out statically (addresses are register-computed);
     * runChain() parks on one dynamically instead.
     */
    bool coBatchEligible();

    /**
     * Run every chain to completion back to back; returns the wall
     * clock (max chain end) with all tallies settled. When a tile
     * parks on a global lw/sw, sets @p poisoned, arms the hazard
     * boxes of the chains that already ran ahead, and returns with
     * per-tile progress exact so the general event loop can resume
     * from cycle 0.
     */
    Cycles runCoBatch(bool &poisoned);

    /** Run the (tile t, port t) chain until both are done; returns
     *  the first cycle with nothing left (or the park cycle). */
    Cycles runChain(unsigned t);

    /**
     * The fused stream loop of a chain run: retire tile t's stream
     * instructions (decode.hh) one per cycle, stepping port t inline
     * before each, with the tile-local runs between them batched.
     * Entered at @p now with port t already stepped and the tile
     * awake with no stall window pending; returns the last cycle the
     * port has stepped, which is the cycle of the tile's last step
     * unless a batch halted it.
     */
    Cycles runStream(unsigned t, Cycles now);

    /** Trap a post-poison global access into a completed chain's DMA
     *  footprint — the co-batch ran that chain ahead of global time,
     *  so the access cannot be ordered correctly any more. */
    void checkChainHazard(unsigned t, Addr addr) const;

    bool allDone() const;

    RawConfig cfg;
    std::vector<TileHot> hot;
    std::vector<TileCold> cold;
    /** Per-tile next-wake cycles, contiguous for the min-scan. */
    std::vector<Cycles> wake;
    std::vector<Port> ports;
    /** Global DRAM: lazily-faulted zero pages, so constructing the
     *  64 MB model costs microseconds, not a 64 MB memset. */
    ZeroBuffer global;
    Addr allocNext = 64;
    /** DRAM row of @p a (shift when portRowBytes is a power of 2;
     *  the division sits on every streamed word otherwise). */
    Addr rowOf(Addr a) const
    {
        return portRowShift >= 0 ? a >> portRowShift
                                 : a / cfg.portRowBytes;
    }
    int portRowShift = -1;
    /** logLevel() is an out-of-line call; sampled once per run() so
     *  the per-instruction debug check is a flag test. */
    bool debugTrace = false;
    /** Event-stepper runs may execute tile-local instruction runs in
     *  one stepTile call; always false for the reference stepper. */
    bool batching = false;
    /** Backs batchedInstructions(). */
    std::uint64_t batchedInstrs = 0;
    /** Backs streamedInstructions(). */
    std::uint64_t streamedInstrs = 0;
    /** Latest halt-cycle + 1 executed inside a batch (or fused chain)
     *  this run; the event loop's cursor can exit behind it. */
    Cycles batchedHaltEnd = 0;
    /** A fused chain run is active: stepTile parks the tile on a
     *  global lw/sw instead of executing it (D13). */
    bool chainMode = false;
    /** The active chain run parked its tile on a global access. */
    bool chainParked = false;
    /** Per-chain DMA footprints, filled by coBatchEligible(). */
    std::vector<ChainBox> chainBoxes;
    /** Non-empty only after a poisoned co-batch: footprints of the
     *  chains that ran ahead; stepTile checks global accesses
     *  against them (owner-tile accesses are exempt — a chain's own
     *  progress is cycle-exact relative to itself). */
    std::vector<ChainBox> hazardBoxes;
    /** O(1) allDone for the event loop: non-halted tiles ... */
    unsigned liveTiles = 0;
    /** ... plus undrained port work items (queued DMA segments and
     *  in-flight port arrivals). */
    std::uint64_t portWork = 0;

    /** Epoch channels mirroring the stall tallies (busy is derived
     *  at finalize time as the tile-cycle residual). Both steppers
     *  credit the same per-cycle tallies — the event loop in bulk
     *  ranges, the reference loop cycle by cycle — and the sampler
     *  is order-independent, so the timelines are bit-identical. */
    hw::EpochSampler hwSamp{{"dep", "cache", "net", "dma", "idle"}};
    /** Sum over popped static-network words of (pop cycle - arrival
     *  cycle): the FIFO-residency integral behind the mesh FIFO
     *  occupancy metric. run() adds the residual of unconsumed
     *  words against the final wall clock. */
    std::uint64_t fifoWordCycles = 0;

    // Tile-cycle tallies: each tile contributes exactly one tally
    // per run() cycle, so their sum is tiles() x wall cycles.
    std::uint64_t tcBusy = 0;   //!< retired an instruction
    std::uint64_t tcDep = 0;    //!< operand-latency stall
    std::uint64_t tcCache = 0;  //!< cache-miss stall
    std::uint64_t tcNet = 0;    //!< network wait / send occupancy
    std::uint64_t tcDma = 0;    //!< DMA-fed FIFO wait
    std::uint64_t tcIdle = 0;   //!< halted (imbalance idle)

    stats::StatGroup group;
    stats::Scalar _instrs;
    stats::Scalar _netStalls;
    stats::Scalar _depStalls;
    stats::Scalar _cacheStalls;
    stats::Scalar _ldst;
    stats::Scalar _fpops;
    stats::Scalar _wordsDmaIn;
    stats::Scalar _wordsDmaOut;
    stats::Scalar _cycles;
    /** Per-tile instruction share of the busiest tile, sampled once
     *  per tile per run(); hi is 1.1 so a share of exactly 1.0 lands
     *  in the top bucket instead of the overflow counter. */
    stats::Distribution _tileShare{0.0, 1.1, 11};
    stats::BreakdownStats accountStats;
    host::HostPhases hostPhases;
};

} // namespace triarch::raw

#endif // TRIARCH_RAW_MACHINE_HH
