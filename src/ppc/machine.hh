/**
 * @file
 * The PowerPC G4 + AltiVec timing model. Unlike the research-chip
 * models, this machine holds no data: instrumented kernel loops
 * compute on host arrays and report their operations and memory
 * accesses here; the model advances a cycle counter through the
 * issue model, the L1/L2 cache simulation, and the front-side bus.
 */

#ifndef TRIARCH_PPC_MACHINE_HH
#define TRIARCH_PPC_MACHINE_HH

#include <string>

#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/port.hh"
#include "ppc/config.hh"
#include "sim/cycle_account.hh"
#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace triarch::ppc
{

/** The G4 baseline: issue model + caches + front-side bus. */
class PpcMachine
{
  public:
    explicit PpcMachine(const PpcConfig &machine_config = {});

    const PpcConfig &config() const { return cfg; }

    // ------------------------------------------------------------
    // Operation reporting (the instrumented kernels call these).
    // ------------------------------------------------------------

    /** @p n integer ops; dependent chains issue one per cycle. */
    void
    intOps(unsigned n, bool dependent = false)
    {
        _intOps += n;
        now += dependent
                   ? static_cast<double>(n) * cfg.intChainLatency
                   : n / cfg.intIssueWidth;
    }

    /** @p n scalar FP ops; dependent chains pay the FP latency. */
    void
    fpOps(unsigned n, bool dependent = false)
    {
        _fpOps += n;
        now += dependent
                   ? static_cast<double>(n) * cfg.fpChainLatency
                   : n / cfg.fpIssueWidth;
    }

    /**
     * Scalar FP ops in compiled kernel code whose operands
     * round-trip through memory (adds fpMemOverhead per op).
     */
    void
    fpOpsCompiled(unsigned n)
    {
        _fpOps += n;
        now += static_cast<double>(n)
               * (cfg.fpChainLatency + cfg.fpMemOverhead);
    }

    /** @p n AltiVec (4 x 32-bit) vector ops. */
    void
    vecOps(unsigned n, bool dependent = false)
    {
        _vecOps += n;
        now += dependent
                   ? static_cast<double>(n) * cfg.vecChainLatency
                   : n / cfg.vecIssueWidth;
    }

    // The load/store fast paths live in the header so the span-mode
    // MRU L1 hit — the per-element common case in
    // streaming kernels — is a handful of inlined instructions;
    // misses (and reference mode) fall into the out-of-line cache
    // walk.

    /** A 4-byte scalar load / store at @p addr. */
    void
    load(Addr addr)
    {
        ++_loads;
        // L1 hit on the set's most recent line: accessFast applies
        // the exact hit effects (hit counter), and the hit charge
        // matches the scan path below.
        if (spanMem && l1.accessFast(addr, false)) {
            now += static_cast<double>(cfg.l1HitCycles);
            return;
        }
        memAccess(addr, false, true);
    }

    void
    store(Addr addr)
    {
        ++_stores;
        if (spanMem && l1.accessFast(addr, true)) {
            now += 0.5;
            return;
        }
        memAccess(addr, true, false);
    }

    /** A 16-byte AltiVec load / store at @p addr. */
    void
    vecLoad(Addr addr)
    {
        ++_loads;
        if (spanMem && l1.accessFast(addr, false)) {
            now += static_cast<double>(cfg.l1HitCycles);
            return;
        }
        memAccess(addr, false, true);
    }

    void
    vecStore(Addr addr)
    {
        ++_stores;
        if (spanMem && l1.accessFast(addr, true)) {
            now += 0.5;
            return;
        }
        memAccess(addr, true, false);
    }

    // ------------------------------------------------------------
    // Timing.
    // ------------------------------------------------------------

    Cycles cycles() const;
    void resetTiming();

    /**
     * Finalize the cycle account against @p total (normally
     * cycles()): L2-hit stalls went to cache_stall, DRAM stalls to
     * dram_dma as they occurred, and everything else — the issue-
     * limited pipeline time — is the compute residual. Also records
     * the breakdown into the stat group's account_* scalars.
     */
    stats::CycleBreakdown cycleBreakdown(Cycles total);

    stats::StatGroup &statGroup() { return group; }

    /** The component StatGroups (caches, bus) behind the main group,
     *  as (label-suffix, group) pairs for per-cell capture. */
    std::vector<std::pair<std::string, stats::StatGroup *>>
    componentGroups()
    {
        return {{"l1", &l1.statGroup()},
                {"l2", &l2.statGroup()},
                {"fsb", &fsb.statGroup()}};
    }

    /**
     * Roll the component counters into the cell's hardware report:
     * cache hit rates, FSB utilization, the memAccess epoch
     * timeline, and a bottleneck verdict consistent with
     * @p breakdown (hw_report.hh, D14).
     */
    hw::HwCell hwCell(Cycles total,
                      const stats::CycleBreakdown &breakdown);

    /** Where the registry mapping samples this cell's coarse
     *  setup/run/readback host-time split (profiling-gated). */
    host::HostPhases &hostTime() { return hostPhases; }

    std::uint64_t l1Misses() const { return l1.misses(); }
    std::uint64_t l2Misses() const { return l2.misses(); }
    /** Full set scans (SetAssocCache::scans()) since resetTiming():
     *  the accesses the span-mode MRU fast path did not answer. */
    std::uint64_t l1Scans() const { return l1.scans(); }
    std::uint64_t l2Scans() const { return l2.scans(); }
    std::uint64_t fsbWords() const { return fsb.wordsMoved(); }
    std::uint64_t memStallCycles() const { return _memStall.value(); }

    /** Description of the baseline platform. */
    std::string describe() const;

  private:
    /** Cache access for one granule; advances time appropriately. */
    void memAccess(Addr addr, bool write, bool charge_hit);

    PpcConfig cfg;
    /** Resolved cfg.memModel != Reference, fixed at construction. */
    bool spanMem;
    mem::SetAssocCache l1;
    mem::SetAssocCache l2;
    mem::BandwidthPort fsb;

    double now = 0.0;

    stats::CycleAccount account;
    /** Epoch channels sampled only on the memAccess miss paths, so
     *  span-mode MRU L1 hits (which skip memAccess) cannot
     *  diverge from reference mode (D13). */
    hw::EpochSampler hwSamp{{"l1_miss", "cache_stall", "dram_stall"}};

    stats::StatGroup group;
    stats::Scalar _intOps;
    stats::Scalar _fpOps;
    stats::Scalar _vecOps;
    stats::Scalar _loads;
    stats::Scalar _stores;
    stats::Scalar _memStall;
    stats::BreakdownStats accountStats;
    host::HostPhases hostPhases;
};

} // namespace triarch::ppc

#endif // TRIARCH_PPC_MACHINE_HH
