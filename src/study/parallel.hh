/**
 * @file
 * The parallel experiment engine: a work-queue scheduler that runs
 * any set of (machine, kernel) cells concurrently on freshly
 * constructed per-task machine models against one immutable shared
 * Workloads, producing results bit-identical to the serial Runner.
 *
 * Determinism: every KernelMapping is a pure function of the
 * (config, workloads) pair — machines are constructed per task, the
 * workloads are synthesized once from the config seed before any
 * worker starts, and no mapping touches global mutable state (the
 * FFT twiddle caches are thread_local; see the re-entrancy notes in
 * kernels/fft.cc). Results land in slots indexed by cell, not by
 * completion order, so the output vector is independent of thread
 * count and scheduling. Workers claim cells longest-first by a
 * deterministic host-cost estimate (claimOrder), which changes only
 * when each result is computed, never what it is.
 */

#ifndef TRIARCH_STUDY_PARALLEL_HH
#define TRIARCH_STUDY_PARALLEL_HH

#include <memory>
#include <vector>

#include "sim/stats.hh"
#include "study/experiment.hh"
#include "study/result_cache.hh"

namespace triarch::study
{

/** One schedulable task: a (machine, kernel) pair. */
struct Cell
{
    MachineId machine{};
    KernelId kernel{};

    friend bool operator==(const Cell &, const Cell &) = default;
};

/** All 15 Table-3 cells in (machine-major, kernel-minor) order. */
std::vector<Cell> allCells();

/**
 * Estimated host cost of running @p cell under @p cfg, in host
 * nanoseconds at the speed the weights were measured at: the
 * kernel's work size (corner turn: n^2 words; CSLC: channels x
 * sub-bands x sub-band length transform points; beam steering:
 * elements x directions x dwells outputs) times a per-cell weight.
 * The weights are the paper config's traced run_ms medians divided
 * by its work sizes (DESIGN.md D6). A pure function of its
 * arguments: no wall clock, no measured state.
 */
double cellCostEstimate(const Cell &cell, const StudyConfig &cfg);

/**
 * The order ParallelRunner's workers claim @p cells in: indices into
 * @p cells by descending cellCostEstimate(), equal estimates in
 * request order. Longest-first keeps the last worker from starting
 * the grid's heaviest cell while the others go idle.
 */
std::vector<std::size_t> claimOrder(const std::vector<Cell> &cells,
                                    const StudyConfig &cfg);

class ParallelRunner
{
  public:
    /**
     * @param run_config workload parameters (the paper's by default)
     * @param num_threads worker count; 0 picks the hardware
     *        concurrency, capped at the number of scheduled cells
     * @param mappings dispatch table; defaults to
     *        MappingRegistry::builtin()
     * @param cache cell cache; defaults to ResultCache::global().
     *        Pass noCache() to force every cell to recompute.
     */
    explicit ParallelRunner(StudyConfig run_config = {},
                            unsigned num_threads = 0,
                            const MappingRegistry *mappings = nullptr,
                            ResultCache *cache = defaultCache());
    ~ParallelRunner();

    const StudyConfig &config() const { return cfg; }

    /** The hash the cache keys this runner's cells under. */
    std::uint64_t configHash() const { return cfgHash; }

    /** Configured worker count (0 = hardware concurrency). */
    unsigned threads() const { return nthreads; }

    /** The shared immutable workloads (never null). */
    const std::shared_ptr<const Workloads> &workloads() const
    {
        return work;
    }

    /** Run one cell, through the cache (fatal if unmapped). */
    RunResult run(MachineId machine, KernelId kernel);

    /** Run one cell, or report the missing mapping as a value. */
    RunOutcome tryRun(MachineId machine, KernelId kernel);

    /** Run all 15 cells concurrently; same order as Runner::runAll(). */
    std::vector<RunResult> runAll();

    /** Run an arbitrary cell set concurrently (fatal if any pair is
     *  unmapped); results are returned in @p cells order. */
    std::vector<RunResult> runCells(const std::vector<Cell> &cells);

    /** Like runCells(), but unmapped pairs come back as typed
     *  MappingError values in their slots instead of aborting. */
    std::vector<RunOutcome> tryRunCells(const std::vector<Cell> &cells);

    /** Sentinel distinguishing "default cache" from "no cache". */
    static ResultCache *defaultCache();

    /** Pass as @p cache to disable caching entirely. */
    static ResultCache *noCache() { return nullptr; }

    /**
     * Scheduler progress counters ("scheduler" group, live-registered
     * in the global MetricsRegistry for this runner's lifetime):
     * batches submitted, cells executed / served from cache / found
     * unmapped. Counts only — no wall clock — so the values are
     * identical at any worker-thread count. When host profiling is
     * enabled (host::setProfiling) the group additionally carries
     * cell_host_ns / queue_wait_ns histograms; those record wall
     * clock and are empty (hence invisible) otherwise.
     */
    const stats::StatGroup &statGroup() const { return schedGroup; }

  private:
    StudyConfig cfg;
    std::uint64_t cfgHash;
    unsigned nthreads;
    const MappingRegistry *mappings;
    ResultCache *cache;
    std::shared_ptr<const Workloads> work;

    stats::StatGroup schedGroup{"scheduler"};
    stats::AtomicScalar nBatches;
    stats::AtomicScalar nCellsRun;
    stats::AtomicScalar nCellsCached;
    stats::AtomicScalar nCellsMissing;
    stats::Histogram cellHostNs;
    stats::Histogram queueWaitNs;
};

} // namespace triarch::study

#endif // TRIARCH_STUDY_PARALLEL_HH
