/**
 * @file
 * Cycle accounting: a per-cell attribution of every simulated cycle
 * to one of five architectural categories, with the invariant that
 * the categories sum *exactly* to the cell's total cycles.
 *
 * The paper's whole argument (Sections 4.1-4.6) is where the cycles
 * go — compute vs cache-miss stalls vs DMA transfers vs network and
 * synchronization idle — so every machine model charges its time
 * into a CycleAccount (or records busy intervals on a CycleTimeline)
 * and finalizes it against the authoritative cycle total at run end.
 * Over-attribution is a modelling bug and panics; under-attribution
 * is credited to a machine-chosen residual category (e.g. issue-
 * limited compute on the PPC, sync idle on the interval machines).
 *
 * Two accounting styles cover the four machine models:
 *
 *  - direct charging (CycleAccount::charge) for models that advance
 *    a scalar clock through known-cost events (PPC memory stalls) or
 *    tally per-tile per-cycle states (Raw);
 *  - interval recording (CycleTimeline::add) for scoreboard models
 *    whose units overlap in time (VIRAM, Imagine): every wall cycle
 *    is resolved to the highest-priority category covering it, and
 *    uncovered cycles fall into a gap category.
 */

#ifndef TRIARCH_SIM_CYCLE_ACCOUNT_HH
#define TRIARCH_SIM_CYCLE_ACCOUNT_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace triarch::stats
{

/**
 * Where a cycle went. Declaration order is also the resolution
 * priority for overlapped timeline intervals: a cycle that is both
 * kernel-compute and memory-transfer counts as compute (the paper's
 * "overlapped" memory time, Section 4.1).
 */
enum class CycleCategory : unsigned
{
    Compute,        //!< issue/execute, incl. dependency latency
    CacheStall,     //!< cycles stalled on cache misses
    DramDma,        //!< DRAM access / DMA or stream transfer time
    NetworkSync,    //!< network waits, load-imbalance & sync idle
    SetupReadback,  //!< host issue, setup and readback overhead
};

inline constexpr unsigned kNumCycleCategories = 5;

/** All categories in declaration (= priority) order. */
const std::array<CycleCategory, kNumCycleCategories> &
allCycleCategories();

/** Short machine-readable token ("compute", "cache_stall", ...). */
const std::string &cycleCategoryToken(CycleCategory c);

/** Human description ("issue/compute", "cache-miss stall", ...). */
const std::string &cycleCategoryDesc(CycleCategory c);

/**
 * A finalized integer partition of one cell's cycles. Invariant
 * (checked at construction in CycleAccount/CycleTimeline): the five
 * categories sum exactly to total.
 */
struct CycleBreakdown
{
    std::array<std::uint64_t, kNumCycleCategories> cycles{};
    std::uint64_t total = 0;

    std::uint64_t
    operator[](CycleCategory c) const
    {
        return cycles[static_cast<unsigned>(c)];
    }

    /** Sum of the five categories (== total by construction). */
    std::uint64_t categorySum() const;

    /** category / total, 0 when total is 0. */
    double fraction(CycleCategory c) const;

    friend bool operator==(const CycleBreakdown &,
                           const CycleBreakdown &) = default;
};

/**
 * Accumulates fractional cycle charges per category and converts
 * them into an exact integer partition of the run's total.
 *
 * Charges may be fractional (Raw divides tile-cycle tallies by the
 * tile count; the PPC clock itself is fractional), so finalize()
 * integerizes by largest remainder: floor every category, then hand
 * the remaining cycles to the categories with the largest fractional
 * parts. The result always sums exactly to the requested total.
 */
class CycleAccount
{
  public:
    /** Accumulate @p cycles (>= 0, panics otherwise) into @p c. */
    void
    charge(CycleCategory c, double cycles)
    {
        if (!(cycles >= 0.0)) [[unlikely]]
            negativeCharge(c, cycles);
        acc[static_cast<unsigned>(c)] += cycles;
    }

    double charged(CycleCategory c) const;

    /** Sum of all charges so far. */
    double chargedTotal() const;

    void reset();

    /**
     * Close the account against the authoritative @p total.
     * Undercharge (total - chargedTotal()) is credited to
     * @p residual; overcharge beyond a small floating-point slack
     * panics — it means a model attributed more time than passed.
     */
    CycleBreakdown finalize(std::uint64_t total,
                            CycleCategory residual) const;

    /**
     * Close the account against a @p total the charges were *not*
     * measured at, preserving the category proportions. This is the
     * Raw CSLC path: Table 3 reports the paper's perfect-load-
     * balance extrapolation of the measured run (Section 4.3), so
     * the measured attribution is rescaled to the reported total.
     */
    CycleBreakdown finalizeScaled(std::uint64_t total) const;

  private:
    /** The panic behind charge()'s assert, kept off the hot path. */
    [[noreturn, gnu::cold]] static void negativeCharge(CycleCategory c,
                                                       double cycles);

    std::array<double, kNumCycleCategories> acc{};
};

/**
 * Records [start, end) busy intervals per category and resolves them
 * into an exact partition of [0, total): each cycle belongs to the
 * highest-priority (lowest-valued) category covering it; cycles no
 * interval covers go to the @p gap category.
 */
class CycleTimeline
{
  public:
    /** Record that @p c was active over [start, end). Empty or
     *  inverted intervals are ignored. */
    void
    add(CycleCategory c, Cycles start, Cycles end)
    {
        if (end <= start)
            return;
        ++recorded;
        // Coalesce with the category's most recent interval when the
        // two overlap or abut: the stored union covers exactly the
        // same cycles, so resolve() — which only depends on each
        // category's coverage set — is unchanged, while scoreboard
        // models that charge long runs of adjacent busy intervals
        // (VIRAM vector memory, Imagine stream bursts) collapse to a
        // handful of stored intervals.
        const auto cat = static_cast<unsigned>(c);
        const std::size_t li = lastIdx[cat];
        if (li != SIZE_MAX) {
            Interval &iv = intervals[li];
            if (start <= iv.end && end >= iv.start) {
                iv.start = std::min(iv.start, start);
                iv.end = std::max(iv.end, end);
                return;
            }
        }
        intervals.push_back({cat, start, end});
        lastIdx[cat] = intervals.size() - 1;
    }

    void clear();

    /** Number of (non-empty) recorded intervals, pre-coalescing. */
    std::size_t size() const { return recorded; }

    /** Resolve to an exact integer partition of [0, total). */
    CycleBreakdown resolve(std::uint64_t total,
                           CycleCategory gap) const;

  private:
    struct Interval
    {
        unsigned cat;
        Cycles start;
        Cycles end;
    };

    std::vector<Interval> intervals;
    std::array<std::size_t, kNumCycleCategories> lastIdx{
        SIZE_MAX, SIZE_MAX, SIZE_MAX, SIZE_MAX, SIZE_MAX};
    std::size_t recorded = 0;
};

/**
 * The account's StatGroup face: one "account_<category>" scalar per
 * category plus "account_total", registered once at machine
 * construction and filled in when the machine finalizes its
 * breakdown. This is what `stats_dump`, the `--stats` document, and
 * the captured per-cell snapshots all see.
 */
class BreakdownStats
{
  public:
    /** Register the six scalars in @p group. */
    void registerIn(StatGroup &group);

    /** Copy a finalized breakdown into the scalars. */
    void record(const CycleBreakdown &b);

  private:
    std::array<Scalar, kNumCycleCategories> cats;
    Scalar total;
};

} // namespace triarch::stats

#endif // TRIARCH_SIM_CYCLE_ACCOUNT_HH
