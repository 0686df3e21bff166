/**
 * @file
 * A set-associative write-back, write-allocate cache model with true
 * LRU replacement. Used for the PowerPC G4 L1/L2 hierarchy and for
 * Raw tiles running in cached (MIMD) mode.
 *
 * The model is timing-free: it classifies each access as hit or miss
 * and reports the dirty victim, and the owning machine model charges
 * whatever latency its memory system implies.
 *
 * Each set keeps its resident lines in recency order, most recently
 * used first, one word per slot: the line address and its dirty bit.
 * The order is the whole replacement state: a hit moves its line to
 * slot 0, a miss evicts the last slot (invalid slots sit behind all
 * valid ones, so they are filled first) and installs the new line at
 * slot 0. No way index or use stamp exists, so the span fast path
 * (D13) is just "slot 0 holds this line" — see accessFast().
 */

#ifndef TRIARCH_MEM_CACHE_HH
#define TRIARCH_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace triarch::mem
{

/** Cache geometry. Sizes must be powers of two. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 32;
};

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    /** Line-aligned address of a dirty line evicted by this access. */
    std::optional<Addr> writebackAddr;
};

/** Set-associative LRU cache (tag store only). */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cache_config);

    /**
     * Access one address. On a miss the line is allocated (evicting
     * the LRU way, reporting it if dirty). @p write marks the line
     * dirty on both hits and misses (write-allocate).
     */
    CacheResult access(Addr addr, bool write);

    /**
     * MRU hit fast path (D13): if @p addr falls on the line in slot 0
     * of its set, apply the exact hit effects of access() — dirty
     * flag and hit counter; the line is already most recent, so the
     * order does not change — and return true. Otherwise leave all
     * state unchanged and return false so the caller falls back to
     * access().
     */
    bool
    accessFast(Addr addr, bool write)
    {
        const Addr line = addr >> lineShift;
        Addr &front = slots[(line & (numSets - 1)) * cfg.assoc];
        if ((front | 1) != (line << 1 | 1))
            return false;
        front |= write ? 1 : 0;
        ++_hits;
        return true;
    }

    /** Probe without changing any state. */
    bool contains(Addr addr) const;

    /** Invalidate everything and restart scans(); dirty lines are
     *  dropped silently. */
    void flush();

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t writebacks() const { return _writebacks.value(); }
    /** access() calls since construction or the last flush(): the
     *  accesses accessFast() did not answer. Deterministic, but not a
     *  stats.v1 counter, because the two memory models (D13) reach
     *  access() for different accesses. */
    std::uint64_t scans() const { return _scans; }
    double
    missRate() const
    {
        const auto total = hits() + misses();
        return total ? static_cast<double>(misses()) / total : 0.0;
    }

    stats::StatGroup &statGroup() { return group; }
    const CacheConfig &config() const { return cfg; }

  private:
    CacheConfig cfg;
    std::uint64_t numSets;
    /** log2(lineBytes): the line address is a shift, and the set is
     *  its low bits — this sits on every simulated load/store. */
    unsigned lineShift = 0;
    /** An invalid slot: clean, and its line is out of reach of any
     *  simulated address. */
    static constexpr Addr kInvalid = ~Addr{1};
    /** numSets x assoc slots, each set most recently used first; a
     *  slot is (addr >> lineShift) << 1 | dirty. One word per slot
     *  makes the shift on a miss a single move (a parallel dirty
     *  array needs two). */
    std::vector<Addr> slots;
    std::uint64_t _scans = 0;

    stats::StatGroup group;
    stats::Scalar _hits;
    stats::Scalar _misses;
    stats::Scalar _writebacks;
};

/**
 * A fully associative TLB with LRU replacement and a fixed refill
 * penalty, matching the role TLB misses play in the VIRAM corner-turn
 * overhead breakdown.
 */
class Tlb
{
  public:
    Tlb(std::string tlb_name, unsigned tlb_entries, Addr page_bytes,
        Cycles miss_penalty);

    /** Translate; returns the refill penalty (0 on a hit). */
    Cycles access(Addr addr);

    /**
     * Translate @p count back-to-back accesses that all fall on the
     * page of @p addr. State and statistics end exactly as @p count
     * calls to access(addr) would leave them (the intermediate
     * accesses of a run can only hit the entry the first one
     * resolved, so one scan suffices); returns the refill penalty of
     * the first access (0 on a hit — the rest always hit).
     */
    Cycles accessRun(Addr addr, std::uint64_t count);

    void flush();

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    stats::StatGroup &statGroup() { return group; }

  private:
    struct Entry
    {
        Addr page = ~Addr{0};
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    /** addr-to-page in shift form when the page size is a power of
     *  two (the common geometry); division otherwise. The page walk
     *  sits on every element of a strided access. */
    Addr
    pageOf(Addr addr) const
    {
        return pageShift ? addr >> pageShift : addr / pageBytes;
    }

    unsigned entries;
    Addr pageBytes;
    unsigned pageShift = 0;     //!< log2(pageBytes), 0 = not pow2
    Cycles missPenalty;
    std::vector<Entry> table;
    std::uint64_t useClock = 0;

    stats::StatGroup group;
    stats::Scalar _hits;
    stats::Scalar _misses;
};

} // namespace triarch::mem

#endif // TRIARCH_MEM_CACHE_HH
