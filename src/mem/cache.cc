#include "cache.hh"

#include <algorithm>

#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::mem
{

SetAssocCache::SetAssocCache(const CacheConfig &cache_config)
    : cfg(cache_config), group(cfg.name)
{
    triarch_assert(isPowerOf2(cfg.lineBytes), "line size must be 2^n");
    triarch_assert(cfg.assoc > 0, "associativity must be positive");
    triarch_assert(cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) == 0,
                   "size must divide into sets");
    numSets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    triarch_assert(isPowerOf2(numSets), "set count must be 2^n");
    lineShift = floorLog2(cfg.lineBytes);
    slots.assign(numSets * cfg.assoc, kInvalid);

    group.addScalar("hits", &_hits, "cache hits");
    group.addScalar("misses", &_misses, "cache misses");
    group.addScalar("writebacks", &_writebacks, "dirty evictions");
}

CacheResult
SetAssocCache::access(Addr addr, bool write)
{
    ++_scans;
    const Addr line = addr >> lineShift;
    Addr *set = &slots[(line & (numSets - 1)) * cfg.assoc];

    unsigned w = 0;
    while (w < cfg.assoc && (set[w] | 1) != (line << 1 | 1))
        ++w;

    CacheResult result{w < cfg.assoc, std::nullopt};
    Addr front = line << 1 | (write ? 1 : 0);
    if (result.hit) {
        ++_hits;
        front |= set[w] & 1;
    } else {
        // True LRU with invalid slots first: the last slot holds the
        // least recently used line, or an invalid one (clean) if the
        // set is not full.
        ++_misses;
        w = cfg.assoc - 1;
        if (set[w] & 1) {
            ++_writebacks;
            result.writebackAddr = set[w] >> 1 << lineShift;
        }
    }

    // Move (or install) the line at the front; the lines that were
    // more recent than it each age by one slot.
    std::copy_backward(set, set + w, set + w + 1);
    set[0] = front;
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr line = addr >> lineShift;
    const auto set = slots.begin()
                     + static_cast<std::ptrdiff_t>(
                         (line & (numSets - 1)) * cfg.assoc);
    return std::any_of(set, set + cfg.assoc, [line](Addr slot) {
        return (slot | 1) == (line << 1 | 1);
    });
}

void
SetAssocCache::flush()
{
    std::fill(slots.begin(), slots.end(), kInvalid);
    _scans = 0;
}

Tlb::Tlb(std::string tlb_name, unsigned tlb_entries, Addr page_bytes,
         Cycles miss_penalty)
    : entries(tlb_entries), pageBytes(page_bytes),
      missPenalty(miss_penalty), table(tlb_entries),
      group(std::move(tlb_name))
{
    triarch_assert(entries > 0, "TLB needs entries");
    triarch_assert(pageBytes >= 4, "page too small");
    if (isPowerOf2(pageBytes))
        pageShift = floorLog2(pageBytes);
    group.addScalar("hits", &_hits, "TLB hits");
    group.addScalar("misses", &_misses, "TLB misses");
}

Cycles
Tlb::access(Addr addr)
{
    const Addr page = pageOf(addr);
    ++useClock;

    for (auto &e : table) {
        if (e.valid && e.page == page) {
            e.lastUse = useClock;
            ++_hits;
            return 0;
        }
    }

    ++_misses;
    Entry *victim = &table[0];
    for (auto &e : table) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = {page, useClock, true};
    return missPenalty;
}

Cycles
Tlb::accessRun(Addr addr, std::uint64_t count)
{
    if (count == 0)
        return 0;
    const Addr page = pageOf(addr);
    // After the first access resolves the page, the remaining
    // count-1 accesses hit the same entry and only advance its LRU
    // stamp, so the final stamp is the clock after all of them.
    useClock += count;

    for (auto &e : table) {
        if (e.valid && e.page == page) {
            e.lastUse = useClock;
            _hits += count;
            return 0;
        }
    }

    // The victim choice matches what the first (missing) access saw:
    // no other entry's stamp changes during the run.
    ++_misses;
    if (count > 1)
        _hits += count - 1;
    Entry *victim = &table[0];
    for (auto &e : table) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = {page, useClock, true};
    return missPenalty;
}

void
Tlb::flush()
{
    for (auto &e : table)
        e = Entry{};
}

} // namespace triarch::mem
