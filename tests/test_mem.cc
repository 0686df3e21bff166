/**
 * @file
 * Unit tests for the memory substrate: DRAM timing (row hits/misses,
 * bank interleaving, bus occupancy), the set-associative cache, the
 * TLB, and bandwidth ports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/port.hh"
#include "sim/rng.hh"

namespace triarch::mem
{
namespace
{

DramConfig
smallDram()
{
    DramConfig cfg;
    cfg.name = "test_dram";
    cfg.banks = 4;
    cfg.rowBytes = 256;
    cfg.bankInterleaveBytes = 256;
    cfg.timing = {2, 3, 3, 2};  // tCas, tRcd, tRp, 2 words/cycle
    return cfg;
}

TEST(Dram, FirstAccessPaysRowOpen)
{
    DramModel dram(smallDram());
    auto w = dram.access(0, 2, 0);
    // tRp + tRcd + tCas = 8, then 1 transfer cycle for 2 words.
    EXPECT_EQ(w.start, 8u);
    EXPECT_EQ(w.finish, 9u);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 0u);
}

TEST(Dram, OpenRowHitSkipsPrecharge)
{
    DramModel dram(smallDram());
    dram.access(0, 2, 0);
    const Cycles before = dram.busFreeAt();
    auto w = dram.access(8, 2, before);
    // Same row: only CAS then transfer.
    EXPECT_EQ(w.finish, before + 2 + 1);
    EXPECT_EQ(dram.rowHits(), 1u);
}

TEST(Dram, RowConflictPaysPrechargeAgain)
{
    DramModel dram(smallDram());
    dram.access(0, 2, 0);
    // Same bank (stride = banks * interleave), different row.
    auto w = dram.access(4 * 256, 2, dram.busFreeAt());
    EXPECT_EQ(dram.rowMisses(), 2u);
    EXPECT_GT(w.start, dram.rowHits());
}

TEST(Dram, SequentialStreamApproachesBusBandwidth)
{
    DramConfig cfg = smallDram();
    cfg.timing.busWordsPerCycle = 8;
    DramModel dram(cfg);

    // Stream 64 KB sequentially in row-sized bursts. All requests
    // are known up front (DMA-style), so they queue at cycle 0 and
    // the bank/bus state serializes them.
    const unsigned rows = 256;
    Cycles t = 0;
    for (unsigned r = 0; r < rows; ++r) {
        auto w = dram.access(r * 256, 64, 0);
        t = w.finish;
    }
    const std::uint64_t words = rows * 64;
    const double wordsPerCycle = static_cast<double>(words) / t;
    // Row opens rotate across 4 banks and overlap the bus; we should
    // land close to the 8 words/cycle bus limit.
    EXPECT_GT(wordsPerCycle, 6.0);
    EXPECT_LE(wordsPerCycle, 8.0);
}

TEST(Dram, RandomAccessIsRowMissBound)
{
    DramModel dram(smallDram());
    Cycles t = 0;
    // Hit the same bank with alternating rows: every access misses.
    for (unsigned i = 0; i < 100; ++i) {
        auto w = dram.access((i % 2) * 4 * 256, 1, t);
        t = w.finish;
    }
    EXPECT_EQ(dram.rowMisses(), 100u);
    // Each access pays at least tRp + tRcd + tCas + transfer.
    EXPECT_GE(t, 100u * 9u);
}

TEST(Dram, StridedHelperCountsAllAccesses)
{
    DramModel dram(smallDram());
    auto w = dram.accessStrided(0, 1024, 16, 1, 0);
    EXPECT_GT(w.finish, 0u);
    EXPECT_EQ(dram.rowHits() + dram.rowMisses(), 16u);
}

TEST(Dram, ResetClearsRowState)
{
    DramModel dram(smallDram());
    dram.access(0, 1, 0);
    dram.resetState();
    EXPECT_EQ(dram.busFreeAt(), 0u);
    dram.access(0, 1, 0);
    EXPECT_EQ(dram.rowMisses(), 2u);    // stats survive, rows do not
}

TEST(Dram, MultiRowBurstSplits)
{
    DramModel dram(smallDram());
    // 256-byte rows = 64 words; a 100-word burst spans two rows.
    dram.access(0, 100, 0);
    EXPECT_EQ(dram.rowHits() + dram.rowMisses(), 2u);
}

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.name = "test_cache";
    cfg.sizeBytes = 1024;
    cfg.assoc = 2;
    cfg.lineBytes = 32;     // 16 sets
    return cfg;
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(smallCache());
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x11C, false).hit);    // same line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    SetAssocCache cache(smallCache());
    // Three lines mapping to the same set (16 sets * 32B = 512B way).
    const Addr a = 0x0, b = 0x200, c = 0x400;
    cache.access(a, false);
    cache.access(b, false);
    cache.access(a, false);     // a is now MRU
    cache.access(c, false);     // evicts b (LRU)
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    SetAssocCache cache(smallCache());
    cache.access(0x0, true);
    cache.access(0x200, false);
    auto r = cache.access(0x400, false);    // evicts dirty 0x0
    ASSERT_TRUE(r.writebackAddr.has_value());
    EXPECT_EQ(*r.writebackAddr, 0x0u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    SetAssocCache cache(smallCache());
    cache.access(0x0, false);
    cache.access(0x200, false);
    auto r = cache.access(0x400, false);
    EXPECT_FALSE(r.writebackAddr.has_value());
}

TEST(Cache, WriteHitMarksDirty)
{
    SetAssocCache cache(smallCache());
    cache.access(0x0, false);
    cache.access(0x0, true);    // hit, marks dirty
    cache.access(0x200, false);
    auto r = cache.access(0x400, false);
    ASSERT_TRUE(r.writebackAddr.has_value());
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssocCache cache(smallCache());
    cache.access(0x40, true);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x40));
}

TEST(Cache, MissRate)
{
    SetAssocCache cache(smallCache());
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.25);
}

TEST(Cache, StreamingWorkloadMissesOncePerLine)
{
    SetAssocCache cache(smallCache());
    for (Addr a = 0; a < 512; a += 4)
        cache.access(a, false);
    EXPECT_EQ(cache.misses(), 512u / 32u);
    EXPECT_EQ(cache.hits(), 512u / 4u - 512u / 32u);
}

/**
 * Independent oracle for SetAssocCache: true LRU kept the way the
 * cache used to keep it — per-way tag, use-stamp and dirty arrays,
 * the victim the earliest-minimum stamp (an invalid way has stamp 0,
 * so it is filled first). It shares no code or layout with the
 * recency-ordered sets, so a replacement mistake in the cache shows
 * up as a disagreement here.
 */
class StampLruCache
{
  public:
    explicit StampLruCache(const CacheConfig &c)
        : assoc(c.assoc), lineBytes(c.lineBytes),
          sets(c.sizeBytes / (c.lineBytes * c.assoc)),
          tags(sets * assoc), stamps(sets * assoc), dirty(sets * assoc)
    {
        flush();
    }

    CacheResult
    access(Addr addr, bool write)
    {
        const Addr line = addr / lineBytes;
        const std::size_t base = line % sets * assoc;
        ++clock;
        for (std::size_t w = base; w < base + assoc; ++w) {
            if (tags[w] == line) {
                stamps[w] = clock;
                dirty[w] = dirty[w] || write;
                ++hits;
                return {true, std::nullopt};
            }
        }
        ++misses;
        std::size_t victim = base;
        for (std::size_t w = base + 1; w < base + assoc; ++w)
            victim = stamps[w] < stamps[victim] ? w : victim;
        CacheResult r{false, std::nullopt};
        if (dirty[victim]) {
            ++writebacks;
            r.writebackAddr = tags[victim] * lineBytes;
        }
        tags[victim] = line;
        stamps[victim] = clock;
        dirty[victim] = write;
        return r;
    }

    bool
    contains(Addr addr) const
    {
        const Addr line = addr / lineBytes;
        const std::size_t base = line % sets * assoc;
        return std::find(tags.begin() + base, tags.begin() + base + assoc,
                         line) != tags.begin() + base + assoc;
    }

    void
    flush()
    {
        std::fill(tags.begin(), tags.end(), ~Addr{0});
        std::fill(stamps.begin(), stamps.end(), 0);
        std::fill(dirty.begin(), dirty.end(), false);
    }

    std::uint64_t hits = 0, misses = 0, writebacks = 0;

  private:
    unsigned assoc, lineBytes;
    std::size_t sets;
    std::vector<Addr> tags;
    std::vector<std::uint64_t> stamps;
    std::vector<bool> dirty;
    std::uint64_t clock = 0;
};

/** One step of an oracle stream; flush empties both caches first. */
struct CacheOp
{
    Addr addr;
    bool write;
    bool flush = false;
};

/**
 * Drive the cache and the oracle through @p ops and compare after
 * every step: the result, the counters, and residency of every line
 * the stream touches in the op's set plus a fixed random probe set.
 * A seeded coin flip sends about half the accesses to accessFast()
 * first (a fast hit must be an oracle hit); the cache's scans() must
 * count exactly the access() calls since the last flush.
 */
void
expectMatchesOracle(const CacheConfig &cfg, const std::vector<CacheOp> &ops,
                    std::uint64_t seed)
{
    SetAssocCache cache(cfg);
    StampLruCache oracle(cfg);
    Rng rng(seed);
    const std::size_t sets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    auto setOf = [&](Addr a) { return a / cfg.lineBytes % sets; };
    std::vector<std::vector<Addr>> touched(sets);
    for (const CacheOp &op : ops) {
        auto &lines = touched[setOf(op.addr)];
        const Addr line = op.addr / cfg.lineBytes * cfg.lineBytes;
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }
    std::vector<Addr> probes;
    for (unsigned i = 0; i < 32; ++i)
        probes.push_back(rng.nextBelow(64 * cfg.sizeBytes));
    std::uint64_t scans = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const CacheOp &op = ops[i];
        SCOPED_TRACE(testing::Message() << "assoc " << cfg.assoc
                                        << " op " << i << " addr "
                                        << op.addr);
        if (op.flush) {
            cache.flush();
            oracle.flush();
            scans = 0;
        }
        const CacheResult want = oracle.access(op.addr, op.write);
        if ((rng.next() & 1) && cache.accessFast(op.addr, op.write)) {
            ASSERT_TRUE(want.hit);
        } else {
            const CacheResult got = cache.access(op.addr, op.write);
            ++scans;
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.writebackAddr, want.writebackAddr);
        }
        ASSERT_EQ(cache.hits(), oracle.hits);
        ASSERT_EQ(cache.misses(), oracle.misses);
        ASSERT_EQ(cache.writebacks(), oracle.writebacks);
        ASSERT_EQ(cache.scans(), scans);
        for (Addr a : touched[setOf(op.addr)])
            ASSERT_EQ(cache.contains(a), oracle.contains(a)) << a;
        for (Addr a : probes)
            ASSERT_EQ(cache.contains(a), oracle.contains(a)) << a;
    }
}

TEST(Cache, MatchesStampLruOracle)
{
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
        // 16 sets of 32 B lines.
        const CacheConfig cfg{"oracle", 16 * 32 * assoc, assoc, 32};
        const Addr setStride = cfg.sizeBytes / assoc;
        Rng rng(assoc);
        std::vector<CacheOp> ops;
        // Random reads and writes, byte-granular, a quarter of them
        // in a hot region that fits so hits and dirty lines build up.
        for (unsigned i = 0; i < 1500; ++i) {
            const Addr span = i % 4 ? 8 * cfg.sizeBytes : cfg.sizeBytes;
            ops.push_back({rng.nextBelow(span), (rng.next() & 1) != 0});
        }
        // Cyclic thrash within one set over assoc+1 and 4*assoc
        // lines: true LRU misses on every access.
        for (unsigned lines : {assoc + 1, 4 * assoc}) {
            for (unsigned i = 0; i < 8 * lines; ++i)
                ops.push_back({3 * 32 + (i % lines) * setStride,
                               i % 3 == 0});
        }
        // The G4 corner turn's pattern: row-order loads from a source
        // block, stores down a 4096 B-stride destination column,
        // over a 64x64 word matrix in 32x32 blocks.
        const Addr dst = 0x40000;
        for (unsigned br = 0; br < 64; br += 32)
            for (unsigned bc = 0; bc < 64; bc += 32)
                for (unsigned r = br; r < br + 32; ++r)
                    for (unsigned c = bc; c < bc + 32; ++c) {
                        ops.push_back({(r * 64 + c) * 4, false});
                        ops.push_back({dst + c * 4096 + r * 4, true});
                    }
        // Flushes partway through every phase.
        for (std::size_t i = 700; i < ops.size(); i += 1777)
            ops[i].flush = true;
        expectMatchesOracle(cfg, ops, 100 + assoc);
    }
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb("t", 4, 4096, 25);
    EXPECT_EQ(tlb.access(0x1000), 25u);
    EXPECT_EQ(tlb.access(0x1FFC), 0u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb("t", 2, 4096, 10);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x0000);         // page 0 MRU
    tlb.access(0x2000);         // evicts page 1
    EXPECT_EQ(tlb.access(0x0000), 0u);
    EXPECT_EQ(tlb.access(0x1000), 10u);
}

TEST(Tlb, FlushForgetsAll)
{
    Tlb tlb("t", 4, 4096, 25);
    tlb.access(0x0);
    tlb.flush();
    EXPECT_EQ(tlb.access(0x0), 25u);
}

TEST(Port, TransferTimeMatchesRate)
{
    BandwidthPort port("p", 2, 1);      // 2 words/cycle
    EXPECT_EQ(port.transferTime(8), 4u);
    BandwidthPort slow("s", 1, 5);      // 0.2 words/cycle
    EXPECT_EQ(slow.transferTime(2), 10u);
}

TEST(Port, SerializesOverlappingRequests)
{
    BandwidthPort port("p", 1, 1);
    EXPECT_EQ(port.transfer(10, 0), 10u);
    EXPECT_EQ(port.transfer(10, 5), 20u);   // must wait for first
    EXPECT_EQ(port.transfer(10, 100), 110u);
    EXPECT_EQ(port.wordsMoved(), 30u);
}

TEST(Port, ResetState)
{
    BandwidthPort port("p", 1, 1);
    port.transfer(10, 0);
    port.resetState();
    EXPECT_EQ(port.freeAt(), 0u);
}

} // namespace
} // namespace triarch::mem
