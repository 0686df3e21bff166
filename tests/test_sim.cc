/**
 * @file
 * Unit tests for the simulation base library: bit utilities, RNG
 * determinism, statistics, table rendering, the JSON reader's
 * nesting limit, and the mapped DRAM buffer.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "sim/bitutil.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/zero_buffer.hh"

namespace triarch
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(BitUtil, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtil, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(0, 8), 0u);
    EXPECT_EQ(ceilDiv(1, 8), 1u);
    EXPECT_EQ(ceilDiv(8, 8), 1u);
    EXPECT_EQ(ceilDiv(9, 8), 2u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
}

TEST(BitUtil, ReverseBits)
{
    EXPECT_EQ(reverseBits(0b001, 3), 0b100u);
    EXPECT_EQ(reverseBits(0b110, 3), 0b011u);
    EXPECT_EQ(reverseBits(1, 7), 64u);
    for (std::uint32_t v = 0; v < 128; ++v)
        EXPECT_EQ(reverseBits(reverseBits(v, 7), 7), v);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCu);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
}

TEST(BitUtil, FloatWordRoundTrip)
{
    for (float f : {0.0f, 1.5f, -3.25f, 1e-20f, 1e20f}) {
        EXPECT_EQ(wordToFloat(floatToWord(f)), f);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, FloatRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
        const float s = rng.nextSignedFloat();
        EXPECT_GE(s, -1.0f);
        EXPECT_LT(s, 1.0f);
    }
}

TEST(Rng, BelowBound)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Stats, ScalarBasics)
{
    stats::Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 5;
    EXPECT_EQ(s.value(), 6u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d(0.0, 10.0, 10);
    d.sample(-1.0);
    d.sample(0.5);
    d.sample(9.5);
    d.sample(10.0);
    EXPECT_EQ(d.under(), 1u);
    EXPECT_EQ(d.over(), 1u);
    EXPECT_EQ(d.bucket(0), 1u);
    EXPECT_EQ(d.bucket(9), 1u);
    EXPECT_EQ(d.samples(), 4u);
}

TEST(Stats, GroupLookupAndDump)
{
    stats::Scalar hits, misses;
    stats::StatGroup g("cache");
    g.addScalar("hits", &hits, "cache hits");
    g.addScalar("misses", &misses);
    hits += 3;
    EXPECT_EQ(g.scalar("hits"), 3u);
    EXPECT_TRUE(g.hasScalar("misses"));
    EXPECT_FALSE(g.hasScalar("bogus"));

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("cache.hits 3"), std::string::npos);

    g.resetAll();
    EXPECT_EQ(g.scalar("hits"), 0u);
}

TEST(Stats, GroupUnknownStatDies)
{
    stats::Scalar s;
    stats::StatGroup g("g");
    g.addScalar("a", &s);
    EXPECT_DEATH(g.scalar("b"), "unknown scalar");
}

TEST(Stats, AtomicScalarRegistersLikeAScalar)
{
    stats::AtomicScalar hits;
    stats::StatGroup g("cache");
    g.addAtomicScalar("hits", &hits, "served lookups");
    ++hits;
    hits += 2;
    EXPECT_TRUE(g.hasScalar("hits"));
    EXPECT_EQ(g.scalar("hits"), 3u);

    const auto names = g.scalarNames();
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "hits");

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("cache.hits 3"), std::string::npos);

    g.resetAll();
    EXPECT_EQ(g.scalar("hits"), 0u);
}

TEST(Stats, GroupRendersAveragesAndDistributions)
{
    stats::Average vl;
    stats::Distribution share(0.0, 1.0, 4);
    stats::StatGroup g("m");
    g.addAverage("avg_vl", &vl, "mean vector length");
    g.addDistribution("share", &share, "per-tile share");

    vl.sample(32.0);
    vl.sample(64.0);
    share.sample(0.1);
    share.sample(0.9);
    share.sample(2.0);      // overflow

    EXPECT_DOUBLE_EQ(g.average("avg_vl"), 48.0);
    EXPECT_EQ(&g.distribution("share"), &share);

    std::ostringstream os;
    g.dump(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("m.avg_vl"), std::string::npos);
    EXPECT_NE(s.find("mean vector length"), std::string::npos);
    EXPECT_NE(s.find("m.share mean"), std::string::npos);
    EXPECT_NE(s.find("m.share[0,0.25) 1"), std::string::npos);
    EXPECT_NE(s.find("m.share[>=1] 1"), std::string::npos);

    g.resetAll();
    EXPECT_DOUBLE_EQ(g.average("avg_vl"), 0.0);
    EXPECT_EQ(share.samples(), 0u);
    EXPECT_EQ(share.numBuckets(), 4u) << "reset keeps the layout";
}

TEST(Stats, ReadingsSnapshotEveryKind)
{
    stats::Scalar a;
    stats::AtomicScalar b;
    stats::Average avg;
    stats::Distribution dist(0.0, 2.0, 2);
    stats::StatGroup g("g");
    g.addScalar("a", &a, "plain");
    g.addAtomicScalar("b", &b, "atomic");
    g.addAverage("avg", &avg);
    g.addDistribution("dist", &dist);

    a += 7;
    b += 9;
    avg.sample(1.5);
    dist.sample(0.5);
    dist.sample(1.5);

    const auto scalars = g.scalarReadings();
    ASSERT_EQ(scalars.size(), 2u);
    EXPECT_EQ(scalars[0].name, "a");
    EXPECT_EQ(scalars[0].value, 7u);
    EXPECT_EQ(scalars[0].desc, "plain");
    EXPECT_EQ(scalars[1].name, "b");
    EXPECT_EQ(scalars[1].value, 9u);

    const auto averages = g.averageReadings();
    ASSERT_EQ(averages.size(), 1u);
    EXPECT_DOUBLE_EQ(averages[0].mean, 1.5);
    EXPECT_EQ(averages[0].samples, 1u);

    const auto dists = g.distributionReadings();
    ASSERT_EQ(dists.size(), 1u);
    EXPECT_DOUBLE_EQ(dists[0].low, 0.0);
    EXPECT_DOUBLE_EQ(dists[0].high, 2.0);
    EXPECT_EQ(dists[0].samples, 2u);
    ASSERT_EQ(dists[0].buckets.size(), 2u);
    EXPECT_EQ(dists[0].buckets[0], 1u);
    EXPECT_EQ(dists[0].buckets[1], 1u);
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(triarch_panic("boom ", 42), "boom 42");
}

TEST(Logging, AssertPassesAndFails)
{
    triarch_assert(1 + 1 == 2, "fine");
    EXPECT_DEATH(triarch_assert(false, "broken"), "broken");
}

TEST(Table, RendersAlignedCells)
{
    Table t("Demo");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "23,456"});
    std::ostringstream os;
    t.render(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("23,456"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(std::uint64_t{1234567}), "1,234,567");
    EXPECT_EQ(Table::num(std::uint64_t{12}), "12");
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

TEST(Table, CsvOutput)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.renderCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(BarChart, RendersLogScaleBars)
{
    BarChart chart("Speedup", true);
    chart.group("corner turn");
    chart.bar("viram", 52.9);
    chart.bar("raw", 200.0);
    std::ostringstream os;
    chart.render(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("[log scale]"), std::string::npos);
    EXPECT_NE(s.find("viram"), std::string::npos);
    EXPECT_NE(s.find('#'), std::string::npos);
}

} // namespace
} // namespace triarch

// Re-opened for renderer edge cases.
namespace triarch
{
namespace
{

TEST(Table, EmptyTableRendersNothing)
{
    Table t("Empty");
    std::ostringstream os;
    t.render(os);
    EXPECT_TRUE(os.str().empty());
}

TEST(Table, RaggedRowsPadded)
{
    Table t;
    t.header({"a", "b", "c"});
    t.row({"1"});
    t.row({"1", "2", "3", "4"});
    std::ostringstream os;
    t.render(os);    // must not crash; 4 columns total
    EXPECT_NE(os.str().find("4"), std::string::npos);
}

TEST(Table, CsvQuotesCellsWithSeparators)
{
    Table t;
    t.row({Table::num(std::uint64_t{1234567}), "plain"});
    std::ostringstream os;
    t.renderCsv(os);
    EXPECT_EQ(os.str(), "\"1,234,567\",plain\n");
}

TEST(BarChart, EmptyChartRendersNothing)
{
    BarChart chart("none", false);
    std::ostringstream os;
    chart.render(os);
    EXPECT_TRUE(os.str().empty());
}

TEST(BarChart, LogScaleRejectsNonPositive)
{
    BarChart chart("bad", true);
    EXPECT_DEATH(chart.bar("x", 0.0), "positive value");
}

TEST(BarChart, LinearScaleHandlesZeroBars)
{
    BarChart chart("lin", false);
    chart.bar("zero", 0.0);
    chart.bar("one", 1.0);
    std::ostringstream os;
    chart.render(os);
    EXPECT_NE(os.str().find("zero"), std::string::npos);
}

// ---------------------------------------------------------------
// JSON nesting limit.
// ---------------------------------------------------------------

std::string
nested(std::size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonDepth, AcceptsNestingUpToTheLimit)
{
    std::string error;
    const auto doc = json::parse(nested(json::kMaxDepth), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_TRUE(doc->isArray());
}

TEST(JsonDepth, RejectsOneLevelMoreAsATypedError)
{
    std::string error;
    EXPECT_FALSE(json::parse(nested(json::kMaxDepth + 1), &error));
    EXPECT_NE(error.find("nesting deeper than 256 levels"),
              std::string::npos)
        << error;
    // Offset of the first bracket past the limit.
    EXPECT_NE(error.find("offset 256"), std::string::npos) << error;
}

TEST(JsonDepth, HostileLineFailsWithoutExhaustingTheStack)
{
    // ~400 KB of '[' once overflowed the recursive descent.
    std::string error;
    EXPECT_FALSE(json::parse("{\"config\":" + std::string(400000, '['),
                             &error));
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"a\":";
    error.clear();
    EXPECT_FALSE(json::parse(objects, &error));
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

// ---------------------------------------------------------------
// ZeroBuffer: mapped, zero-filled, released exactly once.
// ---------------------------------------------------------------

TEST(ZeroBuffer, EmptyBufferIsUsable)
{
    ZeroBuffer empty(0);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_NE(empty.data(), nullptr);
}

TEST(ZeroBuffer, StartsZeroedAndIsWritable)
{
    constexpr std::size_t n = (std::size_t{1} << 20) + 3;
    ZeroBuffer buf(n);
    ASSERT_EQ(buf.size(), n);
    for (std::size_t i = 0; i < n; i += 997)
        ASSERT_EQ(buf.data()[i], 0u) << "byte " << i;
    buf.data()[0] = 0xAB;
    buf.data()[n - 1] = 0xCD;
    EXPECT_EQ(buf.data()[0], 0xABu);
    EXPECT_EQ(buf.data()[n - 1], 0xCDu);
}

TEST(ZeroBuffer, MoveTransfersTheMappingOnce)
{
    // Under ASan/valgrind a double munmap or a leaked mapping of the
    // moved-from buffer would show here.
    ZeroBuffer src(1 << 16);
    src.data()[42] = 7;
    std::uint8_t *const mapped = src.data();
    ZeroBuffer dst(std::move(src));
    EXPECT_EQ(dst.data(), mapped);
    EXPECT_EQ(dst.size(), std::size_t{1} << 16);
    EXPECT_EQ(dst.data()[42], 7u);
    EXPECT_EQ(src.data(), nullptr);    // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(src.size(), 0u);
    ZeroBuffer again(std::move(dst));
    EXPECT_EQ(again.data()[42], 7u);
}

} // namespace
} // namespace triarch
