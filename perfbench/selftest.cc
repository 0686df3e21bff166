/**
 * @file
 * Unit tests of the benchmark's own helpers: the tail-percentile rule,
 * the seeded config generator, and the failure count.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "checks.hh"
#include "configgen.hh"
#include "stats.hh"
#include "study/config_check.hh"

namespace perfbench
{
namespace
{

using triarch::study::RunResult;

TEST(TailRule, NeedsTenSamplesBeyondThePercentile)
{
    EXPECT_EQ(tailPermille(0), 500u);
    EXPECT_EQ(tailPermille(19), 500u);
    EXPECT_EQ(tailPermille(20), 500u);
    EXPECT_EQ(tailPermille(39), 500u);
    EXPECT_EQ(tailPermille(40), 750u);
    EXPECT_EQ(tailPermille(99), 750u);
    EXPECT_EQ(tailPermille(100), 900u);
    EXPECT_EQ(tailPermille(200), 950u);
    EXPECT_EQ(tailPermille(999), 950u);
    EXPECT_EQ(tailPermille(1000), 990u);
    EXPECT_EQ(tailPermille(10000), 999u);
    // The rule itself: at least ten samples lie above the chosen rung.
    for (std::size_t n : {20u, 57u, 140u, 333u, 4096u}) {
        const unsigned p = tailPermille(n);
        EXPECT_GE(n * (1000 - p), 10u * 1000) << n;
    }
}

TEST(TailRule, QuantileInterpolates)
{
    const std::vector<double> v = {4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(ConfigGen, SameSeedSameConfigs)
{
    EXPECT_EQ(smallConfigPool(7, 64), smallConfigPool(7, 64));
    EXPECT_NE(smallConfigPool(7, 64), smallConfigPool(8, 64));
    EXPECT_EQ(paperConfig(3), paperConfig(3));
}

TEST(ConfigGen, EveryConfigValidates)
{
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        for (const auto &cfg : smallConfigPool(seed, 64)) {
            const auto err = triarch::study::validateConfig(cfg);
            EXPECT_FALSE(err.has_value())
                << "seed " << seed << ": "
                << (err ? triarch::study::describe(*err) : "");
            EXPECT_GE(cfg.matrixSize, 64u);
            EXPECT_LE(cfg.matrixSize, 256u);
            EXPECT_GE(cfg.cslc.subBands, 1u);
            EXPECT_LE(cfg.cslc.subBands, 16u);
            EXPECT_GE(cfg.beam.elements, 1u);
            EXPECT_LE(cfg.beam.elements, 256u);
        }
    }
    EXPECT_FALSE(triarch::study::validateConfig(paperConfig(5)));
}

/** The baseline's cells as results that pass the check. */
std::vector<RunResult>
resultsFrom(const triarch::study::BenchReport &report)
{
    std::vector<RunResult> out;
    for (const auto &cell : report.cells) {
        RunResult r;
        r.machine = cell.machine;
        r.kernel = cell.kernel;
        r.cycles = cell.cycles;
        r.measuredUnbalanced = cell.measuredUnbalanced;
        r.breakdown = cell.breakdown;
        r.validated = cell.validated;
        out.push_back(r);
    }
    return out;
}

BaselineCheck
committedBaseline()
{
    std::string error;
    auto check = BaselineCheck::load(
        PERFBENCH_REPO_ROOT "/bench/baselines/BENCH_table3.json", &error);
    if (!check)
        ADD_FAILURE() << error;
    return check ? std::move(*check)
                 : BaselineCheck(triarch::study::BenchReport{});
}

TEST(FailRatio, PerturbedCycleCountFails)
{
    const BaselineCheck check = committedBaseline();
    std::vector<RunResult> results = resultsFrom(check.report());
    ASSERT_EQ(results.size(), 15u);

    FailTally clean;
    check.tally(results, clean);
    EXPECT_EQ(clean.attempted, 15u);
    EXPECT_EQ(clean.failed, 0u);
    EXPECT_DOUBLE_EQ(clean.ratio(), 0.0);

    results[4].cycles += 1;
    FailTally perturbed;
    check.tally(results, perturbed);
    EXPECT_EQ(perturbed.failed, 1u);
    EXPECT_DOUBLE_EQ(perturbed.ratio(), 1.0 / 15.0);
}

TEST(FailRatio, UnvalidatedOrShiftedBreakdownFails)
{
    const BaselineCheck check = committedBaseline();
    std::vector<RunResult> results = resultsFrom(check.report());
    ASSERT_FALSE(results.empty());
    RunResult unvalidated = results[0];
    unvalidated.validated = false;
    EXPECT_FALSE(check.passes(unvalidated));
    RunResult shifted = results[0];
    auto &parts = shifted.breakdown.cycles;
    const std::size_t from = parts[0] > 0 ? 0 : 1;
    ASSERT_GT(parts[from], 0u);
    parts[from] -= 1;
    parts[(from + 1) % parts.size()] += 1;
    EXPECT_FALSE(check.passes(shifted));
    EXPECT_TRUE(check.passes(results[0]));
}

TEST(FailRatio, RepeatCheckFlagsDriftBetweenRepeats)
{
    RepeatCheck repeats;
    RunResult r;
    r.cycles = 1000;
    r.validated = true;
    EXPECT_TRUE(repeats.passes(1, r));
    EXPECT_TRUE(repeats.passes(1, r));
    RunResult drifted = r;
    drifted.cycles = 1001;
    EXPECT_FALSE(repeats.passes(1, drifted));
    EXPECT_TRUE(repeats.passes(2, drifted));   // another config
    r.validated = false;
    EXPECT_FALSE(repeats.passes(1, r));
}

} // namespace
} // namespace perfbench
