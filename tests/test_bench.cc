/**
 * @file
 * Regression tests for the shared bench CLI harness and the id
 * lookup tables: numeric flags reject negative, overflowing, and
 * truncating values instead of silently wrapping; value-less flags
 * reject inline values; full-grid benches refuse a narrowed
 * selection; the trace file is written even when the
 * bench body fails; and out-of-range KernelId/MachineId lookups
 * panic with the numeric value instead of reading past the static
 * name arrays.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_main.hh"
#include "study/experiment.hh"
#include "study/machine_info.hh"

namespace triarch
{
namespace
{

/** Run benchMain over the given args with a trivial passing body. */
int
runBench(std::vector<std::string> args,
         bench::BenchBody body = [](bench::BenchContext &) {
             return 0;
         })
{
    std::vector<char *> argv;
    args.insert(args.begin(), "test_bench");
    argv.reserve(args.size());
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::benchMain(static_cast<int>(argv.size()),
                            argv.data(), "test bench", body);
}

// ---------------------------------------------------------------
// Numeric flag parsing.
// ---------------------------------------------------------------

TEST(BenchCliNumbers, RejectsNegativeThreads)
{
    // Pre-fix, strtoull wrapped "-1" to 2^64-1 and the cast
    // truncated it to 4294967295 worker threads.
    EXPECT_EXIT(runBench({"--threads", "-1"}),
                testing::ExitedWithCode(2),
                "--threads needs a non-negative number");
}

TEST(BenchCliNumbers, RejectsOverflowingValues)
{
    // > 2^64: strtoull reports ERANGE, which was ignored pre-fix.
    EXPECT_EXIT(runBench({"--seed", "99999999999999999999"}),
                testing::ExitedWithCode(2), "out of range");
    // Fits in 64 bits but not in unsigned --threads.
    EXPECT_EXIT(runBench({"--threads", "5000000000"}),
                testing::ExitedWithCode(2), "out of range");
}

TEST(BenchCliNumbers, RejectsNonNumericValues)
{
    EXPECT_EXIT(runBench({"--threads", "four"}),
                testing::ExitedWithCode(2),
                "needs a non-negative number");
    EXPECT_EXIT(runBench({"--threads", "7x"}),
                testing::ExitedWithCode(2),
                "needs a non-negative number");
    EXPECT_EXIT(runBench({"--threads", "+3"}),
                testing::ExitedWithCode(2),
                "needs a non-negative number");
}

TEST(BenchCliNumbers, ZeroThreadsMeansHardwareConcurrency)
{
    // 0 is the documented "use hardware concurrency" value; it must
    // parse and reach the body unchanged.
    EXPECT_EQ(runBench({"--threads", "0"},
                       [](bench::BenchContext &ctx) {
                           return ctx.options().threads == 0 ? 0 : 9;
                       }),
              0);
}

TEST(BenchCliNumbers, AcceptsInlineNumericValues)
{
    EXPECT_EQ(runBench({"--threads=3", "--seed=17"},
                       [](bench::BenchContext &ctx) {
                           return ctx.options().threads == 3
                                          && ctx.options().seed == 17
                                      ? 0
                                      : 9;
                       }),
              0);
}

// ---------------------------------------------------------------
// Inline values on value-less flags.
// ---------------------------------------------------------------

TEST(BenchCliInline, RejectsInlineValueOnCsv)
{
    // Pre-fix, "--csv=yes" was silently treated as bare "--csv".
    EXPECT_EXIT(runBench({"--csv=yes"}), testing::ExitedWithCode(2),
                "--csv does not take a value");
}

TEST(BenchCliInline, RejectsInlineValueOnHelp)
{
    EXPECT_EXIT(runBench({"--help=x"}), testing::ExitedWithCode(2),
                "--help does not take a value");
}

TEST(BenchCliInline, BareCsvStillWorks)
{
    EXPECT_EQ(runBench({"--csv"},
                       [](bench::BenchContext &ctx) {
                           return ctx.options().csv ? 0 : 9;
                       }),
              0);
}

// ---------------------------------------------------------------
// Full-grid benches reject a narrowed selection.
// ---------------------------------------------------------------

int
fullGridBody(bench::BenchContext &ctx)
{
    return ctx.allResults().size() == 15 ? 0 : 1;
}

TEST(BenchFullGrid, NarrowedSelectionExitsTwoNamingTheBench)
{
    // Pre-fix, allResults() simulated all 15 cells (and wrote them
    // to --json) under a selection of one.
    EXPECT_EXIT(runBench({"--machines", "imagine", "--kernels", "bs"},
                         fullGridBody),
                testing::ExitedWithCode(2),
                "test_bench draws the full 5x3 grid");
    EXPECT_EXIT(runBench({"--kernels", "ct,cslc"}, fullGridBody),
                testing::ExitedWithCode(2), "cannot narrow");
    EXPECT_EXIT(runBench({"--machines", "ppc,altivec,viram,imagine"},
                         fullGridBody),
                testing::ExitedWithCode(2), "cannot narrow");
}

// ---------------------------------------------------------------
// Trace written on failure.
// ---------------------------------------------------------------

TEST(BenchTrace, WrittenEvenWhenBodyFails)
{
    const std::string path =
        testing::TempDir() + "/triarch_failed_trace.json";
    std::remove(path.c_str());

    testing::internal::CaptureStdout();
    const int rc = runBench({"--trace", path},
                            [](bench::BenchContext &) { return 3; });
    const std::string out = testing::internal::GetCapturedStdout();

    EXPECT_EQ(rc, 3);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "trace file missing: " << path;
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("traceEvents"), std::string::npos);
    // The harness notes the failure next to the trace path.
    EXPECT_NE(out.find("trace written to " + path),
              std::string::npos);
    EXPECT_NE(out.find("failed with exit code 3"),
              std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Out-of-range id lookups.
// ---------------------------------------------------------------

TEST(IdLookups, KernelNamePanicsOutOfRange)
{
    EXPECT_DEATH(study::kernelName(static_cast<study::KernelId>(7)),
                 "KernelId out of range: 7");
    EXPECT_DEATH(study::kernelToken(static_cast<study::KernelId>(99)),
                 "KernelId out of range: 99");
}

TEST(IdLookups, MachineTokenPanicsOutOfRange)
{
    EXPECT_DEATH(
        study::machineToken(static_cast<study::MachineId>(42)),
        "MachineId out of range: 42");
}

TEST(IdLookups, ValidIdsStillResolve)
{
    EXPECT_EQ(study::kernelToken(study::KernelId::BeamSteering), "bs");
    EXPECT_EQ(study::kernelName(study::KernelId::Cslc), "CSLC");
    EXPECT_EQ(study::machineToken(study::MachineId::Raw), "raw");
}

} // namespace
} // namespace triarch
