/**
 * @file
 * Tests for the parallel experiment engine and the registry-based
 * dispatch behind it: bit-identical determinism of ParallelRunner
 * against the serial Runner at several thread counts (over the fuzz
 * boundary configs too), the longest-first claim order, full coverage
 * of the built-in MappingRegistry, the typed unknown-pair error
 * path, result-cache behavior, config hashing, and the JSON result
 * sink.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "study/config_check.hh"
#include "study/fuzz.hh"
#include "study/parallel.hh"
#include "study/registry.hh"
#include "study/result_sink.hh"

namespace triarch::study
{
namespace
{

/** The reduced workload from test_study.cc: fast but exercises all
 *  fifteen cells end to end. */
StudyConfig
smallConfig()
{
    StudyConfig cfg;
    cfg.matrixSize = 128;
    cfg.cslc.subBands = 8;
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    cfg.beam.elements = 256;
    cfg.beam.dwells = 2;
    cfg.jammerBins = {64, 200};
    return cfg;
}

// ---------------------------------------------------------------
// Determinism: the tentpole guarantee. Parallel execution at any
// thread count is bit-identical to the serial Runner.
// ---------------------------------------------------------------

/** smallConfig() followed by every valid fuzz boundary config: the
 *  strip/tile/block edges, single-element and skewed shapes. */
std::vector<StudyConfig>
determinismConfigs()
{
    FuzzOptions opts;
    opts.randomConfigs = 0;
    std::vector<StudyConfig> configs = {smallConfig()};
    for (const StudyConfig &cfg : enumerateFuzzConfigs(opts)) {
        if (!validateConfig(cfg))
            configs.push_back(cfg);
    }
    return configs;
}

TEST(ParallelDeterminism, BitIdenticalToSerialAtAnyThreadCount)
{
    const std::vector<StudyConfig> configs = determinismConfigs();
    ASSERT_GT(configs.size(), 10u);
    for (const StudyConfig &cfg : configs) {
        Runner serial(cfg);
        const std::vector<RunResult> expect = serial.runAll();
        ASSERT_EQ(expect.size(), 15u) << describeConfig(cfg);

        for (unsigned threads : {1u, 2u, 8u}) {
            ParallelRunner par(cfg, threads, nullptr,
                               ParallelRunner::noCache());
            const std::vector<RunResult> got = par.runAll();
            ASSERT_EQ(got.size(), expect.size())
                << threads << " threads";
            for (std::size_t i = 0; i < expect.size(); ++i) {
                EXPECT_EQ(got[i], expect[i])
                    << threads << " threads, cell " << i << " ("
                    << machineName(expect[i].machine) << " / "
                    << kernelName(expect[i].kernel) << "), "
                    << describeConfig(cfg);
            }
        }
    }
}

TEST(ParallelDeterminism, RepeatedRunsAreIdentical)
{
    const StudyConfig cfg = smallConfig();
    ParallelRunner par(cfg, 4, nullptr, ParallelRunner::noCache());
    const auto first = par.runAll();
    const auto second = par.runAll();
    EXPECT_EQ(first, second);
}

TEST(ParallelRunner, CellSubsetPreservesRequestOrder)
{
    const std::vector<Cell> cells = {
        {MachineId::Raw, KernelId::BeamSteering},
        {MachineId::Viram, KernelId::CornerTurn},
        {MachineId::Raw, KernelId::BeamSteering},
    };
    ParallelRunner par(smallConfig(), 2, nullptr,
                       ParallelRunner::noCache());
    const auto results = par.runCells(cells);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].machine, MachineId::Raw);
    EXPECT_EQ(results[0].kernel, KernelId::BeamSteering);
    EXPECT_EQ(results[1].machine, MachineId::Viram);
    EXPECT_EQ(results[1].kernel, KernelId::CornerTurn);
    EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelRunner, WorkQueueOverlapsIndependentCells)
{
    // Latency-bound mappings (sleeps) expose scheduling overlap even
    // on a single-core host, where CPU-bound cells cannot speed up.
    // Overlap is checked directly: the most cells asleep at once
    // must exceed one. (A wall-clock bound on the whole run flakes
    // on a loaded host and under TSan without any overlap missing.)
    std::atomic<int> sleeping{0};
    std::atomic<int> maxSleeping{0};
    MappingRegistry sleepy;
    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels()) {
            sleepy.add(machine, kernel,
                       [&, machine, kernel](const StudyConfig &,
                                            const Workloads &) {
                           const int now = ++sleeping;
                           int seen = maxSleeping.load();
                           while (seen < now &&
                                  !maxSleeping.compare_exchange_weak(
                                      seen, now)) {
                           }
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(40));
                           --sleeping;
                           RunResult r;
                           r.machine = machine;
                           r.kernel = kernel;
                           r.cycles = 1;
                           r.validated = true;
                           return r;
                       });
        }
    }
    ParallelRunner par(smallConfig(), 8, &sleepy,
                       ParallelRunner::noCache());
    const auto results = par.runAll();
    EXPECT_EQ(results.size(), 15u);
    EXPECT_GE(maxSleeping.load(), 2)
        << "8 workers should overlap the sleeps";
}

// ---------------------------------------------------------------
// Claim order: workers take the heaviest cost estimate first, by a
// pure function of (cells, config); results keep request order.
// ---------------------------------------------------------------

/** Estimates along @p order never increase. */
void
expectDescending(const std::vector<Cell> &cells,
                 const std::vector<std::size_t> &order,
                 const StudyConfig &cfg)
{
    ASSERT_EQ(order.size(), cells.size());
    for (std::size_t k = 1; k < order.size(); ++k) {
        EXPECT_GE(cellCostEstimate(cells[order[k - 1]], cfg),
                  cellCostEstimate(cells[order[k]], cfg))
            << "claim " << k;
    }
}

TEST(ClaimOrder, DependsOnlyOnCellsAndConfig)
{
    const std::vector<Cell> cells = allCells();
    const StudyConfig cfg = smallConfig();
    const std::vector<std::size_t> order = claimOrder(cells, cfg);
    EXPECT_EQ(claimOrder(cells, StudyConfig(cfg)), order);
    // The data seed changes workload values, not work sizes.
    StudyConfig reseeded = cfg;
    reseeded.seed += 1000;
    EXPECT_EQ(claimOrder(cells, reseeded), order);
    // Every cell is claimed exactly once.
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(ClaimOrder, HeaviestEstimateGoesFirst)
{
    const std::vector<Cell> cells = allCells();

    // Paper config: the 1024^2 Raw corner turn is the longest cell.
    const StudyConfig paper;
    const auto paperOrder = claimOrder(cells, paper);
    expectDescending(cells, paperOrder, paper);
    EXPECT_EQ(cells[paperOrder.front()],
              (Cell{MachineId::Raw, KernelId::CornerTurn}));

    // Small config: CSLC's 8 sub-bands outweigh a 128^2 transpose,
    // so Raw CSLC leads.
    const StudyConfig small = smallConfig();
    const auto smallOrder = claimOrder(cells, small);
    expectDescending(cells, smallOrder, small);
    EXPECT_EQ(cells[smallOrder.front()],
              (Cell{MachineId::Raw, KernelId::Cslc}));
    EXPECT_NE(paperOrder, smallOrder);
}

TEST(ClaimOrder, TiesKeepRequestOrder)
{
    // Duplicates tie with themselves.
    const Cell heavy{MachineId::Raw, KernelId::Cslc};
    const Cell light{MachineId::Imagine, KernelId::BeamSteering};
    EXPECT_EQ(claimOrder({light, heavy, light, heavy}, smallConfig()),
              (std::vector<std::size_t>{1, 3, 0, 2}));

    // With no beam outputs every beam-steering cell estimates 0.
    StudyConfig noBeams = smallConfig();
    noBeams.beam.elements = 0;
    const std::vector<Cell> beams = {
        {MachineId::Raw, KernelId::BeamSteering},
        {MachineId::PpcScalar, KernelId::BeamSteering},
        {MachineId::Viram, KernelId::BeamSteering},
    };
    EXPECT_EQ(claimOrder(beams, noBeams),
              (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ClaimOrder, WorkersClaimInOrderAndResultsKeepRequestOrder)
{
    // One worker makes the claim order observable; every fake
    // mapping logs its cell when it runs.
    std::vector<Cell> executed;
    MappingRegistry logging;
    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels()) {
            logging.add(machine, kernel,
                        [machine, kernel, &executed](
                            const StudyConfig &, const Workloads &) {
                            executed.push_back({machine, kernel});
                            RunResult r;
                            r.machine = machine;
                            r.kernel = kernel;
                            r.cycles = 1;
                            r.validated = true;
                            return r;
                        });
        }
    }
    const std::vector<Cell> cells = allCells();
    ParallelRunner par(smallConfig(), 1, &logging,
                       ParallelRunner::noCache());
    const auto results = par.runCells(cells);

    const auto order = claimOrder(cells, smallConfig());
    ASSERT_EQ(executed.size(), cells.size());
    for (std::size_t k = 0; k < order.size(); ++k)
        EXPECT_EQ(executed[k], cells[order[k]]) << "claim " << k;
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(results[i].machine, cells[i].machine) << i;
        EXPECT_EQ(results[i].kernel, cells[i].kernel) << i;
    }
}

// ---------------------------------------------------------------
// Registry coverage: every (machine, kernel) pair of the study is
// registered, and unknown pairs surface as typed errors.
// ---------------------------------------------------------------

TEST(MappingRegistryTest, BuiltinCoversEveryMachineKernelPair)
{
    const MappingRegistry &reg = MappingRegistry::builtin();
    EXPECT_EQ(reg.size(),
              allMachines().size() * allKernels().size());
    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels()) {
            EXPECT_NE(reg.find(machine, kernel), nullptr)
                << machineName(machine) << " / " << kernelName(kernel);
        }
    }
    EXPECT_EQ(reg.registeredPairs().size(), reg.size());
}

TEST(MappingRegistryTest, UnknownPairIsATypedError)
{
    const MappingRegistry empty;
    EXPECT_EQ(empty.find(MachineId::Viram, KernelId::Cslc), nullptr);

    Runner runner(smallConfig(), &empty);
    const RunOutcome outcome =
        runner.tryRun(MachineId::Viram, KernelId::Cslc);
    ASSERT_TRUE(std::holds_alternative<MappingError>(outcome));
    const auto &err = std::get<MappingError>(outcome);
    EXPECT_EQ(err.machine, MachineId::Viram);
    EXPECT_EQ(err.kernel, KernelId::Cslc);
    EXPECT_NE(err.message.find("no kernel mapping registered"),
              std::string::npos);
    EXPECT_NE(err.message.find(machineName(MachineId::Viram)),
              std::string::npos);
    EXPECT_NE(err.message.find(kernelName(KernelId::Cslc)),
              std::string::npos);
}

TEST(MappingRegistryTest, PartialRegistryMixesResultsAndErrors)
{
    // One real mapping borrowed from the builtin table, the rest
    // missing: tryRunCells must slot each outcome by request index.
    MappingRegistry partial;
    partial.add(MachineId::Viram, KernelId::BeamSteering,
                *MappingRegistry::builtin().find(
                    MachineId::Viram, KernelId::BeamSteering));

    ParallelRunner par(smallConfig(), 2, &partial,
                       ParallelRunner::noCache());
    const auto outcomes = par.tryRunCells(
        {{MachineId::Viram, KernelId::BeamSteering},
         {MachineId::Raw, KernelId::Cslc}});
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(std::holds_alternative<RunResult>(outcomes[0]));
    EXPECT_TRUE(std::get<RunResult>(outcomes[0]).validated);
    ASSERT_TRUE(std::holds_alternative<MappingError>(outcomes[1]));
    EXPECT_EQ(std::get<MappingError>(outcomes[1]).machine,
              MachineId::Raw);
}

// ---------------------------------------------------------------
// Result cache: second sweep is served from cache; distinct configs
// do not collide.
// ---------------------------------------------------------------

TEST(ResultCacheTest, SecondSweepIsServedFromCache)
{
    // Wrap every builtin mapping in an invocation counter so cache
    // hits are observable as "the mapping did not run again".
    static std::atomic<unsigned> invocations{0};
    invocations = 0;
    MappingRegistry counting;
    for (auto [machine, kernel] :
         MappingRegistry::builtin().registeredPairs()) {
        const KernelMapping inner =
            *MappingRegistry::builtin().find(machine, kernel);
        counting.add(machine, kernel,
                     [inner](const StudyConfig &cfg,
                             const Workloads &work) {
                         ++invocations;
                         return inner(cfg, work);
                     });
    }

    ResultCache cache;
    ParallelRunner par(smallConfig(), 4, &counting, &cache);
    const auto first = par.runAll();
    EXPECT_EQ(invocations.load(), 15u);
    EXPECT_EQ(cache.size(), 15u);
    EXPECT_EQ(cache.misses(), 15u);

    const auto second = par.runAll();
    EXPECT_EQ(invocations.load(), 15u) << "cache should have served";
    EXPECT_EQ(cache.hits(), 15u);
    EXPECT_EQ(first, second);
}

TEST(ResultCacheTest, DistinctConfigsDoNotCollide)
{
    ResultCache cache;
    StudyConfig a = smallConfig();
    StudyConfig b = smallConfig();
    b.seed = a.seed + 1;
    ASSERT_NE(studyConfigHash(a), studyConfigHash(b));

    RunResult r;
    r.machine = MachineId::Viram;
    r.kernel = KernelId::Cslc;
    r.cycles = 123;
    cache.put(r, studyConfigHash(a));
    EXPECT_TRUE(cache.get(r.machine, r.kernel, studyConfigHash(a))
                    .has_value());
    EXPECT_FALSE(cache.get(r.machine, r.kernel, studyConfigHash(b))
                     .has_value());
}

TEST(ConfigHash, SensitiveToEveryWorkloadField)
{
    const StudyConfig base = smallConfig();
    auto mutated = [&](auto &&mutate) {
        StudyConfig cfg = base;
        mutate(cfg);
        return studyConfigHash(cfg);
    };
    const std::uint64_t h = studyConfigHash(base);
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.matrixSize = 256; }));
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.seed = 99; }));
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.beam.dwells = 3; }));
    EXPECT_NE(h,
              mutated([](StudyConfig &c) { c.jammerBins = {64}; }));
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.cslc.subBands = 4; }));
    EXPECT_EQ(h, studyConfigHash(base)) << "hash must be stable";
}

// ---------------------------------------------------------------
// Result sink: structured JSON document.
// ---------------------------------------------------------------

TEST(ResultSinkTest, EmitsWellFormedDocument)
{
    const StudyConfig cfg = smallConfig();
    ParallelRunner par(cfg, 2, nullptr, ParallelRunner::noCache());

    ResultSink sink(cfg);
    sink.add(par.runCells({{MachineId::Raw, KernelId::Cslc},
                           {MachineId::Viram, KernelId::CornerTurn}}));
    sink.metadata("threads", "2");
    EXPECT_EQ(sink.size(), 2u);

    std::ostringstream os;
    sink.writeJson(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"schema\": \"triarch.results.v1\""),
              std::string::npos);
    EXPECT_NE(s.find("\"machine\": \"Raw\""), std::string::npos);
    EXPECT_NE(s.find("\"kernel_id\": \"ct\""), std::string::npos);
    EXPECT_NE(s.find("\"threads\": \"2\""), std::string::npos);
    EXPECT_NE(s.find("\"measured_unbalanced\""), std::string::npos);
    EXPECT_NE(s.find("\"validated\": true"), std::string::npos);
}

} // namespace
} // namespace triarch::study
