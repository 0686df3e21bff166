/**
 * @file
 * perfbench_harness: runs one benchmark workload against the triarch
 * simulator for a fixed time and prints its metrics. The last line of
 * stdout is one JSON object {correct, attempted, failed, metrics};
 * the lines before it name every metric with its unit, including the
 * workload-specific names the README's tables use.
 *
 *   perfbench_harness --workload table3|sweep_small
 *       --seed N --seconds S --trace 0|1 --daemon PATH
 *       --out-dir DIR --baseline PATH
 *
 * --trace 0 measures end to end with nothing traced; --trace 1 is the
 * separate traced run that gives the per-layer metrics (layers.cc).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sched.h>
#include <sstream>
#include <sys/resource.h>

#include "configgen.hh"
#include "harness.hh"
#include "process.hh"
#include "sim/hw_report.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "study/config_check.hh"
#include "study/parallel.hh"
#include "study/registry.hh"
#include "study/study_json.hh"

namespace perfbench
{

namespace
{

using namespace triarch;
using Clock = std::chrono::steady_clock;
using study::StudyConfig;

/**
 * A workload's timing samples. The ops of a workload are grouped by
 * the work they do: table3 has one group (a pass), sweep_small one per
 * pool config. Within a group every sample is the same work.
 */
struct Samples
{
    std::vector<double> opMs;             //!< wall ms of each op
    std::vector<std::vector<double>> msByGroup;
    std::vector<std::vector<double>> cpuMsByGroup;
    std::vector<double> probeMs;          //!< hostProbeMs() between ops
    double seconds = 0.0;                 //!< measured wall time

    std::size_t
    groupSamples() const
    {
        std::size_t n = 0;
        for (const auto &g : msByGroup)
            n += g.size();
        return n;
    }
};

/** The mean over @p groups of each group's quantile @p q. */
double
meanQuantile(const std::vector<std::vector<double>> &groups, double q)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &g : groups) {
        if (g.empty())
            continue;
        sum += quantile(g, q);
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

/**
 * Thread CPU ms of hostProbeMs() on an undisturbed 4-vCPU Sapphire
 * Rapids VM: the host speed the ref_ metrics are scaled to.
 */
constexpr double kProbeRefMs = 2.0;

/** Keeps the probe's results live, so the compiler cannot drop it. */
volatile std::uint64_t probeSink;

/**
 * A fixed piece of work whose thread CPU time, in ms, measures how fast
 * the host runs simulator-like code right now. Host speed on a shared VM
 * drifts by up to 1.6x over minutes, on all CPUs at once, and no order
 * statistic taken within a run removes a drift that lasts the whole run.
 * Timing this probe between the workload's ops and scaling the op times
 * by kProbeRefMs / (median probe) cancels part of it (the README gives
 * the measured spreads). The probe is the benchmark's own code, so a
 * change to the simulator does not move it.
 * Its three parts resemble the simulator's host work: a set-associative
 * LRU cache model, a switch-dispatched interpreter and independent
 * integer arithmetic. It holds under 1 MiB, so peak_rss_mib still
 * measures the simulator.
 */
double
hostProbeMs()
{
    constexpr std::size_t kSets = 8192, kWays = 8;
    static std::vector<std::uint64_t> tags(kSets * kWays);
    static std::vector<std::uint32_t> age(kSets * kWays);
    static const std::vector<std::uint8_t> program = [] {
        std::vector<std::uint8_t> ops(4096);
        Rng rng(7);
        for (std::uint8_t &op : ops)
            op = static_cast<std::uint8_t>(rng.nextBelow(8));
        return ops;
    }();

    const std::int64_t c0 = threadCpuNs();
    std::uint64_t x = 12345, addr = 0, clock = 0, sink = 0;
    for (int i = 0; i < 30000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        addr = (x >> 60) < 12 ? addr + 64 : (x >> 20) & ((1ull << 26) - 1);
        const std::uint64_t line = addr >> 6;
        std::uint64_t *tag = &tags[(line & (kSets - 1)) * kWays];
        std::uint32_t *last = &age[(line & (kSets - 1)) * kWays];
        std::size_t way = 0;
        while (way < kWays && tag[way] != line)
            ++way;
        if (way == kWays) {
            way = static_cast<std::size_t>(
                std::min_element(last, last + kWays) - last);
            tag[way] = line;
        } else {
            ++sink;
        }
        last[way] = static_cast<std::uint32_t>(++clock);
    }
    std::uint64_t reg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int rep = 0; rep < 20; ++rep) {
        for (std::size_t pc = 0; pc < program.size(); ++pc) {
            std::uint64_t &d = reg[pc & 7];
            const std::uint64_t s = reg[(pc >> 3) & 7];
            switch (program[pc]) {
            case 0: d += s; break;
            case 1: d ^= s << 3; break;
            case 2: d = d * 3 + 1; break;
            case 3: d -= s >> 2; break;
            case 4: d |= s & 0xff; break;
            case 5: d = (d >> 1) | (d << 63); break;
            case 6: d += pc; break;
            default: d ^= s; break;
            }
        }
    }
    std::uint64_t x0 = 1, x1 = 2, x2 = 3, x3 = 4;
    for (int i = 0; i < 200000; ++i) {
        x0 = x0 * 6364136223846793005ull + 1;
        x1 = x1 * 6364136223846793005ull + 3;
        x2 = x2 * 6364136223846793005ull + 5;
        x3 = x3 * 6364136223846793005ull + 7;
        x0 ^= x1 >> 7;
        x2 ^= x3 >> 9;
    }
    probeSink = sink + reg[0] + reg[5] + x0 + x1 + x2 + x3;
    return static_cast<double>(threadCpuNs() - c0) / 1e6;
}

/** Peak RSS of this process so far, in MiB. */
double
selfPeakRssMib()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << std::setprecision(6) << v;
    return os.str();
}

std::string
percentileName(unsigned permille)
{
    return permille % 10 ? "p" + fmt(permille / 10.0)
                         : "p" + std::to_string(permille / 10);
}

/**
 * The end-to-end metrics every workload reports. The gated times are
 * the wall and CPU ms of each group's fastest tenth (Samples), averaged
 * over the groups and scaled to the reference host speed (hostProbeMs).
 * Host speed on a shared VM also swings by up to 2x over seconds, and
 * the fastest tenth is the speed with the least interference, which
 * repeats from run to run where medians and tails do not. The unscaled
 * times, the op tail by the tail rule and the groups' mean median are
 * printed beside them; the callers print the workload's per-op medians
 * and throughput.
 */
void
addEndToEnd(RunOutput &out, double setupS, const Samples &s, double rssMib,
            const std::string &opName, const std::string &groupName)
{
    const unsigned tail = tailPermille(s.opMs.size());
    const double msP10 = meanQuantile(s.msByGroup, 0.1);
    const double cpuMsP10 = meanQuantile(s.cpuMsByGroup, 0.1);
    const double probeMs = median(s.probeMs);
    const double scale = probeMs > 0 ? kProbeRefMs / probeMs : 0.0;
    out.add("setup_s", setupS, "s");
    out.add("ref_ms_per_op_p10", msP10 * scale, "ms");
    out.add("ref_cpu_ms_per_op_p10", cpuMsP10 * scale, "ms");
    out.add("peak_rss_mib", rssMib, "MiB");
    out.add("ok_ratio", 1.0 - out.tally.ratio(), "ratio");
    out.notes.push_back("op = one " + opName + "; " + groupName + "; "
                        + std::to_string(s.opMs.size()) + " ops, "
                        + std::to_string(s.groupSamples()) + " samples in "
                        + std::to_string(s.msByGroup.size()) + " groups in "
                        + fmt(s.seconds) + " s");
    out.notes.push_back("op_ms_tail " + fmt(quantile(s.opMs, tail / 1000.0))
                        + " ms (" + percentileName(tail) + ", the highest "
                        "ladder percentile with >= 10 ops beyond it)");
    out.notes.push_back("ms_per_op_p10 " + fmt(msP10) + " ms, cpu_ms_per_op_p10 "
                        + fmt(cpuMsP10) + " ms (unscaled)");
    out.notes.push_back("ms_per_op_p50 " + fmt(meanQuantile(s.msByGroup, 0.5))
                        + " ms (mean of the groups' medians, unscaled)");
    out.notes.push_back("host_probe_ms " + fmt(probeMs) + " (median of "
                        + std::to_string(s.probeMs.size()) + "; reference "
                        + fmt(kProbeRefMs) + " ms)");
}

/** The CPUs the calling thread may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Restrict the calling thread to @p cpus. */
void
pinThread(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

/** What table3 prepares before its first timed pass. */
struct Table3Setup
{
    StudyConfig cfg;
    std::shared_ptr<const study::Workloads> work;
    std::optional<BaselineCheck> baseline;
    std::string error;
};

Table3Setup
setUpTable3(const Options &opts)
{
    Table3Setup s;
    s.cfg = paperConfig(opts.seed);
    if (auto err = study::validateConfig(s.cfg)) {
        s.error = study::describe(*err);
        return s;
    }
    s.work = study::buildWorkloads(s.cfg);
    s.baseline = BaselineCheck::load(opts.baselinePath, &s.error);
    return s;
}

/** What sweep_small prepares before its first timed config. */
struct SweepSetup
{
    std::vector<StudyConfig> pool;
    std::vector<std::uint64_t> hashes;
    bool ok = false;
};

constexpr std::size_t kSweepPool = 64;

SweepSetup
setUpSweep(const Options &opts)
{
    SweepSetup s;
    s.pool = smallConfigPool(opts.seed, kSweepPool);
    for (const StudyConfig &c : s.pool) {
        if (study::validateConfig(c))
            return s;
        s.hashes.push_back(study::studyConfigHash(c));
    }
    (void)study::MappingRegistry::builtin();
    s.ok = true;
    return s;
}

/**
 * setup_s for table3 and sweep_small: the median over kSetupReps
 * spawns of this harness in --setup-only mode, from spawn until the
 * child has set up and says so, so process start, static
 * initialisation and the workload's set-up are all in it.
 */
double
spawnedSetupSeconds(const Options &opts)
{
    std::vector<double> seconds;
    for (unsigned i = 0; i < kSetupReps; ++i) {
        const double s = secondsUntilReady(
            {"/proc/self/exe", "--workload", opts.workload, "--seed",
             std::to_string(opts.seed), "--seconds", "1", "--trace", "0",
             "--daemon", opts.daemonBinary, "--out-dir", opts.outDir,
             "--baseline", opts.baselinePath, "--setup-only", "1"});
        if (s < 0)
            return -1.0;
        seconds.push_back(s);
    }
    return median(seconds);
}

/** The table3 workload: serial passes over the paper grid. */
RunOutput
runTable3(const Options &opts)
{
    RunOutput out;
    const double setupS = spawnedSetupSeconds(opts);
    Table3Setup setup = setUpTable3(opts);
    if (setupS < 0 || !setup.baseline) {
        out.notes.push_back("table3 set-up failed: " + setup.error);
        return out;
    }
    const StudyConfig &cfg = setup.cfg;
    const study::Workloads *work = setup.work.get();
    const BaselineCheck *baseline = &*setup.baseline;

    std::vector<double> passMs, passCpuMs, probeMs;
    std::vector<study::RunResult> last;
    // On a shared host each CPU is slowed by its own neighbours, for
    // seconds to minutes at a time, independently of the others. A
    // serial pass that stays on one CPU can be slowed for the whole
    // run, so the passes take the allowed CPUs in turn and the fastest
    // tenth comes from whichever CPU was least disturbed.
    const std::vector<int> cpus = allowedCpus();
    const std::int64_t start = wallNs();
    const auto end = after(opts.seconds);
    for (std::size_t pass = 0; Clock::now() < end; ++pass) {
        if (!cpus.empty())
            pinThread({cpus[pass % cpus.size()]});
        probeMs.push_back(hostProbeMs());
        const std::int64_t t0 = wallNs();
        const std::int64_t c0 = threadCpuNs();
        std::vector<study::RunResult> results;
        for (const study::Cell &c : study::allCells()) {
            results.push_back((*study::MappingRegistry::builtin().find(
                c.machine, c.kernel))(cfg, *work));
        }
        std::ostringstream docs;
        study::writeBenchReportJson(study::buildBenchReport(cfg, results),
                                    docs);
        hw::writeHwReport(docs, hw::HwRegistry::global().report(
                                    study::studyConfigHashHex(cfg)));
        passCpuMs.push_back(static_cast<double>(threadCpuNs() - c0) / 1e6);
        passMs.push_back(static_cast<double>(wallNs() - t0) / 1e6);
        baseline->tally(results, out.tally);
        last = std::move(results);
    }
    pinThread(cpus);
    Samples samples;
    samples.opMs = passMs;
    samples.msByGroup = {passMs};
    samples.cpuMsByGroup = {passCpuMs};
    samples.probeMs = probeMs;
    samples.seconds = static_cast<double>(wallNs() - start) / 1e9;
    addEndToEnd(out, setupS, samples, selfPeakRssMib(),
                "serial pass over the 15 paper-config cells plus its "
                "bench.v1 and hw.v1 documents",
                "one group, the pass (CPU: thread CPU time)");

    const unsigned tail = tailPermille(passMs.size());
    out.notes.push_back("grid_s_p50 " + fmt(median(passMs) / 1e3) + " s");
    out.notes.push_back("grid_s_tail " + fmt(quantile(passMs, tail / 1e3) / 1e3)
                        + " s (" + percentileName(tail) + " of "
                        + std::to_string(passMs.size()) + " passes)");
    out.notes.push_back("grid_cpu_s_p50 " + fmt(median(passCpuMs) / 1e3)
                        + " s");
    out.notes.push_back("paper_err_pct " + fmt(paperErrPct(last)) + " %");
    return out;
}

/** The sweep_small workload: seeded small configs, closed loop. */
RunOutput
runSweepSmall(const Options &opts)
{
    constexpr unsigned kWorkers = 2;
    constexpr std::size_t kPool = kSweepPool;
    constexpr std::size_t kProbeEvery = 4;   // configs per probe
    RunOutput out;
    const double setupS = spawnedSetupSeconds(opts);
    const SweepSetup setup = setUpSweep(opts);
    if (setupS < 0 || !setup.ok) {
        out.notes.push_back("sweep_small set-up failed: the generator "
                            "made an invalid config");
        return out;
    }
    const std::vector<StudyConfig> &pool = setup.pool;
    const std::vector<std::uint64_t> &hashes = setup.hashes;

    // Rounds over the pool in a seeded order, so every config repeats
    // and its cycles are checked against its first run.
    RepeatCheck repeats;
    Rng order(opts.seed);
    std::vector<std::size_t> idx(kPool);
    Samples samples;
    samples.msByGroup.resize(kPool);
    samples.cpuMsByGroup.resize(kPool);
    std::vector<double> &configMs = samples.opMs;
    const std::int64_t start = wallNs();
    const auto end = after(opts.seconds);
    for (std::size_t n = 0; Clock::now() < end; ++n) {
        if (n % kPool == 0) {
            for (std::size_t i = 0; i < kPool; ++i)
                idx[i] = i;
            for (std::size_t i = kPool - 1; i > 0; --i)
                std::swap(idx[i], idx[order.nextBelow(i + 1)]);
        }
        if (n % kProbeEvery == 0)
            samples.probeMs.push_back(hostProbeMs());
        const std::size_t k = idx[n % kPool];
        const std::int64_t c0 = processCpuNs();
        const std::int64_t t0 = wallNs();
        if (study::validateConfig(pool[k])) {
            out.tally.add(false);
        } else {
            study::ParallelRunner runner(pool[k], kWorkers, nullptr,
                                         study::ParallelRunner::noCache());
            const auto results = runner.runAll();
            for (const study::RunResult &r : results)
                out.tally.add(repeats.passes(hashes[k], r));
        }
        const double ms = static_cast<double>(wallNs() - t0) / 1e6;
        configMs.push_back(ms);
        samples.msByGroup[k].push_back(ms);
        samples.cpuMsByGroup[k].push_back(
            static_cast<double>(processCpuNs() - c0) / 1e6);
    }
    samples.seconds = static_cast<double>(wallNs() - start) / 1e9;
    addEndToEnd(out, setupS, samples, selfPeakRssMib(),
                "small config validated, synthesised and run on all 15 "
                "cells by a 2-worker ParallelRunner without a cache",
                "one group per pool config (CPU: process CPU time, both "
                "workers)");
    const double seconds = samples.seconds;
    out.notes.push_back("sweep_configs_per_s "
                        + fmt(static_cast<double>(configMs.size()) / seconds)
                        + " 1/s");
    out.notes.push_back("sweep_config_ms_p50 " + fmt(median(configMs))
                        + " ms");
    out.notes.push_back("sweep_config_ms_p99 " + fmt(quantile(configMs, 0.99))
                        + " ms");
    return out;
}

int
usage(const char *why)
{
    std::cerr << "perfbench_harness: " << why
              << "\nusage: perfbench_harness --workload "
                 "table3|sweep_small --seed N --seconds S "
                 "--trace 0|1 --daemon PATH --out-dir DIR --baseline PATH\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    bool setupOnly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                opts.workload = v;
            else if (flag == "--seed")
                opts.seed = std::stoull(v);
            else if (flag == "--seconds")
                opts.seconds = std::stod(v);
            else if (flag == "--trace")
                opts.trace = v == "1";
            else if (flag == "--daemon")
                opts.daemonBinary = v;
            else if (flag == "--out-dir")
                opts.outDir = v;
            else if (flag == "--baseline")
                opts.baselinePath = v;
            else if (flag == "--setup-only")
                setupOnly = v == "1";
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (opts.workload != "table3" && opts.workload != "sweep_small")
        return usage("unknown workload");
    if (!(opts.seconds > 0) || opts.daemonBinary.empty()
        || opts.outDir.empty() || opts.baselinePath.empty())
        return usage("need --seconds > 0, --daemon, --out-dir, --baseline");

    if (setupOnly) {
        // Child of spawnedSetupSeconds(): set up, report, exit.
        const bool ok = opts.workload == "table3"
                            ? setUpTable3(opts).baseline.has_value()
                            : setUpSweep(opts).ok;
        std::cout << (ok ? "ready" : "failed") << std::endl;
        return ok ? 0 : 1;
    }

    RunOutput out = opts.trace                     ? runTraced(opts)
                    : opts.workload == "table3" ? runTable3(opts)
                                                : runSweepSmall(opts);

    if (out.tally.attempted == 0) {
        for (const std::string &line : out.notes)
            std::cerr << "perfbench_harness: " << line << "\n";
        std::cerr << "perfbench_harness: no operation was attempted\n";
        return 1;
    }
    for (const std::string &line : out.notes)
        std::cout << "# " << line << "\n";
    for (const Metric &m : out.metrics)
        std::cout << "# " << m.name << " " << m.value << " " << m.unit << "\n";
    std::cout << "# fail_ratio " << out.tally.ratio() << " ("
              << out.tally.failed << " of " << out.tally.attempted
              << " operations failed)\n";

    using triarch::json::Writer;
    std::ostringstream line;
    Writer w(line);
    w.beginObject(Writer::Style::Compact);
    w.member("correct", out.checksOk && out.tally.failed == 0
                            && out.tally.attempted > 0);
    w.member("attempted", out.tally.attempted);
    w.member("failed", out.tally.failed);
    w.key("metrics").beginObject(Writer::Style::Compact);
    for (const Metric &m : out.metrics) {
        w.key(m.name).beginObject(Writer::Style::Compact);
        w.member("value", std::isfinite(m.value) ? m.value : 0.0);
        w.member("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    w.finish();
    std::cout << line.str() << std::endl;
    return 0;
}
