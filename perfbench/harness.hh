/**
 * @file
 * Declarations shared by the harness's translation units: the run
 * options, the reported metrics, and the workload entry points.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hh"
#include "stats.hh"
#include "tracer.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemonBinary;   //!< the triarchd to spawn
    std::string outDir;         //!< sockets, daemon logs, trace files
    std::string baselinePath;   //!< committed triarch.bench.v1 baseline
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct RunOutput
{
    FailTally tally;
    /** A check outside the per-operation tally failed (e.g. the
     *  traced cycles differ from the mapping's). */
    bool checksOk = true;
    /** The metrics of the final JSON line. */
    std::vector<Metric> metrics;
    /** Human-readable lines printed before it. */
    std::vector<std::string> notes;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Set-up is repeated this many times; setup_s is the median. */
inline constexpr unsigned kSetupReps = 21;

/** The steady-clock time @p seconds from now. */
inline std::chrono::steady_clock::time_point
after(double seconds)
{
    using Clock = std::chrono::steady_clock;
    return Clock::now()
           + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
}

/** Serve-mix client results (serve_mix.cc). */
struct ServeMixResult
{
    FailTally tally;            //!< one entry per request
    std::vector<double> jobMs;  //!< run jobs, request to reply
    std::vector<double> hitJobMs;
    std::vector<double> missJobMs;
    std::vector<double> probeMs;
    std::vector<double> cpuMsPerJobWindows;   //!< daemon /proc CPU
    double seconds = 0.0;       //!< measured wall time
    std::uint64_t verified = 0; //!< miss jobs recomputed in-process
    // From the daemon's own final stats reply.
    double cacheHitRatio = 0.0;
    double coalescedRatio = 0.0;
    double cellsExecuted = 0.0;
    double refused = 0.0;
    bool daemonExitedOk = false;
    std::vector<std::string> notes;
};

/** Run the serve mix for @p seconds; spans go to @p tracer if set. */
ServeMixResult runServeMix(const Options &opts, double seconds,
                           Tracer *tracer);

/** The traced per-layer run (layers.cc). */
RunOutput runTraced(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
