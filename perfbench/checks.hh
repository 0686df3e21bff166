/**
 * @file
 * The benchmark's correctness checks, folded into one failure count
 * per run: every operation (a simulated cell or a daemon job) is
 * attempted once and either passes its check or counts as failed.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "study/bench_report.hh"
#include "study/experiment.hh"

namespace perfbench
{

/** Attempted vs failed operations. */
struct FailTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }

    void
    merge(const FailTally &other)
    {
        attempted += other.attempted;
        failed += other.failed;
    }

    /** failed / attempted (0 when nothing was attempted). */
    double
    ratio() const
    {
        return attempted ? static_cast<double>(failed) / attempted : 0.0;
    }
};

/**
 * A paper-config cell passes when it validated and its cycles, Raw
 * CSLC measured cycles and D9 breakdown equal the committed
 * triarch.bench.v1 baseline's cell exactly.
 */
class BaselineCheck
{
  public:
    explicit BaselineCheck(triarch::study::BenchReport baseline_report)
        : baseline(std::move(baseline_report))
    {
    }

    /** Load a baseline file; nullopt with *error on failure. */
    static std::optional<BaselineCheck> load(const std::string &path,
                                             std::string *error);

    bool passes(const triarch::study::RunResult &result) const;

    /** Add one tally entry per result. */
    void tally(const std::vector<triarch::study::RunResult> &results,
               FailTally &into) const;

    const triarch::study::BenchReport &report() const { return baseline; }

  private:
    triarch::study::BenchReport baseline;
};

/**
 * A small-config cell passes when it validated and its cycles equal
 * those of every earlier run of the same (config, machine, kernel):
 * the first run of a cell records its cycles, later runs compare.
 */
class RepeatCheck
{
  public:
    bool passes(std::uint64_t config_hash,
                const triarch::study::RunResult &result);

  private:
    using Key = std::tuple<std::uint64_t, unsigned, unsigned>;
    std::map<Key, triarch::Cycles> seen;
};

/** Mean absolute % error of the results' cycles against the paper's
 *  Table 3 (paperTable3Kcycles); 0 for no results. */
double paperErrPct(const std::vector<triarch::study::RunResult> &results);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
