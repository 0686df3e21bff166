#include "checks.hh"

#include <cmath>

namespace perfbench
{

using triarch::study::RunResult;

std::optional<BaselineCheck>
BaselineCheck::load(const std::string &path, std::string *error)
{
    auto report = triarch::study::loadBenchReportFile(path, error);
    if (!report)
        return std::nullopt;
    return BaselineCheck(std::move(*report));
}

bool
BaselineCheck::passes(const RunResult &result) const
{
    const triarch::study::BenchCell *cell =
        baseline.find(result.machine, result.kernel);
    return cell && result.validated && cell->validated
           && result.cycles == cell->cycles
           && result.measuredUnbalanced == cell->measuredUnbalanced
           && result.breakdown == cell->breakdown;
}

void
BaselineCheck::tally(const std::vector<RunResult> &results,
                     FailTally &into) const
{
    for (const RunResult &r : results)
        into.add(passes(r));
}

bool
RepeatCheck::passes(std::uint64_t config_hash, const RunResult &result)
{
    const Key key{config_hash, static_cast<unsigned>(result.machine),
                  static_cast<unsigned>(result.kernel)};
    const auto [it, first] = seen.emplace(key, result.cycles);
    return result.validated && (first || it->second == result.cycles);
}

double
paperErrPct(const std::vector<RunResult> &results)
{
    if (results.empty())
        return 0.0;
    double sum = 0.0;
    for (const RunResult &r : results) {
        const double paper =
            triarch::study::paperTable3Kcycles(r.machine, r.kernel);
        sum += std::fabs(static_cast<double>(r.cycles) / 1000.0 - paper)
               / paper;
    }
    return 100.0 * sum / static_cast<double>(results.size());
}

} // namespace perfbench
