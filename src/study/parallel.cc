#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <thread>

#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "study/machine_info.hh"
#include "study/registry.hh"

namespace triarch::study
{

std::vector<Cell>
allCells()
{
    std::vector<Cell> cells;
    cells.reserve(allMachines().size() * allKernels().size());
    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels())
            cells.push_back({machine, kernel});
    }
    return cells;
}

double
cellCostEstimate(const Cell &cell, const StudyConfig &cfg)
{
    // Host ns per work unit, per machine (PPC, AltiVec, VIRAM,
    // Imagine, Raw): the paper config's traced run_ms medians (4-vCPU
    // Sapphire Rapids VM) divided by its work sizes of 1024^2 words,
    // 4 x 73 x 128 points and 1608 x 4 x 8 outputs.
    static constexpr double kCornerTurnNsPerWord[] = {98, 41, 24, 21,
                                                      117};
    static constexpr double kCslcNsPerPoint[] = {583, 368, 293, 131,
                                                 1844};
    static constexpr double kBeamNsPerOutput[] = {60, 27, 16, 9, 204};

    const auto m = static_cast<std::size_t>(cell.machine);
    if (m >= std::size(kCornerTurnNsPerWord))
        triarch_panic("unknown machine id ", m);
    switch (cell.kernel) {
      case KernelId::CornerTurn:
        return kCornerTurnNsPerWord[m] * double(cfg.matrixSize)
               * double(cfg.matrixSize);
      case KernelId::Cslc:
        return kCslcNsPerPoint[m] * double(cfg.cslc.channels())
               * double(cfg.cslc.subBands)
               * double(cfg.cslc.subBandLen);
      case KernelId::BeamSteering:
        return kBeamNsPerOutput[m] * double(cfg.beam.elements)
               * double(cfg.beam.directions) * double(cfg.beam.dwells);
    }
    triarch_panic("unknown kernel id ", static_cast<int>(cell.kernel));
}

std::vector<std::size_t>
claimOrder(const std::vector<Cell> &cells, const StudyConfig &cfg)
{
    std::vector<double> cost(cells.size());
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cost[i] = cellCostEstimate(cells[i], cfg);
        order[i] = i;
    }
    // A total order (the index breaks ties), so std::sort keeps
    // request order among equal estimates.
    std::sort(order.begin(), order.end(),
              [&cost](std::size_t a, std::size_t b) {
                  return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
              });
    return order;
}

ResultCache *
ParallelRunner::defaultCache()
{
    return &ResultCache::global();
}

ParallelRunner::ParallelRunner(StudyConfig run_config,
                               unsigned num_threads,
                               const MappingRegistry *mappings,
                               ResultCache *cache)
    : cfg(std::move(run_config)),
      cfgHash(studyConfigHash(cfg)),
      nthreads(num_threads),
      mappings(mappings ? mappings : &MappingRegistry::builtin()),
      cache(cache),
      work(buildWorkloads(cfg))
{
    schedGroup.addAtomicScalar("batches", &nBatches,
                               "cell batches submitted");
    schedGroup.addAtomicScalar("cells_run", &nCellsRun,
                               "cells executed by workers");
    schedGroup.addAtomicScalar("cells_cached", &nCellsCached,
                               "cells served from the result cache");
    schedGroup.addAtomicScalar("cells_missing", &nCellsMissing,
                               "cells with no registered mapping");
    schedGroup.addHistogram("cell_host_ns", &cellHostNs,
                            "host ns per executed cell mapping");
    schedGroup.addHistogram("queue_wait_ns", &queueWaitNs,
                            "host ns a cell waited for a worker");
    metrics::MetricsRegistry::global().registerLive(&schedGroup);
}

ParallelRunner::~ParallelRunner()
{
    // Keep the final counts visible in --stats documents written
    // after the runner is gone.
    metrics::MetricsRegistry::global().capture(schedGroup,
                                               "scheduler");
    metrics::MetricsRegistry::global().unregisterLive(&schedGroup);
}

RunOutcome
ParallelRunner::tryRun(MachineId machine, KernelId kernel)
{
    return tryRunCells({{machine, kernel}}).front();
}

RunResult
ParallelRunner::run(MachineId machine, KernelId kernel)
{
    return runCells({{machine, kernel}}).front();
}

std::vector<RunResult>
ParallelRunner::runAll()
{
    return runCells(allCells());
}

std::vector<RunResult>
ParallelRunner::runCells(const std::vector<Cell> &cells)
{
    std::vector<RunOutcome> outcomes = tryRunCells(cells);
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (RunOutcome &outcome : outcomes) {
        if (auto *err = std::get_if<MappingError>(&outcome))
            triarch_fatal(err->message);
        results.push_back(std::get<RunResult>(std::move(outcome)));
    }
    return results;
}

std::vector<RunOutcome>
ParallelRunner::tryRunCells(const std::vector<Cell> &cells)
{
    std::vector<RunOutcome> outcomes(cells.size(),
                                     RunOutcome{MappingError{}});

    // Grab the session once so every event in this batch goes to the
    // same place even if tracing stops mid-batch.
    trace::TraceSession *ts = trace::TraceSession::active();
    const double batchStartUs = ts ? ts->nowUs() : 0.0;
    // Host-time histograms use their own clock so queue_wait survives
    // in --stats documents even when no trace session is attached.
    const bool hostOn = host::profilingEnabled();
    const std::uint64_t batchStartNs = hostOn ? host::nowNs() : 0;
    ++nBatches;

    auto cellLabel = [](const Cell &cell) {
        return machineToken(cell.machine) + "/"
               + kernelToken(cell.kernel);
    };

    // Serve what the cache already has, in request order; queue the
    // rest, heaviest estimate first.
    std::vector<bool> served(cells.size(), false);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cache) {
            const double lookupUs = ts ? ts->nowUs() : 0.0;
            if (auto hit = cache->get(cells[i].machine,
                                      cells[i].kernel, cfgHash)) {
                outcomes[i] = std::move(*hit);
                served[i] = true;
                ++nCellsCached;
                if (ts) {
                    ts->span(cellLabel(cells[i]), "cell", lookupUs,
                             ts->nowUs() - lookupUs,
                             {{"cached", 1.0}});
                }
            }
        }
    }
    std::vector<std::size_t> pending;
    for (std::size_t i : claimOrder(cells, cfg)) {
        if (!served[i])
            pending.push_back(i);
    }
    if (ts && cache) {
        ts->counter("cache.hits",
                    static_cast<double>(cache->hits()));
        ts->counter("cache.misses",
                    static_cast<double>(cache->misses()));
    }
    if (pending.empty())
        return outcomes;

    // Each worker claims queue slots with an atomic ticket; results
    // land in the outcome slot of their cell, so the output order is
    // scheduling-independent. When tracing, each executed cell gets
    // a span on its worker's lane from the moment the ticket was
    // claimed, carrying the queue wait as an arg and the raw mapping
    // execution as a nested "execute" span.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t ticket =
                next.fetch_add(1, std::memory_order_relaxed);
            if (ticket >= pending.size())
                return;
            const std::size_t slot = pending[ticket];
            const Cell &cell = cells[slot];
            const double pickUs = ts ? ts->nowUs() : 0.0;
            const std::uint64_t pickNs = hostOn ? host::nowNs() : 0;
            const KernelMapping *mapping =
                mappings->find(cell.machine, cell.kernel);
            if (!mapping) {
                outcomes[slot] =
                    mappings->missing(cell.machine, cell.kernel);
                ++nCellsMissing;
                continue;
            }
            const double execUs = ts ? ts->nowUs() : 0.0;
            RunResult result = (*mapping)(cfg, *work);
            if (hostOn) {
                const std::uint64_t doneNs = host::nowNs();
                cellHostNs.record(doneNs - pickNs);
                queueWaitNs.record(pickNs - batchStartNs);
            }
            if (ts) {
                ts->span("execute", "cell", execUs,
                         ts->nowUs() - execUs);
            }
            if (cache)
                cache->put(result, cfgHash);
            outcomes[slot] = std::move(result);
            ++nCellsRun;
            if (ts) {
                ts->span(cellLabel(cell), "cell", pickUs,
                         ts->nowUs() - pickUs,
                         {{"queue_wait_us", pickUs - batchStartUs}});
                ts->counter(
                    "scheduler.cells_done",
                    static_cast<double>(nCellsRun.value()
                                        + nCellsCached.value()));
                // Epoch-sampled hardware counters for the cell the
                // mapping just captured, placed across the measured
                // execution window in simulated-epoch order so
                // Perfetto draws each channel as a counter track.
                if (auto cellHw = hw::HwRegistry::global().find(
                        machineToken(cell.machine),
                        kernelToken(cell.kernel))) {
                    const double spanUs = ts->nowUs() - execUs;
                    const std::size_t epochs =
                        cellHw->timeline.epochs();
                    for (const hw::EpochChannel &ch :
                         cellHw->timeline.channels) {
                        const std::string name =
                            cellLabel(cell) + ".hw." + ch.name;
                        for (std::size_t e = 0; e < epochs; ++e) {
                            const double atUs =
                                epochs > 1
                                    ? execUs + spanUs
                                                   * static_cast<
                                                       double>(e)
                                                   / static_cast<
                                                       double>(epochs
                                                               - 1)
                                    : execUs;
                            ts->counterAt(
                                name, atUs,
                                static_cast<double>(ch.counts[e]));
                        }
                    }
                }
            }
        }
    };

    unsigned n = nthreads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 4;
    }
    if (n > pending.size())
        n = static_cast<unsigned>(pending.size());

    if (n <= 1) {
        worker();
        return outcomes;
    }

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
        pool.emplace_back([&, t]() {
            if (ts)
                ts->nameThread("worker-" + std::to_string(t));
            worker();
        });
    }
    for (std::thread &t : pool)
        t.join();
    return outcomes;
}

} // namespace triarch::study
