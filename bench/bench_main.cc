#include "bench_main.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "mem/mem_mode.hh"
#include "raw/config.hh"
#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "study/cli_options.hh"
#include "study/registry.hh"
#include "study/study_json.hh"

namespace triarch::bench
{

namespace
{

using study::KernelId;
using study::MachineId;

bool
parseMachine(const std::string &tok, MachineId &out)
{
    const std::string t = study::lowered(tok);
    for (MachineId id : study::allMachines()) {
        if (t == study::machineToken(id)
            || t == study::lowered(study::machineName(id))) {
            out = id;
            return true;
        }
    }
    return false;
}

bool
parseKernel(const std::string &tok, KernelId &out)
{
    const std::string t = study::lowered(tok);
    for (KernelId id : study::allKernels()) {
        std::string name = study::lowered(study::kernelName(id));
        std::erase(name, ' ');
        if (t == study::kernelToken(id) || t == name) {
            out = id;
            return true;
        }
    }
    return false;
}

} // namespace

BenchContext::BenchContext(BenchOptions run_options)
    : opts(std::move(run_options))
{
    if (opts.machines.empty())
        opts.machines = study::allMachines();
    if (opts.kernels.empty())
        opts.kernels = study::allKernels();
    cfg.seed = opts.seed;
}

BenchContext::~BenchContext() = default;

study::ParallelRunner &
BenchContext::runner()
{
    if (!par) {
        par = std::make_unique<study::ParallelRunner>(cfg,
                                                      opts.threads);
    }
    return *par;
}

std::vector<study::Cell>
BenchContext::selectedCells() const
{
    std::vector<study::Cell> cells;
    cells.reserve(opts.machines.size() * opts.kernels.size());
    for (MachineId machine : opts.machines) {
        for (KernelId kernel : opts.kernels)
            cells.push_back({machine, kernel});
    }
    return cells;
}

const std::vector<study::RunResult> &
BenchContext::results()
{
    if (!haveResults) {
        cellResults = runner().runCells(selectedCells());
        sink().add(cellResults);
        haveResults = true;
    }
    return cellResults;
}

const std::vector<study::RunResult> &
BenchContext::allResults()
{
    if (!haveGrid) {
        const auto covers = [](const auto &selected, const auto &all) {
            return std::all_of(all.begin(), all.end(), [&](auto id) {
                return std::find(selected.begin(), selected.end(), id)
                       != selected.end();
            });
        };
        if (!covers(opts.machines, study::allMachines())
            || !covers(opts.kernels, study::allKernels())) {
            std::cerr << opts.prog << ": " << opts.prog
                      << " draws the full 5x3 grid; --machines and "
                         "--kernels cannot narrow it\n";
            std::exit(2);
        }
        gridResults = runner().runAll();
        sink().add(gridResults);
        haveGrid = true;
    }
    return gridResults;
}

study::ResultSink &
BenchContext::sink()
{
    if (!out)
        out = std::make_unique<study::ResultSink>(cfg);
    return *out;
}

int
benchMain(int argc, char **argv, const char *description,
          BenchBody body)
{
    BenchOptions opts;
    study::CliOptions cli(description);

    cli.value("--machines", "a,b,...",
              "platforms to run "
              "(ppc, altivec, viram, imagine, raw, or all; "
              "default all)",
              [&](const std::string &v) {
                  for (const std::string &tok : study::splitList(v)) {
                      if (study::lowered(tok) == "all") {
                          for (MachineId id : study::allMachines())
                              opts.machines.push_back(id);
                          continue;
                      }
                      MachineId id;
                      if (!parseMachine(tok, id)) {
                          std::cerr << cli.prog()
                                    << ": unknown machine '" << tok
                                    << "'\n";
                          return 2;
                      }
                      opts.machines.push_back(id);
                  }
                  return 0;
              });
    cli.value("--kernels", "a,b,...",
              "kernels to run (ct, cslc, bs, or all; default all)",
              [&](const std::string &v) {
                  for (const std::string &tok : study::splitList(v)) {
                      if (study::lowered(tok) == "all") {
                          for (KernelId id : study::allKernels())
                              opts.kernels.push_back(id);
                          continue;
                      }
                      KernelId id;
                      if (!parseKernel(tok, id)) {
                          std::cerr << cli.prog()
                                    << ": unknown kernel '" << tok
                                    << "'\n";
                          return 2;
                      }
                      opts.kernels.push_back(id);
                  }
                  return 0;
              });
    // 0 stays valid (hardware concurrency, as documented in --help);
    // the cap stops silent 32-bit truncation.
    cli.number("--threads", "N",
               "worker threads (default 0 = hardware concurrency)",
               std::numeric_limits<unsigned>::max(),
               [&](std::uint64_t n) {
                   opts.threads = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--seed", "N", "workload synthesis seed (default 11)",
               std::numeric_limits<std::uint64_t>::max(),
               [&](std::uint64_t n) {
                   opts.seed = n;
                   return 0;
               });
    cli.value("--json", "PATH", "write structured results JSON",
              [&](const std::string &v) {
                  opts.jsonPath = v;
                  return 0;
              });
    cli.toggle("--csv",
               "machine-readable table output where supported",
               [&]() {
                   opts.csv = true;
                   return 0;
               });
    cli.value("--trace", "PATH",
              "write a Chrome trace-event JSON timeline "
              "(chrome://tracing, Perfetto)",
              [&](const std::string &v) {
                  opts.tracePath = v;
                  return 0;
              });
    cli.value("--stats", "PATH",
              "write a triarch.stats.v1 counters document",
              [&](const std::string &v) {
                  opts.statsPath = v;
                  return 0;
              });
    cli.value("--hw", "PATH",
              "write a triarch.hw.v1 per-cell utilization report "
              "(hit rates, epoch timelines, bottleneck verdicts)",
              [&](const std::string &v) {
                  opts.hwPath = v;
                  return 0;
              });
    cli.value("--mem-model", "MODE",
              "PPC/VIRAM/Imagine memory walk: span (default, batched "
              "D13 fast path) or reference (word-at-a-time baseline)",
              [&](const std::string &v) {
                  if (v == "span") {
                      mem::setDefaultMemModel(mem::MemModel::Span);
                  } else if (v == "reference") {
                      mem::setDefaultMemModel(
                          mem::MemModel::Reference);
                  } else {
                      std::cerr << cli.prog()
                                << ": --mem-model wants span or "
                                   "reference, got '"
                                << v << "'\n";
                      return 2;
                  }
                  return 0;
              });
    cli.value("--raw-stepper", "MODE",
              "Raw interpreter loop: event (default) or reference "
              "(the cycle-at-a-time differential baseline)",
              [&](const std::string &v) {
                  if (v == "event") {
                      raw::setDefaultRawStepper(raw::RawStepper::Event);
                  } else if (v == "reference") {
                      raw::setDefaultRawStepper(
                          raw::RawStepper::Reference);
                  } else {
                      std::cerr << cli.prog()
                                << ": --raw-stepper wants event or "
                                   "reference, got '"
                                << v << "'\n";
                      return 2;
                  }
                  return 0;
              });
    cli.toggle("--host-stats",
               "record host-time histograms (wall clock) into the "
               "--stats document",
               [&]() {
                   opts.hostStats = true;
                   return 0;
               });
    cli.toggle("--host",
               "measure host time per cell and emit a bench host "
               "section where supported",
               [&]() {
                   opts.hostSection = true;
                   return 0;
               });
    cli.number("--host-warmup", "N",
               "unmeasured host iterations per cell (default 1)",
               std::numeric_limits<unsigned>::max(),
               [&](std::uint64_t n) {
                   opts.hostWarmup = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--host-reps", "N",
               "measured host iterations per cell (default 5; the "
               "measurement contract wants 30+)",
               std::numeric_limits<unsigned>::max(),
               [&](std::uint64_t n) {
                   opts.hostReps = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--pin", "N", "pin host measurement to core N", 4095,
               [&](std::uint64_t n) {
                   opts.pinCpu = static_cast<int>(n);
                   return 0;
               });
    cli.logLevelFlag();

    if (const auto rc = cli.parse(argc, argv))
        return *rc;
    const char *prog = cli.prog();
    opts.prog = prog;

    study::ensureParentDir("--json", opts.jsonPath, prog);
    study::ensureParentDir("--trace", opts.tracePath, prog);
    study::ensureParentDir("--stats", opts.statsPath, prog);
    study::ensureParentDir("--hw", opts.hwPath, prog);

    if (opts.hostStats)
        host::setProfiling(true);

    // The session must outlive the context: the runner's worker
    // threads (and their buffered events) drain in ~BenchContext.
    std::unique_ptr<trace::TraceSession> session;
    if (!opts.tracePath.empty()) {
        session = std::make_unique<trace::TraceSession>();
        session->start();
    }

    int rc;
    {
        BenchContext ctx(opts);
        rc = body(ctx);

        if (rc == 0 && !opts.jsonPath.empty()) {
            ctx.sink().metadata("bench", prog);
            ctx.sink().metadata("threads",
                                std::to_string(opts.threads));
            ctx.sink().writeJsonFile(opts.jsonPath);
            std::cout << "\nresults written to " << opts.jsonPath
                      << "\n";
        }
        if (rc == 0 && !opts.hwPath.empty()) {
            // Snapshot of every cell the body ran; label-sorted, so
            // the bytes are independent of threads and run order.
            const hw::HwReport report = hw::HwRegistry::global().report(
                study::studyConfigHashHex(ctx.config()));
            std::ofstream os(opts.hwPath,
                             std::ios::binary | std::ios::trunc);
            writeHwReport(os, report);
            if (!os) {
                std::cerr << prog << ": cannot write " << opts.hwPath
                          << "\n";
                rc = 1;
            } else {
                std::cout << "hw report written to " << opts.hwPath
                          << "\n";
            }
        }
    }

    // Write the trace even when the body failed — a timeline of the
    // run that went wrong is exactly what a trace is for.
    if (session) {
        session->stop();
        session->writeJsonFile(opts.tracePath);
        std::cout << "trace written to " << opts.tracePath;
        if (rc != 0)
            std::cout << " (bench body failed with exit code " << rc
                      << ")";
        std::cout << "\n";
    }
    if (rc == 0 && !opts.statsPath.empty()) {
        metrics::MetricsRegistry::global().writeJsonFile(
            opts.statsPath);
        std::cout << "stats written to " << opts.statsPath << "\n";
    }
    return rc;
}

} // namespace triarch::bench
