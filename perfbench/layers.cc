/**
 * @file
 * The traced run (--trace 1): the per-layer profile. Spans are opened
 * here, in the benchmark's own code, around calls into each module's
 * public entry points; nothing inside src/ is instrumented. The run
 * has four sections, the same for every workload; the workload only
 * sets how the run's seconds are shared between them:
 *  - grid: untraced and traced passes over the paper config's 15
 *    cells alternate. A traced pass makes the mapping's calls itself
 *    (machine constructor, kernel function, validator, cycleBreakdown
 *    / hwCell / group capture) and emits the bench.v1 and hw.v1
 *    documents; its cycles must equal the builtin mapping's and the
 *    committed baseline's. The difference of the two passes' medians
 *    is the tracing overhead.
 *  - synth: validateConfig, buildWorkloads, and the kernels::
 *    synthesis and reference functions called one by one.
 *  - small: seeded small configs, cell by cell (construction and
 *    accounting costs, which dominate there) and through a 2-worker
 *    ParallelRunner with traced mappings (scheduling efficiency).
 *  - serve: a short serve mix against a spawned triarchd.
 */

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>

#include "configgen.hh"
#include "harness.hh"
#include "imagine/kernels_imagine.hh"
#include "ppc/kernels_ppc.hh"
#include "raw/kernels_raw.hh"
#include "sim/hw_report.hh"
#include "sim/metrics.hh"
#include "stats.hh"
#include "study/bench_report.hh"
#include "study/config_check.hh"
#include "study/parallel.hh"
#include "study/registry.hh"
#include "study/study_json.hh"
#include "viram/kernels_viram.hh"

namespace perfbench
{

namespace
{

using namespace triarch;
using study::Cell;
using study::KernelId;
using study::MachineId;
using study::RunResult;
using study::StudyConfig;
using study::Workloads;

/** Host costs of one traced cell, in ns. */
struct CellTiming
{
    std::int64_t constructNs = 0;
    std::int64_t runNs = 0;
    std::int64_t runCpuNs = 0;
    std::int64_t validateNs = 0;
    std::int64_t accountNs = 0;
    /** Simulated cycles of the run (Raw CSLC: measured, not the
     *  balanced extrapolation). */
    Cycles simulated = 0;
};

/** Where a traced cell's stats and hw snapshots are captured. */
struct Capture
{
    metrics::MetricsRegistry stats;
    hw::HwRegistry hw;
};

/** The src/ module that models a machine. */
const char *
moduleOf(MachineId id)
{
    switch (id) {
    case MachineId::PpcScalar:
    case MachineId::PpcAltivec:
        return "ppc";
    case MachineId::Viram:
        return "viram";
    case MachineId::Imagine:
        return "imagine";
    case MachineId::Raw:
        return "raw";
    }
    return "?";
}

std::string
cellLabel(Cell cell)
{
    return study::machineToken(cell.machine) + "."
           + study::kernelToken(cell.kernel);
}

/**
 * One cell the way its builtin mapping runs it, with each stage in a
 * span: "<module>.<machine>.construct", "<module>.<cell>.run",
 * "kernels.validate_<kernel>", "<module>.<machine>.account".
 */
template <typename M, typename Run>
RunResult
measureCell(Tracer &tr, Cell cell, Run &&run, const StudyConfig &cfg,
           const Workloads &work, CellTiming &t, Capture &cap)
{
    const std::string module = moduleOf(cell.machine);
    const std::string machine = study::machineToken(cell.machine);
    const std::string kernel = study::kernelToken(cell.kernel);
    RunResult result;
    result.machine = cell.machine;
    result.kernel = cell.kernel;

    std::int64_t t0 = wallNs();
    std::optional<M> m;
    {
        auto s = tr.span(module + "." + machine + ".construct");
        m.emplace();
    }
    std::int64_t t1 = wallNs();
    t.constructNs += t1 - t0;

    kernels::WordMatrix dst;
    kernels::CslcOutput out;
    std::vector<std::int32_t> beam;
    const std::int64_t cpu0 = threadCpuNs();
    {
        auto s = tr.span(module + "." + cellLabel(cell) + ".run");
        run(*m, dst, out, beam, result);
    }
    t.runCpuNs += threadCpuNs() - cpu0;
    t0 = wallNs();
    t.runNs += t0 - t1;
    t.simulated += result.measuredUnbalanced.value_or(result.cycles);

    {
        auto s = tr.span("kernels.validate_" + kernel);
        switch (cell.kernel) {
        case KernelId::CornerTurn:
            result.validated = kernels::isTransposeOf(work.matrix, dst);
            break;
        case KernelId::Cslc:
            result.validated = study::cslcOutputValid(
                cfg, work, out,
                cell.machine == MachineId::Imagine
                    ? kernels::FftAlgo::Mixed128
                    : kernels::FftAlgo::Radix2);
            break;
        case KernelId::BeamSteering:
            result.validated = beam == work.beamRef;
            break;
        }
    }
    t1 = wallNs();
    t.validateNs += t1 - t0;

    {
        auto s = tr.span(module + "." + machine + ".account");
        result.breakdown = m->cycleBreakdown(result.cycles);
        hw::HwCell hwCell = m->hwCell(result.cycles, result.breakdown);
        hwCell.machine = machine;
        hwCell.kernel = kernel;
        const std::string label = machine + "." + kernel;
        cap.stats.capture(m->statGroup(), label);
        for (auto &[suffix, group] : m->componentGroups())
            cap.stats.capture(*group, label + "." + suffix);
        cap.hw.capture(std::move(hwCell));
    }
    t.accountNs += wallNs() - t1;
    return result;
}

RunResult
tracedCell(Tracer &tr, Cell cell, const StudyConfig &cfg,
           const Workloads &work, CellTiming &t, Capture &cap)
{
    using Dst = kernels::WordMatrix;
    using Out = kernels::CslcOutput;
    using Beam = std::vector<std::int32_t>;
    const KernelId k = cell.kernel;

    switch (cell.machine) {
    case MachineId::PpcScalar:
    case MachineId::PpcAltivec: {
        const bool vec = cell.machine == MachineId::PpcAltivec;
        return measureCell<ppc::PpcMachine>(
            tr, cell,
            [&](ppc::PpcMachine &m, Dst &dst, Out &out, Beam &beam,
                RunResult &r) {
                if (k == KernelId::CornerTurn)
                    r.cycles = ppc::cornerTurnPpc(m, work.matrix, dst, vec);
                else if (k == KernelId::Cslc)
                    r.cycles = ppc::cslcPpc(m, cfg.cslc, work.cslcIn,
                                            work.weights, out, vec);
                else
                    r.cycles = ppc::beamSteeringPpc(m, cfg.beam,
                                                    work.tables, beam, vec);
            },
            cfg, work, t, cap);
    }
    case MachineId::Viram:
        return measureCell<viram::ViramMachine>(
            tr, cell,
            [&](viram::ViramMachine &m, Dst &dst, Out &out, Beam &beam,
                RunResult &r) {
                if (k == KernelId::CornerTurn)
                    r.cycles = viram::cornerTurnViram(m, work.matrix, dst);
                else if (k == KernelId::Cslc)
                    r.cycles = viram::cslcViram(m, cfg.cslc, work.cslcIn,
                                                work.weights, out);
                else
                    r.cycles = viram::beamSteeringViram(m, cfg.beam,
                                                        work.tables, beam);
            },
            cfg, work, t, cap);
    case MachineId::Imagine:
        return measureCell<imagine::ImagineMachine>(
            tr, cell,
            [&](imagine::ImagineMachine &m, Dst &dst, Out &out, Beam &beam,
                RunResult &r) {
                if (k == KernelId::CornerTurn)
                    r.cycles =
                        imagine::cornerTurnImagine(m, work.matrix, dst);
                else if (k == KernelId::Cslc)
                    r.cycles = imagine::cslcImagine(
                        m, cfg.cslc, work.cslcIn, work.weights, out);
                else
                    r.cycles = imagine::beamSteeringImagine(
                        m, cfg.beam, work.tables, beam);
            },
            cfg, work, t, cap);
    case MachineId::Raw:
        return measureCell<raw::RawMachine>(
            tr, cell,
            [&](raw::RawMachine &m, Dst &dst, Out &out, Beam &beam,
                RunResult &r) {
                if (k == KernelId::CornerTurn) {
                    r.cycles = raw::cornerTurnRaw(m, work.matrix, dst);
                } else if (k == KernelId::Cslc) {
                    const auto r2 = raw::cslcRaw(m, cfg.cslc, work.cslcIn,
                                                 work.weights, out);
                    r.cycles = r2.balancedCycles;
                    r.measuredUnbalanced = r2.cycles;
                } else {
                    r.cycles = raw::beamSteeringRaw(m, cfg.beam,
                                                    work.tables, beam);
                }
            },
            cfg, work, t, cap);
    }
    return {};
}

/** The result fields the traced cell must reproduce exactly. */
bool
sameSimulation(const RunResult &a, const RunResult &b)
{
    return a.machine == b.machine && a.kernel == b.kernel
           && a.cycles == b.cycles
           && a.measuredUnbalanced == b.measuredUnbalanced
           && a.breakdown == b.breakdown && a.validated == b.validated;
}

/** The table3 operation: 15 builtin-mapping cells on fresh machines,
 *  then the bench.v1 and hw.v1 documents rendered into memory. */
std::vector<RunResult>
untracedPass(const StudyConfig &cfg, const Workloads &work)
{
    std::vector<RunResult> results;
    for (const Cell &c : study::allCells())
        results.push_back((*study::MappingRegistry::builtin().find(
            c.machine, c.kernel))(cfg, work));
    std::ostringstream bench;
    study::writeBenchReportJson(study::buildBenchReport(cfg, results),
                                bench);
    const std::string hwDoc = hw::renderHwReport(
        hw::HwRegistry::global().report(study::studyConfigHashHex(cfg)));
    if (bench.str().empty() || hwDoc.empty())
        results.clear();
    return results;
}

/** Section shares of the run's seconds: grid, synth, small, serve. */
struct Shares
{
    double grid, synth, small, serve;
};

Shares
sharesFor(const std::string &workload)
{
    if (workload == "table3")
        return {0.60, 0.10, 0.15, 0.15};
    return {0.25, 0.10, 0.45, 0.20};    // sweep_small
}

using Clock = std::chrono::steady_clock;

double
nsToMs(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

} // namespace

RunOutput
runTraced(const Options &opts)
{
    RunOutput out;
    Tracer tr;
    const Shares share = sharesFor(opts.workload);
    std::string error;
    const auto baseline = BaselineCheck::load(opts.baselinePath, &error);
    if (!baseline) {
        out.notes.push_back("baseline: " + error);
        out.checksOk = false;
        return out;
    }
    const auto cells = study::allCells();

    // ---- grid: alternate untraced and traced paper-config passes.
    const StudyConfig paper = paperConfig(opts.seed);
    const auto paperWork = study::buildWorkloads(paper);
    std::vector<double> untracedMs, tracedMs;
    std::vector<double> emitBenchMs, emitHwMs, emitStatsMs;
    std::map<std::string, std::vector<double>> runMs, runCpuMs;
    std::map<std::string, std::int64_t> machineRunNs;
    std::map<std::string, Cycles> machineCycles;
    std::map<std::string, std::vector<double>> validateMs;
    std::vector<RunResult> tracedResults;
    const auto gridEnd = after(opts.seconds * share.grid);
    do {
        std::int64_t t0 = wallNs();
        const auto builtin = untracedPass(paper, *paperWork);
        untracedMs.push_back(nsToMs(wallNs() - t0));
        baseline->tally(builtin, out.tally);

        Capture cap;
        tracedResults.clear();
        t0 = wallNs();
        std::vector<CellTiming> timing(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            tracedResults.push_back(
                tracedCell(tr, cells[i], paper, *paperWork, timing[i], cap));
        }
        std::int64_t t1 = wallNs();
        {
            auto s = tr.span("sim.emit_bench");
            std::ostringstream os;
            study::writeBenchReportJson(
                study::buildBenchReport(paper, tracedResults), os);
        }
        std::int64_t t2 = wallNs();
        {
            auto s = tr.span("sim.emit_hw");
            (void)hw::renderHwReport(
                cap.hw.report(study::studyConfigHashHex(paper)));
        }
        std::int64_t t3 = wallNs();
        tracedMs.push_back(nsToMs(t3 - t0));
        emitBenchMs.push_back(nsToMs(t2 - t1));
        emitHwMs.push_back(nsToMs(t3 - t2));
        {
            // Not part of the table3 operation, so outside its timing.
            auto s = tr.span("sim.emit_stats");
            (void)cap.stats.toJson();
        }
        emitStatsMs.push_back(nsToMs(wallNs() - t3));

        baseline->tally(tracedResults, out.tally);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (builtin.size() != cells.size()
                || !sameSimulation(builtin[i], tracedResults[i])) {
                out.checksOk = false;
                out.notes.push_back("trace: " + cellLabel(cells[i])
                                    + " differs from its mapping");
            }
            const std::string label = cellLabel(cells[i]);
            runMs[label].push_back(nsToMs(timing[i].runNs));
            runCpuMs[label].push_back(nsToMs(timing[i].runCpuNs));
            validateMs[study::kernelToken(cells[i].kernel)].push_back(
                nsToMs(timing[i].validateNs));
            const std::string m = study::machineToken(cells[i].machine);
            machineRunNs[m] += timing[i].runNs;
            machineCycles[m] += timing[i].simulated;
        }
    } while (Clock::now() < gridEnd || untracedMs.size() < 3);

    // ---- synth: the study entry points, then the kernels:: steps.
    const auto pool = smallConfigPool(opts.seed, 64);
    std::vector<double> validateUs, synthMs, synthCpuMs;
    std::map<std::string, std::vector<double>> kernelMs;
    const auto synthEnd = after(opts.seconds * share.synth);
    for (std::size_t it = 0; Clock::now() < synthEnd || it < 3; ++it) {
        const StudyConfig &cfg =
            opts.workload == "table3" ? paper : pool[it % pool.size()];
        std::int64_t t0 = wallNs();
        bool valid = false;
        {
            auto s = tr.span("study.validate");
            valid = !study::validateConfig(cfg).has_value();
        }
        std::int64_t t1 = wallNs();
        validateUs.push_back(static_cast<double>(t1 - t0) / 1e3);
        std::shared_ptr<const Workloads> work;
        const std::int64_t cpu0 = threadCpuNs();
        {
            auto s = tr.span("study.synth");
            work = study::buildWorkloads(cfg);
        }
        synthCpuMs.push_back(nsToMs(threadCpuNs() - cpu0));
        t0 = wallNs();
        synthMs.push_back(nsToMs(t0 - t1));

        auto step = [&](const char *name, auto &&fn) {
            const std::int64_t s0 = wallNs();
            {
                auto s = tr.span(std::string("kernels.") + name);
                fn();
            }
            kernelMs[name].push_back(nsToMs(wallNs() - s0));
        };
        kernels::WordMatrix matrix;
        kernels::CslcInput in;
        kernels::CslcWeights weights;
        kernels::CslcOutput mixed, radix2;
        kernels::BeamTables tables;
        std::vector<std::int32_t> beamRef;
        step("fill", [&] {
            matrix = kernels::WordMatrix(cfg.matrixSize, cfg.matrixSize);
            kernels::fillMatrix(matrix, cfg.seed);
        });
        step("jam", [&] {
            in = kernels::makeJammedInput(cfg.cslc, cfg.jammerBins, cfg.seed);
        });
        step("weights",
             [&] { weights = kernels::estimateWeights(cfg.cslc, in); });
        step("cslc_ref", [&] {
            mixed = kernels::cslcReference(cfg.cslc, in, weights,
                                           kernels::FftAlgo::Mixed128);
            radix2 = kernels::cslcReference(cfg.cslc, in, weights,
                                            kernels::FftAlgo::Radix2);
        });
        step("beam_ref", [&] {
            tables = kernels::makeBeamTables(cfg.beam, cfg.seed + 1);
            beamRef = kernels::beamSteerReference(cfg.beam, tables);
        });
        if (!valid || !(matrix == work->matrix) || beamRef != work->beamRef
            || mixed.main != work->refMixed.main
            || radix2.main != work->refRadix2.main) {
            out.checksOk = false;
            out.notes.push_back("trace: step-by-step synthesis differs "
                                "from buildWorkloads");
        }
    }

    // ---- small: per-cell fixed costs and 2-worker scheduling.
    std::map<std::string, std::vector<double>> constructMs, accountMs;
    std::vector<double> efficiency;
    const auto smallEnd = after(opts.seconds * share.small);
    for (std::size_t it = 0; Clock::now() < smallEnd || it < 3; ++it) {
        const StudyConfig &cfg = pool[it % pool.size()];
        const auto work = study::buildWorkloads(cfg);
        Capture cap;
        std::vector<RunResult> serial;
        for (const Cell &c : cells) {
            CellTiming t;
            serial.push_back(tracedCell(tr, c, cfg, *work, t, cap));
            const std::string m = study::machineToken(c.machine);
            constructMs[m].push_back(nsToMs(t.constructNs));
            accountMs[m].push_back(nsToMs(t.accountNs));
        }

        // The same cells through a 2-worker ParallelRunner whose
        // mappings are the traced ones: efficiency is the summed
        // cell time over (workers x config wall time).
        std::atomic<std::int64_t> cellNs{0};
        study::MappingRegistry traced;
        for (const Cell &c : cells) {
            traced.add(c.machine, c.kernel,
                       [&tr, &cap, &cellNs, c](const StudyConfig &k,
                                               const Workloads &w) {
                           CellTiming t;
                           const std::int64_t t0 = wallNs();
                           RunResult r = tracedCell(tr, c, k, w, t, cap);
                           cellNs += wallNs() - t0;
                           return r;
                       });
        }
        constexpr unsigned kWorkers = 2;
        const std::int64_t t0 = wallNs();
        std::vector<RunResult> parallel;
        {
            auto s = tr.span("study.parallel");
            study::ParallelRunner runner(cfg, kWorkers, &traced,
                                         study::ParallelRunner::noCache());
            parallel = runner.runAll();
        }
        const std::int64_t wall = wallNs() - t0;
        efficiency.push_back(static_cast<double>(cellNs)
                             / (kWorkers * static_cast<double>(wall)));
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const bool ok = i < parallel.size()
                            && sameSimulation(serial[i], parallel[i])
                            && serial[i].validated;
            out.tally.add(ok);
        }
    }

    // ---- serve: a short mix against a spawned daemon.
    const ServeMixResult serve =
        runServeMix(opts, opts.seconds * share.serve, &tr);
    out.tally.merge(serve.tally);
    out.notes.insert(out.notes.end(), serve.notes.begin(),
                     serve.notes.end());
    out.checksOk = out.checksOk && serve.daemonExitedOk;

    // ---- the per-layer metrics.
    out.add("study.validate_us", median(validateUs), "us");
    out.add("study.synth_ms", median(synthMs), "ms");
    out.add("study.synth_cpu_ms", median(synthCpuMs), "ms");
    for (const char *k : {"fill", "jam", "weights", "cslc_ref", "beam_ref"})
        out.add(std::string("kernels.") + k + "_ms", median(kernelMs[k]),
                "ms");
    for (const Cell &c : cells) {
        const std::string label = cellLabel(c);
        out.add(label + ".run_ms", median(runMs[label]), "ms");
        out.add(label + ".run_cpu_ms", median(runCpuMs[label]), "ms");
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        out.add(cellLabel(cells[i]) + ".cycles",
                static_cast<double>(tracedResults[i].cycles), "cycles");
    }
    for (MachineId m : study::allMachines()) {
        const std::string tok = study::machineToken(m);
        out.add(tok + ".ns_per_kcycle",
                static_cast<double>(machineRunNs[tok])
                    / (static_cast<double>(machineCycles[tok]) / 1e3),
                "ns");
        out.add(tok + ".construct_ms", median(constructMs[tok]), "ms");
        out.add(tok + ".account_ms", median(accountMs[tok]), "ms");
    }
    for (KernelId k : study::allKernels()) {
        const std::string tok = study::kernelToken(k);
        out.add("kernels.validate_" + tok + "_ms", median(validateMs[tok]),
                "ms");
    }
    out.add("study.parallel_efficiency", median(efficiency), "ratio");
    out.add("study.paper_err_pct", paperErrPct(tracedResults), "%");
    out.add("sim.emit_bench_ms", median(emitBenchMs), "ms");
    out.add("sim.emit_hw_ms", median(emitHwMs), "ms");
    out.add("sim.emit_stats_ms", median(emitStatsMs), "ms");
    out.add("serve.hit_job_ms_p50", median(serve.hitJobMs), "ms");
    out.add("serve.miss_job_ms_p50", median(serve.missJobMs), "ms");
    out.add("serve.probe_ms_p50", median(serve.probeMs), "ms");
    out.add("serve.encode_us", median(tr.wallMs("serve.encode")) * 1e3,
            "us");
    out.add("serve.decode_us", median(tr.wallMs("serve.decode")) * 1e3,
            "us");
    out.add("serve.cache_hit_ratio", serve.cacheHitRatio, "ratio");
    out.add("serve.coalesced_ratio", serve.coalescedRatio, "ratio");
    out.add("serve.cells_executed", serve.cellsExecuted, "count");
    out.add("serve.refused", serve.refused, "count");
    out.add("serve.daemon_cpu_ms_per_job", median(serve.cpuMsPerJobWindows),
            "ms");

    const auto self = tr.selfNsByLayer();
    std::int64_t selfTotal = 0;
    for (const auto &[layer, ns] : self)
        selfTotal += ns;
    for (const char *layer : {"study", "kernels", "ppc", "viram", "imagine",
                              "raw", "sim", "serve"}) {
        const auto it = self.find(layer);
        const double ns = it == self.end() ? 0.0
                                           : static_cast<double>(it->second);
        out.add(std::string(layer) + ".self_pct",
                selfTotal ? 100.0 * ns / static_cast<double>(selfTotal) : 0.0,
                "%");
    }
    const double overhead = median(tracedMs) - median(untracedMs);
    out.add("trace.overhead_ms", overhead, "ms");

    const std::string tracePath = opts.outDir + "/trace-" + opts.workload
                                  + "-" + std::to_string(opts.seed)
                                  + ".json";
    if (!tr.writeChromeJson(tracePath)) {
        out.checksOk = false;
        out.notes.push_back("trace: cannot write " + tracePath);
    }
    std::ostringstream note;
    note << "trace: " << tr.spans().size() << " spans written to "
         << tracePath << "; tracing overhead " << overhead
         << " ms per paper grid pass (traced p50 " << median(tracedMs)
         << " ms over " << tracedMs.size() << " passes, untraced p50 "
         << median(untracedMs) << " ms over " << untracedMs.size() << ")";
    out.notes.push_back(note.str());
    return out;
}

} // namespace perfbench
