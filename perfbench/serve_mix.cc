/**
 * @file
 * The serve mix, run as the serve section of every traced run
 * (layers.cc): the real triarchd on an AF_UNIX socket with
 * 2 workers and no cache file, driven by two closed-loop client
 * connections (each sends its next request only after the previous
 * reply). Request i of the stream is a pure function of (seed, i):
 *  - about 1 in 25 is a stats or hw probe;
 *  - run job i uses the config of family i / 4: a shape from the
 *    seeded small-config pool with a data seed of the family's own,
 *    and a seeded non-empty subset of the 15 cells.
 * The first job of a family misses the cache; each later one finds
 * the cells its predecessors ran (about half of all cells hit), and
 * since the two clients take neighbouring requests, cells still in
 * flight coalesce. Most jobs mix hits and misses, so job latency
 * varies with the number of missed cells instead of splitting into
 * an all-hit and an all-miss cluster, and the hit share stays the
 * same however many requests a run gets through.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unistd.h>

#include "configgen.hh"
#include "harness.hh"
#include "process.hh"
#include "serve/client.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "stats.hh"
#include "study/parallel.hh"

namespace perfbench
{

namespace
{

using triarch::serve::JobRequest;
using triarch::serve::JobResponse;
using triarch::serve::RequestKind;

constexpr std::size_t kPoolSize = 64;
constexpr unsigned kClients = 2;
constexpr unsigned kDaemonWorkers = 2;
constexpr std::uint64_t kFamilyJobs = 4;
/** The first job of every kVerifyEvery-th family is recomputed
 *  in-process after the timed loop, at most kMaxVerified of them. */
constexpr std::uint64_t kVerifyEvery = 7;
constexpr std::size_t kMaxVerified = 24;

triarch::Rng
streamRng(std::uint64_t seed, std::uint64_t salt, std::uint64_t index)
{
    return triarch::Rng((seed * 0x9E3779B97F4A7C15ULL + index) ^ salt);
}

/** The stream's request @p index. */
JobRequest
mixRequest(std::uint64_t seed, std::uint64_t index,
           const std::vector<triarch::study::StudyConfig> &pool)
{
    JobRequest req;
    req.id = "j" + std::to_string(index);
    triarch::Rng rng = streamRng(seed, 0, index);
    if (rng.nextBelow(25) == 0) {
        req.kind = rng.nextBelow(2) ? RequestKind::Stats
                                    : RequestKind::Hw;
        return req;
    }
    const std::uint64_t family = index / kFamilyJobs;
    triarch::Rng familyRng = streamRng(seed, 0xFA, family);
    req.config = pool[familyRng.nextBelow(pool.size())];
    req.config.seed = 1 + (familyRng.next() >> 24);
    const auto cells = triarch::study::allCells();
    const std::uint64_t mask = 1 + rng.nextBelow((1u << 15) - 1);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (mask >> c & 1)
            req.cells.push_back(cells[c]);
    }
    return req;
}

bool
sampledForVerify(std::uint64_t index)
{
    return index % kFamilyJobs == 0
           && (index / kFamilyJobs) % kVerifyEvery == 0;
}

/** The "serve" group's scalars from a stats probe reply. */
std::map<std::string, double>
serveScalars(const JobResponse &reply)
{
    std::map<std::string, double> out;
    auto doc = triarch::json::parse(reply.statsJson, nullptr);
    const triarch::json::Value *groups = doc ? doc->field("groups") : nullptr;
    if (!groups)
        return out;
    for (const auto &g : groups->items) {
        const auto *label = g.field("label");
        const auto *scalars = g.field("scalars");
        if (!label || label->text != "serve" || !scalars)
            continue;
        for (const auto &[name, v] : scalars->fields) {
            double value = 0.0;
            if (v.asDouble(value))
                out[name] = value;
        }
    }
    return out;
}

struct Sampled
{
    JobRequest request;
    JobResponse response;
};

} // namespace

ServeMixResult
runServeMix(const Options &opts, double seconds, Tracer *tracer)
{
    ServeMixResult out;
    const auto pool = smallConfigPool(opts.seed, kPoolSize);
    const std::string socket =
        opts.outDir + "/d" + std::to_string(::getpid()) + ".sock";
    const std::string log = opts.outDir + "/triarchd.log";

    std::string error;
    std::unique_ptr<Daemon> daemon = Daemon::start(
        opts.daemonBinary, socket, kDaemonWorkers, log, &error);
    if (!daemon) {
        out.tally.add(false);
        out.notes.push_back("serve_mix: " + error);
        return out;
    }

    std::atomic<std::uint64_t> nextIndex{0};
    std::atomic<std::uint64_t> requestsDone{0};
    std::mutex mu;
    std::vector<Sampled> sampled;   // guarded by mu
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = after(seconds);

    struct ClientLog
    {
        FailTally tally;
        std::vector<double> jobMs, hitMs, missMs, probeMs;
    };
    std::vector<ClientLog> logs(kClients);
    auto clientLoop = [&](ClientLog &cl) {
        std::string why;
        auto client = triarch::serve::Client::connectUnix(socket, &why);
        while (std::chrono::steady_clock::now() < deadline) {
            const std::uint64_t i = nextIndex++;
            const JobRequest req = mixRequest(opts.seed, i, pool);
            if (!client.connected())
                client = triarch::serve::Client::connectUnix(socket, &why);
            const std::int64_t t0 = wallNs();
            std::optional<JobResponse> resp;
            if (client.connected()) {
                std::optional<Tracer::Scope> s;
                if (tracer)
                    s.emplace(*tracer, "serve.request");
                resp = client.call(req, &why);
            }
            const double ms = static_cast<double>(wallNs() - t0) / 1e6;
            ++requestsDone;
            const bool ok = resp && resp->ok();
            cl.tally.add(ok);
            if (!resp) {
                client.close();     // dropped: reconnect next time
                continue;
            }
            if (tracer) {
                {
                    auto s = tracer->span("serve.encode");
                    (void)triarch::serve::writeJobRequest(req);
                }
                const std::string text =
                    triarch::serve::writeJobResponse(*resp);
                JobResponse decoded;
                auto s = tracer->span("serve.decode");
                triarch::serve::parseJobResponse(text, &decoded, &why);
            }
            if (!ok)
                continue;
            if (req.kind != RequestKind::Run) {
                cl.probeMs.push_back(ms);
                continue;
            }
            cl.jobMs.push_back(ms);
            std::size_t cached = 0;
            for (const auto &c : resp->results)
                cached += c.cached ? 1 : 0;
            if (cached == resp->results.size())
                cl.hitMs.push_back(ms);
            else if (cached == 0)
                cl.missMs.push_back(ms);
            if (sampledForVerify(i)) {
                std::lock_guard<std::mutex> lock(mu);
                if (sampled.size() < kMaxVerified)
                    sampled.push_back({req, std::move(*resp)});
            }
        }
    };

    {
        std::vector<std::thread> clients;
        for (ClientLog &cl : logs)
            clients.emplace_back(clientLoop, std::ref(cl));

        // Daemon CPU per request, over 1 s windows (/proc ticks).
        double cpu0 = daemon->cpuSeconds();
        std::uint64_t done0 = requestsDone;
        while (std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_until(std::min(
                deadline,
                std::chrono::steady_clock::now() + std::chrono::seconds(1)));
            const double cpu1 = daemon->cpuSeconds();
            const std::uint64_t done1 = requestsDone;
            if (done1 > done0) {
                out.cpuMsPerJobWindows.push_back(
                    (cpu1 - cpu0) * 1e3 / static_cast<double>(done1 - done0));
            }
            cpu0 = cpu1;
            done0 = done1;
        }
        for (std::thread &t : clients)
            t.join();
    }
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    for (ClientLog &cl : logs) {
        out.tally.merge(cl.tally);
        out.jobMs.insert(out.jobMs.end(), cl.jobMs.begin(), cl.jobMs.end());
        out.hitJobMs.insert(out.hitJobMs.end(), cl.hitMs.begin(),
                            cl.hitMs.end());
        out.missJobMs.insert(out.missJobMs.end(), cl.missMs.begin(),
                             cl.missMs.end());
        out.probeMs.insert(out.probeMs.end(), cl.probeMs.begin(),
                           cl.probeMs.end());
    }
    // The daemon's own counters, then a drain.
    {
        std::string why;
        auto client = triarch::serve::Client::connectUnix(socket, &why);
        JobRequest probe;
        probe.id = "final";
        probe.kind = RequestKind::Stats;
        auto reply = client.connected() ? client.call(probe, &why)
                                        : std::nullopt;
        if (reply && reply->ok()) {
            auto s = serveScalars(*reply);
            const double cells = s["cells_executed"] + s["cells_from_cache"]
                                 + s["cells_coalesced"];
            out.cellsExecuted = s["cells_executed"];
            out.refused = s["jobs_refused"];
            out.cacheHitRatio = cells ? s["cells_from_cache"] / cells : 0.0;
            out.coalescedRatio = cells ? s["cells_coalesced"] / cells : 0.0;
        } else {
            out.notes.push_back("serve_mix: final stats probe failed");
            out.tally.add(false);
        }
    }
    out.daemonExitedOk = daemon->stop();
    if (!out.daemonExitedOk)
        out.notes.push_back("serve_mix: triarchd did not exit 0");

    // Sampled miss jobs must equal an in-process recompute exactly.
    for (const Sampled &s : sampled) {
        triarch::study::ParallelRunner runner(
            s.request.config, kDaemonWorkers, nullptr,
            triarch::study::ParallelRunner::noCache());
        const auto local = runner.runCells(s.request.cells);
        bool same = local.size() == s.response.results.size();
        for (std::size_t c = 0; same && c < local.size(); ++c)
            same = local[c] == s.response.results[c].result;
        ++out.verified;
        if (!same) {
            ++out.tally.failed;
            out.notes.push_back("serve_mix: job " + s.request.id
                                + " differs from the in-process recompute");
        }
    }
    return out;
}

} // namespace perfbench
