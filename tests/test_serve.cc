/**
 * @file
 * Tests for the experiment daemon stack (src/serve) and the bounded
 * ResultCache it shares across requests:
 *
 *  - triarch.job.v1 / triarch.result.v1 round-trips and malformed-
 *    document rejection, mirroring the triarch.bench.v1 pins in
 *    test_cycle_account.cc;
 *  - LRU eviction order (entry and byte bounds) plus the
 *    triarch.cache.v1 persistence round-trip;
 *  - ExperimentService semantics with a deterministic fake registry:
 *    cache hits on repeat, coalescing (two identical concurrent
 *    cells run once), whole-job backpressure refusal, and the drain
 *    gate answering every accepted cell while refusing new ones;
 *  - the socket transport end to end over AF_UNIX and TCP loopback,
 *    including the bad_request response for an unparseable line.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "study/result_cache.hh"
#include "study/study_json.hh"

namespace
{

using namespace triarch;
using serve::JobErrorCode;
using serve::JobRequest;
using serve::JobResponse;
using study::KernelId;
using study::MachineId;

/** A small but valid StudyConfig so service tests never pay for the
 *  paper-sized workloads (the fake registry below ignores the
 *  Workloads anyway, but submit() validates and builds them). */
study::StudyConfig
tinyConfig()
{
    study::StudyConfig cfg;
    cfg.matrixSize = 64;
    cfg.cslc.samples = 128;
    cfg.cslc.subBands = 1;
    cfg.cslc.subBandLen = 128;
    cfg.cslc.subBandStride = 1;
    cfg.jammerBins = {10, 40, 90};
    cfg.beam.elements = 8;
    cfg.beam.directions = 2;
    cfg.beam.dwells = 1;
    cfg.beam.shift = 6;
    cfg.seed = 3;
    return cfg;
}

/** A synthetic RunResult whose breakdown partitions its cycles, so
 *  it survives the writeRunResult/parseRunResult invariant checks. */
study::RunResult
fakeResult(MachineId machine, KernelId kernel, std::uint64_t cycles)
{
    study::RunResult r;
    r.machine = machine;
    r.kernel = kernel;
    r.cycles = cycles;
    r.breakdown.cycles = {cycles, 0, 0, 0, 0};
    r.breakdown.total = cycles;
    r.validated = true;
    r.notes = {{"utilization", 0.5}};
    return r;
}

/** Lets a test hold every fake mapping inside its functor until the
 *  test has observed the in-flight state it wants. */
struct Gate
{
    std::mutex m;
    std::condition_variable cv;
    bool open = false;

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            open = true;
        }
        cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return open; });
    }
};

/** A registry of deterministic fake mappings: each execution bumps
 *  a shared counter and (optionally) blocks on a gate first. */
study::MappingRegistry
fakeRegistry(std::atomic<std::uint64_t> *executions,
             Gate *gate = nullptr)
{
    study::MappingRegistry registry;
    const std::vector<std::pair<MachineId, KernelId>> pairs = {
        {MachineId::PpcScalar, KernelId::CornerTurn},
        {MachineId::PpcScalar, KernelId::Cslc},
        {MachineId::Viram, KernelId::CornerTurn},
        {MachineId::Raw, KernelId::BeamSteering},
    };
    std::uint64_t cycles = 100;
    for (const auto &[machine, kernel] : pairs) {
        const auto result = fakeResult(machine, kernel, cycles);
        cycles += 100;
        registry.add(machine, kernel,
                     [executions, gate, result](
                         const study::StudyConfig &,
                         const study::Workloads &) {
                         if (gate)
                             gate->wait();
                         ++*executions;
                         return result;
                     });
    }
    return registry;
}

JobRequest
tinyRequest(std::vector<study::Cell> cells,
            const std::string &id = "job")
{
    JobRequest request;
    request.id = id;
    request.config = tinyConfig();
    request.cells = std::move(cells);
    return request;
}

// --- protocol ------------------------------------------------------

TEST(ServeProtocol, JobRequestRoundTripsBitForBit)
{
    JobRequest request = tinyRequest(
        {{MachineId::PpcScalar, KernelId::CornerTurn},
         {MachineId::Raw, KernelId::BeamSteering}},
        "sweep-42");

    const std::string line = serve::writeJobRequest(request);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "requests must fit the line-delimited framing";

    JobRequest parsed;
    std::string error;
    ASSERT_TRUE(serve::parseJobRequest(line, &parsed, &error)) << error;
    EXPECT_EQ(parsed, request);
}

TEST(ServeProtocol, OkResponseRoundTripsBitForBit)
{
    JobResponse response;
    response.id = "sweep-42";
    response.configHash = "deadbeef01";
    auto first =
        fakeResult(MachineId::Viram, KernelId::CornerTurn, 1234);
    first.measuredUnbalanced = 4321;
    first.notes.emplace_back("lanes", 8.0);
    response.results.push_back({std::move(first), true});
    response.results.push_back(
        {fakeResult(MachineId::Imagine, KernelId::Cslc, 999), false});

    const std::string line = serve::writeJobResponse(response);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    JobResponse parsed;
    std::string error;
    ASSERT_TRUE(serve::parseJobResponse(line, &parsed, &error))
        << error;
    EXPECT_EQ(parsed, response);
}

TEST(ServeProtocol, ErrorResponseRoundTripsEveryCode)
{
    for (const auto code :
         {JobErrorCode::BadRequest, JobErrorCode::Overloaded,
          JobErrorCode::Draining, JobErrorCode::Unmapped,
          JobErrorCode::Internal}) {
        JobResponse response;
        response.id = "j";
        response.configHash = "0";
        response.error = serve::JobError{code, "why not"};

        JobResponse parsed;
        std::string error;
        ASSERT_TRUE(serve::parseJobResponse(
            serve::writeJobResponse(response), &parsed, &error))
            << error;
        EXPECT_EQ(parsed, response);

        // Token mapping is a bijection.
        const std::string &token = serve::jobErrorCodeToken(code);
        ASSERT_TRUE(serve::parseJobErrorCode(token).has_value());
        EXPECT_EQ(*serve::parseJobErrorCode(token), code);
    }
    EXPECT_FALSE(serve::parseJobErrorCode("bogus").has_value());
}

TEST(ServeProtocol, MalformedRequestsAreRejectedWithReasons)
{
    const auto rejects = [](const std::string &text,
                            const std::string &substr) {
        JobRequest request;
        std::string error;
        EXPECT_FALSE(serve::parseJobRequest(text, &request, &error))
            << text;
        EXPECT_NE(error.find(substr), std::string::npos)
            << "error was: " << error;
    };

    rejects("this is not json", "");
    rejects("[1,2,3]", "object");
    rejects(R"({"id": "x"})", "schema");
    rejects(R"({"schema": "triarch.job.v9", "id": "x"})",
            "triarch.job.v9");

    // Structurally valid envelope, broken payloads.
    const std::string head =
        R"({"schema": "triarch.job.v1", "id": "x")";
    rejects(head + "}", "cells");
    rejects(head + R"(, "cells": []})", "empty");
    rejects(head + R"(, "cells": [{"kernel": "ct"}]})", "machine");
    rejects(head
                + R"(, "cells": [{"machine": "cray", "kernel": "ct"}]})",
            "cray");
}

TEST(ServeProtocol, MalformedResponsesAreRejected)
{
    const auto rejects = [](const std::string &text,
                            const std::string &substr) {
        JobResponse response;
        std::string error;
        EXPECT_FALSE(
            serve::parseJobResponse(text, &response, &error))
            << text;
        EXPECT_NE(error.find(substr), std::string::npos)
            << "error was: " << error;
    };

    const std::string head =
        R"({"schema": "triarch.result.v1", "id": "x")";
    rejects(head + "}", "config_hash");
    rejects(head + R"(, "config_hash": "1"})", "status");
    rejects(head + R"(, "config_hash": "1", "status": "error"})",
            "error");
    rejects(head + R"(, "config_hash": "1", "status": "ok"})",
            "results");
}

TEST(ServeProtocol, BadRequestResponseRecoversTheId)
{
    const auto withId = serve::badRequestResponse(
        R"({"schema": "triarch.job.v1", "id": "lost-job"})",
        "missing cells array");
    EXPECT_EQ(withId.id, "lost-job");
    ASSERT_FALSE(withId.ok());
    EXPECT_EQ(withId.error->code, JobErrorCode::BadRequest);
    EXPECT_NE(withId.error->message.find("missing cells"),
              std::string::npos);

    const auto garbage = serve::badRequestResponse("%%%", "nope");
    EXPECT_EQ(garbage.id, "");
    ASSERT_FALSE(garbage.ok());
    EXPECT_EQ(garbage.error->code, JobErrorCode::BadRequest);
}

// --- result cache --------------------------------------------------

TEST(ResultCacheLru, EvictsLeastRecentlyUsedEntryFirst)
{
    study::ResultCache cache(study::CacheCapacity{3, 0});
    const std::uint64_t hash = 7;

    const auto a =
        fakeResult(MachineId::PpcScalar, KernelId::CornerTurn, 1);
    const auto b = fakeResult(MachineId::PpcScalar, KernelId::Cslc, 2);
    const auto c = fakeResult(MachineId::Viram, KernelId::CornerTurn, 3);
    cache.put(a, hash);
    cache.put(b, hash);
    cache.put(c, hash);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 0u);

    // Touch 'a' so 'b' becomes the LRU entry, then overflow.
    ASSERT_TRUE(cache.get(a.machine, a.kernel, hash).has_value());
    cache.put(fakeResult(MachineId::Raw, KernelId::BeamSteering, 4),
              hash);

    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.get(b.machine, b.kernel, hash).has_value());
    EXPECT_TRUE(cache.get(a.machine, a.kernel, hash).has_value());
    EXPECT_TRUE(cache.get(c.machine, c.kernel, hash).has_value());
}

TEST(ResultCacheLru, ByteBoundEvictsWhenEntriesAreUnlimited)
{
    study::ResultCache probe;
    probe.put(fakeResult(MachineId::PpcScalar, KernelId::CornerTurn, 1),
              1);
    const std::size_t oneEntry = probe.approxBytes();
    ASSERT_GT(oneEntry, 0u);

    // Room for two entries, not three.
    study::ResultCache cache(
        study::CacheCapacity{0, 2 * oneEntry + oneEntry / 2});
    cache.put(fakeResult(MachineId::PpcScalar, KernelId::CornerTurn, 1),
              1);
    cache.put(fakeResult(MachineId::PpcScalar, KernelId::Cslc, 2), 1);
    cache.put(fakeResult(MachineId::Viram, KernelId::CornerTurn, 3), 1);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.approxBytes(), 2 * oneEntry + oneEntry / 2);
    EXPECT_FALSE(cache
                     .get(MachineId::PpcScalar, KernelId::CornerTurn, 1)
                     .has_value());
}

TEST(ResultCacheLru, ShrinkingCapacityEvictsImmediately)
{
    study::ResultCache cache;
    for (unsigned i = 0; i < 4; ++i) {
        cache.put(fakeResult(MachineId::PpcScalar,
                             KernelId::CornerTurn, i + 1),
                  i);
    }
    EXPECT_EQ(cache.size(), 4u);
    cache.setCapacity(study::CacheCapacity{2, 0});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 2u);
    // The newest entries (hashes 2 and 3) survive.
    EXPECT_TRUE(cache.get(MachineId::PpcScalar, KernelId::CornerTurn, 3)
                    .has_value());
    EXPECT_FALSE(
        cache.get(MachineId::PpcScalar, KernelId::CornerTurn, 0)
            .has_value());
}

TEST(ResultCachePersistence, SaveLoadRoundTripsEntriesAndRecency)
{
    study::ResultCache cache;
    auto rich = fakeResult(MachineId::Imagine, KernelId::Cslc, 555);
    rich.measuredUnbalanced = 777;
    rich.notes.emplace_back("stall_fraction", 0.25);
    cache.put(rich, 11);
    cache.put(fakeResult(MachineId::Raw, KernelId::BeamSteering, 9),
              22);

    std::ostringstream os;
    cache.save(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find(study::ResultCache::cacheSchema()),
              std::string::npos);

    study::ResultCache reloaded;
    std::string error;
    const auto n = reloaded.load(doc, &error);
    ASSERT_TRUE(n.has_value()) << error;
    EXPECT_EQ(*n, 2u);
    EXPECT_EQ(reloaded.size(), 2u);

    const auto hit =
        reloaded.get(MachineId::Imagine, KernelId::Cslc, 11);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, rich);

    // Recency survives the round trip: 'rich' was put first, so a
    // one-entry bound keeps only the Raw/BS cell. A fresh load (the
    // get() above refreshed 'rich' in `reloaded`) shows the order.
    study::ResultCache pristine;
    ASSERT_TRUE(pristine.load(doc, &error).has_value()) << error;
    pristine.setCapacity(study::CacheCapacity{1, 0});
    EXPECT_TRUE(
        pristine.get(MachineId::Raw, KernelId::BeamSteering, 22)
            .has_value());
    EXPECT_FALSE(pristine.get(MachineId::Imagine, KernelId::Cslc, 11)
                     .has_value());
}

TEST(ResultCachePersistence, RejectsMalformedDocuments)
{
    study::ResultCache cache;
    std::string error;
    EXPECT_FALSE(cache.load("not json at all {", &error).has_value());
    EXPECT_FALSE(error.empty());

    EXPECT_FALSE(
        cache.load(R"({"schema": "triarch.cache.v9", "cells": []})",
                   &error)
            .has_value());
    EXPECT_NE(error.find("triarch.cache.v9"), std::string::npos);
}

TEST(ResultCachePersistence, MissingFileIsAColdStartNotAnError)
{
    study::ResultCache cache;
    std::string error;
    const auto n = cache.loadFile(
        testing::TempDir() + "/no_such_cache_file.json", &error);
    ASSERT_TRUE(n.has_value()) << error;
    EXPECT_EQ(*n, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

// --- experiment service --------------------------------------------

TEST(ExperimentService, SecondSubmitIsServedFromTheSharedCache)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ServiceOptions opts;
    opts.workers = 2;
    serve::ExperimentService service(opts, &registry, &cache);

    const auto request = tinyRequest(
        {{MachineId::PpcScalar, KernelId::CornerTurn},
         {MachineId::PpcScalar, KernelId::Cslc}});

    const auto cold = service.submit(request);
    ASSERT_TRUE(cold.ok()) << cold.error->message;
    ASSERT_EQ(cold.results.size(), 2u);
    EXPECT_FALSE(cold.results[0].cached);
    EXPECT_FALSE(cold.results[1].cached);
    EXPECT_EQ(executions.load(), 2u);

    const auto warm = service.submit(request);
    ASSERT_TRUE(warm.ok()) << warm.error->message;
    ASSERT_EQ(warm.results.size(), 2u);
    EXPECT_TRUE(warm.results[0].cached);
    EXPECT_TRUE(warm.results[1].cached);
    EXPECT_EQ(executions.load(), 2u) << "cache hits must not recompute";
    EXPECT_EQ(warm.results[0].result, cold.results[0].result);
    EXPECT_EQ(warm.results[1].result, cold.results[1].result);

    EXPECT_EQ(service.cellsFromCache(), 2u);
    EXPECT_EQ(service.jobsAccepted(), 2u);
    EXPECT_EQ(warm.configHash, cold.configHash);
}

TEST(ExperimentService, IdenticalConcurrentCellsExecuteOnce)
{
    std::atomic<std::uint64_t> executions{0};
    Gate gate;
    const auto registry = fakeRegistry(&executions, &gate);
    study::ResultCache cache;
    serve::ServiceOptions opts;
    opts.workers = 2;
    serve::ExperimentService service(opts, &registry, &cache);

    const auto request = tinyRequest(
        {{MachineId::PpcScalar, KernelId::CornerTurn}}, "first");

    JobResponse first;
    std::thread submitter(
        [&] { first = service.submit(request); });

    // Wait until the first job's cell is in flight (accepted and
    // enqueued), then submit the identical cell from this thread;
    // it must attach to the in-flight execution, not start another.
    while (service.jobsAccepted() < 1)
        std::this_thread::yield();
    JobResponse second;
    std::thread coalescer([&] {
        second = service.submit(tinyRequest(
            {{MachineId::PpcScalar, KernelId::CornerTurn}}, "second"));
    });
    while (service.cellsCoalesced() < 1)
        std::this_thread::yield();

    gate.release();
    submitter.join();
    coalescer.join();

    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(executions.load(), 1u)
        << "two identical concurrent cells must execute once";
    EXPECT_EQ(service.cellsExecuted(), 1u);
    EXPECT_EQ(service.cellsCoalesced(), 1u);
    ASSERT_EQ(first.results.size(), 1u);
    ASSERT_EQ(second.results.size(), 1u);
    EXPECT_EQ(first.results[0].result, second.results[0].result);
}

TEST(ExperimentService, DuplicateCellsWithinOneJobExecuteOnce)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    const auto response = service.submit(tinyRequest(
        {{MachineId::PpcScalar, KernelId::CornerTurn},
         {MachineId::PpcScalar, KernelId::CornerTurn}}));
    ASSERT_TRUE(response.ok()) << response.error->message;
    ASSERT_EQ(response.results.size(), 2u);
    EXPECT_EQ(executions.load(), 1u);
    EXPECT_EQ(service.cellsCoalesced(), 1u);
    EXPECT_EQ(response.results[0].result, response.results[1].result);
}

TEST(ExperimentService, FullQueueRefusesJobsWithTypedOverload)
{
    std::atomic<std::uint64_t> executions{0};
    Gate gate;
    const auto registry = fakeRegistry(&executions, &gate);
    study::ResultCache cache;
    serve::ServiceOptions opts;
    opts.workers = 1;
    opts.maxOutstandingCells = 1;
    serve::ExperimentService service(opts, &registry, &cache);

    JobResponse first;
    std::thread submitter([&] {
        first = service.submit(tinyRequest(
            {{MachineId::PpcScalar, KernelId::CornerTurn}}));
    });
    while (service.jobsAccepted() < 1)
        std::this_thread::yield();

    // A different cell cannot coalesce, so it needs queue room that
    // does not exist: the whole job is refused, immediately.
    const auto refused = service.submit(
        tinyRequest({{MachineId::PpcScalar, KernelId::Cslc}}));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error->code, JobErrorCode::Overloaded);
    EXPECT_NE(refused.error->message.find("queue is full"),
              std::string::npos);
    EXPECT_EQ(service.jobsRefused(), 1u);

    gate.release();
    submitter.join();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(executions.load(), 1u);
}

TEST(ExperimentService, DrainRefusesNewJobsAndAnswersAcceptedOnes)
{
    std::atomic<std::uint64_t> executions{0};
    Gate gate;
    const auto registry = fakeRegistry(&executions, &gate);
    study::ResultCache cache;
    serve::ServiceOptions opts;
    opts.workers = 1;
    serve::ExperimentService service(opts, &registry, &cache);

    JobResponse accepted;
    std::thread submitter([&] {
        accepted = service.submit(tinyRequest(
            {{MachineId::PpcScalar, KernelId::CornerTurn}}));
    });
    while (service.jobsAccepted() < 1)
        std::this_thread::yield();

    EXPECT_FALSE(service.draining());
    service.beginDrain();
    EXPECT_TRUE(service.draining());

    const auto refused = service.submit(
        tinyRequest({{MachineId::PpcScalar, KernelId::Cslc}}));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error->code, JobErrorCode::Draining);

    // The accepted cell still runs to completion and is answered.
    gate.release();
    service.drain();
    submitter.join();
    ASSERT_TRUE(accepted.ok());
    ASSERT_EQ(accepted.results.size(), 1u);
    EXPECT_EQ(executions.load(), 1u);
}

TEST(ExperimentService, BadRequestsGetTypedErrors)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    const auto empty = service.submit(tinyRequest({}));
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.error->code, JobErrorCode::BadRequest);
    EXPECT_NE(empty.error->message.find("no cells"),
              std::string::npos);

    auto invalid = tinyRequest(
        {{MachineId::PpcScalar, KernelId::CornerTurn}});
    invalid.config.matrixSize = 100;    // not a multiple of 64
    const auto rejected = service.submit(invalid);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error->code, JobErrorCode::BadRequest);
    EXPECT_NE(rejected.error->message.find("matrixSize"),
              std::string::npos);

    const auto unmapped = service.submit(
        tinyRequest({{MachineId::Imagine, KernelId::BeamSteering}}));
    ASSERT_FALSE(unmapped.ok());
    EXPECT_EQ(unmapped.error->code, JobErrorCode::Unmapped);

    EXPECT_EQ(service.jobsRefused(), 2u)
        << "unmapped cells fail after acceptance, not at the gate";
    EXPECT_EQ(executions.load(), 0u);
}

// --- socket transport ----------------------------------------------

TEST(SocketServer, UnixSocketServesAJobRoundTrip)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    serve::ServerOptions serverOpts;
    serverOpts.unixPath = testing::TempDir() + "/triarchd_test_"
                          + std::to_string(::getpid()) + ".sock";
    serve::SocketServer server(service, serverOpts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto client = serve::Client::connectUnix(serverOpts.unixPath,
                                             &error);
    ASSERT_TRUE(client.connected()) << error;

    const auto request = tinyRequest(
        {{MachineId::PpcScalar, KernelId::CornerTurn}});
    const auto response = client.call(request, &error);
    ASSERT_TRUE(response.has_value()) << error;
    ASSERT_TRUE(response->ok()) << response->error->message;
    EXPECT_EQ(response->id, request.id);
    ASSERT_EQ(response->results.size(), 1u);
    EXPECT_EQ(response->results[0].result.cycles, 100u);

    // Same connection, second call: served by the shared cache.
    const auto warm = client.call(request, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    ASSERT_TRUE(warm->ok());
    EXPECT_TRUE(warm->results[0].cached);
    EXPECT_EQ(executions.load(), 1u);
    EXPECT_EQ(server.connectionsAccepted(), 1u);

    client.close();
    server.stop();
    service.drain();
}

TEST(SocketServer, TcpLoopbackPicksAnEphemeralPort)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    serve::SocketServer server(service, serve::ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_NE(server.port(), 0u);

    auto client = serve::Client::connectTcp(server.port(), &error);
    ASSERT_TRUE(client.connected()) << error;
    const auto response = client.call(
        tinyRequest({{MachineId::Raw, KernelId::BeamSteering}}),
        &error);
    ASSERT_TRUE(response.has_value()) << error;
    ASSERT_TRUE(response->ok()) << response->error->message;

    client.close();
    server.stop();
}

TEST(SocketServer, GarbageLineGetsABadRequestNotAHangup)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    serve::ServerOptions serverOpts;
    serverOpts.unixPath = testing::TempDir() + "/triarchd_garbage_"
                          + std::to_string(::getpid()) + ".sock";
    serve::SocketServer server(service, serverOpts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Raw socket: the Client class refuses to send garbage for us.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, serverOpts.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string garbage = "this is not a job request\n";
    ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
              static_cast<ssize_t>(garbage.size()));

    std::string line;
    char ch = 0;
    while (::read(fd, &ch, 1) == 1 && ch != '\n')
        line.push_back(ch);
    ::close(fd);

    JobResponse response;
    ASSERT_TRUE(serve::parseJobResponse(line, &response, &error))
        << error << " in: " << line;
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.error->code, JobErrorCode::BadRequest);

    server.stop();
}

TEST(SocketServer, DeeplyNestedLineGetsABadRequestAndServesOn)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    serve::ServerOptions serverOpts;
    serverOpts.unixPath = testing::TempDir() + "/triarchd_nested_"
                          + std::to_string(::getpid()) + ".sock";
    serve::SocketServer server(service, serverOpts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, serverOpts.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    auto sendLine = [fd](const std::string &text) {
        std::size_t sent = 0;
        while (sent < text.size()) {
            const ssize_t n =
                ::write(fd, text.data() + sent, text.size() - sent);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    };
    auto readLine = [fd]() {
        std::string line;
        char ch = 0;
        while (::read(fd, &ch, 1) == 1 && ch != '\n')
            line.push_back(ch);
        return line;
    };

    // ~400 KB of nesting: one recursion per '[' used to overflow the
    // parser's stack and take the daemon down.
    ASSERT_TRUE(sendLine("{\"config\":" + std::string(400000, '[')
                         + "\n"));
    JobResponse nested;
    const std::string nestedLine = readLine();
    ASSERT_TRUE(serve::parseJobResponse(nestedLine, &nested, &error))
        << error << " in: " << nestedLine.substr(0, 200);
    ASSERT_FALSE(nested.ok());
    EXPECT_EQ(nested.error->code, JobErrorCode::BadRequest);
    EXPECT_NE(nested.error->message.find("nesting"), std::string::npos)
        << nested.error->message;

    // The same connection still serves a normal job.
    const auto request = tinyRequest(
        {{MachineId::PpcScalar, KernelId::CornerTurn}});
    ASSERT_TRUE(sendLine(serve::writeJobRequest(request) + "\n"));
    JobResponse served;
    const std::string servedLine = readLine();
    ASSERT_TRUE(serve::parseJobResponse(servedLine, &served, &error))
        << error << " in: " << servedLine;
    ASSERT_TRUE(served.ok()) << served.error->message;
    ASSERT_EQ(served.results.size(), 1u);
    EXPECT_EQ(served.results[0].result.cycles, 100u);
    ::close(fd);

    server.stop();
    service.drain();
}

// --- the stats endpoint --------------------------------------------

TEST(ServeProtocol, StatsRequestRoundTripsWithoutConfigOrCells)
{
    JobRequest probe;
    probe.id = "statsz";
    probe.kind = serve::RequestKind::Stats;

    const std::string line = serve::writeJobRequest(probe);
    EXPECT_NE(line.find("\"type\": \"stats\""), std::string::npos)
        << line;
    EXPECT_EQ(line.find("cells"), std::string::npos)
        << "stats probes carry no work: " << line;
    EXPECT_EQ(line.find("config"), std::string::npos) << line;

    JobRequest parsed;
    std::string error;
    ASSERT_TRUE(serve::parseJobRequest(line, &parsed, &error)) << error;
    EXPECT_EQ(parsed, probe);

    // Run requests never carry a type field, so their bytes are
    // unchanged from before the stats endpoint existed.
    const std::string runLine = serve::writeJobRequest(
        tinyRequest({{MachineId::PpcScalar, KernelId::CornerTurn}}));
    EXPECT_EQ(runLine.find("\"type\""), std::string::npos) << runLine;

    // An unknown type is a typed rejection, not a silent Run.
    JobRequest bogus;
    EXPECT_FALSE(serve::parseJobRequest(
        R"({"schema": "triarch.job.v1", "id": "x", "type": "selfdestruct"})",
        &bogus, &error));
    EXPECT_NE(error.find("selfdestruct"), std::string::npos) << error;
}

TEST(ServeProtocol, StatsResponseRoundTripsTheSnapshotVerbatim)
{
    JobResponse response;
    response.id = "statsz";
    response.configHash = "abc";
    response.statsJson =
        R"({"schema": "triarch.stats.v1", "groups": )"
        R"([{"label": "serve", "scalars": {"jobs_accepted": 3}}]})";

    const std::string line = serve::writeJobResponse(response);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.find("results"), std::string::npos)
        << "a stats response replaces the results array: " << line;

    JobResponse parsed;
    std::string error;
    ASSERT_TRUE(serve::parseJobResponse(line, &parsed, &error))
        << error;
    EXPECT_EQ(parsed, response)
        << "the embedded snapshot must survive bit-for-bit";

    // A stats field that is not an object is rejected.
    EXPECT_FALSE(serve::parseJobResponse(
        R"({"schema": "triarch.result.v1", "id": "x",
            "config_hash": "1", "status": "ok", "stats": 7})",
        &parsed, &error));
    EXPECT_NE(error.find("stats"), std::string::npos) << error;
}

TEST(ExperimentService, StatsSnapshotIsLiveAndRefusedWhileDraining)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    JobRequest probe;
    probe.id = "statsz";
    probe.kind = serve::RequestKind::Stats;

    const JobResponse before = service.stats(probe);
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before.id, "statsz");
    EXPECT_NE(before.statsJson.find("triarch.stats.v1"),
              std::string::npos);
    EXPECT_NE(before.statsJson.find("\"jobs_accepted\": 0"),
              std::string::npos)
        << before.statsJson;

    ASSERT_TRUE(
        service
            .submit(tinyRequest(
                {{MachineId::PpcScalar, KernelId::CornerTurn}}))
            .ok());
    const JobResponse after = service.stats(probe);
    ASSERT_TRUE(after.ok());
    EXPECT_NE(after.statsJson.find("\"jobs_accepted\": 1"),
              std::string::npos)
        << "the snapshot must be live, not captured at startup";
    EXPECT_NE(after.statsJson.find("uptime_seconds"),
              std::string::npos);

    service.beginDrain();
    const JobResponse refused = service.stats(probe);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error->code, JobErrorCode::Draining);
    EXPECT_TRUE(refused.statsJson.empty());
}

TEST(SocketServer, StatsRequestRoundTripsOverUnixAndTcp)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    // With host profiling on, a served job must surface latency
    // histograms in the wire snapshot — the daemon's default mode.
    host::setProfiling(true);

    serve::ServerOptions serverOpts;
    serverOpts.unixPath = testing::TempDir() + "/triarchd_stats_"
                          + std::to_string(::getpid()) + ".sock";
    serve::SocketServer server(service, serverOpts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto unixClient =
        serve::Client::connectUnix(serverOpts.unixPath, &error);
    ASSERT_TRUE(unixClient.connected()) << error;
    ASSERT_TRUE(unixClient
                    .call(tinyRequest({{MachineId::PpcScalar,
                                        KernelId::CornerTurn}}),
                          &error)
                    .has_value())
        << error;

    JobRequest probe;
    probe.id = "statsz";
    probe.kind = serve::RequestKind::Stats;
    const auto overUnix = unixClient.call(probe, &error);
    ASSERT_TRUE(overUnix.has_value()) << error;
    ASSERT_TRUE(overUnix->ok()) << overUnix->error->message;
    EXPECT_NE(overUnix->statsJson.find("\"jobs_accepted\": 1"),
              std::string::npos)
        << overUnix->statsJson;
    EXPECT_NE(overUnix->statsJson.find("cell_service_ns"),
              std::string::npos)
        << "profiling was on, so the latency histograms must show: "
        << overUnix->statsJson;
    host::setProfiling(false);

    // The same probe over TCP loopback sees the same counters.
    serve::SocketServer tcpServer(service, serve::ServerOptions{});
    ASSERT_TRUE(tcpServer.start(&error)) << error;
    auto tcpClient =
        serve::Client::connectTcp(tcpServer.port(), &error);
    ASSERT_TRUE(tcpClient.connected()) << error;
    const auto overTcp = tcpClient.call(probe, &error);
    ASSERT_TRUE(overTcp.has_value()) << error;
    ASSERT_TRUE(overTcp->ok()) << overTcp->error->message;
    EXPECT_NE(overTcp->statsJson.find("\"jobs_accepted\": 1"),
              std::string::npos);

    // A draining daemon refuses the probe with a typed error over
    // the wire, exactly like a job submission.
    service.beginDrain();
    const auto refused = tcpClient.call(probe, &error);
    ASSERT_TRUE(refused.has_value()) << error;
    ASSERT_FALSE(refused->ok());
    EXPECT_EQ(refused->error->code, JobErrorCode::Draining);

    tcpClient.close();
    unixClient.close();
    tcpServer.stop();
    server.stop();
    service.drain();
}

// --- the hw endpoint -------------------------------------------------

TEST(ServeProtocol, HwRequestAndResponseRoundTrip)
{
    JobRequest probe;
    probe.id = "hwz";
    probe.kind = serve::RequestKind::Hw;

    const std::string line = serve::writeJobRequest(probe);
    EXPECT_NE(line.find("\"type\": \"hw\""), std::string::npos)
        << line;
    EXPECT_EQ(line.find("cells"), std::string::npos)
        << "hw probes carry no work: " << line;

    JobRequest parsed;
    std::string error;
    ASSERT_TRUE(serve::parseJobRequest(line, &parsed, &error)) << error;
    EXPECT_EQ(parsed, probe);

    // The embedded triarch.hw.v1 document survives bit-for-bit.
    JobResponse response;
    response.id = "hwz";
    response.configHash = "abc";
    response.hwJson =
        R"({"schema": "triarch.hw.v1", "epoch_slots": 64, "cells": []})";
    const std::string wire = serve::writeJobResponse(response);
    EXPECT_EQ(wire.find('\n'), std::string::npos);
    JobResponse back;
    ASSERT_TRUE(serve::parseJobResponse(wire, &back, &error)) << error;
    EXPECT_EQ(back, response);

    // An hw field that is not an object is rejected.
    EXPECT_FALSE(serve::parseJobResponse(
        R"({"schema": "triarch.result.v1", "id": "x",
            "config_hash": "1", "status": "ok", "hw": 7})",
        &back, &error));
    EXPECT_NE(error.find("hw"), std::string::npos) << error;
}

TEST(ExperimentService, HwReportIsLiveAndRefusedWhileDraining)
{
    std::atomic<std::uint64_t> executions{0};
    const auto registry = fakeRegistry(&executions);
    study::ResultCache cache;
    serve::ExperimentService service({}, &registry, &cache);

    // Seed the process-wide registry with one consistent cell, as a
    // real kernel mapping would on execution.
    hw::HwRegistry::global().clear();
    hw::HwCell cell;
    cell.machine = "viram";
    cell.kernel = "ct";
    cell.cycles = 100;
    cell.breakdown.cycles = {10, 5, 80, 3, 2};
    cell.breakdown.total = 100;
    cell.verdict = {"dram", stats::CycleCategory::DramDma,
                    "bound by DRAM"};
    cell.timeline.cycles = 100;
    cell.timeline.epochCycles = 2;
    cell.timeline.channels.push_back(
        {"busy", std::vector<std::uint64_t>(50, 1)});
    hw::HwRegistry::global().capture(cell);

    JobRequest probe;
    probe.id = "hwz";
    probe.kind = serve::RequestKind::Hw;
    const JobResponse snap = service.hw(probe);
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap.id, "hwz");

    // The daemon's snapshot must itself satisfy the strict parser.
    std::string error;
    const auto parsed = hw::parseHwReport(snap.hwJson, &error);
    ASSERT_TRUE(parsed) << error;
    ASSERT_EQ(parsed->cells.size(), 1u);
    EXPECT_EQ(parsed->cells[0], cell);

    service.beginDrain();
    const JobResponse refused = service.hw(probe);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error->code, JobErrorCode::Draining);
    EXPECT_TRUE(refused.hwJson.empty());
    hw::HwRegistry::global().clear();
}

} // namespace
