/**
 * @file
 * Tests of the sweep service: request serialization round-trip, an
 * in-process server/client job round-trip on an ephemeral port,
 * concurrent clients deduplicated onto one capture, TCP_NODELAY on
 * both ends of a connection, finished connection handlers joined
 * while the server runs, stop() ending an idle server at once, and
 * the error/shutdown paths of the wire protocol (a job that fails in
 * validation or in its capture gets an error frame). Served tables on a warm store against local rows, in
 * every thermal mode, are test_differential's service leg.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "sim/request.hh"
#include "sim/session.hh"
#include "store/store.hh"

using namespace gpusimpow;
using service::SweepClient;
using service::SweepServer;
using sim::EngineOptions;
using sim::SweepRequest;
using sim::SweepSession;

namespace {

/** A unique store directory per test, removed on scope exit. */
struct ScopedDir
{
    std::filesystem::path path;

    explicit ScopedDir(const std::string &tag)
    {
        static std::size_t counter = 0;
        path = std::filesystem::temp_directory_path() /
               strformat("gsp-svc-%s-%zu", tag.c_str(), counter++);
        std::filesystem::remove_all(path);
    }

    ~ScopedDir() { std::filesystem::remove_all(path); }
};

/** A server on an ephemeral loopback port, run()ning on its own
 *  thread until the fixture scope ends. */
struct ScopedServer
{
    std::shared_ptr<SweepSession> session;
    SweepServer server;
    std::thread runner;

    explicit ScopedServer(std::shared_ptr<SweepSession> s)
        : session(std::move(s)), server(session, 0),
          runner([this] { server.run(); })
    {
    }

    ~ScopedServer()
    {
        server.stop();
        runner.join();
    }

    uint16_t port() const { return server.port(); }
};

/** One timing-unique workload, two power-only variants. */
SweepRequest
smallRequest()
{
    return SweepRequest()
        .withWorkloads("vectoradd")
        .withNodes("40,28");
}

} // namespace

TEST(Request, SerializeParseRoundTrip)
{
    SweepRequest request = SweepRequest()
                               .withGpus("gtx580")
                               .withWorkloads("vectoradd,matmul")
                               .withNodes("40,28")
                               .withVf("0.9:0.8,1:1")
                               .withCoolings("stock,liquid")
                               .withScale(2)
                               .withVerify(false)
                               .withAmbient(300.0)
                               .withTLimit(360.0)
                               .withThrottle(true);
    request.config_xml = "<gpu>\n  <clusters>2</clusters>\n</gpu>\n";

    SweepRequest parsed = SweepRequest::parse(request.serialize());
    EXPECT_EQ(parsed.gpus, request.gpus);
    EXPECT_EQ(parsed.config_xml, request.config_xml);
    EXPECT_EQ(parsed.workloads, request.workloads);
    EXPECT_EQ(parsed.nodes, request.nodes);
    EXPECT_EQ(parsed.vf, request.vf);
    EXPECT_EQ(parsed.coolings, request.coolings);
    EXPECT_EQ(parsed.scale, request.scale);
    EXPECT_EQ(parsed.verify, request.verify);
    EXPECT_TRUE(parsed.ambient_set);
    EXPECT_EQ(parsed.ambient_k, request.ambient_k);
    EXPECT_TRUE(parsed.t_limit_set);
    EXPECT_EQ(parsed.t_limit_k, request.t_limit_k);
    EXPECT_EQ(parsed.throttle, request.throttle);
    // The round trip is exact, so re-serialization is byte-stable.
    EXPECT_EQ(parsed.serialize(), request.serialize());
}

TEST(Request, ParseRejectsMalformedInput)
{
    EXPECT_THROW(SweepRequest::parse("not a request"), FatalError);
    EXPECT_THROW(SweepRequest::parse(""), FatalError);
    // A truncated request (no end marker) must not parse.
    std::string text = SweepRequest().serialize();
    EXPECT_THROW(SweepRequest::parse(text.substr(0, text.size() / 2)),
                 FatalError);
}

TEST(Request, ToSpecRejectsIncoherentAxes)
{
    EXPECT_THROW(SweepRequest().withWorkloads("").toSpec(),
                 FatalError);
    EXPECT_THROW(SweepRequest().withGpus("no-such-gpu").toSpec(),
                 FatalError);
    // Thermal scalars require a cooling axis to act on.
    EXPECT_THROW(SweepRequest().withAmbient(300.0).toSpec(),
                 FatalError);
    EXPECT_THROW(SweepRequest()
                     .withCoolings("stock")
                     .withAmbient(300.0)
                     .withTLimit(290.0) // below ambient
                     .toSpec(),
                 FatalError);
}

TEST(Service, JobRoundTripStreamsRowsAndTable)
{
    ScopedServer server(
        std::make_shared<SweepSession>(EngineOptions().withJobs(2)));

    std::vector<std::string> rows;
    SweepClient client("127.0.0.1", server.port());
    SweepClient::JobResult job = client.submitJob(
        smallRequest(),
        [&](const std::string &row) { rows.push_back(row); });

    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.rows, 2u);
    EXPECT_EQ(rows.size(), 2u);
    EXPECT_NE(job.table.find("vectoradd"), std::string::npos);
    EXPECT_NE(job.metrics_json.find("gpusimpow-metrics-1"),
              std::string::npos);
    // The served table matches a local run of the same request.
    SweepSession local(EngineOptions().withJobs(2));
    EXPECT_EQ(job.table,
              local.submit(smallRequest().toSpec()).formatTable());
}

TEST(Service, RowsLeaveInOrderFromTheHandler)
{
    // The connection's writer thread, not the engine workers, writes
    // the rows: each write carries every row finished since the last
    // one, so a job makes at most one write per row and the client
    // still reads every row in completion order.
    ScopedServer server(
        std::make_shared<SweepSession>(EngineOptions().withJobs(2)));
    obs::Counter &writes =
        obs::Registry::instance().counter("service/row_writes");
    const uint64_t writes0 = writes.value();

    std::vector<std::string> rows;
    SweepClient client("127.0.0.1", server.port());
    SweepClient::JobResult job = client.submitJob(
        smallRequest().withVf("0.9:1,1:1").withCoolings("stock,liquid"),
        [&](const std::string &row) { rows.push_back(row); });

    ASSERT_TRUE(job.ok) << job.error;
    ASSERT_EQ(rows.size(), 8u);
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].rfind(strformat("%zu/8 ", i + 1), 0), 0u)
            << rows[i];
    const uint64_t n_writes = writes.value() - writes0;
    EXPECT_GE(n_writes, 1u);
    EXPECT_LE(n_writes, rows.size());
}

TEST(Service, ConcurrentClientsShareOneCapture)
{
    ScopedDir dir("dedupe");
    ScopedServer server(std::make_shared<SweepSession>(
        EngineOptions().withJobs(2), store::openStore(dir.path)));

    SweepClient::JobResult jobs[2];
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&, c] {
            SweepClient client("127.0.0.1", server.port());
            jobs[c] = client.submitJob(smallRequest());
        });
    for (std::thread &t : clients)
        t.join();

    ASSERT_TRUE(jobs[0].ok) << jobs[0].error;
    ASSERT_TRUE(jobs[1].ok) << jobs[1].error;
    EXPECT_EQ(jobs[0].table, jobs[1].table);
    // One snapshot key in the request, so exactly one entry — and
    // one capture — no matter how the clients interleaved.
    std::size_t entries = 0;
    for (const auto &de : std::filesystem::directory_iterator(dir.path))
        entries += de.path().extension() == ".entry";
    EXPECT_EQ(entries, 1u);
}

TEST(Protocol, NoDelayIsSetOnBothEndsOfALoopbackConnection)
{
    int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&addr), &len),
              0);
    int client = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    int server = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(server, 0);

    auto noDelay = [](int fd) {
        int on = -1;
        socklen_t n = sizeof(on);
        EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &n), 0);
        return on;
    };
    // Nagle is on by default, so the helper is what turns it off.
    EXPECT_EQ(noDelay(client), 0);
    EXPECT_EQ(noDelay(server), 0);
    EXPECT_TRUE(service::setNoDelay(client));
    EXPECT_TRUE(service::setNoDelay(server));
    EXPECT_NE(noDelay(client), 0);
    EXPECT_NE(noDelay(server), 0);
    EXPECT_FALSE(service::setNoDelay(-1));

    ::close(server);
    ::close(client);
    ::close(listener);
}

TEST(Service, BadRequestGetsAnErrorFrame)
{
    ScopedServer server(
        std::make_shared<SweepSession>(EngineOptions().withJobs(1)));

    SweepClient client("127.0.0.1", server.port());
    SweepClient::JobResult job =
        client.submitJob(smallRequest().withWorkloads("no-such"));
    EXPECT_FALSE(job.ok);
    EXPECT_NE(job.error.find("no-such"), std::string::npos)
        << job.error;

    // The connection survives an error; the same client can submit
    // a good job afterwards.
    SweepClient::JobResult retry = client.submitJob(smallRequest());
    EXPECT_TRUE(retry.ok) << retry.error;
}

TEST(Service, ZeroedConfigFieldGetsAnErrorFrame)
{
    // A zero L2 slice count would divide by zero while the power
    // model is built; validation turns it into the job's error.
    ScopedServer server(
        std::make_shared<SweepSession>(EngineOptions().withJobs(1)));

    GpuConfig cfg = GpuConfig::gtx580();
    cfg.l2.slices = 0;
    SweepClient::JobResult job =
        SweepClient("127.0.0.1", server.port())
            .submitJob(smallRequest().withConfigXml(cfg.toXml()));
    EXPECT_FALSE(job.ok);
    EXPECT_NE(job.error.find("l2.slices"), std::string::npos)
        << job.error;

    // The server survives; the next job on it succeeds.
    SweepClient::JobResult next =
        SweepClient("127.0.0.1", server.port()).submitJob(smallRequest());
    EXPECT_TRUE(next.ok) << next.error;
}

TEST(Service, SubByteDramChannelGetsAnErrorFrame)
{
    // A 3-bit DRAM channel moves 0-byte bursts: the memory system
    // would divide by zero in the job's capture and kill the server.
    ScopedServer server(
        std::make_shared<SweepSession>(EngineOptions().withJobs(1)));

    GpuConfig cfg = GpuConfig::gt240();
    cfg.dram.channel_bits = 3;
    SweepClient::JobResult job =
        SweepClient("127.0.0.1", server.port())
            .submitJob(smallRequest().withConfigXml(cfg.toXml()));
    EXPECT_FALSE(job.ok);
    EXPECT_NE(job.error.find("dram.channel_bits"), std::string::npos)
        << job.error;

    SweepClient::JobResult next =
        SweepClient("127.0.0.1", server.port()).submitJob(smallRequest());
    EXPECT_TRUE(next.ok) << next.error;
}

TEST(Service, LivelockBoundGetsAnErrorFrame)
{
    // A 1 MHz DRAM clock passes validation, but it starves a large
    // vectoradd until the capture reaches the shader-cycle bound.
    // Reaching it fails the job, not the server.
    ScopedServer server(
        std::make_shared<SweepSession>(EngineOptions().withJobs(1)));

    GpuConfig cfg = GpuConfig::gt240();
    cfg.clocks.dram_hz = 1e6;
    SweepClient::JobResult job =
        SweepClient("127.0.0.1", server.port())
            .submitJob(SweepRequest()
                           .withConfigXml(cfg.toXml())
                           .withWorkloads("vectoradd")
                           .withScale(160));
    EXPECT_FALSE(job.ok);
    EXPECT_NE(job.error.find("kernel vectorAdd"), std::string::npos)
        << job.error;
    EXPECT_NE(job.error.find("2000000000 shader cycles"),
              std::string::npos)
        << job.error;

    SweepClient::JobResult next =
        SweepClient("127.0.0.1", server.port()).submitJob(smallRequest());
    EXPECT_TRUE(next.ok) << next.error;
}

TEST(Service, FinishedHandlersAreJoinedWhileTheServerRuns)
{
    ScopedDir dir("reap");
    ScopedServer server(std::make_shared<SweepSession>(
        EngineOptions().withJobs(1), store::openStore(dir.path)));

    for (int c = 0; c < 20; ++c) {
        SweepClient client("127.0.0.1", server.port());
        SweepClient::JobResult job = client.submitJob(smallRequest());
        ASSERT_TRUE(job.ok) << job.error;
    }
    // A returning handler wakes the accept loop, which joins it, so
    // the 20 handlers do not pile up until shutdown.
    obs::Gauge &handlers =
        obs::Registry::instance().gauge("service/handlers");
    for (int wait = 0; wait < 500 && handlers.value() > 1; ++wait)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LE(handlers.value(), 1);
}

TEST(Service, StopWakesAnIdleServerAtOnce)
{
    auto session =
        std::make_shared<SweepSession>(EngineOptions().withJobs(1));
    SweepServer server(session, 0);
    std::thread runner([&] { server.run(); });
    // Let run() reach its poll(), where an idle server waits.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    const uint64_t t0 = obs::monotonicNs();
    server.stop();
    runner.join();
    const double elapsed_ms =
        static_cast<double>(obs::monotonicNs() - t0) * 1e-6;
    EXPECT_LT(elapsed_ms, 50.0) << "stop() took " << elapsed_ms
                                << " ms to end run()";
}

TEST(Service, ShutdownIsAcknowledgedAndStopsTheServer)
{
    auto session =
        std::make_shared<SweepSession>(EngineOptions().withJobs(1));
    SweepServer server(session, 0);
    std::thread runner([&] { server.run(); });

    SweepClient client("127.0.0.1", server.port());
    EXPECT_TRUE(client.shutdownServer());
    runner.join(); // run() returns once the stop flag is set
}
