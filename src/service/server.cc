#include "service/server.hh"

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/protocol.hh"
#include "sim/request.hh"

namespace gpusimpow {
namespace service {

namespace {

/** The service's instrument set, registered once. */
struct ServiceMetrics
{
    obs::Counter &connections;
    obs::Counter &jobs;
    obs::Counter &rows;
    obs::Counter &row_writes;
    obs::Counter &errors;
    obs::Gauge &handlers;

    static ServiceMetrics &instance()
    {
        obs::Registry &reg = obs::Registry::instance();
        static ServiceMetrics m{
            reg.counter("service/connections",
                        "client connections accepted"),
            reg.counter("service/jobs", "sweep jobs executed"),
            reg.counter("service/rows", "per-scenario rows streamed"),
            reg.counter("service/row_writes",
                        "socket writes that carried row frames"),
            reg.counter("service/errors",
                        "jobs answered with an error frame"),
            reg.gauge("service/handlers",
                      "connection handler threads not yet joined"),
        };
        return m;
    }
};

/** The streamed `row` payload: a human-readable progress line; the
 *  `table` frame is the authoritative result. */
std::string
formatRow(const sim::ScenarioResult &r, std::size_t done,
          std::size_t total)
{
    return strformat("%zu/%zu %s: %.3f ms, %.3f mJ%s", done, total,
                     r.scenario.label.c_str(), r.time_s * 1e3,
                     r.energy_j * 1e3,
                     r.verified ? "" : " [VERIFY FAIL]");
}

/**
 * Sends one job's row frames from a thread of its own while the job
 * runs. The progress hook (on engine workers) only appends an encoded
 * frame and signals; the writer sends everything pending in one
 * write, so rows published back to back leave together and no worker
 * waits on the socket. Finishing (or destruction) sends what is left
 * and joins the thread.
 */
class RowWriter
{
  public:
    RowWriter(int fd, obs::Counter &writes)
        : _fd(fd), _writes(writes), _thread([this] { run(); })
    {
    }
    ~RowWriter() { finish(); }
    RowWriter(const RowWriter &) = delete;
    RowWriter &operator=(const RowWriter &) = delete;

    /** Queue one row frame (thread-safe). */
    void append(const std::string &row)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        bool wake = _pending.empty();
        appendFrame(_pending, frame::row, row);
        if (wake)
            _ready.notify_one();
    }

    /** Send the rest and stop; true when every write reached the
     *  peer. A failed write is remembered and later rows dropped. */
    bool finish()
    {
        if (_thread.joinable()) {
            {
                std::lock_guard<std::mutex> lock(_mutex);
                _finished = true;
            }
            _ready.notify_one();
            _thread.join();
        }
        return _peer_ok;
    }

  private:
    void run()
    {
        std::string batch;
        for (bool finished = false; !finished;) {
            {
                std::unique_lock<std::mutex> lock(_mutex);
                _ready.wait(lock, [&] {
                    return !_pending.empty() || _finished;
                });
                batch.swap(_pending);
                finished = _finished;
            }
            if (!batch.empty() && _peer_ok) {
                GSP_TRACE_SPAN("service/row_write");
                _peer_ok = sendAll(_fd, batch);
                _writes.add(1);
            }
            batch.clear();
        }
    }

    int _fd;
    obs::Counter &_writes;
    std::mutex _mutex;
    std::condition_variable _ready;
    /** Encoded frames not yet sent, in completion order. */
    std::string _pending;
    /** No more rows will be appended. */
    bool _finished = false;
    /** Written by the writer thread only, read after the join. */
    bool _peer_ok = true;
    /** Last: starts after the members it uses. */
    std::thread _thread;
};

} // namespace

SweepServer::SweepServer(std::shared_ptr<sim::SweepSession> session,
                         uint16_t port)
    : _session(std::move(session))
{
    _listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listen_fd < 0)
        fatal("serve: socket(): ", std::strerror(errno));
    int one = 1;
    ::setsockopt(_listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(_listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("serve: cannot bind 127.0.0.1:", port, ": ",
              std::strerror(errno));
    if (::listen(_listen_fd, 16) < 0)
        fatal("serve: listen(): ", std::strerror(errno));
    socklen_t len = sizeof(addr);
    if (::getsockname(_listen_fd,
                      reinterpret_cast<sockaddr *>(&addr), &len) < 0)
        fatal("serve: getsockname(): ", std::strerror(errno));
    _port = ntohs(addr.sin_port);
    // Non-blocking both ends: a full pipe already wakes the loop, and
    // run() drains it without blocking.
    if (::pipe2(_wake_fds, O_NONBLOCK | O_CLOEXEC) < 0)
        fatal("serve: pipe2(): ", std::strerror(errno));
}

SweepServer::~SweepServer()
{
    for (int fd : {_listen_fd, _wake_fds[0], _wake_fds[1]})
        if (fd >= 0)
            ::close(fd);
}

void
SweepServer::stop()
{
    _stop.store(true);
    wake();
}

void
SweepServer::wake()
{
    const char byte = 0;
    // EAGAIN means the pipe is full, so the loop is already woken.
    while (::write(_wake_fds[1], &byte, 1) < 0 && errno == EINTR) {
    }
}

void
SweepServer::run()
{
    inform("serve: listening on 127.0.0.1:", _port);
    while (!_stop.load()) {
        reapHandlers(false);
        pollfd pfds[2] = {{_listen_fd, POLLIN, 0},
                          {_wake_fds[0], POLLIN, 0}};
        if (::poll(pfds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll(): ", std::strerror(errno));
            break;
        }
        if (pfds[1].revents & POLLIN) {
            char drain[64];
            while (::read(_wake_fds[0], drain, sizeof(drain)) > 0) {
            }
        }
        if (!(pfds[0].revents & POLLIN))
            continue;
        int fd = ::accept(_listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno != EINTR)
                warn("serve: accept(): ", std::strerror(errno));
            continue;
        }
        // An idle-receive timeout keeps the handler loop checking
        // the stop flag while a client holds its connection open.
        timeval tv{0, 200000};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        if (!setNoDelay(fd))
            warn("serve: cannot set TCP_NODELAY: ",
                 std::strerror(errno));
        ServiceMetrics &m = ServiceMetrics::instance();
        m.connections.add(1);
        Handler &handler =
            *_handlers.emplace_back(std::make_unique<Handler>());
        m.handlers.set(static_cast<int64_t>(_handlers.size()));
        handler.thread = std::thread([this, fd, &handler] {
            obs::Tracer::instance().labelThread(
                strformat("client-%d", fd));
            handleClient(fd);
            ::close(fd);
            handler.done.store(true);
            wake(); // so the accept loop joins this thread promptly
        });
    }
    // Drain: in-flight jobs finish and their results are persisted
    // before run() returns, so the caller can close the store.
    reapHandlers(true);
}

void
SweepServer::reapHandlers(bool all)
{
    std::erase_if(_handlers, [all](const std::unique_ptr<Handler> &h) {
        if (!all && !h->done.load())
            return false;
        h->thread.join();
        return true;
    });
    ServiceMetrics::instance().handlers.set(
        static_cast<int64_t>(_handlers.size()));
}

void
SweepServer::handleClient(int fd)
{
    ServiceMetrics &m = ServiceMetrics::instance();
    FrameReader reader(fd);
    while (!_stop.load()) {
        Frame in;
        std::string err;
        if (!reader.read(in, err)) {
            if (err == err_timeout)
                continue; // idle; poll the stop flag again
            if (!err.empty())
                warn("serve: dropping client: ", err);
            return;
        }
        if (in.type == frame::shutdown) {
            writeFrame(fd, frame::done, "");
            inform("serve: shutdown requested by client");
            stop();
            return;
        }
        if (in.type != frame::job) {
            writeFrame(fd, frame::error,
                       "unexpected frame '" + in.type + "'");
            return;
        }

        GSP_TRACE_SPAN("service/job");
        try {
            sim::SweepRequest request =
                sim::SweepRequest::parse(in.payload);
            sim::SweepSpec spec = request.toSpec();
            // A RowWriter sends the rows while this handler runs the
            // job. The job itself stays on the handler thread: run on
            // a fresh thread per job, its scenario and result tables
            // land in another malloc arena, which raised the server's
            // peak RSS by ~40%. Write failures are remembered, not
            // fatal: the job must run to completion either way so the
            // session's claims resolve and the store still warms up.
            // The client reads only the summary columns (formatRow,
            // the table), so the job computes summary rows.
            RowWriter rows(fd, m.row_writes);
            sim::SweepResult result = _session->submit(
                spec,
                [&](const sim::ScenarioResult &r, std::size_t done,
                    std::size_t total) {
                    m.rows.add(1);
                    rows.append(formatRow(r, done, total));
                },
                sim::RowDetail::summary);
            bool peer_ok = rows.finish();
            m.jobs.add(1);
            peer_ok = peer_ok &&
                      writeFrame(fd, frame::table,
                                 result.formatTable());
            peer_ok = peer_ok &&
                      writeFrame(fd, frame::metrics,
                                 result.telemetry().toJson());
            peer_ok = peer_ok && writeFrame(fd, frame::done, "");
            if (!peer_ok) {
                warn("serve: client vanished mid-job");
                return;
            }
        } catch (const FatalError &e) {
            m.errors.add(1);
            writeFrame(fd, frame::error, e.what());
        } catch (const std::exception &e) {
            m.errors.add(1);
            writeFrame(fd, frame::error, e.what());
        }
    }
}

} // namespace service
} // namespace gpusimpow
