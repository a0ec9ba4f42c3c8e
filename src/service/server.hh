/**
 * @file
 * The long-running sweep server: accepts client connections on a TCP
 * port, executes submitted sweep jobs on one shared SweepSession,
 * and streams per-scenario results back as they finish. Because all
 * jobs share the session, identical scenarios across concurrent
 * clients are captured exactly once (the session's in-flight dedupe)
 * and repeat queries are answered from the persistent store in
 * O(lookup) — no timing simulation at all.
 *
 * Wire protocol: see service/protocol.hh and docs/sweep_service.md.
 */

#ifndef GPUSIMPOW_SERVICE_SERVER_HH
#define GPUSIMPOW_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/session.hh"

namespace gpusimpow {
namespace service {

/** One listening sweep service over a shared SweepSession. */
class SweepServer
{
  public:
    /**
     * Bind and listen on 127.0.0.1:port (port 0 = ephemeral, for
     * tests — read the resolved port()). fatal() when the socket
     * cannot be bound.
     */
    SweepServer(std::shared_ptr<sim::SweepSession> session,
                uint16_t port);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** The bound port (resolves an ephemeral request). */
    uint16_t port() const { return _port; }

    /**
     * Accept-and-serve until stop() is called or a client sends a
     * `shutdown` frame. Each connection is handled on its own
     * thread; the accept loop joins the handlers that returned, and
     * run() joins the rest before returning, so the store and
     * session are quiescent afterwards. The loop blocks in poll()
     * with no timeout: stop() and a returning handler wake it
     * through a self-pipe.
     */
    void run();

    /** Ask run() to wind down (thread-safe, idempotent); the accept
     *  loop acts on it at once. */
    void stop();

  private:
    /** One connection's thread, which marks itself done on return. */
    struct Handler
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void handleClient(int fd);

    /** Make the accept loop's poll() return (thread-safe). */
    void wake();

    /** Join the handlers that are done (every handler when `all`)
     *  and publish how many remain. Only run() touches _handlers. */
    void reapHandlers(bool all);

    std::shared_ptr<sim::SweepSession> _session;
    int _listen_fd = -1;
    /** Self-pipe: [0] is polled by run(), [1] written by wake(). */
    int _wake_fds[2] = {-1, -1};
    uint16_t _port = 0;
    std::atomic<bool> _stop{false};
    std::vector<std::unique_ptr<Handler>> _handlers;
};

} // namespace service
} // namespace gpusimpow

#endif // GPUSIMPOW_SERVICE_SERVER_HH
