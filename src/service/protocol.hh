/**
 * @file
 * Wire protocol of the sweep service: a length-prefixed line
 * protocol, symmetric in both directions. One frame is
 *
 *     <type> <nbytes>\n
 *     <nbytes payload bytes>\n
 *
 * where <type> is a short lowercase word. The length prefix makes
 * framing independent of payload content (requests embed XML,
 * metrics embed JSON), and the trailing newline keeps a captured
 * conversation readable with a pager.
 *
 * Conversation: a client sends `job` (payload: the serialized
 * SweepRequest); the server streams one `row` per finished scenario
 * (payload: a human-readable progress line, completion order), then
 * `table` (the full formatted result table, deterministic expansion
 * order), `metrics` (the job's SweepTelemetry JSON — the same
 * document `--metrics-json` writes), and `done`. A job that fails
 * server-side yields `error` (payload: the fatal message) instead.
 * `shutdown` asks the server to stop accepting and drain; it is
 * acknowledged with `done`.
 */

#ifndef GPUSIMPOW_SERVICE_PROTOCOL_HH
#define GPUSIMPOW_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <string>

namespace gpusimpow {
namespace service {

/** One protocol frame. */
struct Frame
{
    std::string type;
    std::string payload;
};

/** Frame types (the protocol's full vocabulary). */
namespace frame {
inline constexpr const char *job = "job";
inline constexpr const char *row = "row";
inline constexpr const char *table = "table";
inline constexpr const char *metrics = "metrics";
inline constexpr const char *done = "done";
inline constexpr const char *error = "error";
inline constexpr const char *shutdown = "shutdown";
} // namespace frame

/** Upper bound on one frame's payload; a peer announcing more is
 *  malformed (or hostile) and the connection is dropped. */
constexpr std::size_t max_payload_bytes = 256u << 20;

/** FrameReader::read error string for an idle receive timeout (the
 *  socket's SO_RCVTIMEO expired between frames): the connection is
 *  intact and read() may simply be called again — how the server
 *  stays responsive to stop() while a client sits idle. */
inline constexpr const char *err_timeout = "timeout";

/**
 * Buffered frame reader over one socket. Not thread-safe; one reader
 * per connection side.
 */
class FrameReader
{
  public:
    explicit FrameReader(int fd) : _fd(fd) {}

    /**
     * Read the next frame. Returns false on clean EOF at a frame
     * boundary or on error (`err` empty vs. the failure reason —
     * mid-frame EOF is an error, not a clean close).
     */
    bool read(Frame &out, std::string &err);

  private:
    int _fd;
    std::string _buf;
};

/** Append one frame's wire bytes to `wire`. */
void appendFrame(std::string &wire, const std::string &type,
                 const std::string &payload);

/** Send every byte (handles short writes); false on socket error. */
bool sendAll(int fd, const std::string &bytes);

/** Write one frame: appendFrame() + sendAll(). */
bool writeFrame(int fd, const std::string &type,
                const std::string &payload);

/**
 * Send every write at once (TCP_NODELAY) on a connected socket, so a
 * job's small closing frames do not wait for the peer's delayed ACK.
 * Both ends of every service connection set it. False on error.
 */
bool setNoDelay(int fd);

} // namespace service
} // namespace gpusimpow

#endif // GPUSIMPOW_SERVICE_PROTOCOL_HH
