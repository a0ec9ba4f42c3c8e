#include "service/client.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "service/protocol.hh"

namespace gpusimpow {
namespace service {

SweepClient::SweepClient(const std::string &host, uint16_t port)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    int gai = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
    if (gai != 0)
        fatal("submit: cannot resolve '", host,
              "': ", ::gai_strerror(gai));
    sockaddr_in addr =
        *reinterpret_cast<const sockaddr_in *>(res->ai_addr);
    ::freeaddrinfo(res);
    addr.sin_port = htons(port);

    _fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_fd < 0)
        fatal("submit: socket(): ", std::strerror(errno));
    if (::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        int saved = errno;
        ::close(_fd);
        _fd = -1;
        fatal("submit: cannot connect to ", host, ":", port, ": ",
              std::strerror(saved));
    }
    if (!setNoDelay(_fd))
        warn("submit: cannot set TCP_NODELAY: ", std::strerror(errno));
}

SweepClient::~SweepClient()
{
    if (_fd >= 0)
        ::close(_fd);
}

SweepClient::JobResult
SweepClient::submitJob(
    const sim::SweepRequest &request,
    const std::function<void(const std::string &)> &on_row)
{
    JobResult job;
    if (!writeFrame(_fd, frame::job, request.serialize())) {
        job.error = "failed to send the job frame";
        return job;
    }
    FrameReader reader(_fd);
    for (;;) {
        Frame in;
        std::string err;
        if (!reader.read(in, err)) {
            job.error = err.empty()
                            ? "server closed the connection"
                            : err;
            return job;
        }
        if (in.type == frame::row) {
            ++job.rows;
            if (on_row)
                on_row(in.payload);
        } else if (in.type == frame::table) {
            job.table = in.payload;
        } else if (in.type == frame::metrics) {
            job.metrics_json = in.payload;
        } else if (in.type == frame::done) {
            job.ok = true;
            return job;
        } else if (in.type == frame::error) {
            job.error = in.payload;
            return job;
        } else {
            job.error = "unexpected frame '" + in.type + "'";
            return job;
        }
    }
}

bool
SweepClient::shutdownServer()
{
    if (!writeFrame(_fd, frame::shutdown, ""))
        return false;
    FrameReader reader(_fd);
    Frame in;
    std::string err;
    return reader.read(in, err) && in.type == frame::done;
}

} // namespace service
} // namespace gpusimpow
