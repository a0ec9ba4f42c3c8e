#include "service/protocol.hh"

#include <cerrno>
#include <cstring>
#include <string_view>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>

#include "common/strutil.hh"

namespace gpusimpow {
namespace service {

namespace {

/**
 * recv() once into the buffer; 1 on data, 0 on EOF, -1 on error,
 * -2 on an SO_RCVTIMEO expiry when the caller opted out of retrying
 * it (EINTR always retried). Mid-frame the caller keeps retrying —
 * the peer is actively sending — but between frames a timeout must
 * surface so the server can poll its stop flag.
 */
int
fill(int fd, std::string &buf, bool retry_timeout)
{
    char chunk[4096];
    for (;;) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buf.append(chunk, static_cast<std::size_t>(n));
            return 1;
        }
        if (n == 0)
            return 0;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (retry_timeout)
                continue;
            return -2;
        }
        return -1;
    }
}

} // namespace

bool
FrameReader::read(Frame &out, std::string &err)
{
    err.clear();
    // Header line first. A receive timeout with nothing buffered is
    // the only resumable failure (err_timeout): the buffer is
    // untouched, so the caller may just call read() again.
    std::size_t nl;
    while ((nl = _buf.find('\n')) == std::string::npos) {
        if (_buf.size() > 256) {
            err = "oversized frame header";
            return false;
        }
        int r = fill(_fd, _buf, /*retry_timeout=*/!_buf.empty());
        if (r == -2) {
            err = err_timeout;
            return false;
        }
        if (r < 0) {
            err = std::strerror(errno);
            return false;
        }
        if (r == 0) {
            if (!_buf.empty())
                err = "connection closed mid-frame";
            return false; // clean EOF at a frame boundary
        }
    }
    std::string_view header(_buf.data(), nl);
    TextCursor hs(header);
    // An empty type leaves no size token, which the size check rejects.
    std::string_view type_view = hs.next();
    uint64_t nbytes = 0;
    if (!TextCursor::parseU64(hs.next(), nbytes)) {
        err = "malformed frame header '";
        err += header;
        err += '\'';
        return false;
    }
    if (nbytes > max_payload_bytes) {
        err = strformat("frame payload of %llu bytes exceeds the %zu "
                        "byte cap",
                        static_cast<unsigned long long>(nbytes),
                        max_payload_bytes);
        return false;
    }
    std::string type(type_view); // the view dies with the erase
    _buf.erase(0, nl + 1);

    // Then exactly nbytes payload plus the trailing newline.
    while (_buf.size() < nbytes + 1) {
        int r = fill(_fd, _buf, /*retry_timeout=*/true);
        if (r < 0) {
            err = std::strerror(errno);
            return false;
        }
        if (r == 0) {
            err = "connection closed mid-frame";
            return false;
        }
    }
    if (_buf[nbytes] != '\n') {
        err = "frame payload not newline-terminated";
        return false;
    }
    out.type = type;
    out.payload = _buf.substr(0, nbytes);
    _buf.erase(0, nbytes + 1);
    return true;
}

void
appendFrame(std::string &wire, const std::string &type,
            const std::string &payload)
{
    wire += strformat("%s %zu\n", type.c_str(), payload.size());
    wire += payload;
    wire += '\n';
}

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFrame(int fd, const std::string &type, const std::string &payload)
{
    std::string wire;
    appendFrame(wire, type, payload);
    return sendAll(fd, wire);
}

bool
setNoDelay(int fd)
{
    int one = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                        sizeof(one)) == 0;
}

} // namespace service
} // namespace gpusimpow
