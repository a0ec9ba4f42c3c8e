#include "common/logging.hh"

#include <exception>
#include <iostream>

namespace gpusimpow {

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

void
Logger::emit(LogLevel level, const std::string &tag,
             const std::string &message)
{
    if (static_cast<int>(level) >
        static_cast<int>(_level.load(std::memory_order_relaxed)))
        return;
    // One write of the whole line under the lock, so concurrent
    // workers' lines never interleave.
    std::string line = "[gpusimpow:";
    line += tag;
    line += "] ";
    line += message;
    line += '\n';
    std::lock_guard<std::mutex> lock(_mutex);
    std::cerr.write(line.data(), static_cast<std::streamsize>(line.size()));
}

namespace detail {

/**
 * Exception carrying a fatal() message. Thrown instead of exit() so
 * unit tests can assert on fatal conditions; the top-level tools catch
 * it and exit(1).
 */
void
fatalExit(const std::string &message)
{
    throw FatalError(message);
}

void
panicAbort(const std::string &message)
{
    std::cerr << "[gpusimpow:panic] " << message << std::endl;
    std::abort();
}

void
panicAbortAt(const char *file, int line, const std::string &message)
{
    std::cerr << "[gpusimpow:panic] " << file << ":" << line << ": "
              << message << std::endl;
    std::abort();
}

} // namespace detail
} // namespace gpusimpow
