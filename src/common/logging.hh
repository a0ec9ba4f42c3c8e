/**
 * @file
 * Logging and error-reporting facilities in the style of gem5's
 * base/logging.hh: inform() for status, warn() for suspicious but
 * non-fatal conditions, fatal() for user errors that terminate the
 * simulation cleanly, and panic() for internal invariant violations.
 */

#ifndef GPUSIMPOW_COMMON_LOGGING_HH
#define GPUSIMPOW_COMMON_LOGGING_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gpusimpow {

/**
 * Exception thrown by fatal(). Carrying the message in an exception
 * (rather than calling exit() directly) lets unit tests assert on
 * fatal conditions; top-level tools catch it and exit(1).
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/** Verbosity levels for the global logger. */
enum class LogLevel { Quiet = 0, Warn = 1, Inform = 2, Debug = 3 };

/**
 * Process-wide logging configuration. Tests lower the level to Quiet
 * to keep ctest output readable; tools raise it to Debug.
 */
class Logger
{
  public:
    /** Return the singleton logger. */
    static Logger &instance();

    /** Set the maximum level that will be emitted. Safe to call
     *  while other threads emit (relaxed atomic: the level is a
     *  filter knob, not a synchronization point). */
    void setLevel(LogLevel level)
    {
        _level.store(level, std::memory_order_relaxed);
    }

    /** Current maximum emitted level. */
    LogLevel level() const
    {
        return _level.load(std::memory_order_relaxed);
    }

    /** Emit one message at the given level to stderr, as one line
     *  that no concurrent emit() splits. */
    void emit(LogLevel level, const std::string &tag,
              const std::string &message);

  private:
    std::atomic<LogLevel> _level{LogLevel::Warn};
    /** Serializes the writes of emit(). */
    std::mutex _mutex;
};

namespace detail {

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void fatalExit(const std::string &message);
[[noreturn]] void panicAbort(const std::string &message);
[[noreturn]] void panicAbortAt(const char *file, int line,
                               const std::string &message);

} // namespace detail

/** Informative status message; users should not worry about it. */
template <typename... Args>
void
inform(Args &&...args)
{
    Logger::instance().emit(LogLevel::Inform, "info",
                            detail::concat(std::forward<Args>(args)...));
}

/** Something may be modeled imperfectly but simulation can continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    Logger::instance().emit(LogLevel::Warn, "warn",
                            detail::concat(std::forward<Args>(args)...));
}

/**
 * The simulation cannot continue due to a user-side problem (bad
 * configuration, invalid arguments). Exits with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalExit(detail::concat(std::forward<Args>(args)...));
}

/**
 * An internal invariant was violated: a simulator bug, never the
 * user's fault. Aborts so a core dump / debugger can take over.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicAbort(detail::concat(std::forward<Args>(args)...));
}

/** panic() with the callsite's file:line prepended — preferred over
 *  a direct panic() call so crash reports name the failing check. */
#define GSP_PANIC(...)                                                  \
    ::gpusimpow::detail::panicAbortAt(                                  \
        __FILE__, __LINE__,                                             \
        ::gpusimpow::detail::concat(__VA_ARGS__))

/** panic() unless the condition holds; the message carries the
 *  callsite's file:line. */
#define GSP_ASSERT(cond, ...)                                           \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::gpusimpow::detail::panicAbortAt(                          \
                __FILE__, __LINE__,                                     \
                ::gpusimpow::detail::concat(                            \
                    "assertion '" #cond "' failed: ",                   \
                    ##__VA_ARGS__));                                    \
        }                                                               \
    } while (0)

/**
 * Debug-only assertion for hot-path bounds/finiteness checks:
 * identical to GSP_ASSERT in Debug builds, compiled out entirely
 * (condition not evaluated) under NDEBUG so Release benchmarks and
 * the bench/baseline.json gates are unaffected.
 */
#ifdef NDEBUG
#define GSP_DCHECK(cond, ...)                                           \
    do {                                                                \
        (void)sizeof(cond);                                             \
    } while (0)
#else
#define GSP_DCHECK(cond, ...) GSP_ASSERT(cond, ##__VA_ARGS__)
#endif

} // namespace gpusimpow

#endif // GPUSIMPOW_COMMON_LOGGING_HH
