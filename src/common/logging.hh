/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * @c fatal() terminates on a user error (bad configuration) with
 * exit(1) -- or, on a thread inside a FatalThrowScope (a sweep pool
 * worker), throws FatalError so the error reaches the job's caller;
 * @c panic() terminates on an internal invariant violation with
 * abort(); @c warn() reports suspicious-but-survivable conditions.
 */

#ifndef SIPT_COMMON_LOGGING_HH
#define SIPT_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace sipt
{

namespace detail
{

/** Concatenate a parameter pack into one message string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** What fatal() throws inside a FatalThrowScope; what() is the
 *  message fatal() would have printed. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * While one is alive on a thread, fatal() on that thread throws
 * FatalError instead of calling exit(). Sweep pool workers hold one
 * for their lifetime: exit() on a worker would run the static
 * destructors, which join the process-wide pool from inside it.
 * Scopes nest; the mode is per thread, so no thread sees another's.
 */
class FatalThrowScope
{
  public:
    FatalThrowScope();
    ~FatalThrowScope();
    FatalThrowScope(const FatalThrowScope &) = delete;
    FatalThrowScope &operator=(const FatalThrowScope &) = delete;
};

/**
 * Abort the simulation because of a user error (bad configuration,
 * invalid arguments). Exits with status 1, or throws FatalError
 * inside a FatalThrowScope.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(
        detail::formatMessage(std::forward<Args>(args)...),
        nullptr, 0);
}

/**
 * Abort the simulation because of an internal bug: a condition that
 * must never occur regardless of user input. Calls abort().
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(
        detail::formatMessage(std::forward<Args>(args)...),
        nullptr, 0);
}

/** Report a survivable but suspicious condition to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(
        detail::formatMessage(std::forward<Args>(args)...));
}

/** Report a normal status message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(
        detail::formatMessage(std::forward<Args>(args)...));
}

/** panic() unless @p cond holds. */
#define SIPT_ASSERT(cond, ...)                                        \
    do {                                                              \
        if (!(cond)) {                                                \
            ::sipt::panic("assertion failed: ", #cond, " ",          \
                          ##__VA_ARGS__);                             \
        }                                                             \
    } while (false)

/**
 * SIPT_ASSERT for invariant checks whose *evaluation* rescans a
 * whole structure (e.g. re-probing a cache set to assert a line is
 * absent). These double the cost of the operation they guard, so
 * optimized builds (NDEBUG) compile them out; debug builds and the
 * differential golden-model checker still enforce the invariants.
 */
#ifdef NDEBUG
#define SIPT_DEBUG_ASSERT(cond, ...)                                  \
    do {                                                              \
        if (false) {                                                  \
            (void)(cond);                                             \
        }                                                             \
    } while (false)
#else
#define SIPT_DEBUG_ASSERT(cond, ...) SIPT_ASSERT(cond, ##__VA_ARGS__)
#endif

} // namespace sipt

#endif // SIPT_COMMON_LOGGING_HH
