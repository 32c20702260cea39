/**
 * @file
 * Status-message and error-reporting helpers in the gem5 idiom.
 *
 * panic()  - an internal invariant was violated (a library bug); aborts.
 * fatal()  - the caller supplied an impossible configuration; exits(1).
 * warn()   - something is suspicious but the run can continue.
 */

#ifndef MEMCON_COMMON_LOGGING_HH
#define MEMCON_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace memcon
{

/** Print "panic: <msg>" with location and abort(). For library bugs. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print "fatal: <msg>" and exit(1). For user/configuration errors. */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print "warn: <msg>" to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn() output (used by quiet test runs). */
void setQuiet(bool quiet);

/** @return true when warn() output is suppressed. */
bool isQuiet();

/** Format a printf-style message into a std::string. */
std::string vstrprintf(const char *fmt, va_list ap);

/** Format a printf-style message into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * The current errno as a message, via the thread-safe strerror_r
 * (durable-artifact writes report I/O failures from worker threads).
 */
std::string errnoString();

} // namespace memcon

#define panic(...) ::memcon::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::memcon::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            panic(__VA_ARGS__);                                             \
    } while (0)

/** fatal() unless the condition holds. */
#define fatal_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            fatal(__VA_ARGS__);                                             \
    } while (0)

#endif // MEMCON_COMMON_LOGGING_HH
