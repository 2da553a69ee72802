/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - an internal invariant was violated: a simulator bug.
 *            Aborts (may dump core).
 * fatal()  - the simulation cannot continue due to a user error
 *            (bad configuration, invalid arguments). Exits cleanly.
 */

#ifndef DALOREX_COMMON_LOGGING_HH
#define DALOREX_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace dalorex
{

/** Internal helpers; use the macros below instead. */
namespace log_detail
{

[[noreturn]] void panicImpl(const char* file, int line,
                            const std::string& msg);
[[noreturn]] void fatalImpl(const char* file, int line,
                            const std::string& msg);

/** Stream-compose a message from a variadic pack. */
template <typename... Args>
std::string
composeMessage(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace log_detail
} // namespace dalorex

/** Report a simulator bug and abort. */
#define panic(...)                                                        \
    ::dalorex::log_detail::panicImpl(                                     \
        __FILE__, __LINE__,                                               \
        ::dalorex::log_detail::composeMessage(__VA_ARGS__))

/** Report an unrecoverable user error and exit(1). */
#define fatal(...)                                                        \
    ::dalorex::log_detail::fatalImpl(                                     \
        __FILE__, __LINE__,                                               \
        ::dalorex::log_detail::composeMessage(__VA_ARGS__))

/** panic() if the given invariant does not hold. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if ((cond))                                                       \
            panic(__VA_ARGS__);                                           \
    } while (0)

/** fatal() if the given user-facing condition holds. */
#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if ((cond))                                                       \
            fatal(__VA_ARGS__);                                           \
    } while (0)

#endif // DALOREX_COMMON_LOGGING_HH
