/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated; abort.
 * fatal()  — the user configured something impossible; clean exit.
 * warn()   — something suspicious happened but simulation continues.
 * inform() — status messages.
 */

#ifndef RSSD_SIM_LOGGING_HH
#define RSSD_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace rssd {

namespace detail {

[[noreturn]] inline void
die(const char *kind, const char *msg, bool core_dump)
{
    std::fprintf(stderr, "%s: %s\n", kind, msg);
    if (core_dump)
        std::abort();
    std::exit(1);
}

[[noreturn]] inline void
die(const char *kind, const std::string &msg, bool core_dump)
{
    die(kind, msg.c_str(), core_dump);
}

} // namespace detail

/**
 * Report an internal simulator bug and abort. Use when a condition
 * can only arise from a programming error, never from configuration.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    detail::die("panic", msg, true);
}

[[noreturn]] inline void
panic(const char *msg)
{
    detail::die("panic", msg, true);
}

/**
 * Report an unusable configuration or input and exit(1). Use when the
 * simulation cannot continue because of a user-provided value.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    detail::die("fatal", msg, false);
}

/** exit(1) with a message if @p cond holds (a configuration error). */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond) [[unlikely]]
        fatal(msg);
}

/** Report a suspicious-but-survivable condition. */
inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** Report ordinary status to the user. */
inline void
inform(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

/**
 * Abort with a message unless @p cond holds. Cheap enough to keep on:
 * the const char* overload keeps literal messages out of std::string
 * — hot paths (LZ tokens, segment fields, FTL ops) assert every few
 * bytes, and a >15-char literal would otherwise heap-allocate on
 * every single call.
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond) [[unlikely]]
        panic(msg.c_str());
}

} // namespace rssd

#endif // RSSD_SIM_LOGGING_HH
