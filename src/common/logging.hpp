/**
 * @file
 * Status-message and error helpers in the spirit of gem5's logging.hh.
 *
 * - panic():  an internal invariant was violated (a bug in this library);
 *             aborts.
 * - fatal():  the user supplied an impossible configuration; throws
 *             FatalError so tests and tools can recover.
 * - warn() / inform(): non-terminating status messages on stderr.
 */

#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>

namespace lmi {

/** Thrown by fatal() for user-level configuration errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);
[[noreturn]] void fatalImpl(const std::string& msg);
void messageImpl(const char* tag, const std::string& msg);

std::string formatv(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace detail

/** Enable/disable inform()/warn() output (benches silence them). */
void setVerbose(bool verbose);

/**
 * Write @p text to @p path, replacing the file, and print "wrote PATH".
 * Throws FatalError naming the path when it cannot be written.
 */
void writeOutputFile(const std::string& path, const std::string& text);

} // namespace lmi

/** Abort with a message: an internal bug, never a user error. */
#define lmi_panic(...) \
    ::lmi::detail::panicImpl(__FILE__, __LINE__, ::lmi::detail::formatv(__VA_ARGS__))

/** Throw FatalError: user-level misconfiguration. */
#define lmi_fatal(...) \
    ::lmi::detail::fatalImpl(::lmi::detail::formatv(__VA_ARGS__))

/** Non-fatal warning to stderr. */
#define lmi_warn(...) \
    ::lmi::detail::messageImpl("warn", ::lmi::detail::formatv(__VA_ARGS__))

/** Informational message to stderr. */
#define lmi_inform(...) \
    ::lmi::detail::messageImpl("info", ::lmi::detail::formatv(__VA_ARGS__))
