#include "common/logging.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdlib>
#include <fstream>

namespace lmi {

namespace {
// Atomic so parallel sweep workers may emit (or silence) messages while
// another thread toggles verbosity without a data race.
std::atomic<bool> g_verbose{true};
} // namespace

void
setVerbose(bool verbose)
{
    g_verbose.store(verbose, std::memory_order_relaxed);
}

void
writeOutputFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();
    if (!out)
        lmi_fatal("cannot write %s", path.c_str());
    std::printf("wrote %s\n", path.c_str());
}

namespace detail {

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string& msg)
{
    throw FatalError(msg);
}

void
messageImpl(const char* tag, const std::string& msg)
{
    if (g_verbose)
        std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

std::string
formatv(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? size_t(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

} // namespace detail
} // namespace lmi
