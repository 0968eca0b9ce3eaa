/**
 * @file
 * Command-line count and real-number parsing shared by lmi_explore and
 * the benches.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace lmi {

/** Parse the value of count flag @p flag: a whole-string unsigned
 *  decimal no larger than @p max (atoi would read garbage as 0, "all
 *  cores", and "-3" as 4294967293). Prints the error on failure. */
inline bool
parseCount(const std::string& flag, const std::string& text, uint64_t max,
           uint64_t* out)
{
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    if (ec == std::errc() && ptr == end && *out <= max)
        return true;
    std::fprintf(stderr,
                 "error: bad %s '%s' (expected an unsigned decimal <= "
                 "%llu)\n",
                 flag.c_str(), text.c_str(), (unsigned long long)max);
    return false;
}

/** Parse the value of real-valued argument @p flag (a scale or a
 *  tolerance): a whole-string finite decimal, > 0, or >= 0 when
 *  @p allow_zero (atof would read "abc" as 0 and pass "nan" through).
 *  Prints the error on failure. */
inline bool
parseReal(const std::string& flag, const std::string& text, bool allow_zero,
          double* out)
{
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    if (ec == std::errc() && ptr == end && std::isfinite(*out) &&
        (*out > 0.0 || (allow_zero && *out == 0.0)))
        return true;
    std::fprintf(stderr, "error: bad %s '%s' (expected a finite decimal %s)\n",
                 flag.c_str(), text.c_str(), allow_zero ? ">= 0" : "> 0");
    return false;
}

} // namespace lmi
