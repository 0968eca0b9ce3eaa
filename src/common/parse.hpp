/**
 * @file
 * Command-line count parsing shared by lmi_explore and the benches.
 */

#pragma once

#include <charconv>
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

} // namespace lmi
