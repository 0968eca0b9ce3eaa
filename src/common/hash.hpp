/**
 * @file
 * Streaming FNV-1a hashing for experiment fingerprints and digests.
 *
 * Every sweep cell's payload names the cell by a hash of everything
 * that determines its (deterministic) simulation outcome: the workload
 * profile, the mechanism, the scale factor, and the full GpuConfig
 * (cellFingerprint, runner/sweep.hpp). The digest goldens hash whole
 * payloads. A stable, dependency-free hash keeps both reproducible
 * across processes and builds.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace lmi {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr uint64_t kPrime = 0x100000001b3ull;

    Fnv1a&
    bytes(const void* data, size_t n)
    {
        const uint8_t* p = static_cast<const uint8_t*>(data);
        for (size_t i = 0; i < n; ++i) {
            state_ ^= p[i];
            state_ *= kPrime;
        }
        return *this;
    }

    /** Hash the string contents plus a length terminator, so that
     *  ("ab","c") and ("a","bc") fingerprint differently. */
    Fnv1a&
    str(const std::string& s)
    {
        bytes(s.data(), s.size());
        return u64(s.size());
    }

    Fnv1a&
    u64(uint64_t v)
    {
        return bytes(&v, sizeof(v));
    }

    /** Doubles are hashed by bit pattern; configs only ever carry values
     *  that round-trip exactly, so bit equality is the right notion. */
    Fnv1a&
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        return u64(bits);
    }

    uint64_t value() const { return state_; }

  private:
    uint64_t state_ = kOffsetBasis;
};

} // namespace lmi
