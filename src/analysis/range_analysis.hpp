/**
 * @file
 * Value-range / bounds dataflow pass (the static half of the
 * checks-elision pipeline).
 *
 * Two cooperating abstract domains over the SSA IR:
 *
 *  - an interval domain [lo, hi] over signed 64-bit integers, iterated
 *    in reverse postorder with widening at phi joins so loops converge;
 *  - a pointer-provenance domain tracking which allocation site (alloca,
 *    static shared buffer, constant-size device malloc) a pointer value
 *    derives from, together with the interval of its byte offset from
 *    that allocation's base.
 *
 * Combining the offset interval with the power-of-two extent semantics
 * of core/pointer.hpp classifies every hint-marked pointer operation:
 *
 *  PROVEN_SAFE       the OCU check passes on every execution and the
 *                    checked result is bit-identical to the raw ALU
 *                    result, so the dynamic check can be elided;
 *  PROVEN_VIOLATING  the check fails on every execution that reaches
 *                    the operation: a guaranteed overflow, reported as
 *                    a compile error;
 *  UNKNOWN           neither provable; the dynamic check stays.
 *
 * Soundness of PROVEN_SAFE (the elision criterion): with E the extent
 * and A = alignedSize(site) = 2^modifiableBits(E), allocation bases are
 * A-aligned under the Pow2Aligned policies. If both the input pointer's
 * and the result's byte offsets provably lie in [0, A), input and
 * output share every bit above log2(A) — address bits and extent field
 * alike — so (in ^ out) & unmodifiableMask(E) == 0 and the check
 * passes returning the raw result. For invalid/poisoned inputs
 * (extent 0 or >= 27) the OCU's pass-through poison(out, E) is equally
 * bit-identical because the extent bits cannot carry. Identity
 * operations (zero delta, phi moves) are a special case of the same
 * argument valid for *any* provenance. Pointers of unknown provenance
 * (kernel parameters, dynamic shared, non-constant malloc) are never
 * proven, so every externally seeded out-of-bounds access keeps its
 * dynamic check.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/pointer.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

/** Inclusive signed-64 interval with saturation to full on overflow. */
struct Interval
{
    int64_t lo = INT64_MIN;
    int64_t hi = INT64_MAX;

    static Interval full() { return {}; }
    static Interval of(int64_t v) { return {v, v}; }
    static Interval range(int64_t lo, int64_t hi) { return {lo, hi}; }

    bool isFull() const { return lo == INT64_MIN && hi == INT64_MAX; }
    bool isConst() const { return lo == hi; }
    /** True when the interval lies inside [@p a, @p b] inclusive. */
    bool within(int64_t a, int64_t b) const { return lo >= a && hi <= b; }

    bool operator==(const Interval&) const = default;

    /** Union hull. */
    Interval join(const Interval& o) const;
    /** Standard widening: a bound that grew jumps to infinity. */
    Interval widen(const Interval& next) const;

    // Transfer helpers. Any possible wraparound returns full(): the
    // simulated ALU wraps mod 2^64, so a clamped interval would
    // under-approximate.
    static Interval add(const Interval& a, const Interval& b);
    static Interval sub(const Interval& a, const Interval& b);
    static Interval mul(const Interval& a, const Interval& b);
    static Interval min_(const Interval& a, const Interval& b);
    static Interval shl(const Interval& a, const Interval& b);
    static Interval shr(const Interval& a, const Interval& b);
    static Interval and_(const Interval& a, const Interval& b);
    static Interval orLike(const Interval& a, const Interval& b);

    std::string toString() const;
};

/** Verdict for one hint-marked pointer operation. */
enum class SafetyClass : uint8_t { Unknown, ProvenSafe, ProvenViolating };

/** Provenance of a pointer value. */
struct PointerFact
{
    /** True when the pointer provably derives from a single site. */
    bool known_site = false;
    /** The allocation site (Alloca / SharedRef / const-size Malloc). */
    ir::ValueId site = ir::kNoValue;
    /** Requested allocation size at the site, bytes. */
    uint64_t site_size = 0;
    /** Byte offset from the allocation base. */
    Interval offset = Interval::full();

    bool operator==(const PointerFact&) const = default;
};

/**
 * Fixpoint pass bound of the range pass and of the safety oracle's field
 * dataflow (widening guarantees convergence well before).
 */
inline constexpr unsigned kFixpointPassBound = 8;

/** Result of the pass over one (flattened) function. */
struct RangeAnalysis
{
    /** Interval for every integer-typed value. */
    std::unordered_map<ir::ValueId, Interval> ranges;
    /** Provenance for every pointer-typed value. */
    std::unordered_map<ir::ValueId, PointerFact> pointers;
    /** Verdict for every hint-marked pointer op. */
    std::unordered_map<ir::ValueId, SafetyClass> safety;
    /** Proven violations, as error diagnostics. */
    std::vector<Diagnostic> diagnostics;

    size_t count(SafetyClass c) const
    {
        size_t n = 0;
        for (const auto& [v, s] : safety)
            n += s == c;
        return n;
    }
};

RangeAnalysis analyzeRanges(const ir::IrFunction& f);

} // namespace lmi::analysis
