/**
 * @file
 * Whole-kernel safety oracle: a static ground-truth classifier for
 * every memory access in a (flattened) kernel.
 *
 * The range/provenance pass (range_analysis.hpp) answers the *elision*
 * question — "does the dynamic OCU check provably pass?" — against the
 * power-of-two padded allocation the hardware actually protects. The
 * oracle answers the *semantic* question the detection-coverage matrix
 * needs: "is this access a memory-safety violation of the program, and
 * of which class?" It extends the range pass with two extra domains:
 *
 *  - a temporal automaton per allocation site. Each Alloca/Malloc site
 *    moves through
 *
 *        Bottom < { Live, Invalidated, Reallocated } < Top
 *
 *    where Free/ScopeEnd edges take a site Live -> Invalidated, a
 *    subsequent Malloc (any site: the heap may hand the chunk back)
 *    takes Invalidated -> Reallocated, and joins of disagreeing states
 *    (freed on one path only, or a loop re-allocating its own site
 *    after a free) go to Top. The automaton runs as a forward dataflow
 *    over the Cfg in reverse postorder; an access whose provenance site
 *    is provably Invalidated or Reallocated at the access point is a
 *    TemporalUAF on every execution reaching it.
 *
 *  - a byte-granular object-layout domain. FieldGep carves a window
 *    [base_offset + imm, base_offset + imm + aux) out of the
 *    allocation; derived pointer arithmetic keeps the window while the
 *    offset interval moves. An access that provably stays inside the
 *    allocation but provably escapes its field window is a
 *    SubObjectOOB — the class Table III scores 0/3 for every
 *    whole-allocation mechanism.
 *
 * Verdicts are sound in the proof direction: SpatialOOB / SubObjectOOB
 * / TemporalUAF mean *every* execution reaching the access violates;
 * ProvenSafe means every execution is clean (in-bounds offset against
 * the *requested* size — not the padded alignedSize the dynamic checks
 * use — inside the field window, site provably Live). Anything mixed
 * or unprovable is Unknown. Each verdict carries a witness: the
 * allocation site, the offset interval, and the invalidating op for
 * temporal violations.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/range_analysis.hpp"
#include "core/pointer.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

/** Safety class of one memory access (Load/Store/Atomic*). */
enum class AccessVerdict : uint8_t {
    Unknown,      ///< not provable either way; dynamic checks must stay
    ProvenSafe,   ///< in-bounds, in-field, site live on every execution
    SpatialOOB,   ///< provably outside the requested allocation size
    SubObjectOOB, ///< provably inside the allocation, outside its field
    TemporalUAF,  ///< site provably Invalidated/Reallocated at the access
};

const char* accessVerdictName(AccessVerdict v);

/** True for the three proven-violation verdicts. */
inline bool
isViolationVerdict(AccessVerdict v)
{
    return v == AccessVerdict::SpatialOOB ||
           v == AccessVerdict::SubObjectOOB ||
           v == AccessVerdict::TemporalUAF;
}

/** One classified access with its proof ingredients. */
struct AccessWitness
{
    /** The Load/Store/Atomic* instruction. */
    ir::ValueId access = ir::kNoValue;
    AccessVerdict verdict = AccessVerdict::Unknown;
    /** Allocation site the pointer provably derives from (when known). */
    ir::ValueId site = ir::kNoValue;
    /** Requested allocation size at the site, bytes. */
    uint64_t site_size = 0;
    /** Byte-offset interval of the access from the allocation base. */
    Interval offset = Interval::full();
    /** Access width in bytes. */
    unsigned width = 0;
    /** The Free/ScopeEnd that killed the site (TemporalUAF only). */
    ir::ValueId invalidated_by = ir::kNoValue;
    /** Field window [field_lo, field_lo + field_size) when the pointer
     *  went through a FieldGep with a provable base offset. */
    bool has_field = false;
    uint64_t field_lo = 0;
    uint64_t field_size = 0;
    /**
     * SpatialOOB refinement: the access escapes the requested size but
     * stays inside the power-of-two alignedSize the in-pointer extent
     * protects — exactly the cells whole-allocation dynamic mechanisms
     * (LMI included) are structurally blind to.
     */
    bool within_padding = false;

    /** Human-readable one-line witness. */
    std::string describe() const;
};

/** Result of the oracle over one (flattened) function. */
struct SafetyOracleReport
{
    /** Witness for every memory access, keyed by instruction id. */
    std::unordered_map<ir::ValueId, AccessWitness> accesses;
    /** Proven violations, as Severity::Violation diagnostics. */
    std::vector<Diagnostic> diagnostics;

    size_t count(AccessVerdict v) const
    {
        size_t n = 0;
        for (const auto& [id, w] : accesses)
            n += w.verdict == v;
        return n;
    }

    /** True when every access is ProvenSafe (and there is at least one). */
    bool allProvenSafe() const
    {
        if (accesses.empty())
            return false;
        for (const auto& [id, w] : accesses)
            if (w.verdict != AccessVerdict::ProvenSafe)
                return false;
        return true;
    }
};

/** Run the oracle over one flattened (inlineCalls) function, reading
 *  the range analysis of the same function. */
SafetyOracleReport analyzeSafety(const ir::IrFunction& f,
                                 const RangeAnalysis& ranges);

/** The same, running the range analysis first. */
inline SafetyOracleReport analyzeSafety(const ir::IrFunction& f)
{
    return analyzeSafety(f, analyzeRanges(f));
}

} // namespace lmi::analysis
