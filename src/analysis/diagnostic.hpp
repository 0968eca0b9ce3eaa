/**
 * @file
 * Structured diagnostics for the static-analysis pipeline.
 *
 * Every pass (IR verifier, range analysis, lint, and the LMI pointer
 * pass) reports findings as Diagnostic records instead of bare strings,
 * so tools can render them as text or JSON, CI can count severities,
 * and CompileError can carry the full list to the caller.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace lmi::analysis {

/** Diagnostic severity, ordered by increasing gravity. Violation is
 *  reserved for machine-checked proofs of a memory-safety violation
 *  (the safety oracle's SpatialOOB/SubObjectOOB/TemporalUAF verdicts):
 *  unlike a plain Error it asserts the program is wrong on *every*
 *  execution reaching the access, not merely unanalyzable. */
enum class Severity : uint8_t { Note, Warning, Error, Violation };

const char* severityName(Severity severity);

/** One finding of one pass over one function. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    /** Which pass produced the finding ("verify", "range", "lint", "lmi"). */
    std::string pass;
    /** Function the finding is in. */
    std::string function;
    /** Value id the finding anchors to (kNoValue for function-level). */
    ir::ValueId value = ir::kNoValue;
    std::string message;

    /** "error: [verify] kernel %12: message" */
    std::string toString() const;
    /** One JSON object (no trailing newline). */
    std::string toJson() const;
};

/** Number of diagnostics at Error severity or above in @p diags. */
size_t errorCount(const std::vector<Diagnostic>& diags);

/** Render a diagnostic list as a JSON array. */
std::string renderDiagnosticsJson(const std::vector<Diagnostic>& diags);

} // namespace lmi::analysis
