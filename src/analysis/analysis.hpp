/**
 * @file
 * Umbrella driver for the static-analysis pipeline (paper-adjacent:
 * the GPUArmor/L4-Pointer axis of removing statically redundant GPU
 * bounds checks on top of LMI's in-pointer metadata).
 *
 * Pass order at AnalysisLevel::Oracle:
 *
 *   1. verify          — structural/SSA/type diagnostics; errors stop
 *                        the pipeline (later passes assume valid IR);
 *   2. range analysis  — interval + provenance dataflow; classifies
 *                        every hint-marked pointer op (PROVEN_SAFE /
 *                        PROVEN_VIOLATING / UNKNOWN); proven violations
 *                        are error diagnostics;
 *   3. lint            — LMI-specific advisory findings (warnings);
 *   4. safety oracle   — (safety_oracle.hpp) on the range facts of
 *                        step 2: every memory access is classified
 *                        {ProvenSafe, SpatialOOB, SubObjectOOB,
 *                        TemporalUAF, Unknown}, and proven violations,
 *                        use-after-free among them, surface as
 *                        Severity::Violation diagnostics.
 *
 * AnalysisLevel::Verify (the default) stops after step 1.
 *
 * The compiler does not run this driver: compileKernel calls the
 * verifier on every kernel and, for the elide variant, the range
 * analysis, whose PROVEN_SAFE ops get the E hint bit.
 *
 * The barrier-aware race analyzer (race_analysis.hpp) is not a level:
 * it needs the launch geometry, so its callers run analyzeRaces().
 */

#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/lint.hpp"
#include "analysis/race_analysis.hpp"
#include "analysis/range_analysis.hpp"
#include "analysis/safety_oracle.hpp"
#include "analysis/verify.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

/** How much of the pipeline analyzeFunction runs. */
enum class AnalysisLevel : uint8_t { Verify, Oracle };

struct AnalysisOptions
{
    AnalysisLevel level = AnalysisLevel::Verify;
};

/** Combined result of one pipeline run over one function. */
struct AnalysisReport
{
    /** All findings, in pass order. */
    std::vector<Diagnostic> diagnostics;
    /** Verdict counts of the range analysis (hint-marked pointer ops)
     *  and of the safety oracle (memory accesses); Oracle level only. */
    size_t proven_safe = 0;
    size_t proven_violating = 0;
    size_t unknown = 0;
    size_t oracle_safe = 0;
    size_t oracle_spatial = 0;
    size_t oracle_subobject = 0;
    size_t oracle_uaf = 0;
    size_t oracle_unknown = 0;

    size_t errors() const { return errorCount(diagnostics); }
};

/** Run the pipeline on one (flattened) function. */
AnalysisReport analyzeFunction(const ir::IrFunction& f,
                               const AnalysisOptions& opts = {});

} // namespace lmi::analysis
