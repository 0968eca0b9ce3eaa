/**
 * @file
 * Umbrella driver for the static-analysis pipeline (paper-adjacent:
 * the GPUArmor/L4-Pointer axis of removing statically redundant GPU
 * bounds checks on top of LMI's in-pointer metadata).
 *
 * Pass order:
 *
 *   1. verify          — structural/SSA/type diagnostics; errors stop
 *                        the pipeline (later passes assume valid IR);
 *   2. range analysis  — interval + provenance dataflow; classifies
 *                        every hint-marked pointer op (PROVEN_SAFE /
 *                        PROVEN_VIOLATING / UNKNOWN); proven violations
 *                        are error diagnostics;
 *   3. lint            — LMI-specific advisory findings (warnings).
 *
 * The compiler driver consumes this through
 * CodegenOptions::analysis_level; every level runs the verifier first:
 *
 *   Verify  the verifier gates compilation (the default; codegen never
 *           compiles a kernel without it, in any build);
 *   Full    verifier + range + lint; PROVEN_SAFE ops get the elide
 *           hint bit and skip the dynamic OCU check;
 *   Oracle  Full plus the whole-kernel safety oracle
 *           (safety_oracle.hpp): every memory access is classified
 *           {ProvenSafe, SpatialOOB, SubObjectOOB, TemporalUAF,
 *           Unknown}, proven violations surface as
 *           Severity::Violation diagnostics, and the lint pass defers
 *           its weaker use-after-invalidate heuristic to the oracle's
 *           CFG-exact temporal automaton.
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

/** How much of the pipeline the compiler driver runs. */
enum class AnalysisLevel : uint8_t { Verify, Full, Oracle };

struct AnalysisOptions
{
    AnalysisLevel level = AnalysisLevel::Verify;
    /** Sub-object (narrowed fieldgep extent) mode: see range analysis. */
    bool subobject = false;
};

/** Combined result of one pipeline run over one function. */
struct AnalysisReport
{
    /** All findings, in pass order. */
    std::vector<Diagnostic> diagnostics;
    /** Range-analysis verdict per hint-marked pointer op (Full only). */
    std::unordered_map<ir::ValueId, SafetyClass> safety;
    size_t proven_safe = 0;
    size_t proven_violating = 0;
    size_t unknown = 0;

    /** Safety-oracle access classification (Oracle level only). */
    std::unordered_map<ir::ValueId, AccessWitness> accesses;
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
