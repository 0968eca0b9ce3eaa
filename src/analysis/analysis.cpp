#include "analysis/analysis.hpp"

namespace lmi::analysis {

AnalysisReport
analyzeFunction(const ir::IrFunction& f, const AnalysisOptions& opts)
{
    AnalysisReport report;
    report.diagnostics = verifyFunction(f);
    if (report.errors() || opts.level == AnalysisLevel::Verify)
        return report; // later passes assume structurally valid IR

    RangeAnalysisOptions ropts;
    ropts.subobject = opts.subobject;
    RangeAnalysis ranges = analyzeRanges(f, ropts);
    report.safety = std::move(ranges.safety);
    report.diagnostics.insert(report.diagnostics.end(),
                              ranges.diagnostics.begin(),
                              ranges.diagnostics.end());
    for (const auto& [v, c] : report.safety) {
        report.proven_safe += c == SafetyClass::ProvenSafe;
        report.proven_violating += c == SafetyClass::ProvenViolating;
        report.unknown += c == SafetyClass::Unknown;
    }

    LintOptions lopts;
    // The oracle's temporal automaton is CFG-exact where the lint
    // heuristic is dominance-approximate; don't report the same UAF
    // twice at different precision.
    lopts.defer_temporal = opts.level == AnalysisLevel::Oracle;
    auto lint = lintFunction(f, lopts);
    report.diagnostics.insert(report.diagnostics.end(), lint.begin(),
                              lint.end());

    if (opts.level == AnalysisLevel::Oracle) {
        SafetyOracleReport oracle = analyzeSafety(f);
        report.oracle_safe = oracle.count(AccessVerdict::ProvenSafe);
        report.oracle_spatial = oracle.count(AccessVerdict::SpatialOOB);
        report.oracle_subobject =
            oracle.count(AccessVerdict::SubObjectOOB);
        report.oracle_uaf = oracle.count(AccessVerdict::TemporalUAF);
        report.oracle_unknown = oracle.count(AccessVerdict::Unknown);
        report.accesses = std::move(oracle.accesses);
        report.diagnostics.insert(report.diagnostics.end(),
                                  oracle.diagnostics.begin(),
                                  oracle.diagnostics.end());
    }
    return report;
}

} // namespace lmi::analysis
