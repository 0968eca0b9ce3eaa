#include "analysis/analysis.hpp"

namespace lmi::analysis {

AnalysisReport
analyzeFunction(const ir::IrFunction& f, const AnalysisOptions& opts)
{
    AnalysisReport report;
    report.diagnostics = verifyFunction(f);
    if (report.errors() || opts.level == AnalysisLevel::Verify)
        return report; // later passes assume structurally valid IR

    const RangeAnalysis ranges = analyzeRanges(f);
    report.diagnostics.insert(report.diagnostics.end(),
                              ranges.diagnostics.begin(),
                              ranges.diagnostics.end());
    report.proven_safe = ranges.count(SafetyClass::ProvenSafe);
    report.proven_violating = ranges.count(SafetyClass::ProvenViolating);
    report.unknown = ranges.count(SafetyClass::Unknown);

    auto lint = lintFunction(f);
    report.diagnostics.insert(report.diagnostics.end(), lint.begin(),
                              lint.end());

    const SafetyOracleReport oracle = analyzeSafety(f, ranges);
    report.oracle_safe = oracle.count(AccessVerdict::ProvenSafe);
    report.oracle_spatial = oracle.count(AccessVerdict::SpatialOOB);
    report.oracle_subobject = oracle.count(AccessVerdict::SubObjectOOB);
    report.oracle_uaf = oracle.count(AccessVerdict::TemporalUAF);
    report.oracle_unknown = oracle.count(AccessVerdict::Unknown);
    report.diagnostics.insert(report.diagnostics.end(),
                              oracle.diagnostics.begin(),
                              oracle.diagnostics.end());
    return report;
}

} // namespace lmi::analysis
