/**
 * @file
 * Security-suite tests: the Table III detection matrix must emerge from
 * mechanism semantics, and the baseline must stay clean on everything
 * except runtime-detected free errors. The coverage matrix's CSV keeps
 * one field per column when a cell's text holds commas.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "security/coverage.hpp"
#include "security/violations.hpp"

namespace lmi {
namespace {

unsigned
categoryDetected(const SecurityScore& s, ViolationCategory cat)
{
    auto it = s.detected.find(cat);
    return it == s.detected.end() ? 0 : it->second;
}

TEST(Security, SuiteShapeMatchesTableIII)
{
    std::map<ViolationCategory, unsigned> totals;
    for (const auto& c : violationSuite())
        ++totals[c.category];
    EXPECT_EQ(totals[ViolationCategory::GlobalOoB], 2u);
    EXPECT_EQ(totals[ViolationCategory::HeapOoB], 3u);
    EXPECT_EQ(totals[ViolationCategory::LocalOoB], 8u);
    EXPECT_EQ(totals[ViolationCategory::SharedOoB], 6u);
    EXPECT_EQ(totals[ViolationCategory::IntraOoB], 3u);
    EXPECT_EQ(totals[ViolationCategory::UseAfterFree], 8u);
    EXPECT_EQ(totals[ViolationCategory::UseAfterScope], 4u);
    EXPECT_EQ(totals[ViolationCategory::InvalidFree], 2u);
    EXPECT_EQ(totals[ViolationCategory::DoubleFree], 2u);
    EXPECT_EQ(violationSuite().size(), 38u);
}

TEST(Security, BaselineStaysClean)
{
    for (const auto& c : violationSuite()) {
        SCOPED_TRACE(c.id);
        Device dev(makeMechanism(MechanismKind::Baseline));
        const CaseOutcome outcome = c.run(dev);
        EXPECT_EQ(outcome.detected(), c.baseline_detects)
            << (outcome.faults.empty()
                    ? "no fault"
                    : outcome.faults[0].detail);
    }
}

TEST(Security, GmodRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::Gmod);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 1u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
}

TEST(Security, GpuShieldRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::GpuShield);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 1u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
}

TEST(Security, CuCatchRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::CuCatch);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 6u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 5u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
}

TEST(Security, LmiRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::Lmi);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 3u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 8u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 6u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
    // Temporal coverage: 12/16 = 75%, as reported.
    EXPECT_EQ(s.temporalDetected(), 12u);
    EXPECT_EQ(s.temporalTotal(), 16u);
}

TEST(Security, LmiLivenessClosesCopiedPointerGap)
{
    // The §XII-C extension catches the four copied-pointer UAF cases
    // the base mechanism misses.
    const SecurityScore base = evaluateMechanism(MechanismKind::Lmi);
    const SecurityScore ext =
        evaluateMechanism(MechanismKind::LmiLiveness);
    EXPECT_EQ(categoryDetected(base, ViolationCategory::UseAfterFree), 4u);
    EXPECT_EQ(categoryDetected(ext, ViolationCategory::UseAfterFree), 8u);
    // Spatial coverage is unchanged.
    EXPECT_EQ(ext.spatialDetected(), base.spatialDetected());
}

TEST(Security, SpatialAndTemporalTallies)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::Lmi);
    EXPECT_EQ(s.spatialTotal(), 22u);
    EXPECT_EQ(s.spatialDetected(), 19u);
    EXPECT_EQ(s.temporalTotal(), 16u);
}

/** The fields of one RFC-4180 CSV line, unquoted. */
std::vector<std::string>
csvFields(const std::string& line)
{
    std::vector<std::string> fields(1);
    bool quoted = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (ch == '"' && quoted && i + 1 < line.size() &&
            line[i + 1] == '"')
            fields.back() += line[++i];
        else if (ch == '"')
            quoted = !quoted;
        else if (ch == ',' && !quoted)
            fields.emplace_back();
        else
            fields.back() += ch;
    }
    return fields;
}

TEST(Coverage, CsvKeepsADisagreementInOneField)
{
    CoverageMatrix matrix;
    CoverageCell clean;
    clean.attack = "off_by_one";
    clean.mechanism = MechanismKind::Lmi;
    clean.detected = true;
    clean.fault = "spatial-overflow";
    matrix.cells.push_back(clean);
    CoverageCell odd = clean;
    odd.tier = ExecutionTier::Functional;
    odd.detected = false;
    odd.fault.clear();
    odd.disagreement = "tier mismatch: clean here, fault "
                       "(spatial-overflow) on the detailed tier";
    matrix.cells.push_back(odd);

    std::istringstream csv(matrix.renderCsv());
    std::vector<std::vector<std::string>> rows;
    for (std::string line; std::getline(csv, line);)
        rows.push_back(csvFields(line));
    ASSERT_EQ(rows.size(), 3u);
    for (const std::vector<std::string>& row : rows)
        EXPECT_EQ(row.size(), 9u);
    EXPECT_EQ(rows[1][5], "1");
    EXPECT_EQ(rows[2][5], "0");
    EXPECT_EQ(rows[2].back(), odd.disagreement);
}

} // namespace
} // namespace lmi
