#include "security/coverage.hpp"

#include <map>
#include <sstream>

#include "common/table.hpp"
#include "compiler/codegen.hpp"
#include "sim/device.hpp"

namespace lmi {

using analysis::AccessVerdict;

namespace {

/** Static half of one (scenario, variant): computed once, tier-free. */
struct StaticVerdict
{
    AccessVerdict planted = AccessVerdict::Unknown;
    bool all_safe = false;
};

StaticVerdict
oracleVerdict(const AttackScenario& scenario, bool benign)
{
    const ir::IrModule m = scenario.build(benign);
    const ir::IrFunction flat =
        inlineCalls(m, *m.find(scenario.kernel));
    const analysis::SafetyOracleReport report =
        analysis::analyzeSafety(flat);

    StaticVerdict v;
    v.all_safe = report.allProvenSafe();
    if (benign) {
        v.planted = v.all_safe ? AccessVerdict::ProvenSafe
                               : AccessVerdict::Unknown;
    } else {
        // The planted violation: the access carrying the scenario's
        // expected verdict (kNoValue ordering keeps this deterministic
        // would the kernel ever plant several).
        for (const auto& [id, w] : report.accesses)
            if (w.verdict == scenario.expected) {
                v.planted = w.verdict;
                break;
            }
    }
    return v;
}

/** Dynamic half: compile + run under one mechanism on one tier. */
void
runDynamic(const AttackScenario& scenario, bool benign,
           MechanismKind kind, ExecutionTier tier, CoverageCell* cell)
{
    const ir::IrModule m = scenario.build(benign);
    Device dev(makeMechanism(kind));
    try {
        const CompiledKernel ck = dev.compile(m, scenario.kernel);
        LaunchOptions opts;
        opts.tier = tier;
        const RunResult r =
            dev.launch(ck, scenario.grid, scenario.block, {}, opts);
        if (!r.faults.empty())
            cell->fault = faultKindName(r.faults.front().kind);
        cell->detected = !r.faults.empty();
    } catch (const CompileError&) {
        cell->compile_rejected = true;
        cell->detected = true;
    }
}

std::string
checkAgreement(const CoverageCell& cell, const AttackScenario& scenario)
{
    if (cell.benign) {
        if (!cell.oracle_all_safe)
            return "oracle failed to prove the benign twin safe";
        if (cell.compile_rejected)
            return "mechanism rejected a statically proven-safe kernel";
        if (cell.detected)
            return "dynamic fault (" + cell.fault +
                   ") on a statically proven-safe kernel";
        return "";
    }
    if (cell.oracle != scenario.expected)
        return std::string("oracle missed the planted violation "
                           "(expected ") +
               accessVerdictName(scenario.expected) + ", got " +
               accessVerdictName(cell.oracle) + ")";
    return ""; // an undetected attack is a coverage gap, not a bug
}

/** @p first: the same (scenario, variant, mechanism) on the first tier. */
std::string
checkTierInvariance(const CoverageCell& cell, const CoverageCell& first)
{
    if (cell.detected == first.detected &&
        cell.compile_rejected == first.compile_rejected)
        return "";
    const auto outcome = [](const CoverageCell& c) {
        return c.compile_rejected ? std::string("rejected")
               : c.detected       ? "fault (" + c.fault + ")"
                                  : std::string("clean");
    };
    return "tier mismatch: " + outcome(cell) + " here, " +
           outcome(first) + " on the " + executionTierName(first.tier) +
           " tier";
}

} // namespace

size_t
CoverageMatrix::disagreements() const
{
    size_t n = 0;
    for (const CoverageCell& c : cells)
        n += !c.disagreement.empty();
    return n;
}

std::string
CoverageMatrix::renderCsv() const
{
    TextTable table({"attack", "variant", "mechanism", "tier", "oracle",
                     "detected", "compile_rejected", "fault",
                     "disagreement"});
    for (const CoverageCell& c : cells)
        table.addRow({c.attack, c.benign ? "benign" : "attack",
                      mechanismKindName(c.mechanism),
                      executionTierName(c.tier),
                      accessVerdictName(c.oracle), c.detected ? "1" : "0",
                      c.compile_rejected ? "1" : "0", c.fault,
                      c.disagreement});
    return table.renderCsv();
}

std::string
CoverageMatrix::renderJson() const
{
    std::ostringstream s;
    s << "{\n\"schema_version\": " << kCoverageSchemaVersion
      << ",\n\"disagreements\": " << disagreements()
      << ",\n\"cells\": [";
    for (size_t i = 0; i < cells.size(); ++i) {
        const CoverageCell& c = cells[i];
        s << (i ? "," : "") << "\n  {\"attack\": \""
          << jsonEscape(c.attack) << "\", \"variant\": \""
          << (c.benign ? "benign" : "attack") << "\", \"mechanism\": \""
          << mechanismKindName(c.mechanism) << "\", \"tier\": \""
          << executionTierName(c.tier) << "\", \"oracle\": \""
          << accessVerdictName(c.oracle) << "\", \"detected\": "
          << (c.detected ? "true" : "false")
          << ", \"compile_rejected\": "
          << (c.compile_rejected ? "true" : "false") << ", \"fault\": \""
          << jsonEscape(c.fault) << "\", \"disagreement\": \""
          << jsonEscape(c.disagreement) << "\"}";
    }
    s << "\n]\n}\n";
    return s.str();
}

std::string
CoverageMatrix::renderTable() const
{
    // One table per tier: scenario rows, mechanism columns. "X" =
    // runtime fault, "C" = compile-time rejection, "." = missed;
    // benign twins append "!" when anything fired on them.
    std::map<ExecutionTier, bool> tiers;
    std::map<MechanismKind, bool> mechs;
    for (const CoverageCell& c : cells) {
        tiers[c.tier] = true;
        mechs[c.mechanism] = true;
    }
    std::ostringstream s;
    for (const auto& [tier, unused] : tiers) {
        std::vector<std::string> header = {"attack (" +
                                           std::string(executionTierName(
                                               tier)) +
                                           ")"};
        for (const auto& [m, u2] : mechs)
            header.push_back(mechanismKindName(m));
        TextTable table(header);
        for (const AttackScenario& scenario : attackSuite()) {
            std::vector<std::string> row = {scenario.name};
            for (const auto& [m, u2] : mechs) {
                char mark = '?';
                bool benign_flagged = false;
                for (const CoverageCell& c : cells) {
                    if (c.tier != tier || c.mechanism != m ||
                        c.attack != scenario.name)
                        continue;
                    if (c.benign)
                        benign_flagged |= c.detected;
                    else
                        mark = c.compile_rejected ? 'C'
                               : c.detected       ? 'X'
                                                  : '.';
                }
                std::string text(1, mark);
                if (benign_flagged)
                    text += '!';
                row.push_back(std::move(text));
            }
            table.addRow(row);
        }
        s << table.render();
    }
    return s.str();
}

CoverageMatrix
runCoverage(std::vector<MechanismKind> mechanisms,
            std::vector<ExecutionTier> tiers)
{
    if (mechanisms.empty())
        mechanisms = allMechanisms();
    if (tiers.empty())
        tiers = {ExecutionTier::Detailed, ExecutionTier::Functional};

    CoverageMatrix matrix;
    for (const AttackScenario& scenario : attackSuite()) {
        for (bool benign : {false, true}) {
            const StaticVerdict sv = oracleVerdict(scenario, benign);
            for (MechanismKind kind : mechanisms) {
                const size_t first = matrix.cells.size();
                for (ExecutionTier tier : tiers) {
                    CoverageCell cell;
                    cell.attack = scenario.name;
                    cell.benign = benign;
                    cell.mechanism = kind;
                    cell.tier = tier;
                    cell.oracle = sv.planted;
                    cell.oracle_all_safe = sv.all_safe;
                    runDynamic(scenario, benign, kind, tier, &cell);
                    cell.disagreement = checkAgreement(cell, scenario);
                    if (cell.disagreement.empty() &&
                        matrix.cells.size() > first)
                        cell.disagreement =
                            checkTierInvariance(cell, matrix.cells[first]);
                    matrix.cells.push_back(std::move(cell));
                }
            }
        }
    }
    return matrix;
}

} // namespace lmi
