/**
 * @file
 * Differential detection-coverage harness: every registry mechanism x
 * every attack scenario x both engine tiers, cross-checked against the
 * static safety oracle.
 *
 * For each (scenario, variant) the oracle classifies every access of
 * the flattened kernel once — a tier-free static fact. Each
 * (mechanism, tier) cell then compiles and runs the same kernel
 * dynamically; a raised fault or a compiler rejection counts as
 * detected, exactly like the Table III suite.
 *
 * The cross-check asserts agreement wherever the oracle *proved*
 * something:
 *
 *  - a benign twin the oracle proves fully safe must neither fault nor
 *    be rejected under any mechanism on any tier;
 *  - a benign twin the oracle fails to fully prove is itself a
 *    disagreement (the suite is constructed to be provable);
 *  - an attack variant must contain an access with the scenario's
 *    expected violation verdict;
 *  - a cell's detection (fault or compiler rejection) must match the
 *    same (scenario, variant, mechanism) on the first tier run — a
 *    tier-dependent detection is an engine bug.
 *
 * An attack a mechanism does *not* detect is a coverage gap, not a
 * disagreement — recording those gaps per mechanism is the matrix's
 * entire point (the paper's fine-grained-detection claim made
 * machine-checkable). `lmi_explore coverage` exits non-zero on any
 * disagreement, and ctest (`lmi_explore_coverage_golden`) byte-compares
 * its JSON and CSV with tools/coverage_expected.{json,csv}.
 */

#pragma once

#include <string>
#include <vector>

#include "analysis/safety_oracle.hpp"
#include "mechanisms/registry.hpp"
#include "sim/launch_options.hpp"
#include "workloads/attacks.hpp"

namespace lmi {

/** One (scenario, variant, mechanism, tier) cell of the matrix. */
struct CoverageCell
{
    std::string attack;
    bool benign = false;
    MechanismKind mechanism = MechanismKind::Baseline;
    ExecutionTier tier = ExecutionTier::Detailed;

    /** Oracle verdict of the scenario's planted access (attack
     *  variants) or ProvenSafe/Unknown summary (benign twins). */
    analysis::AccessVerdict oracle = analysis::AccessVerdict::Unknown;
    /** Every access of the kernel is ProvenSafe. */
    bool oracle_all_safe = false;

    bool detected = false;
    bool compile_rejected = false;
    /** faultKindName of the first dynamic fault ("" when clean). */
    std::string fault;

    /** Empty when the cell is consistent; otherwise the reason. */
    std::string disagreement;
};

/** The full matrix plus its renderings. */
struct CoverageMatrix
{
    std::vector<CoverageCell> cells;

    size_t disagreements() const;

    std::string renderCsv() const;
    std::string renderJson() const;
    /** Compact per-tier tables: scenarios x mechanisms. */
    std::string renderTable() const;
};

/** Machine-readable coverage schema; bump on any field change. */
inline constexpr int kCoverageSchemaVersion = 1;

/**
 * Run the full matrix: every scenario (attack + benign twin) under
 * every mechanism in @p mechanisms on every tier in @p tiers. Empty
 * vectors default to allMechanisms() and {Detailed, Functional}.
 */
CoverageMatrix runCoverage(std::vector<MechanismKind> mechanisms = {},
                           std::vector<ExecutionTier> tiers = {});

} // namespace lmi
