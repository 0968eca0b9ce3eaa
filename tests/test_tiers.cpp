/**
 * @file
 * Two-tier engine cross-validation (DESIGN.md, "Two-tier execution
 * engine"):
 *
 *  - the functional tier must reproduce the detailed tier's
 *    architectural results — instruction counts, memory-region profile,
 *    faults, final global memory contents and mechanism detection
 *    counters — on the whole Table V suite and on the full Table III
 *    violation matrix, and the same race-sanitizer verdicts;
 *  - functional runs must stay deterministic across sim_threads, like
 *    the detailed tier's byte-identity guarantee;
 *  - the cell fingerprint must separate the tiers, so a detailed and a
 *    functional payload of one cell never carry the same name.
 */

#include <gtest/gtest.h>

#include "mechanisms/registry.hpp"
#include "runner/sweep.hpp"
#include "security/violations.hpp"
#include "sim/race_sanitizer.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

RunResult
runTier(const WorkloadProfile& profile, MechanismKind mech, double scale,
        ExecutionTier tier, unsigned sim_threads = 0)
{
    Device dev(makeMechanism(mech));
    if (sim_threads)
        dev.setSimThreads(sim_threads);
    LaunchOptions opts;
    opts.tier = tier;
    return runWorkload(dev, profile, scale, RaceSeed::None, opts).result;
}

/** The architectural half of a RunResult — everything a tier promises
 *  to reproduce exactly. Timing fields (cycles, cache counters) are
 *  deliberately absent. */
void
expectArchitecturalMatch(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.thread_instructions, b.thread_instructions);
    EXPECT_EQ(a.ldg, b.ldg);
    EXPECT_EQ(a.stg, b.stg);
    EXPECT_EQ(a.lds, b.lds);
    EXPECT_EQ(a.sts, b.sts);
    EXPECT_EQ(a.ldl, b.ldl);
    EXPECT_EQ(a.stl, b.stl);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
        EXPECT_EQ(a.faults[i].address, b.faults[i].address);
    }
}

TEST(TierCrossValidation, FunctionalMatchesDetailedOnWholeSuite)
{
    // Every Table V workload, unprotected and under the paper's
    // mechanism so the per-access check path (OCU decode + bounds
    // compare) is exercised, not just the bare interpreter.
    for (const MechanismKind kind :
         {MechanismKind::Baseline, MechanismKind::Lmi}) {
        for (const auto& profile : workloadSuite()) {
            SCOPED_TRACE(std::string(mechanismKindName(kind)) + "/" +
                         profile.name);
            Device det_dev(makeMechanism(kind));
            Device fun_dev(makeMechanism(kind));
            LaunchOptions fun;
            fun.tier = ExecutionTier::Functional;
            const RunResult det =
                runWorkload(det_dev, profile, 0.25).result;
            const RunResult fn =
                runWorkload(fun_dev, profile, 0.25, RaceSeed::None, fun)
                    .result;
            expectArchitecturalMatch(det, fn);
            // Both tiers run one memory path, so the final global
            // memory image is byte-identical.
            EXPECT_EQ(det_dev.globalMemory().digest(),
                      fun_dev.globalMemory().digest());
            // Detection counters: same checks, same outcomes.
            EXPECT_EQ(det_dev.stats().counter("ocu.checks"),
                      fun_dev.stats().counter("ocu.checks"));
            EXPECT_EQ(det_dev.stats().counter("ocu.violations"),
                      fun_dev.stats().counter("ocu.violations"));
        }
    }
}

TEST(TierCrossValidation, SanitizerVerdictsMatchAcrossTiers)
{
    // The sanitizer hook sits in the shared lane loop: both tiers must
    // reach the same verdict over the same shadow footprint. Conflict
    // counts are not compared — they depend on the warp interleave,
    // which differs between the tiers.
    std::vector<SeededWorkload> items;
    for (const WorkloadProfile& p : workloadSuite())
        items.push_back({p.name, RaceSeed::None, p});
    for (const SeededWorkload& sw : raceSeededVariants())
        items.push_back(sw);
    for (const SeededWorkload& item : items) {
        SCOPED_TRACE(item.name);
        RaceSanitizer det_san, fun_san;
        LaunchOptions det_opts, fun_opts;
        det_opts.sanitizer = &det_san;
        fun_opts.tier = ExecutionTier::Functional;
        fun_opts.sanitizer = &fun_san;
        Device det_dev, fun_dev;
        const RunResult det =
            runWorkload(det_dev, item.profile, 0.25, item.seed, det_opts)
                .result;
        const RunResult fn =
            runWorkload(fun_dev, item.profile, 0.25, item.seed, fun_opts)
                .result;
        EXPECT_EQ(det_san.wordsTracked(), fun_san.wordsTracked());
        auto flagged = [](const RaceSanitizer& san, const RunResult& r) {
            return san.conflictCount() > 0 ||
                   (r.faulted() &&
                    r.faults[0].kind == FaultKind::BarrierDivergence);
        };
        if (item.seed == RaceSeed::None) {
            EXPECT_EQ(det_san.conflictCount(), 0u);
            EXPECT_EQ(fun_san.conflictCount(), 0u);
        } else {
            EXPECT_TRUE(flagged(det_san, det));
            EXPECT_TRUE(flagged(fun_san, fn));
        }
    }
}

TEST(TierCrossValidation, FunctionalMatchesDetailedDetectionMatrix)
{
    // The Table III violation suite must score identically per
    // category whichever tier executes it.
    for (const MechanismKind kind :
         {MechanismKind::Lmi, MechanismKind::BaggySw}) {
        SCOPED_TRACE(mechanismKindName(kind));
        const SecurityScore det = evaluateMechanism(kind);
        const SecurityScore fn =
            evaluateMechanism(kind, ExecutionTier::Functional);
        EXPECT_EQ(det.detected, fn.detected);
        EXPECT_EQ(det.total, fn.total);
    }
}

TEST(TierCrossValidation, FunctionalDeterministicAcrossSimThreads)
{
    const WorkloadProfile profile = findWorkload("hotspot");
    const RunResult serial = runTier(profile, MechanismKind::Lmi, 0.5,
                                     ExecutionTier::Functional, 1);
    for (const unsigned threads : {2u, 5u}) {
        SCOPED_TRACE(threads);
        const RunResult parallel =
            runTier(profile, MechanismKind::Lmi, 0.5,
                    ExecutionTier::Functional, threads);
        expectArchitecturalMatch(serial, parallel);
        EXPECT_EQ(serial.cycles, parallel.cycles);
    }
}

TEST(TierCrossValidation, CacheFingerprintSeparatesTiers)
{
    SweepCell cell;
    cell.workload = findWorkload("bfs");
    cell.mechanism = MechanismKind::Lmi;
    cell.scale = 1.0;

    cell.tier = ExecutionTier::Detailed;
    const uint64_t detailed = cellFingerprint(cell);
    cell.tier = ExecutionTier::Functional;
    const uint64_t functional = cellFingerprint(cell);
    EXPECT_NE(detailed, functional);
}

} // namespace
} // namespace lmi
