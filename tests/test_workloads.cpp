/**
 * @file
 * Workload-suite tests: every Table V profile must build, verify,
 * execute cleanly under baseline and LMI, and show the region mix its
 * profile promises (the Fig. 1 characteristics).
 */

#include <gtest/gtest.h>

#include "analysis/verify.hpp"
#include "mechanisms/registry.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

TEST(Workloads, SuiteMatchesTableV)
{
    const auto& suite = workloadSuite();
    EXPECT_EQ(suite.size(), 28u);
    unsigned rodinia = 0, tango = 0, ft = 0, ad = 0;
    for (const auto& p : suite) {
        if (p.suite == "Rodinia") ++rodinia;
        if (p.suite == "Tango") ++tango;
        if (p.suite == "FasterTransformer") ++ft;
        if (p.suite == "AD") ++ad;
    }
    EXPECT_EQ(rodinia, 15u);
    EXPECT_EQ(tango, 4u);
    EXPECT_EQ(ft, 5u);
    EXPECT_EQ(ad, 4u);
}

TEST(Workloads, DbiSetExcludesAd)
{
    EXPECT_EQ(dbiWorkloads().size(), 24u);
    for (const auto& p : dbiWorkloads())
        EXPECT_NE(p.suite, "AD");
}

TEST(Workloads, FindByName)
{
    EXPECT_EQ(findWorkload("needle").name, "needle");
    EXPECT_THROW(findWorkload("nonexistent"), FatalError);
}

TEST(Workloads, AllKernelsVerify)
{
    for (const auto& p : workloadSuite()) {
        SCOPED_TRACE(p.name);
        ir::IrModule m = buildWorkloadKernel(p);
        EXPECT_EQ(analysis::errorCount(analysis::verifyModule(m)), 0u);
    }
}

TEST(Workloads, SharedHeavyProfilesShowSharedTraffic)
{
    // Fig. 1: lud_cuda and needle are >50% shared-memory accesses.
    for (const char* name : {"lud_cuda", "needle"}) {
        SCOPED_TRACE(name);
        Device dev;
        const WorkloadRun run = runWorkload(dev, findWorkload(name), 0.25);
        ASSERT_FALSE(run.result.faulted());
        const double shared =
            double(run.result.lds + run.result.sts) /
            double(run.result.memInstructions());
        EXPECT_GT(shared, 0.5);
    }
}

TEST(Workloads, GlobalHeavyProfilesShowGlobalTraffic)
{
    for (const char* name : {"bert", "decoding"}) {
        SCOPED_TRACE(name);
        Device dev;
        const WorkloadRun run = runWorkload(dev, findWorkload(name), 0.25);
        ASSERT_FALSE(run.result.faulted());
        const double global =
            double(run.result.ldg + run.result.stg) /
            double(run.result.memInstructions());
        EXPECT_GT(global, 0.9);
    }
}

TEST(Workloads, LocalProfilesShowLocalTraffic)
{
    Device dev;
    const WorkloadRun run =
        runWorkload(dev, findWorkload("particlefilter_naive"), 0.25);
    ASSERT_FALSE(run.result.faulted());
    EXPECT_GT(run.result.ldl + run.result.stl, 0u);
}

TEST(Workloads, CleanUnderLmi)
{
    // No false positives: every workload runs fault-free under LMI.
    for (const auto& p : workloadSuite()) {
        SCOPED_TRACE(p.name);
        Device dev(makeMechanism(MechanismKind::Lmi));
        const WorkloadRun run = runWorkload(dev, p, 0.125);
        EXPECT_FALSE(run.result.faulted())
            << faultKindName(run.result.faults.empty()
                                 ? FaultKind::SpatialOverflow
                                 : run.result.faults[0].kind)
            << ": " << (run.result.faults.empty()
                            ? ""
                            : run.result.faults[0].detail);
    }
}

TEST(Workloads, CleanUnderBaggyAndGpuShieldAndCuCatch)
{
    for (MechanismKind kind : {MechanismKind::BaggySw,
                               MechanismKind::GpuShield,
                               MechanismKind::CuCatch}) {
        for (const char* name : {"needle", "bert", "lavaMD"}) {
            SCOPED_TRACE(std::string(mechanismKindName(kind)) + "/" + name);
            Device dev(makeMechanism(kind));
            const WorkloadRun run =
                runWorkload(dev, findWorkload(name), 0.125);
            EXPECT_FALSE(run.result.faulted())
                << (run.result.faults.empty()
                        ? ""
                        : run.result.faults[0].detail);
        }
    }
}

TEST(Workloads, ScaleShrinksLaunch)
{
    Device dev1, dev2;
    const WorkloadRun full = runWorkload(dev1, findWorkload("nn"), 1.0);
    const WorkloadRun half = runWorkload(dev2, findWorkload("nn"), 0.5);
    EXPECT_GT(full.result.thread_instructions,
              half.result.thread_instructions);
}

TEST(Workloads, ScatteredProfilesTouchMoreLines)
{
    Device dev1, dev2;
    WorkloadProfile streaming = findWorkload("bert");
    WorkloadProfile scattered = streaming;
    scattered.scattered = true;
    const WorkloadRun a = runWorkload(dev1, streaming, 0.25);
    const WorkloadRun c = runWorkload(dev2, scattered, 0.25);
    // Scattered indexing defeats coalescing: more DRAM traffic.
    EXPECT_GT(c.result.l1_misses + c.result.dram_accesses,
              a.result.l1_misses + a.result.dram_accesses);
}

} // namespace
} // namespace lmi
