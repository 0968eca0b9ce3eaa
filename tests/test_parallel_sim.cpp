/**
 * @file
 * Byte-identity of the parallel simulator engine.
 *
 * GpuSim::run with sim_threads > 1 must produce results
 * indistinguishable from the serial engine: the slice-synchronous
 * canonical schedule makes the outcome a pure function of the launch,
 * never of the worker count. These tests pin that contract for every
 * registered mechanism across structurally different workloads and for
 * the deferred device-heap path, comparing cycles, the complete
 * instruction/cache profile, faults, the full stat registry, and an
 * order-independent digest of global memory.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "mechanisms/registry.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

/** Everything observable about one run, in comparable form. */
struct RunSnapshot
{
    RunResult result;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    uint64_t mem_digest = 0;
};

RunSnapshot
runAt(MechanismKind kind, const WorkloadProfile& profile, double scale,
      unsigned sim_threads)
{
    Device dev(makeMechanism(kind));
    dev.setSimThreads(sim_threads);
    const WorkloadRun run = runWorkload(dev, profile, scale);
    RunSnapshot snap;
    snap.result = run.result;
    snap.counters = dev.stats().counters();
    snap.gauges = dev.stats().gauges();
    snap.mem_digest = dev.globalMemory().digest();
    return snap;
}

void
expectIdentical(const RunSnapshot& a, const RunSnapshot& b)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.thread_instructions, b.result.thread_instructions);
    EXPECT_EQ(a.result.ldg, b.result.ldg);
    EXPECT_EQ(a.result.stg, b.result.stg);
    EXPECT_EQ(a.result.lds, b.result.lds);
    EXPECT_EQ(a.result.sts, b.result.sts);
    EXPECT_EQ(a.result.ldl, b.result.ldl);
    EXPECT_EQ(a.result.stl, b.result.stl);
    EXPECT_EQ(a.result.l1_hits, b.result.l1_hits);
    EXPECT_EQ(a.result.l1_misses, b.result.l1_misses);
    EXPECT_EQ(a.result.l2_hits, b.result.l2_hits);
    EXPECT_EQ(a.result.l2_misses, b.result.l2_misses);
    EXPECT_EQ(a.result.dram_accesses, b.result.dram_accesses);
    EXPECT_EQ(a.result.aborted, b.result.aborted);
    ASSERT_EQ(a.result.faults.size(), b.result.faults.size());
    for (size_t i = 0; i < a.result.faults.size(); ++i) {
        EXPECT_EQ(a.result.faults[i].kind, b.result.faults[i].kind);
        EXPECT_EQ(a.result.faults[i].address, b.result.faults[i].address);
        EXPECT_EQ(a.result.faults[i].detail, b.result.faults[i].detail);
    }
    EXPECT_EQ(a.result.stats.counters(), b.result.stats.counters());
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    EXPECT_EQ(a.mem_digest, b.mem_digest);
}

/** Structurally diverse trio: scattered loads (bfs), stencil with
 *  shared tiles (hotspot), dependency-grid DP (needle). */
const char* const kWorkloads[] = {"bfs", "hotspot", "needle"};

/** A mechanism as a test parameter. */
struct MechanismCase
{
    MechanismKind kind;
};

/** The registry name, alphanumerics only ("lmi+liveness" ->
 *  "lmiliveness"), as gtest names need. */
std::string
describe(const MechanismCase& c)
{
    std::string name;
    for (char ch : std::string(mechanismKindName(c.kind)))
        if (std::isalnum(static_cast<unsigned char>(ch)))
            name += ch;
    return name;
}

/** gtest prints parameters into ctest names; without this it dumps
 *  the struct's bytes. */
void
PrintTo(const MechanismCase& c, std::ostream* os)
{
    *os << describe(c);
}

std::vector<MechanismCase>
everyMechanism()
{
    std::vector<MechanismCase> cases;
    for (MechanismKind kind : allMechanisms())
        cases.push_back({kind});
    return cases;
}

/** One gtest case per mechanism, so ctest runs them in parallel. */
class EveryMechanism : public testing::TestWithParam<MechanismCase>
{
};

TEST_P(EveryMechanism, ByteIdenticalAcrossThreadCounts)
{
    const MechanismKind kind = GetParam().kind;
    for (const char* name : kWorkloads) {
        SCOPED_TRACE(std::string(mechanismKindName(kind)) + "/" + name);
        const WorkloadProfile profile = findWorkload(name);
        const RunSnapshot serial = runAt(kind, profile, 0.1, 1);
        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE("sim_threads=" + std::to_string(threads));
            expectIdentical(serial, runAt(kind, profile, 0.1, threads));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ParallelSim, EveryMechanism, testing::ValuesIn(everyMechanism()),
    [](const testing::TestParamInfo<MechanismCase>& info) {
        return describe(info.param);
    });

TEST(ParallelSim, DeviceHeapOpsByteIdenticalAcrossThreadCounts)
{
    // Deferred MALLOC/FREE commit in canonical (sm, seq) order — the
    // trickiest serialization point of the parallel engine.
    WorkloadProfile p = findWorkload("nn");
    p.heap_allocs = 1;
    p.heap_alloc_bytes = 300;
    for (MechanismKind kind :
         {MechanismKind::Baseline, MechanismKind::Lmi}) {
        SCOPED_TRACE(mechanismKindName(kind));
        const RunSnapshot serial = runAt(kind, p, 0.1, 1);
        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE("sim_threads=" + std::to_string(threads));
            expectIdentical(serial, runAt(kind, p, 0.1, threads));
        }
    }
}

/** Every thread of every block dereferences one element past its
 *  buffer — many SMs race to raise the first fault. */
ir::IrModule
oobKernel(unsigned n)
{
    using namespace ir;
    IrFunction f = IrBuilder::makeKernel(
        "oob", {{"buf", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.param(0);
    auto out = b.param(1);
    auto t = b.gtid();
    auto idx = b.iadd(b.iand(t, b.constInt(7)), b.constInt(n));
    auto x = b.load(b.gep(buf, idx)); // OOB: idx >= n for every thread
    b.store(b.gep(out, b.iand(t, b.constInt(n - 1))), x);
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

RunSnapshot
runOobAt(MechanismKind kind, unsigned sim_threads)
{
    const unsigned n = 256;
    Device dev(makeMechanism(kind));
    dev.setSimThreads(sim_threads);
    const uint64_t buf = dev.cudaMalloc(n * 4);
    const uint64_t out = dev.cudaMalloc(n * 4);
    const CompiledKernel k = dev.compile(oobKernel(n), "oob");
    RunSnapshot snap;
    snap.result = dev.launch(k, 16, 128, {buf, out});
    snap.counters = dev.stats().counters();
    snap.gauges = dev.stats().gauges();
    snap.mem_digest = dev.globalMemory().digest();
    return snap;
}

TEST(ParallelSim, FaultingRunByteIdenticalAcrossThreadCounts)
{
    // A run that aborts must pick the same canonical first fault at any
    // worker count (winner = min (cycle, sm, seq), not wall-clock race).
    for (MechanismKind kind :
         {MechanismKind::Lmi, MechanismKind::MemcheckDbi,
          MechanismKind::GpuShield}) {
        SCOPED_TRACE(mechanismKindName(kind));
        const RunSnapshot serial = runOobAt(kind, 1);
        EXPECT_TRUE(serial.result.faulted());
        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE("sim_threads=" + std::to_string(threads));
            expectIdentical(serial, runOobAt(kind, threads));
        }
    }
}

/** The ocu.*, ec.* and gpushield.rcache_* counters of @p dev. */
std::map<std::string, uint64_t>
mechanismCounters(Device& dev)
{
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : dev.stats().counters())
        if (name.rfind("ocu.", 0) == 0 || name.rfind("ec.", 0) == 0 ||
            name.rfind("gpushield.rcache_", 0) == 0)
            out[name] = value;
    return out;
}

TEST(ParallelSim, ConsecutiveLaunchesSumMechanismCounters)
{
    // Each launch publishes its own mechanism counts exactly once: two
    // launches on one Device count what two fresh Devices count, so
    // counts neither leak from one launch into the next nor publish
    // twice.
    const WorkloadProfile first = findWorkload("lud_cuda");
    const WorkloadProfile second = findWorkload("bfs");
    for (MechanismKind kind :
         {MechanismKind::Lmi, MechanismKind::LmiElide,
          MechanismKind::GpuShield}) {
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(mechanismKindName(kind)) +
                         " sim_threads=" + std::to_string(threads));
            auto fresh = [&] {
                auto dev = std::make_unique<Device>(makeMechanism(kind));
                dev->setSimThreads(threads);
                return dev;
            };
            const auto a = fresh();
            runWorkload(*a, first, 0.1);
            const auto b = fresh();
            runWorkload(*b, second, 0.1);
            const auto both = fresh();
            runWorkload(*both, first, 0.1);
            runWorkload(*both, second, 0.1);

            std::map<std::string, uint64_t> sum = mechanismCounters(*a);
            for (const auto& [name, value] : mechanismCounters(*b))
                sum[name] += value;
            EXPECT_FALSE(sum.empty());
            EXPECT_EQ(mechanismCounters(*both), sum);
        }
    }
}

} // namespace
} // namespace lmi
