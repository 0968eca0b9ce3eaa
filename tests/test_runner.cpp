/**
 * @file
 * ExperimentRunner subsystem tests:
 *
 *  - parallel sweeps are bit-identical to serial execution (the
 *    determinism contract that justifies running paper figures across a
 *    thread pool);
 *  - fingerprints separate every grid axis;
 *  - a job that throws mid-sweep is recorded, and every other cell
 *    still completes;
 *  - the generic pool captures failures per job;
 *  - CSV/JSON export and the payload's line escaping.
 */

#include <algorithm>
#include <atomic>
#include <functional>
#include <sstream>
#include <gtest/gtest.h>

#include "arch/mem_map.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/config.hpp"

namespace lmi {
namespace {

/** A tiny profile that simulates in milliseconds. */
WorkloadProfile
tinyProfile(const std::string& name)
{
    WorkloadProfile p;
    p.name = name;
    p.suite = "test";
    p.grid_blocks = 2;
    p.block_threads = 32;
    p.elems_per_thread = 2;
    p.compute_iters = 2;
    return p;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.profiles = {tinyProfile("t-stream"), tinyProfile("t-scatter"),
                     tinyProfile("t-shared")};
    spec.profiles[1].scattered = true;
    spec.profiles[2].shared_accesses = 1;
    spec.profiles[2].shared_tile_bytes = 1024;
    spec.mechanisms = {MechanismKind::Baseline, MechanismKind::Lmi};
    return spec;
}

std::vector<std::string>
payloads(const SweepResult& sweep)
{
    std::vector<std::string> out;
    for (const CellResult& cell : sweep.cells)
        out.push_back(serializeCellPayload(cell));
    return out;
}

TEST(ConfigHash, DetectsEveryRelevantFieldChange)
{
    const GpuConfig base;
    GpuConfig changed = base;
    EXPECT_EQ(configHash(base), configHash(changed));
    changed.l1_latency += 1;
    EXPECT_NE(configHash(base), configHash(changed));
    changed = base;
    changed.dram_bytes_per_cycle *= 2.0;
    EXPECT_NE(configHash(base), configHash(changed));
}

TEST(CellFingerprint, SeparatesGridAxes)
{
    SweepCell a;
    a.workload = tinyProfile("t");
    SweepCell b = a;
    EXPECT_EQ(cellFingerprint(a), cellFingerprint(b));
    b.mechanism = MechanismKind::Lmi;
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
    b = a;
    b.scale = 0.5;
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
    b = a;
    b.workload.host_allocs = {4096};
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
    b = a;
    b.config.l2_latency += 10;
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
}

TEST(CellPayload, RoundTripsExactly)
{
    // Every value renders on one "key=value" line: a newline or a
    // backslash inside a workload name or a fault detail is escaped, so
    // the text names each value exactly and unambiguously.
    CellResult cell;
    cell.workload = "weird \"name\"\nwith newline and \\ backslash";
    cell.mechanism = MechanismKind::GpuShield;
    cell.scale = 0.125;
    cell.fingerprint = 0xdeadbeefcafef00dull;
    cell.ok = true;
    cell.result.cycles = 123456789;
    cell.result.instructions = 42;
    cell.result.faults.push_back(
        {FaultKind::SpatialOverflow, 0x1000, "detail with | pipe\nand \\n"});
    cell.result.stats.inc("ocu.checks", 7);
    cell.result.stats.set("gauge.x", 0.5);
    cell.device_stats.inc("alloc.count", 3);
    cell.peak_reserved = 4096;

    const std::string text = serializeCellPayload(cell);
    std::istringstream in(text);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "lmi-cell-v1");
    std::vector<std::string> lines;
    while (std::getline(in, line)) {
        EXPECT_NE(line.find('='), std::string::npos) << line;
        lines.push_back(line);
    }
    auto has = [&](const std::string& want) {
        return std::find(lines.begin(), lines.end(), want) != lines.end();
    };
    EXPECT_TRUE(has("fingerprint=deadbeefcafef00d"));
    EXPECT_TRUE(has(
        "workload=weird \"name\"\\nwith newline and \\\\ backslash"));
    EXPECT_TRUE(has("mechanism=gpushield"));
    EXPECT_TRUE(has("scale=0.125"));
    EXPECT_TRUE(has("cycles=123456789"));
    const std::string kind = std::to_string(int(FaultKind::SpatialOverflow));
    EXPECT_TRUE(has("fault=" + kind + "|4096|detail with | pipe\\nand \\\\n"));
    EXPECT_TRUE(has("rstat.c.ocu.checks=7"));
    EXPECT_TRUE(has("rstat.g.gauge.x=0.5"));
    EXPECT_TRUE(has("dstat.c.alloc.count=3"));
    EXPECT_TRUE(has("peak_reserved=4096"));
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back(), "end=1");
}

TEST(SweepDeterminism, ParallelIsByteIdenticalToSerial)
{
    SweepSpec serial = tinySpec();
    serial.jobs = 1;
    SweepSpec parallel = tinySpec();
    parallel.jobs = 4;

    const SweepResult a = runSweep(serial);
    const SweepResult b = runSweep(parallel);
    ASSERT_EQ(a.cells.size(), 6u);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(b.failures, 0u);
    EXPECT_EQ(payloads(a), payloads(b));
}

TEST(SweepFailure, ThrowingCellIsRecordedOthersComplete)
{
    SweepSpec spec = tinySpec();
    // Inject a cell whose host allocation cannot be satisfied: the
    // runtime throws FatalError mid-sweep.
    WorkloadProfile doomed = tinyProfile("t-doomed");
    doomed.host_allocs = {2 * kGlobalSize, 64};
    spec.profiles.push_back(doomed);
    spec.jobs = 4;

    const SweepResult sweep = runSweep(spec);
    ASSERT_EQ(sweep.cells.size(), 8u);
    EXPECT_EQ(sweep.failures, 2u); // doomed under both mechanisms

    size_t ok = 0, failed = 0;
    for (const CellResult& cell : sweep.cells) {
        if (cell.workload == "t-doomed") {
            EXPECT_FALSE(cell.ok);
            EXPECT_NE(cell.error.find("exhausted"), std::string::npos);
            ++failed;
        } else {
            EXPECT_TRUE(cell.ok);
            EXPECT_GT(cell.result.cycles, 0u);
            ++ok;
        }
    }
    EXPECT_EQ(ok, 6u);
    EXPECT_EQ(failed, 2u);
}

TEST(ExperimentRunnerPool, CapturesFailuresInInputOrder)
{
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 16; ++i) {
        jobs.push_back([&ran, i] {
            ++ran;
            if (i % 4 == 3)
                throw std::runtime_error("job " + std::to_string(i));
        });
    }
    ExperimentRunner::Options opts;
    opts.jobs = 4;
    ExperimentRunner runner(opts);
    const auto outcomes = runner.run(jobs);
    EXPECT_EQ(ran.load(), 16);
    ASSERT_EQ(outcomes.size(), 16u);
    for (int i = 0; i < 16; ++i) {
        if (i % 4 == 3) {
            EXPECT_FALSE(outcomes[size_t(i)].ok);
            EXPECT_EQ(outcomes[size_t(i)].error,
                      "job " + std::to_string(i));
        } else {
            EXPECT_TRUE(outcomes[size_t(i)].ok);
        }
    }
}

TEST(SweepExport, CsvAndJsonCoverEveryCell)
{
    SweepSpec spec = tinySpec();
    spec.jobs = 2;
    const SweepResult sweep = runSweep(spec);

    const std::string csv = sweep.renderCsv();
    // Header + one line per cell.
    EXPECT_EQ(size_t(std::count(csv.begin(), csv.end(), '\n')),
              sweep.cells.size() + 1);
    EXPECT_NE(csv.find("workload,mechanism,tier,scale,status"),
              std::string::npos);
    EXPECT_NE(csv.find("t-scatter"), std::string::npos);

    const std::string json = sweep.renderJson();
    EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"tier\": \"detailed\""), std::string::npos);
    EXPECT_NE(json.find("\"t-shared\""), std::string::npos);

    EXPECT_NE(sweep.find("t-stream", MechanismKind::Lmi, 1.0), nullptr);
    EXPECT_EQ(sweep.find("absent", MechanismKind::Lmi, 1.0), nullptr);
}

TEST(TextTableCsv, EscapesOnlyWhenNeeded)
{
    TextTable t({"a", "b"});
    t.addRow({"plain", "with,comma"});
    t.addSeparator();
    t.addRow({"quote\"inside", "multi\nline"});
    EXPECT_EQ(t.renderCsv(),
              "a,b\nplain,\"with,comma\"\n\"quote\"\"inside\",\"multi\n"
              "line\"\n");
}

} // namespace
} // namespace lmi
