/**
 * @file
 * lmi_explore — command-line front end for the library.
 *
 *   lmi_explore list
 *       Print the Table V workloads and the available mechanisms.
 *   lmi_explore run <workload> <mechanism> [scale]
 *       Execute one workload under one mechanism and print the run
 *       statistics (cycles, instruction mix, cache behaviour, faults).
 *   lmi_explore compare <workload> [scale]
 *       Run one workload under every hardware-comparison mechanism and
 *       print normalized execution times.
 *   lmi_explore sweep [scale] [--workloads a,b] [--mechanisms m1,m2]
 *                     [--csv FILE] [--json FILE]
 *       Run a full (workload x mechanism) grid through the
 *       ExperimentRunner and print/export the results.
 *   lmi_explore disasm <workload> <mechanism>
 *       Print the generated SASS-like code (hint bits visible) under a
 *       header line with the register layout (named registers, value
 *       rows, rows zeroed at admission).
 *   lmi_explore security <mechanism>
 *       Run the 38-case violation suite and print per-case outcomes.
 *   lmi_explore trace <workload> <mechanism> [events]
 *       Capture an instruction trace (NVBit-style) and print the first
 *       N events plus the stream characterization.
 *   lmi_explore verify [--workloads a,b] [--json FILE] [--severity S]
 *       Run the static-analysis pipeline (IR verifier, range analysis,
 *       lints) over every in-tree workload kernel, print diagnostics
 *       and per-kernel safety-classification counts, and exit non-zero
 *       when any diagnostic at or above the --severity threshold
 *       (note|warning|error, default error) is found (CI gate).
 *   lmi_explore races [--workloads a,b] [--seeded] [--dynamic]
 *                     [--json FILE]
 *       Run the barrier-aware static race/divergence analyzer over the
 *       workload kernels (plus the deliberately race-seeded variants
 *       with --seeded) and print per-kernel verdict counts. --dynamic
 *       additionally executes each kernel under the simulator's race
 *       sanitizer and reports the observed conflicts next to the
 *       static verdicts. Exits non-zero when a clean kernel is flagged
 *       (or has an Unknown pair) or a seeded one goes unflagged, on
 *       either side that runs (CI gate).
 *   lmi_explore check [test] [--bound N] [--json FILE]
 *       Run the bounded weak-memory model checker over the litmus
 *       family (or one named test) and compare verdicts against each
 *       test's expectation.
 *   lmi_explore coverage [--mechanisms m1,m2] [--tier T] [--csv FILE]
 *                        [--json FILE]
 *       Run the adversarial attack suite under every mechanism on both
 *       engine tiers (one tier with --tier), cross-check dynamic
 *       detections against the static safety oracle, and print the
 *       detection-coverage matrix. Exits non-zero on any
 *       oracle/dynamic disagreement (CI gate).
 *   lmi_explore churn [scale] [--workloads s1,s2] [--json FILE]
 *       Run the allocation-churn basket (workloads/churn.hpp) against
 *       the message-passing allocator and print per-spec throughput,
 *       remote-free drain statistics, and the deterministic digest.
 *       Exits non-zero when a live free faults (allocator bug).
 *
 * Global flags: `--jobs N` sizes the ExperimentRunner pool (compare,
 * sweep, security; 0 = all cores, default 1), `--sim-threads N` sets
 * the per-launch SM worker count (run, compare, sweep; byte-identical
 * results, clamped so jobs x sim_threads never oversubscribes the
 * host), and `--tier detailed|functional` selects the execution tier (run,
 * compare, sweep, races --dynamic; see sim/launch_options.hpp —
 * functional skips all timing for speed).
 * Unknown `--flags` are an error: usage goes to stderr, exit code 2.
 */

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "analysis/analysis.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "compiler/codegen.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "security/coverage.hpp"
#include "security/violations.hpp"
#include "sim/reg_layout.hpp"
#include "sim/trace.hpp"
#include "workloads/churn.hpp"
#include "workloads/litmus.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

/** Flags shared by the sweep-shaped subcommands. */
struct GlobalOpts
{
    unsigned jobs = 1; ///< serial by default; 0 = all cores
    /** Worker threads inside each launch (0 = config/env default).
     *  Results are byte-identical for every value. */
    unsigned sim_threads = 0;
    std::string csv_path;
    std::string json_path;
    std::string workloads_filter;  ///< comma-separated names
    std::string mechanisms_filter; ///< comma-separated names
    std::string severity = "error"; ///< verify exit-code threshold
    bool seeded = false;  ///< races: include race-seeded variants
    bool dynamic = false; ///< races: also run the dynamic sanitizer
    /** check: model-checker execution bound per litmus test. */
    uint64_t bound = 100000;
    /** Execution tier for every simulator launch the command makes. */
    ExecutionTier tier = ExecutionTier::Detailed;
    /** True when --tier was given (coverage defaults to both tiers). */
    bool tier_set = false;
};

/** LaunchOptions carrying the globally selected tier. */
LaunchOptions
tierOptions(const GlobalOpts& opts)
{
    LaunchOptions lopts;
    lopts.tier = opts.tier;
    return lopts;
}

std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

int
usage()
{
    // Usage goes to stderr: an unknown subcommand is an error, and a
    // pipeline consuming stdout must not see the help text as data.
    // This is the single authoritative listing — every subcommand with
    // its flags, in dispatch order.
    std::fprintf(
        stderr,
        "usage:\n"
        "  lmi_explore list\n"
        "  lmi_explore run <workload> <mechanism> [scale]\n"
        "              [--sim-threads N] [--tier T]\n"
        "  lmi_explore compare <workload> [scale] [--jobs N]\n"
        "              [--sim-threads N] [--tier T]\n"
        "  lmi_explore sweep [scale] [--jobs N] [--sim-threads N]\n"
        "              [--workloads a,b] [--mechanisms m1,m2]\n"
        "              [--tier T] [--csv FILE] [--json FILE]\n"
        "  lmi_explore disasm <workload> <mechanism>\n"
        "  lmi_explore trace <workload> <mechanism> [events]\n"
        "  lmi_explore verify [--workloads a,b] [--json FILE]\n"
        "              [--severity note|warning|error|violation]\n"
        "  lmi_explore races [--workloads a,b] [--seeded] [--dynamic]\n"
        "              [--tier T] [--json FILE]\n"
        "  lmi_explore check [test] [--bound N] [--json FILE]\n"
        "  lmi_explore security <mechanism> [--jobs N] [--tier T]\n"
        "  lmi_explore coverage [--mechanisms m1,m2] [--tier T]\n"
        "              [--csv FILE] [--json FILE]\n"
        "  lmi_explore churn [scale] [--workloads s1,s2] [--json FILE]\n"
        "global flags: --jobs N (0 = all cores), --sim-threads N,\n"
        "              --tier detailed|functional\n"
        "  --jobs runs whole cells in parallel; --sim-threads\n"
        "  parallelizes SM execution inside each launch (results are\n"
        "  byte-identical; jobs x sim-threads is clamped to the host\n"
        "  cores); --tier functional skips the timing model for speed\n"
        "  (cycles become an issue-bound estimate); coverage defaults\n"
        "  to the detailed+functional tier pair unless --tier narrows it\n"
        "unknown --flags, malformed counts, scales that are not a\n"
        "finite decimal > 0 and empty filters exit 2 with this usage\n"
        "on stderr\n");
    return 2;
}

int
cmdList()
{
    TextTable table({"workload", "suite", "grid", "block", "traits"});
    for (const auto& p : workloadSuite()) {
        std::string traits;
        if (p.scattered)
            traits += "scattered ";
        if (p.shared_tile_bytes)
            traits += "shared ";
        if (p.local_buf_bytes)
            traits += "local ";
        if (p.heap_allocs)
            traits += "heap ";
        table.addRow({p.name, p.suite, std::to_string(p.grid_blocks),
                      std::to_string(p.block_threads),
                      traits.empty() ? "streaming" : traits});
    }
    std::printf("%s\nmechanisms:", table.render().c_str());
    for (MechanismKind kind : allMechanisms())
        std::printf(" %s", mechanismKindName(kind));
    std::printf("\n");
    return 0;
}

int
cmdRun(const std::string& workload, MechanismKind kind, double scale,
       const GlobalOpts& opts)
{
    Device dev(makeMechanism(kind));
    if (opts.sim_threads)
        dev.setSimThreads(opts.sim_threads);
    const WorkloadRun run =
        runWorkload(dev, findWorkload(workload), scale, RaceSeed::None,
                    tierOptions(opts));
    const RunResult& r = run.result;

    TextTable table({"metric", "value"});
    table.addRow({"tier", executionTierName(opts.tier)});
    table.addRow({"cycles", std::to_string(r.cycles)});
    table.addRow({"warp instructions", std::to_string(r.instructions)});
    table.addRow({"thread instructions",
                  std::to_string(r.thread_instructions)});
    table.addRow({"LDG/STG", std::to_string(r.ldg) + " / " +
                                 std::to_string(r.stg)});
    table.addRow({"LDS/STS", std::to_string(r.lds) + " / " +
                                 std::to_string(r.sts)});
    table.addRow({"LDL/STL", std::to_string(r.ldl) + " / " +
                                 std::to_string(r.stl)});
    table.addRow({"L1 hit rate",
                  fmtPct(100.0 * double(r.l1_hits) /
                         double(std::max<uint64_t>(
                             1, r.l1_hits + r.l1_misses)))});
    table.addRow({"L2 hit rate",
                  fmtPct(100.0 * double(r.l2_hits) /
                         double(std::max<uint64_t>(
                             1, r.l2_hits + r.l2_misses)))});
    table.addRow({"DRAM accesses", std::to_string(r.dram_accesses)});
    table.addRow({"peak reserved (host allocs)",
                  std::to_string(run.peak_reserved / 1024) + " KiB"});
    table.addRow({"faults", std::to_string(r.faults.size())});
    std::printf("%s", table.render().c_str());

    if (dev.stats().counter("ocu.checks") ||
        dev.stats().counter("ocu.checks_elided"))
        std::printf("OCU checks: %llu (violations: %llu, elided: %llu)\n",
                    static_cast<unsigned long long>(
                        dev.stats().counter("ocu.checks")),
                    static_cast<unsigned long long>(
                        dev.stats().counter("ocu.violations")),
                    static_cast<unsigned long long>(
                        dev.stats().counter("ocu.checks_elided")));
    if (dev.stats().counter("gpushield.rcache_probes"))
        std::printf("RCache probes: %llu (misses: %llu)\n",
                    static_cast<unsigned long long>(
                        dev.stats().counter("gpushield.rcache_probes")),
                    static_cast<unsigned long long>(
                        dev.stats().counter("gpushield.rcache_misses")));
    return r.faulted() ? 1 : 0;
}

int
cmdCompare(const std::string& workload, double scale,
           const GlobalOpts& opts)
{
    SweepSpec spec;
    spec.workloads = {workload};
    spec.mechanisms.push_back(MechanismKind::Baseline);
    for (MechanismKind kind : hardwareComparisonMechanisms())
        spec.mechanisms.push_back(kind);
    spec.scales = {scale};
    spec.tier = opts.tier;
    spec.jobs = opts.jobs;
    spec.sim_threads = opts.sim_threads;
    const SweepResult sweep = runSweep(spec);

    const CellResult* base =
        sweep.find(workload, MechanismKind::Baseline, scale);
    if (!base || !base->ok) {
        std::fprintf(stderr, "error: baseline run failed: %s\n",
                     base ? base->error.c_str() : "missing cell");
        return 1;
    }
    TextTable table({"mechanism", "cycles", "normalized"});
    for (const CellResult& cell : sweep.cells) {
        if (!cell.ok) {
            table.addRow({mechanismKindName(cell.mechanism),
                          "error: " + cell.error, "-"});
            continue;
        }
        table.addRow({mechanismKindName(cell.mechanism),
                      std::to_string(cell.result.cycles),
                      fmtF(double(cell.result.cycles) /
                               double(base->result.cycles), 4) + "x"});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdSweep(double scale, const GlobalOpts& opts)
{
    SweepSpec spec;
    if (!opts.workloads_filter.empty()) {
        spec.workloads = splitCommas(opts.workloads_filter);
    } else {
        for (const auto& profile : workloadSuite())
            spec.workloads.push_back(profile.name);
    }
    if (!opts.mechanisms_filter.empty()) {
        for (const std::string& name : splitCommas(opts.mechanisms_filter)) {
            MechanismKind kind;
            if (!mechanismFromName(name, &kind)) {
                std::fprintf(stderr, "error: unknown mechanism %s\n",
                             name.c_str());
                return 2;
            }
            spec.mechanisms.push_back(kind);
        }
    } else {
        spec.mechanisms.push_back(MechanismKind::Baseline);
        for (MechanismKind kind : hardwareComparisonMechanisms())
            spec.mechanisms.push_back(kind);
    }
    spec.scales = {scale};
    spec.tier = opts.tier;
    spec.jobs = opts.jobs;
    spec.sim_threads = opts.sim_threads;
    spec.progress = true;

    // Surface the effective pool size up front: asking for more job
    // workers than there are cells silently caps at the cell count.
    const size_t ncells = spec.workloads.size() *
                          spec.mechanisms.size() * spec.scales.size();
    if (opts.jobs > ncells)
        std::printf("note: --jobs %u exceeds the %zu-cell grid; "
                    "using %zu worker(s)\n",
                    opts.jobs, ncells, ncells);
    const SweepResult sweep = runSweep(spec);
    // The two thread axes share one budget; say when runSweep clamped
    // the inner one (its own warning shows only under verbose logging).
    if (sweep.sim_threads < sweep.sim_threads_requested)
        std::fprintf(stderr,
                     "warning: %u sweep worker(s) x %u sim thread(s) "
                     "oversubscribed the host; sim_threads was clamped "
                     "to %u per cell\n",
                     sweep.jobs, sweep.sim_threads_requested,
                     sweep.sim_threads);

    TextTable table({"workload", "mechanism", "cycles", "faults",
                     "status"});
    for (const CellResult& cell : sweep.cells) {
        table.addRow({cell.workload, mechanismKindName(cell.mechanism),
                      std::to_string(cell.result.cycles),
                      std::to_string(cell.result.faults.size()),
                      cell.ok ? "ok" : "error: " + cell.error});
    }
    std::printf("%s", table.render().c_str());
    std::printf("%zu cells, %.1f s wall, %zu failed\n",
                sweep.cells.size(), sweep.wall_ms / 1000.0, sweep.failures);

    if (!opts.csv_path.empty())
        writeOutputFile(opts.csv_path, sweep.renderCsv());
    if (!opts.json_path.empty())
        writeOutputFile(opts.json_path, sweep.renderJson());
    return sweep.failures ? 1 : 0;
}

int
cmdDisasm(const std::string& workload, MechanismKind kind)
{
    Device dev(makeMechanism(kind));
    const WorkloadProfile& profile = findWorkload(workload);
    const CompiledKernel ck =
        dev.compile(buildWorkloadKernel(profile), profile.name);
    std::printf("// %s\n%s",
                layoutRegisters(ck.program).summary().c_str(),
                ck.program.disassemble().c_str());
    return 0;
}

int
cmdSecurity(MechanismKind kind, const GlobalOpts& opts)
{
    // Each case is one independent job on the ExperimentRunner pool:
    // a fresh Device per case, outcomes reported in suite order.
    const std::vector<ViolationCase>& suite = violationSuite();
    std::vector<CaseOutcome> outcomes(suite.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        jobs.push_back([&suite, &outcomes, kind, i] {
            Device dev(makeMechanism(kind));
            outcomes[i] = suite[i].run(dev);
        });
    }
    ExperimentRunner::Options ropts;
    ropts.jobs = opts.jobs;
    ExperimentRunner runner(ropts);
    const auto job_outcomes = runner.run(jobs);

    unsigned detected = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (!job_outcomes[i].ok) {
            std::printf("%-42s ERROR: %s\n", suite[i].id.c_str(),
                        job_outcomes[i].error.c_str());
            continue;
        }
        detected += outcomes[i].detected();
        std::printf("%-42s %s%s\n", suite[i].id.c_str(),
                    outcomes[i].detected() ? "DETECTED" : "missed",
                    outcomes[i].compile_rejected ? " (compile-time)" : "");
    }
    std::printf("total: %u/%zu\n", detected, suite.size());
    return 0;
}

/** Version of the machine-readable output of verify/races; bump on any
 *  field change so downstream CI parsers can detect drift.
 *  v3: top-level "tier" field (the execution tier behind any dynamic
 *  execution; static analysis itself is tier-free).
 *  v4: verify runs the safety oracle (AnalysisLevel::Oracle): per-kernel
 *  oracle_safe/oracle_spatial/oracle_subobject/oracle_uaf/
 *  oracle_unknown counts, and diagnostics may carry the new
 *  "violation" severity. */
constexpr int kDiagnosticsSchemaVersion = 4;

bool
severityFromName(const std::string& name, analysis::Severity* out)
{
    if (name == "note")
        *out = analysis::Severity::Note;
    else if (name == "warning")
        *out = analysis::Severity::Warning;
    else if (name == "error")
        *out = analysis::Severity::Error;
    else if (name == "violation")
        *out = analysis::Severity::Violation;
    else
        return false;
    return true;
}

int
cmdVerify(const GlobalOpts& opts)
{
    analysis::Severity threshold;
    if (!severityFromName(opts.severity, &threshold)) {
        std::fprintf(stderr,
                     "error: unknown severity %s "
                     "(expected note|warning|error|violation)\n",
                     opts.severity.c_str());
        return 2;
    }

    std::vector<std::string> names;
    if (!opts.workloads_filter.empty())
        names = splitCommas(opts.workloads_filter);
    else
        for (const auto& profile : workloadSuite())
            names.push_back(profile.name);

    // Oracle level: verifier, range analysis, lint and the safety
    // oracle, so proven UAF/sub-object violations surface next to the
    // spatial ones and the oracle access-classification counts get
    // reported.
    analysis::AnalysisOptions aopts;
    aopts.level = analysis::AnalysisLevel::Oracle;

    size_t total_errors = 0, total_warnings = 0, over_threshold = 0;
    std::string json = "{\n\"schema_version\": " +
                       std::to_string(kDiagnosticsSchemaVersion) +
                       ",\n\"tier\": \"" +
                       std::string(executionTierName(opts.tier)) +
                       "\",\n\"kernels\": [";
    TextTable table({"workload", "proven safe", "violating", "unknown",
                     "oracle safe", "oracle viol", "oracle unk",
                     "diagnostics"});
    for (size_t i = 0; i < names.size(); ++i) {
        const WorkloadProfile& profile = findWorkload(names[i]);
        const ir::IrModule m = buildWorkloadKernel(profile);
        const ir::IrFunction flat = inlineCalls(m, *m.find(profile.name));
        const analysis::AnalysisReport report =
            analysis::analyzeFunction(flat, aopts);

        size_t warnings = 0;
        for (const auto& d : report.diagnostics) {
            if (d.severity == analysis::Severity::Warning)
                ++warnings;
            if (d.severity >= threshold)
                ++over_threshold;
            std::printf("%s\n", d.toString().c_str());
        }
        total_errors += report.errors();
        total_warnings += warnings;
        const size_t oracle_viol = report.oracle_spatial +
                                   report.oracle_subobject +
                                   report.oracle_uaf;
        table.addRow({profile.name, std::to_string(report.proven_safe),
                      std::to_string(report.proven_violating),
                      std::to_string(report.unknown),
                      std::to_string(report.oracle_safe),
                      std::to_string(oracle_viol),
                      std::to_string(report.oracle_unknown),
                      std::to_string(report.diagnostics.size())});

        if (i)
            json += ",";
        json += "\n  {\"workload\": \"" + jsonEscape(profile.name) +
                "\", \"proven_safe\": " +
                std::to_string(report.proven_safe) +
                ", \"proven_violating\": " +
                std::to_string(report.proven_violating) +
                ", \"unknown\": " + std::to_string(report.unknown) +
                ", \"oracle_safe\": " +
                std::to_string(report.oracle_safe) +
                ", \"oracle_spatial\": " +
                std::to_string(report.oracle_spatial) +
                ", \"oracle_subobject\": " +
                std::to_string(report.oracle_subobject) +
                ", \"oracle_uaf\": " + std::to_string(report.oracle_uaf) +
                ", \"oracle_unknown\": " +
                std::to_string(report.oracle_unknown) +
                ", \"errors\": " + std::to_string(report.errors()) +
                ", \"diagnostics\": " +
                analysis::renderDiagnosticsJson(report.diagnostics) + "}";
    }
    json += "\n]\n}\n";

    std::printf("%s", table.render().c_str());
    std::printf("%zu kernels verified: %zu errors, %zu warnings "
                "(failing at severity >= %s: %zu)\n",
                names.size(), total_errors, total_warnings,
                analysis::severityName(threshold), over_threshold);
    if (!opts.json_path.empty())
        writeOutputFile(opts.json_path, json);
    return over_threshold ? 1 : 0;
}

int
cmdRaces(const GlobalOpts& opts)
{
    // The work list: every (filtered) clean profile, plus the seeded
    // variants when asked. Clean kernels must come out clean and
    // seeded ones flagged, on each side that runs.
    struct Item
    {
        std::string name;
        WorkloadProfile profile;
        RaceSeed seed = RaceSeed::None;
    };
    std::vector<Item> items;
    if (!opts.workloads_filter.empty()) {
        for (const std::string& name : splitCommas(opts.workloads_filter))
            items.push_back({name, findWorkload(name), RaceSeed::None});
    } else {
        for (const auto& profile : workloadSuite())
            items.push_back({profile.name, profile, RaceSeed::None});
    }
    if (opts.seeded)
        for (const SeededWorkload& sw : raceSeededVariants())
            items.push_back({sw.name, sw.profile, sw.seed});

    size_t disagreements = 0;
    std::string json = "{\n\"schema_version\": " +
                       std::to_string(kDiagnosticsSchemaVersion) +
                       ",\n\"tier\": \"" +
                       std::string(executionTierName(opts.tier)) +
                       "\",\n\"kernels\": [";
    std::vector<std::string> header = {"workload", "pairs", "racy",
                                       "disjoint", "unknown", "div.bar"};
    if (opts.dynamic)
        header.push_back("dynamic conflicts");
    TextTable table(header);

    for (size_t i = 0; i < items.size(); ++i) {
        const Item& item = items[i];
        const ir::IrModule m =
            buildWorkloadKernel(item.profile, item.seed);
        const ir::IrFunction flat =
            inlineCalls(m, *m.find(item.profile.name));
        analysis::RaceAnalysisOptions ropts;
        ropts.block_threads = item.profile.block_threads;
        ropts.grid_blocks = item.profile.grid_blocks;
        const analysis::RaceReport report =
            analysis::analyzeRaces(flat, ropts);

        for (const auto& d : report.diagnostics)
            std::printf("%s\n", d.toString().c_str());

        size_t dynamic_conflicts = 0;
        bool dynamic_divergence = false;
        if (opts.dynamic) {
            // Execute the same kernel under the sanitizer; a divergent
            // barrier faults the launch, which counts as "flagged".
            // The sanitizer sees the same access stream on every tier,
            // so --tier functional makes this pass cheap.
            Device dev;
            RaceSanitizer sanitizer;
            LaunchOptions lopts = tierOptions(opts);
            lopts.sanitizer = &sanitizer;
            const WorkloadRun run =
                runWorkload(dev, item.profile, 0.25, item.seed, lopts);
            dynamic_conflicts = sanitizer.conflictCount();
            for (size_t r = 0;
                 r < std::min<size_t>(sanitizer.reports().size(), 2); ++r)
                std::printf("  dynamic: %s\n",
                            sanitizer.reports()[r].toString().c_str());
            if (run.result.faulted())
                std::printf("  dynamic: fault: %s\n",
                            run.result.faults[0].detail.c_str());
            for (const Fault& f : run.result.faults)
                dynamic_divergence |=
                    f.kind == FaultKind::BarrierDivergence;
        }

        const bool static_flagged =
            report.provenRacy() || !report.divergent_barriers.empty();
        const bool dynamic_flagged =
            dynamic_conflicts || dynamic_divergence;
        const char* disagreement = nullptr;
        if (item.seed == RaceSeed::None) {
            if (static_flagged)
                disagreement = "clean kernel flagged statically";
            else if (report.unknown())
                disagreement = "clean kernel has Unknown pairs";
            else if (dynamic_flagged)
                disagreement = "clean kernel flagged dynamically";
        } else if (!static_flagged) {
            disagreement = "seeded race missed statically";
        } else if (opts.dynamic && !dynamic_flagged) {
            disagreement = "seeded race missed dynamically";
        }
        if (disagreement) {
            std::fprintf(stderr, "disagreement: %s: %s\n",
                         item.name.c_str(), disagreement);
            ++disagreements;
        }

        std::vector<std::string> row = {
            item.name, std::to_string(report.pairs.size()),
            std::to_string(report.provenRacy()),
            std::to_string(report.provenDisjoint()),
            std::to_string(report.unknown()),
            std::to_string(report.divergent_barriers.size())};
        if (opts.dynamic)
            row.push_back(std::to_string(dynamic_conflicts));
        table.addRow(row);

        if (i)
            json += ",";
        json += "\n  {\"workload\": \"" + jsonEscape(item.name) +
                "\", \"seed\": \"" + raceSeedName(item.seed) +
                "\", \"pairs\": " + std::to_string(report.pairs.size()) +
                ", \"racy\": " + std::to_string(report.provenRacy()) +
                ", \"disjoint\": " +
                std::to_string(report.provenDisjoint()) +
                ", \"unknown\": " + std::to_string(report.unknown()) +
                ", \"divergent_barriers\": " +
                std::to_string(report.divergent_barriers.size());
        if (opts.dynamic)
            json += ", \"dynamic_conflicts\": " +
                    std::to_string(dynamic_conflicts);
        json += ", \"diagnostics\": " +
                analysis::renderDiagnosticsJson(report.diagnostics) + "}";
    }
    json += "\n]\n}\n";

    std::printf("%s", table.render().c_str());
    std::printf("%zu kernels analyzed, %zu disagreements\n",
                items.size(), disagreements);
    if (!opts.json_path.empty())
        writeOutputFile(opts.json_path, json);
    return disagreements ? 1 : 0;
}

/** Machine-readable litmus output version; bump on field changes so
 *  tools/check_litmus.py can detect drift. */
constexpr int kLitmusSchemaVersion = 1;

std::string
tupleJson(const std::vector<uint64_t>& tuple)
{
    std::string out = "[";
    for (size_t i = 0; i < tuple.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(tuple[i]);
    }
    return out + "]";
}

int
cmdCheck(const std::string& test_name, const GlobalOpts& opts)
{
    std::vector<LitmusResult> results;
    if (test_name.empty()) {
        results = runLitmusSuite(opts.bound);
    } else {
        results.push_back(runLitmus(findLitmus(test_name), opts.bound));
    }

    std::string json = "{\n\"schema_version\": " +
                       std::to_string(kLitmusSchemaVersion) +
                       ",\n\"bound\": " + std::to_string(opts.bound) +
                       ",\n\"tests\": [";
    TextTable table({"test", "events", "executions", "pruned",
                     "outcomes", "verdict"});
    size_t failed = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const LitmusResult& r = results[i];
        failed += !r.pass;
        table.addRow({r.name, std::to_string(r.events),
                      std::to_string(r.report.executions) +
                          (r.report.hit_bound ? "+" : ""),
                      std::to_string(r.report.pruned),
                      std::to_string(r.report.outcomes.size()),
                      r.verdict});
        for (const auto& f : r.report.faults)
            std::printf("  %s: %s\n", r.name.c_str(),
                        f.toString().c_str());
        for (const auto& race : r.report.races)
            std::printf("  %s: %s\n", r.name.c_str(),
                        race.toString().c_str());

        std::string outcomes;
        for (const auto& tuple : r.report.outcomes) {
            if (!outcomes.empty())
                outcomes += ',';
            outcomes += tupleJson(tuple);
        }
        std::string faults;
        for (const auto& f : r.report.faults) {
            if (!faults.empty())
                faults += ',';
            faults += '"' + jsonEscape(f.toString()) + '"';
        }
        if (i)
            json += ",";
        json += "\n  {\"name\": \"" + jsonEscape(r.name) +
                "\", \"verdict\": \"" + r.verdict +
                "\", \"pass\": " + (r.pass ? "true" : "false") +
                ", \"events\": " + std::to_string(r.events) +
                ", \"agents\": " + std::to_string(r.report.agents) +
                ", \"executions\": " +
                std::to_string(r.report.executions) +
                ", \"pruned\": " + std::to_string(r.report.pruned) +
                ", \"hit_bound\": " +
                (r.report.hit_bound ? "true" : "false") +
                ", \"sim_outcome\": " + tupleJson(r.sim_outcome) +
                ", \"outcomes\": [" + outcomes + "]" +
                ", \"uaf\": " + (r.uaf_found ? "true" : "false") +
                ", \"scope_race\": " + (r.race_found ? "true" : "false") +
                ", \"faults\": [" + faults + "]}";
    }
    json += "\n]\n}\n";

    std::printf("%s", table.render().c_str());
    std::printf("%zu litmus tests, %zu mismatched "
                "(bound %llu per test)\n",
                results.size(), failed,
                static_cast<unsigned long long>(opts.bound));
    if (!opts.json_path.empty())
        writeOutputFile(opts.json_path, json);
    return failed ? 1 : 0;
}

int
cmdCoverage(const GlobalOpts& opts)
{
    std::vector<MechanismKind> mechanisms;
    for (const std::string& name : splitCommas(opts.mechanisms_filter)) {
        MechanismKind kind;
        if (!mechanismFromName(name, &kind)) {
            std::fprintf(stderr, "error: unknown mechanism %s\n",
                         name.c_str());
            return 2;
        }
        mechanisms.push_back(kind);
    }
    // Default: the full registry on both tiers whose detection
    // semantics must agree; --tier narrows to one for quick runs.
    std::vector<ExecutionTier> tiers;
    if (opts.tier_set)
        tiers.push_back(opts.tier);

    const CoverageMatrix matrix = runCoverage(mechanisms, tiers);

    std::printf("%s", matrix.renderTable().c_str());
    std::printf("legend: X = runtime fault, C = compile-time "
                "rejection, . = missed, ! = benign twin flagged\n");
    for (const CoverageCell& c : matrix.cells)
        if (!c.disagreement.empty())
            std::fprintf(stderr, "disagreement: %s %s under %s (%s): %s\n",
                         c.attack.c_str(), c.benign ? "benign" : "attack",
                         mechanismKindName(c.mechanism),
                         executionTierName(c.tier),
                         c.disagreement.c_str());
    const size_t disagreements = matrix.disagreements();
    std::printf("%zu cells, %zu disagreements\n", matrix.cells.size(),
                disagreements);

    if (!opts.csv_path.empty())
        writeOutputFile(opts.csv_path, matrix.renderCsv());
    if (!opts.json_path.empty())
        writeOutputFile(opts.json_path, matrix.renderJson());
    return disagreements ? 1 : 0;
}

int
cmdTrace(const std::string& workload, MechanismKind kind, size_t events)
{
    Device dev(makeMechanism(kind));
    const WorkloadProfile profile = findWorkload(workload);
    WorkloadProfile small = profile;
    small.grid_blocks = std::min(small.grid_blocks, 4u);
    small.block_threads = std::min(small.block_threads, 64u);
    const uint64_t in = dev.cudaMalloc(small.elements() * 4 + 64);
    const uint64_t out = dev.cudaMalloc(small.elements() * 4 + 64);
    const CompiledKernel ck =
        dev.compile(buildWorkloadKernel(small), small.name);
    TraceRecorder recorder(events);
    LaunchOptions lopts;
    lopts.trace = &recorder;
    const RunResult r =
        dev.launch(ck, small.grid_blocks, small.block_threads,
                   {in, out, small.elements()}, lopts);
    for (const TraceEvent& e : recorder.events())
        std::printf("%s\n", traceEventToString(e).c_str());
    std::printf("... %llu events total\n\n",
                static_cast<unsigned long long>(recorder.totalSeen()));
    std::printf("%s", analyzeTrace(recorder.events()).toString().c_str());
    return r.faulted() ? 1 : 0;
}

int
cmdChurn(double scale, const GlobalOpts& opts)
{
    std::vector<ChurnSpec> specs;
    if (opts.workloads_filter.empty()) {
        for (const ChurnSpec& s : churnBasket())
            specs.push_back(scaleChurnSpec(s, scale));
    } else {
        for (const std::string& name :
             splitCommas(opts.workloads_filter))
            specs.push_back(scaleChurnSpec(findChurnSpec(name), scale));
    }

    TextTable table({"spec", "ops", "ops_per_sec", "oom", "stale_faults",
                     "remote_drained", "drain_calls", "frag", "digest"});
    bool bad = false;
    std::vector<ChurnResult> results;
    for (const ChurnSpec& s : specs) {
        const ChurnResult r = runChurn(s);
        if (r.unexpected_faults) {
            std::fprintf(stderr, "error: %s: %llu live frees faulted\n",
                         s.name.c_str(),
                         (unsigned long long)r.unexpected_faults);
            bad = true;
        }
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      (unsigned long long)r.digest);
        table.addRow({s.name, std::to_string(r.ops),
                      fmtF(r.opsPerSec(), 0), std::to_string(r.oom),
                      std::to_string(r.stale_faults),
                      std::to_string(r.remote_drained),
                      std::to_string(r.drain_calls),
                      fmtPct(100.0 * r.fragmentation), digest});
        results.push_back(r);
    }
    std::printf("%s", table.render().c_str());

    if (!opts.json_path.empty()) {
        std::ostringstream out;
        out << "{\n  \"scale\": " << scale << ",\n  \"specs\": {\n";
        for (size_t i = 0; i < specs.size(); ++i) {
            const ChurnResult& r = results[i];
            char digest[32];
            std::snprintf(digest, sizeof digest, "%016llx",
                          (unsigned long long)r.digest);
            out << "    \"" << specs[i].name << "\": {\"ops\": " << r.ops
                << ", \"ops_per_sec\": " << fmtF(r.opsPerSec(), 1)
                << ", \"oom\": " << r.oom
                << ", \"stale_faults\": " << r.stale_faults
                << ", \"remote_posted\": " << r.remote_posted
                << ", \"remote_drained\": " << r.remote_drained
                << ", \"fragmentation\": " << fmtF(r.fragmentation, 4)
                << ", \"digest\": \"" << digest << "\"}"
                << (i + 1 < specs.size() ? "," : "") << "\n";
        }
        out << "  }\n}\n";
        writeOutputFile(opts.json_path, out.str());
    }
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    setVerbose(false);

    // Strip global flags; what remains are the positional arguments.
    GlobalOpts opts;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto flagValue = [&](const char* flag, std::string* out) {
            if (arg != flag || i + 1 >= argc)
                return false;
            *out = argv[++i];
            return true;
        };
        std::string value;
        uint64_t count = 0;
        if (flagValue("--jobs", &value)) {
            if (!parseCount(arg, value, UINT_MAX, &count))
                return usage();
            opts.jobs = unsigned(count);
        } else if (flagValue("--sim-threads", &value)) {
            if (!parseCount(arg, value, UINT_MAX, &count))
                return usage();
            opts.sim_threads = unsigned(count);
        } else if (flagValue("--bound", &value)) {
            if (!parseCount(arg, value, UINT64_MAX, &count))
                return usage();
            opts.bound = count;
        } else if (flagValue("--workloads", &value) ||
                   flagValue("--mechanisms", &value)) {
            // An empty filter must not silently mean "all".
            if (splitCommas(value).empty()) {
                std::fprintf(stderr, "error: empty %s filter\n",
                             arg.c_str());
                return usage();
            }
            (arg == "--workloads" ? opts.workloads_filter
                                  : opts.mechanisms_filter) = value;
        } else if (flagValue("--tier", &value)) {
            opts.tier_set = true;
            if (value == "sampled") {
                std::fprintf(stderr, "error: the sampled tier was removed "
                                     "(expected detailed|functional)\n");
                return usage();
            }
            if (!parseExecutionTier(value, &opts.tier)) {
                std::fprintf(stderr,
                             "error: unknown tier %s (expected "
                             "detailed|functional)\n",
                             value.c_str());
                return usage();
            }
        } else if (arg == "--sampling") {
            std::fprintf(stderr, "error: --sampling was removed with the "
                                 "sampled tier (expected --tier "
                                 "detailed|functional)\n");
            return usage();
        } else if (flagValue("--csv", &opts.csv_path) ||
                   flagValue("--json", &opts.json_path) ||
                   flagValue("--severity", &opts.severity))
            ;
        else if (arg == "--seeded")
            opts.seeded = true;
        else if (arg == "--dynamic")
            opts.dynamic = true;
        else if (arg.rfind("--", 0) == 0) {
            // An unrecognized flag must not fall through to the
            // positionals: it would silently reparse as a workload or
            // scale. Reject loudly, usage on stderr.
            std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
            return usage();
        } else
            args.push_back(arg);
    }

    if (args.empty())
        return usage();
    const std::string cmd = args[0];
    // Optional positional scale args[i]: a finite decimal > 0.
    auto scaleArg = [&](size_t i, double fallback, double* out) {
        *out = fallback;
        return args.size() <= i || parseReal("scale", args[i], false, out);
    };
    double scale = 0.0;
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "run" && args.size() >= 3) {
            MechanismKind kind;
            if (!mechanismFromName(args[2], &kind))
                return usage();
            if (!scaleArg(3, 0.5, &scale))
                return usage();
            return cmdRun(args[1], kind, scale, opts);
        }
        if (cmd == "compare" && args.size() >= 2)
            return scaleArg(2, 0.5, &scale)
                       ? cmdCompare(args[1], scale, opts)
                       : usage();
        if (cmd == "sweep")
            return scaleArg(1, 0.5, &scale) ? cmdSweep(scale, opts)
                                            : usage();
        if (cmd == "disasm" && args.size() >= 3) {
            MechanismKind kind;
            if (!mechanismFromName(args[2], &kind))
                return usage();
            return cmdDisasm(args[1], kind);
        }
        if (cmd == "trace" && args.size() >= 3) {
            MechanismKind kind;
            uint64_t events = 20;
            if (!mechanismFromName(args[2], &kind) ||
                (args.size() > 3 &&
                 !parseCount("event count", args[3], SIZE_MAX, &events)))
                return usage();
            return cmdTrace(args[1], kind, size_t(events));
        }
        if (cmd == "verify")
            return cmdVerify(opts);
        if (cmd == "races")
            return cmdRaces(opts);
        if (cmd == "check")
            return cmdCheck(args.size() > 1 ? args[1] : "", opts);
        if (cmd == "coverage")
            return cmdCoverage(opts);
        if (cmd == "churn")
            return scaleArg(1, 1.0, &scale) ? cmdChurn(scale, opts)
                                            : usage();
        if (cmd == "security" && args.size() >= 2) {
            MechanismKind kind;
            if (!mechanismFromName(args[1], &kind))
                return usage();
            return cmdSecurity(kind, opts);
        }
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
