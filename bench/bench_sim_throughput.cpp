/**
 * @file
 * Tracked simulator-throughput benchmark: how many GPU cycles the
 * simulator retires per wall-clock second, and at what memory cost.
 *
 * Runs a fixed basket of Table V workloads under the baseline and every
 * Fig. 12 mechanism (serially by default, so the rate is not a function
 * of host core count), then reports per-mechanism and aggregate
 * simulation rate (million simulated cycles per second), warp
 * instructions and host nanoseconds per warp instruction, plus the
 * process peak RSS. `--out FILE` writes the numbers to a JSON file
 * (the committed BENCH_sim_throughput.json at the repo root is the
 * tracked baseline); without it the bench writes no file.
 *
 * Regression mode: `--check FILE [--tolerance PCT]` re-measures and
 * exits non-zero when the aggregate rate fell more than PCT percent
 * (default 30) below the rate recorded in FILE, or when the peak RSS
 * after the serial pass rose more than PCT percent above FILE's. CI's
 * perf-smoke job runs exactly that against the committed baseline. The
 * check always gates the *serial* rate — thread-scaling numbers vary
 * with the host.
 *
 * Thread-scaling mode: `--threads 1,2,4,8` re-runs the basket with the
 * simulator's per-launch SM worker pool at each count (results are
 * byte-identical; only wall clock changes) and reports Mcycles/s plus
 * parallel efficiency per count, recorded under "thread_scaling" in
 * the JSON together with the host's hardware concurrency. When
 * combined with `--check` on a multi-core host, the widest in-core
 * point must show real speedup (>= 1.15x over 1 thread); on a 1-CPU
 * host the scaling assertion is skipped with a notice — flat scaling
 * there is physics, not a regression.
 *
 * Tier pass: unless `--no-tiers` is given, the basket is re-run under
 * the functional execution tier. Its throughput is reported as
 * *equivalent* Mcycles/s — the detailed pass's aggregate cycles
 * divided by the functional wall clock, i.e. the rate at which the
 * tier retires the same simulated work — along with the speedup over
 * detailed. Recorded under "tiers" in the JSON.
 *
 * usage: bench_sim_throughput [scale] [--jobs N] [--out FILE]
 *                             [--check FILE] [--tolerance PCT]
 *                             [--threads LIST] [--no-tiers]
 */

#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

/** Fixed basket: scattered (bfs), integer-dense (gaussian),
 *  shared-heavy (needle), stencil (hotspot), and one DNN inference
 *  profile (bert) — small enough for CI, diverse enough that a
 *  regression in any hot path (ALU, memory, scheduler) shows up. */
const char* const kBasket[] = {"bfs", "gaussian", "hotspot", "needle",
                               "bert"};

struct MechRate
{
    uint64_t cycles = 0;
    /** Warp instructions issued: the engine's unit of host work. */
    uint64_t warp_insts = 0;
    double wall_ms = 0.0;

    double
    mcps() const
    {
        return wall_ms > 0.0 ? double(cycles) / wall_ms / 1000.0 : 0.0;
    }

    /** Host time per warp instruction: names the layer a mechanism
     *  costs (issue path and hooks) apart from how many cycles it
     *  simulates. */
    double
    nsPerWarpInst() const
    {
        return warp_insts ? wall_ms * 1e6 / double(warp_insts) : 0.0;
    }
};

long
peakRssKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss; // KiB on Linux
}

/** Pull top-level "<key>": <num> out of a baseline JSON with a plain
 *  scan — the file is our own flat rendering, not arbitrary JSON.
 *  Returns 0 when absent/unreadable. */
double
baselineNumber(const std::string& path, const std::string& field)
{
    std::ifstream in(path);
    if (!in)
        return 0.0;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    const std::string key = "\"" + field + "\":";
    const size_t pos = s.find(key);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(s.c_str() + pos + key.size(), nullptr);
}

int
run(int argc, char** argv)
{
    double scale = 1.0;
    unsigned jobs = 1;
    std::string out_path;
    std::string check_path;
    double tolerance = 30.0;
    std::vector<unsigned> thread_counts;
    bool run_tiers = true;
    bool scale_seen = false;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [scale] [--jobs N] [--out FILE] "
                     "[--check FILE] [--tolerance PCT] "
                     "[--threads LIST] [--no-tiers]\n",
                     argv[0]);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--no-tiers")) {
            run_tiers = false;
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            uint64_t count = 0;
            if (!parseCount("--jobs", argv[++i], UINT_MAX, &count))
                return usage();
            jobs = unsigned(count);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--check") && i + 1 < argc) {
            check_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--tolerance") && i + 1 < argc) {
            if (!parseReal("--tolerance", argv[++i], true, &tolerance))
                return usage();
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            // Every comma item must be a count >= 1: a bad item rejects
            // the whole list instead of truncating it.
            const std::string list = argv[++i];
            for (size_t pos = 0; pos <= list.size();) {
                const size_t comma = std::min(list.find(',', pos),
                                              list.size());
                uint64_t count = 0;
                if (!parseCount("--threads", list.substr(pos, comma - pos),
                                UINT_MAX, &count))
                    return usage();
                if (count == 0) {
                    std::fprintf(stderr, "error: --threads counts must "
                                         "be >= 1\n");
                    return usage();
                }
                thread_counts.push_back(unsigned(count));
                pos = comma + 1;
            }
        } else if (!scale_seen) {
            if (!parseReal("scale", argv[i], false, &scale))
                return usage();
            scale_seen = true;
        } else {
            return usage();
        }
    }

    bench::banner("Simulator throughput",
                  "simulated Mcycles per wall-clock second");

    SweepSpec spec;
    for (const char* w : kBasket)
        spec.workloads.push_back(w);
    spec.mechanisms.push_back(MechanismKind::Baseline);
    for (MechanismKind kind : hardwareComparisonMechanisms())
        spec.mechanisms.push_back(kind);
    spec.scales = {scale};
    spec.jobs = jobs;
    // The tracked rate is always the serial engine: pin sim_threads so
    // an inherited LMI_SIM_THREADS cannot skew the baseline.
    spec.sim_threads = 1;
    // Never cached: the whole point is to measure fresh simulation.

    const SweepResult sweep = runSweep(spec);
    if (sweep.failures) {
        std::fprintf(stderr, "error: %zu cell(s) failed\n",
                     sweep.failures);
        return 1;
    }

    // std::map: deterministic mechanism order in table and JSON.
    std::map<std::string, MechRate> rates;
    MechRate total;
    for (const CellResult& cell : sweep.cells) {
        MechRate& r = rates[mechanismKindName(cell.mechanism)];
        r.cycles += cell.result.cycles;
        r.warp_insts += cell.result.instructions;
        r.wall_ms += cell.wall_ms;
        total.cycles += cell.result.cycles;
        total.warp_insts += cell.result.instructions;
        total.wall_ms += cell.wall_ms;
    }

    TextTable table({"mechanism", "cycles", "warp_insts", "wall_ms",
                     "mcycles_per_sec", "host_ns_per_warp_inst"});
    for (const auto& [name, r] : rates)
        table.addRow({name, std::to_string(r.cycles),
                      std::to_string(r.warp_insts), fmtF(r.wall_ms, 1),
                      fmtF(r.mcps(), 2), fmtF(r.nsPerWarpInst(), 1)});
    table.addRow({"TOTAL", std::to_string(total.cycles),
                  std::to_string(total.warp_insts), fmtF(total.wall_ms, 1),
                  fmtF(total.mcps(), 2), fmtF(total.nsPerWarpInst(), 1)});
    std::printf("%s", table.render().c_str());

    const long rss_kb = peakRssKb();
    std::printf("\npeak RSS: %.1f MB\n", double(rss_kb) / 1024.0);

    // Thread-scaling pass: identical simulation (byte-identical
    // results), only the per-launch SM worker count varies. Jobs are
    // pinned to 1 so each measurement owns the whole host, and the
    // oversubscription clamp is off — measuring past the core count is
    // exactly the point of the sweep.
    struct ScalePoint
    {
        unsigned threads = 1;
        uint64_t cycles = 0;
        double wall_ms = 0.0;
        double mcps = 0.0;
        double efficiency = 1.0;
    };
    std::vector<ScalePoint> scaling;
    if (!thread_counts.empty()) {
        SweepSpec tspec = spec;
        tspec.jobs = 1;
        tspec.clamp_sim_threads = false;
        for (unsigned t : thread_counts) {
            tspec.sim_threads = t;
            const SweepResult ts = runSweep(tspec);
            if (ts.failures) {
                std::fprintf(stderr,
                             "error: %zu cell(s) failed at %u threads\n",
                             ts.failures, t);
                return 1;
            }
            ScalePoint pt;
            pt.threads = t;
            for (const CellResult& cell : ts.cells) {
                pt.cycles += cell.result.cycles;
                pt.wall_ms += cell.wall_ms;
            }
            pt.mcps = pt.wall_ms > 0.0
                          ? double(pt.cycles) / pt.wall_ms / 1000.0
                          : 0.0;
            scaling.push_back(pt);
        }
        // Efficiency is speedup over the 1-thread point of this same
        // pass (or the serial headline rate when 1 is not in the list)
        // divided by the thread count.
        double base_rate = total.mcps();
        for (const ScalePoint& pt : scaling)
            if (pt.threads == 1 && pt.mcps > 0.0)
                base_rate = pt.mcps;
        TextTable scale_table({"threads", "wall_ms", "mcycles_per_sec",
                               "speedup", "efficiency"});
        for (ScalePoint& pt : scaling) {
            const double speedup =
                base_rate > 0.0 ? pt.mcps / base_rate : 0.0;
            pt.efficiency = pt.threads ? speedup / pt.threads : 0.0;
            scale_table.addRow({std::to_string(pt.threads),
                                fmtF(pt.wall_ms, 1), fmtF(pt.mcps, 2),
                                fmtF(speedup, 2) + "x",
                                fmtF(100.0 * pt.efficiency, 1) + "%"});
        }
        std::printf("\nthread scaling (%u host cpu(s)):\n%s",
                    std::max(1u, std::thread::hardware_concurrency()),
                    scale_table.render().c_str());
    }

    // Tier pass: same basket, same serial engine, functional tier. The
    // meaningful rate for a tier that only estimates cycles is how fast
    // it retires the *detailed* tier's work, so it is scored as
    // detailed-aggregate-cycles over its own wall clock.
    uint64_t func_cycles = 0; ///< the tier's own cycle estimates
    double func_wall_ms = 0.0;
    double func_mcps = 0.0;
    double func_speedup = 0.0;
    if (run_tiers) {
        SweepSpec tspec = spec;
        tspec.tier = ExecutionTier::Functional;
        const SweepResult ts = runSweep(tspec);
        if (ts.failures) {
            std::fprintf(stderr,
                         "error: %zu cell(s) failed under the functional "
                         "tier\n",
                         ts.failures);
            return 1;
        }
        for (const CellResult& cell : ts.cells) {
            func_cycles += cell.result.cycles;
            func_wall_ms += cell.wall_ms;
        }
        func_mcps = func_wall_ms > 0.0
                        ? double(total.cycles) / func_wall_ms / 1000.0
                        : 0.0;
        func_speedup = total.mcps() > 0.0 ? func_mcps / total.mcps() : 0.0;
        TextTable tier_table({"tier", "wall_ms", "equiv_mcycles_per_sec",
                              "speedup_vs_detailed"});
        tier_table.addRow({"detailed", fmtF(total.wall_ms, 1),
                           fmtF(total.mcps(), 2), "1.00x"});
        tier_table.addRow({"functional", fmtF(func_wall_ms, 1),
                           fmtF(func_mcps, 2),
                           fmtF(func_speedup, 2) + "x"});
        std::printf("\nexecution tiers (equivalent rate = detailed "
                    "cycles / tier wall):\n%s",
                    tier_table.render().c_str());
    }

    // Read the reference values before writing: --out and --check may
    // name the same file (refreshing the tracked baseline in place).
    const double base =
        check_path.empty()
            ? 0.0
            : baselineNumber(check_path, "aggregate_mcycles_per_sec");
    const double base_rss =
        check_path.empty() ? 0.0
                           : baselineNumber(check_path, "peak_rss_kb");

    std::ostringstream out;
    out << "{\n";
    out << "  \"scale\": " << scale << ",\n";
    out << "  \"jobs\": " << jobs << ",\n";
    out << "  \"workloads\": [";
    for (size_t i = 0; i < std::size(kBasket); ++i)
        out << (i ? ", " : "") << '"' << kBasket[i] << '"';
    out << "],\n";
    out << "  \"mechanisms\": {\n";
    size_t n = 0;
    for (const auto& [name, r] : rates) {
        out << "    \"" << name << "\": {\"cycles\": " << r.cycles
            << ", \"warp_insts\": " << r.warp_insts
            << ", \"wall_ms\": " << fmtF(r.wall_ms, 3)
            << ", \"mcycles_per_sec\": " << fmtF(r.mcps(), 3)
            << ", \"host_ns_per_warp_inst\": "
            << fmtF(r.nsPerWarpInst(), 3) << "}"
            << (++n < rates.size() ? "," : "") << "\n";
    }
    out << "  },\n";
    out << "  \"aggregate_cycles\": " << total.cycles << ",\n";
    out << "  \"aggregate_wall_ms\": " << fmtF(total.wall_ms, 3) << ",\n";
    out << "  \"aggregate_mcycles_per_sec\": " << fmtF(total.mcps(), 3)
        << ",\n";
    out << "  \"peak_rss_kb\": " << rss_kb << ",\n";
    // Always record the host width: rate baselines from a 1-CPU
    // runner and a wide box are not comparable.
    out << "  \"host_cpus\": "
        << std::max(1u, std::thread::hardware_concurrency());
    if (run_tiers) {
        out << ",\n  \"tiers\": {\n";
        out << "    \"functional\": {\"wall_ms\": " << fmtF(func_wall_ms, 3)
            << ", \"est_cycles\": " << func_cycles
            << ", \"equiv_mcycles_per_sec\": " << fmtF(func_mcps, 3)
            << ", \"speedup_vs_detailed\": " << fmtF(func_speedup, 3)
            << "}\n";
        out << "  }";
    }
    if (!scaling.empty()) {
        out << ",\n  \"thread_scaling\": [\n";
        for (size_t i = 0; i < scaling.size(); ++i) {
            const ScalePoint& pt = scaling[i];
            out << "    {\"threads\": " << pt.threads
                << ", \"wall_ms\": " << fmtF(pt.wall_ms, 3)
                << ", \"mcycles_per_sec\": " << fmtF(pt.mcps, 3)
                << ", \"efficiency\": " << fmtF(pt.efficiency, 3) << "}"
                << (i + 1 < scaling.size() ? "," : "") << "\n";
        }
        out << "  ]";
    }
    out << "\n}\n";
    if (!out_path.empty())
        writeOutputFile(out_path, out.str());

    if (!check_path.empty()) {
        if (base <= 0.0 || base_rss <= 0.0) {
            std::fprintf(stderr,
                         "error: no aggregate_mcycles_per_sec or "
                         "peak_rss_kb in %s\n",
                         check_path.c_str());
            return 1;
        }
        const double floor = base * (1.0 - tolerance / 100.0);
        std::printf("regression check: %.2f Mc/s vs baseline %.2f "
                    "(floor %.2f, tolerance %.0f%%)\n",
                    total.mcps(), base, floor, tolerance);
        if (total.mcps() < floor) {
            std::fprintf(stderr,
                         "error: throughput regressed more than %.0f%%\n",
                         tolerance);
            return 1;
        }
        const double rss_ceiling = base_rss * (1.0 + tolerance / 100.0);
        std::printf("memory check: peak RSS %ld KiB vs baseline %.0f "
                    "(ceiling %.0f, tolerance %.0f%%)\n",
                    rss_kb, base_rss, rss_ceiling, tolerance);
        if (double(rss_kb) > rss_ceiling) {
            std::fprintf(stderr,
                         "error: peak RSS grew more than %.0f%%\n",
                         tolerance);
            return 1;
        }

        // Thread-scaling gate: only meaningful with real cores. A
        // 1-CPU host shows flat scaling by construction, so the
        // assertion is skipped there rather than recorded as a pass.
        if (!scaling.empty()) {
            const unsigned cpus =
                std::max(1u, std::thread::hardware_concurrency());
            if (cpus <= 1) {
                std::printf("thread-scaling gate: skipped "
                            "(host_cpus == 1, flat scaling expected)\n");
            } else {
                double best = 0.0;
                unsigned best_threads = 0;
                for (const ScalePoint& pt : scaling) {
                    if (pt.threads < 2 || pt.threads > cpus)
                        continue;
                    const double speedup =
                        pt.efficiency * double(pt.threads);
                    if (speedup > best) {
                        best = speedup;
                        best_threads = pt.threads;
                    }
                }
                if (best_threads == 0) {
                    std::printf("thread-scaling gate: skipped (no "
                                "in-core multi-thread point measured)\n");
                } else {
                    std::printf("thread-scaling gate: best in-core "
                                "speedup %.2fx at %u threads "
                                "(%u cpus, floor 1.15x)\n",
                                best, best_threads, cpus);
                    if (best < 1.15) {
                        std::fprintf(stderr,
                                     "error: parallel engine shows no "
                                     "speedup on a %u-core host\n",
                                     cpus);
                        return 1;
                    }
                }
            }
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return bench::exitOnFatal([&] { return run(argc, argv); });
}
