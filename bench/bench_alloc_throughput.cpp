/**
 * @file
 * Tracked allocator-throughput benchmark: operations per wall-clock
 * second on the churn basket (workloads/churn.hpp) — the number the
 * message-passing rearchitecture is gated on.
 *
 * Runs the fixed 6-spec basket (small/mixed/cross-SM device-heap
 * churn, packed and pow2 host churn, and a stale-free temporal
 * scenario), reports per-spec ops/s plus the remote-free machinery's
 * drain statistics and end-state fragmentation. `--out FILE` writes
 * the numbers to a JSON file (the committed BENCH_alloc_throughput.json
 * at the repo root is the tracked baseline); without it the bench
 * writes no file.
 *
 * Regression mode: `--check FILE [--tolerance PCT]` re-measures and
 * exits non-zero when any spec's deterministic fields (digest, alloc,
 * free, oom and stale-fault counts, remote-free counters, footprint)
 * differ from FILE, which must have been recorded at the same scale
 * and drain interval, or when the basket-mean rate fell more than PCT
 * percent (default 30) below the rate recorded in FILE. CI's
 * perf-smoke job runs exactly that against the committed baseline.
 * Each run also cross-checks every spec's deterministic digest against
 * a second abbreviated replay, so a nondeterministic allocator fails
 * loudly here before it can poison a sweep.
 *
 * usage: bench_alloc_throughput [scale] [--out FILE] [--check FILE]
 *                               [--tolerance PCT] [--drain N]
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "workloads/churn.hpp"

using namespace lmi;

namespace {

/** Whole contents of @p path; empty when unreadable. */
std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Raw value token after `"key": ` in @p json (up to the next `,`, `}`
 *  or newline); empty when absent. Our own flat rendering, not
 *  arbitrary JSON: every value is a number or an unescaped string. */
std::string
jsonField(const std::string& json, const std::string& key)
{
    const std::string tag = "\"" + key + "\": ";
    const size_t pos = json.find(tag);
    if (pos == std::string::npos)
        return {};
    const size_t start = pos + tag.size();
    return json.substr(start, json.find_first_of(",}\n", start) - start);
}

/** The `{...}` object recorded for spec @p name; empty when absent. */
std::string
specObject(const std::string& json, const std::string& name)
{
    const size_t pos = json.find("\"" + name + "\": {");
    if (pos == std::string::npos)
        return {};
    return json.substr(pos, json.find('}', pos) + 1 - pos);
}

/** Result fields that are a pure function of (spec, scale, drain
 *  interval): any difference is a placement or fault change. */
const char* const kDeterministicFields[] = {
    "digest",         "allocs",         "frees",          "oom",
    "stale_faults",   "remote_posted",  "remote_batches", "remote_drained",
    "drain_calls",    "footprint"};

int
run(int argc, char** argv)
{
    double scale = 1.0;
    std::string out_path;
    std::string check_path;
    double tolerance = 30.0;
    unsigned drain_interval = 256;
    bool scale_seen = false;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [scale] [--out FILE] [--check FILE] "
                     "[--tolerance PCT] [--drain N]\n",
                     argv[0]);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--check") && i + 1 < argc) {
            check_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--tolerance") && i + 1 < argc) {
            if (!parseReal("--tolerance", argv[++i], true, &tolerance))
                return usage();
        } else if (!std::strcmp(argv[i], "--drain") && i + 1 < argc) {
            uint64_t count = 0;
            if (!parseCount("--drain", argv[++i], UINT_MAX, &count))
                return usage();
            drain_interval = unsigned(count);
        } else if (!scale_seen) {
            if (!parseReal("scale", argv[i], false, &scale))
                return usage();
            scale_seen = true;
        } else {
            return usage();
        }
    }

    bench::banner("Allocator throughput",
                  "churn-basket operations per wall-clock second");

    std::vector<ChurnSpec> specs;
    for (const ChurnSpec& s : churnBasket())
        specs.push_back(scaleChurnSpec(s, scale));

    TextTable table({"spec", "ops", "wall_ms", "ops_per_sec",
                     "remote_drained", "frag"});
    std::vector<ChurnResult> results;
    double mean = 0.0;
    for (const ChurnSpec& s : specs) {
        const ChurnResult r = runChurn(s, drain_interval);
        if (r.unexpected_faults) {
            std::fprintf(stderr,
                         "error: %s: %llu live frees faulted\n",
                         s.name.c_str(),
                         (unsigned long long)r.unexpected_faults);
            return 1;
        }
        // Determinism cross-check: an abbreviated replay must agree on
        // every pointer and fault bit-for-bit.
        const ChurnSpec replay_spec = scaleChurnSpec(s, 0.05);
        const ChurnResult once = runChurn(replay_spec, drain_interval);
        const ChurnResult twice = runChurn(replay_spec, drain_interval);
        if (once.digest != twice.digest) {
            std::fprintf(stderr,
                         "error: %s: nondeterministic digest "
                         "(%016llx vs %016llx)\n",
                         s.name.c_str(), (unsigned long long)once.digest,
                         (unsigned long long)twice.digest);
            return 1;
        }
        table.addRow({s.name, std::to_string(r.ops), fmtF(r.wall_ms, 1),
                      fmtF(r.opsPerSec(), 0),
                      std::to_string(r.remote_drained),
                      fmtPct(100.0 * r.fragmentation)});
        mean += r.opsPerSec();
        results.push_back(r);
    }
    mean /= double(specs.size());
    std::printf("%s\nbasket mean: %.0f ops/s\n", table.render().c_str(),
                mean);

    // Read the baseline before writing: --out and --check may name the
    // same file (refreshing the tracked baseline in place).
    const std::string baseline =
        check_path.empty() ? std::string() : readFile(check_path);

    std::vector<std::string> spec_json;
    for (size_t i = 0; i < specs.size(); ++i) {
        const ChurnResult& r = results[i];
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      (unsigned long long)r.digest);
        std::ostringstream o;
        o << "\"" << specs[i].name << "\": {\"ops\": " << r.ops
          << ", \"wall_ms\": " << fmtF(r.wall_ms, 3)
          << ", \"ops_per_sec\": " << fmtF(r.opsPerSec(), 1)
          << ", \"allocs\": " << r.allocs << ", \"frees\": " << r.frees
          << ", \"oom\": " << r.oom
          << ", \"stale_faults\": " << r.stale_faults
          << ", \"remote_posted\": " << r.remote_posted
          << ", \"remote_batches\": " << r.remote_batches
          << ", \"remote_drained\": " << r.remote_drained
          << ", \"drain_calls\": " << r.drain_calls
          << ", \"footprint\": " << r.footprint
          << ", \"fragmentation\": " << fmtF(r.fragmentation, 4)
          << ", \"digest\": \"" << digest << "\"}";
        spec_json.push_back(o.str());
    }

    std::ostringstream out;
    out << "{\n";
    out << "  \"scale\": " << scale << ",\n";
    out << "  \"drain_interval\": " << drain_interval << ",\n";
    out << "  \"specs\": {\n";
    for (size_t i = 0; i < spec_json.size(); ++i)
        out << "    " << spec_json[i]
            << (i + 1 < spec_json.size() ? "," : "") << "\n";
    out << "  },\n";
    out << "  \"aggregate_ops_per_sec\": " << fmtF(mean, 1) << ",\n";
    // Always record the host width: rate baselines from a 1-CPU
    // runner and a wide box are not comparable.
    out << "  \"host_cpus\": "
        << std::max(1u, std::thread::hardware_concurrency()) << "\n";
    out << "}\n";
    if (!out_path.empty())
        writeOutputFile(out_path, out.str());

    if (!check_path.empty()) {
        const double base =
            std::strtod(jsonField(baseline, "aggregate_ops_per_sec").c_str(),
                        nullptr);
        if (base <= 0.0) {
            std::fprintf(stderr,
                         "error: no aggregate_ops_per_sec in %s\n",
                         check_path.c_str());
            return 1;
        }
        // Deterministic fields first: the same spec, scale and drain
        // interval must place and classify exactly as recorded.
        int mismatches = 0;
        for (size_t i = 0; i < specs.size(); ++i) {
            const std::string want = specObject(baseline, specs[i].name);
            for (const char* key : kDeterministicFields) {
                const std::string w = jsonField(want, key);
                const std::string g = jsonField(spec_json[i], key);
                if (w != g) {
                    std::fprintf(stderr,
                                 "error: %s: %s is %s, baseline %s\n",
                                 specs[i].name.c_str(), key, g.c_str(),
                                 w.empty() ? "(missing)" : w.c_str());
                    ++mismatches;
                }
            }
        }
        if (mismatches) {
            std::fprintf(stderr,
                         "error: %d deterministic field(s) differ from "
                         "%s (compare at its scale and drain interval)\n",
                         mismatches, check_path.c_str());
            return 1;
        }
        const double floor = base * (1.0 - tolerance / 100.0);
        std::printf("regression check: %.0f ops/s vs baseline %.0f "
                    "(floor %.0f, tolerance %.0f%%)\n",
                    mean, base, floor, tolerance);
        if (mean < floor) {
            std::fprintf(stderr,
                         "error: throughput regressed more than %.0f%%\n",
                         tolerance);
            return 1;
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
