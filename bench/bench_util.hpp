/**
 * @file
 * Shared scaffolding for the experiment harnesses: every bench prints a
 * header naming the paper artifact it regenerates, runs quietly, and
 * renders its results through the common/table.hpp formatter (the same
 * formatter the ExperimentRunner's CSV export uses — there is exactly
 * one table/CSV renderer in the codebase).
 */

#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace lmi::bench {

/**
 * Run a harness's main body: a FatalError, such as an unwritable output
 * file, prints "error: ..." and exits 1 instead of aborting.
 */
template <typename Body>
int
exitOnFatal(Body&& body)
{
    try {
        return body();
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

/** Print the standard experiment banner. */
inline void
banner(const std::string& artifact, const std::string& what)
{
    setVerbose(false);
    const std::string rule = ruleLine(62);
    std::printf("%s\n%s — %s\n%s\n", rule.c_str(), artifact.c_str(),
                what.c_str(), rule.c_str());
}

/** Print a paper-vs-measured summary line. */
inline void
compare(const std::string& metric, double paper, double measured,
        const std::string& unit)
{
    const std::string line =
        "  " + padRight(metric, 44) + " paper " +
        padLeft(fmtF(paper, 2) + unit, 10) + "   measured " +
        padLeft(fmtF(measured, 2) + unit, 10);
    std::printf("%s\n", line.c_str());
}

/**
 * Common bench command line: an optional positional scale factor plus
 * the sweep flags, e.g. `fig12_perf_comparison 0.5 --jobs 4`.
 */
struct BenchArgs
{
    double scale;
    /** Worker threads for ExperimentRunner (0 = hardware concurrency). */
    unsigned jobs = 0;
};

inline BenchArgs
parseBenchArgs(int argc, char** argv, double default_scale)
{
    BenchArgs args;
    args.scale = default_scale;
    bool scale_seen = false;
    auto usage = [&] {
        std::fprintf(stderr, "usage: %s [scale] [--jobs N]\n", argv[0]);
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--jobs")) {
            uint64_t jobs = 0;
            if (i + 1 == argc ||
                !parseCount("--jobs", argv[++i], UINT_MAX, &jobs))
                usage();
            args.jobs = unsigned(jobs);
        } else if (!scale_seen) {
            if (!parseReal("scale", argv[i], false, &args.scale))
                usage();
            scale_seen = true;
        } else {
            usage();
        }
    }
    return args;
}

} // namespace lmi::bench
