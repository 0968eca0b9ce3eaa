/**
 * @file
 * Lightweight statistics: named counters grouped into registries, plus the
 * scalar summaries (geometric mean, normalization) the paper's evaluation
 * section reports.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lmi {

/**
 * A bag of named 64-bit counters and double-valued gauges.
 *
 * Simulator components hold a reference to one registry and bump counters
 * by name; benches read them back after the run. A registry is not
 * thread-safe: components that count on SM workers keep per-SM tallies
 * and add them here once per launch, from one thread.
 */
class StatRegistry
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void inc(const std::string& name, uint64_t delta = 1);

    /** Set gauge @p name to @p value. */
    void set(const std::string& name, double value);

    /** Counter value; 0 if never incremented. */
    uint64_t counter(const std::string& name) const;

    /** Gauge value; 0.0 if never set. */
    double gauge(const std::string& name) const;

    /** All counters, sorted by name. */
    const std::map<std::string, uint64_t>& counters() const { return counters_; }

    /** All gauges, sorted by name. */
    const std::map<std::string, double>& gauges() const { return gauges_; }

    /** Reset everything to empty. */
    void clear();

    /** Merge another registry into this one (counters add, gauges overwrite). */
    void merge(const StatRegistry& other);

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
};

/** Geometric mean of @p values; values must be positive. */
double geomean(const std::vector<double>& values);

/** Overhead in percent of @p value over @p base: (value/base - 1) * 100. */
double overheadPct(double value, double base);

} // namespace lmi
