#include "common/stats.hpp"

#include <cassert>
#include <cmath>

#include "common/logging.hpp"

namespace lmi {

void
StatRegistry::inc(const std::string& name, uint64_t delta)
{
    counters_[name] += delta;
}

void
StatRegistry::set(const std::string& name, double value)
{
    gauges_[name] = value;
}

uint64_t
StatRegistry::counter(const std::string& name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
StatRegistry::gauge(const std::string& name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

void
StatRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
}

void
StatRegistry::merge(const StatRegistry& other)
{
    for (const auto& [name, v] : other.counters_)
        counters_[name] += v;
    for (const auto& [name, v] : other.gauges_)
        gauges_[name] = v;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            lmi_fatal("geomean requires positive values, got %f", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / double(values.size()));
}

double
overheadPct(double value, double base)
{
    assert(base > 0.0);
    return (value / base - 1.0) * 100.0;
}

} // namespace lmi
