#include "runner/sweep.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/hash.hpp"
#include "common/table.hpp"

namespace lmi {

namespace {

/** Bump when the serialized payload layout changes: old cache entries
 *  then miss on fingerprint and get re-simulated.
 *  v2: payload carries a trailing "end=1" sentinel so truncated files
 *  (a killed writer, a partially synced disk) are rejected instead of
 *  silently deserializing a prefix.
 *  v3: the execution tier joins the fingerprint and the payload
 *  carries a "tier=" line — a functional run must never be served from
 *  a detailed-tier cache entry or vice versa. */
constexpr uint64_t kCellFormatVersion = 3;

constexpr const char* kMagic = "lmi-cell-v1";

Fnv1a&
hashProfile(Fnv1a& h, const WorkloadProfile& p)
{
    h.str(p.name).str(p.suite);
    h.u64(p.grid_blocks).u64(p.block_threads).u64(p.elems_per_thread);
    h.u64(p.compute_iters).f64(p.fp_ratio).u64(p.ptr_chain);
    h.u64(p.shared_accesses).u64(p.shared_tile_bytes);
    h.u64(p.local_accesses).u64(p.local_buf_bytes);
    h.u64(p.scattered ? 1 : 0).u64(p.scatter_window_elems);
    h.u64(p.addr_ops_per_access);
    h.u64(p.heap_allocs).u64(p.heap_alloc_bytes);
    h.u64(p.host_allocs.size());
    for (uint64_t s : p.host_allocs)
        h.u64(s);
    return h;
}

std::string
escapeLine(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '\\')
            out += "\\\\";
        else if (ch == '\n')
            out += "\\n";
        else
            out += ch;
    }
    return out;
}

std::string
unescapeLine(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\\' && i + 1 < s.size()) {
            ++i;
            out += s[i] == 'n' ? '\n' : s[i];
        } else {
            out += s[i];
        }
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Parse all of @p v as a number in the form serializeCellPayload
 *  writes it: an unsigned decimal, or fmtDouble's %.17g (inf and nan
 *  included). */
template <typename T>
bool
parseWhole(const std::string& v, T* out)
{
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

/** "0" or "1". */
bool
parseFlag(const std::string& v, bool* out)
{
    *out = v == "1";
    return v == "0" || v == "1";
}

std::string
fmtHex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

} // namespace

uint64_t
cellFingerprint(const SweepCell& cell)
{
    Fnv1a h;
    h.u64(kCellFormatVersion);
    hashProfile(h, cell.workload);
    h.str(mechanismKindName(cell.mechanism));
    h.f64(cell.scale);
    h.str(executionTierName(cell.tier));
    hashConfig(h, cell.config);
    return h.value();
}

std::string
serializeCellPayload(const CellResult& cell)
{
    std::ostringstream out;
    out << kMagic << '\n';
    out << "fingerprint=" << fmtHex64(cell.fingerprint) << '\n';
    out << "workload=" << escapeLine(cell.workload) << '\n';
    out << "mechanism=" << mechanismKindName(cell.mechanism) << '\n';
    out << "tier=" << executionTierName(cell.tier) << '\n';
    out << "scale=" << fmtDouble(cell.scale) << '\n';
    out << "ok=" << (cell.ok ? 1 : 0) << '\n';
    out << "timed_out=" << (cell.timed_out ? 1 : 0) << '\n';
    out << "error=" << escapeLine(cell.error) << '\n';

    const RunResult& r = cell.result;
    out << "cycles=" << r.cycles << '\n';
    out << "instructions=" << r.instructions << '\n';
    out << "thread_instructions=" << r.thread_instructions << '\n';
    out << "ldg=" << r.ldg << '\n' << "stg=" << r.stg << '\n';
    out << "lds=" << r.lds << '\n' << "sts=" << r.sts << '\n';
    out << "ldl=" << r.ldl << '\n' << "stl=" << r.stl << '\n';
    out << "l1_hits=" << r.l1_hits << '\n';
    out << "l1_misses=" << r.l1_misses << '\n';
    out << "l2_hits=" << r.l2_hits << '\n';
    out << "l2_misses=" << r.l2_misses << '\n';
    out << "dram_accesses=" << r.dram_accesses << '\n';
    out << "aborted=" << (r.aborted ? 1 : 0) << '\n';
    for (const Fault& f : r.faults) {
        out << "fault=" << int(f.kind) << '|' << f.address << '|'
            << escapeLine(f.detail) << '\n';
    }
    // std::map iteration order makes these lines deterministic.
    for (const auto& [name, v] : r.stats.counters())
        out << "rstat.c." << name << '=' << v << '\n';
    for (const auto& [name, v] : r.stats.gauges())
        out << "rstat.g." << name << '=' << fmtDouble(v) << '\n';
    for (const auto& [name, v] : cell.device_stats.counters())
        out << "dstat.c." << name << '=' << v << '\n';
    for (const auto& [name, v] : cell.device_stats.gauges())
        out << "dstat.g." << name << '=' << fmtDouble(v) << '\n';
    out << "peak_reserved=" << cell.peak_reserved << '\n';
    // Must stay the last line: the deserializer treats a payload
    // without it as truncated.
    out << "end=1\n";
    return out.str();
}

bool
deserializeCellPayload(const std::string& text, uint64_t expect_fp,
                       CellResult* out)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kMagic)
        return false;

    // The RunResult counters, one "name=<u64>" line each.
    static const std::pair<const char*, uint64_t RunResult::*> kCounts[] = {
        {"cycles", &RunResult::cycles},
        {"instructions", &RunResult::instructions},
        {"thread_instructions", &RunResult::thread_instructions},
        {"ldg", &RunResult::ldg},
        {"stg", &RunResult::stg},
        {"lds", &RunResult::lds},
        {"sts", &RunResult::sts},
        {"ldl", &RunResult::ldl},
        {"stl", &RunResult::stl},
        {"l1_hits", &RunResult::l1_hits},
        {"l1_misses", &RunResult::l1_misses},
        {"l2_hits", &RunResult::l2_hits},
        {"l2_misses", &RunResult::l2_misses},
        {"dram_accesses", &RunResult::dram_accesses},
    };

    CellResult cell;
    bool fp_seen = false;
    bool end_seen = false;
    // Every field parses whole-string: a corrupted value ("cycles=abc",
    // an out-of-range fault kind) makes the entry a miss, never a hit
    // carrying a wrong number.
    while (std::getline(in, line)) {
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        RunResult& r = cell.result;
        uint64_t u = 0;
        double g = 0.0;
        bool good = true;
        if (key == "fingerprint") {
            if (value != fmtHex64(expect_fp))
                return false; // stale entry for another cell/version
            cell.fingerprint = expect_fp;
            fp_seen = true;
        } else if (key == "workload") {
            cell.workload = unescapeLine(value);
        } else if (key == "mechanism") {
            good = mechanismFromName(value, &cell.mechanism);
        } else if (key == "tier") {
            good = parseExecutionTier(value, &cell.tier);
        } else if (key == "scale") {
            good = parseWhole(value, &cell.scale);
        } else if (key == "ok") {
            good = parseFlag(value, &cell.ok);
        } else if (key == "timed_out") {
            good = parseFlag(value, &cell.timed_out);
        } else if (key == "error") {
            cell.error = unescapeLine(value);
        } else if (key == "aborted") {
            good = parseFlag(value, &r.aborted);
        } else if (key == "fault") {
            const size_t p1 = value.find('|');
            const size_t p2 =
                p1 == std::string::npos ? p1 : value.find('|', p1 + 1);
            Fault f;
            good = p2 != std::string::npos &&
                   parseWhole(value.substr(0, p1), &u) &&
                   u <= uint64_t(FaultKind::BarrierDivergence) &&
                   parseWhole(value.substr(p1 + 1, p2 - p1 - 1),
                              &f.address);
            if (good) {
                f.kind = FaultKind(u);
                f.detail = unescapeLine(value.substr(p2 + 1));
                r.faults.push_back(std::move(f));
            }
        } else if (key.rfind("rstat.c.", 0) == 0) {
            if ((good = parseWhole(value, &u)))
                r.stats.inc(key.substr(8), u);
        } else if (key.rfind("rstat.g.", 0) == 0) {
            if ((good = parseWhole(value, &g)))
                r.stats.set(key.substr(8), g);
        } else if (key.rfind("dstat.c.", 0) == 0) {
            if ((good = parseWhole(value, &u)))
                cell.device_stats.inc(key.substr(8), u);
        } else if (key.rfind("dstat.g.", 0) == 0) {
            if ((good = parseWhole(value, &g)))
                cell.device_stats.set(key.substr(8), g);
        } else if (key == "peak_reserved") {
            good = parseWhole(value, &cell.peak_reserved);
        } else if (key == "end") {
            end_seen = value == "1"; // "end=" alone is a cut-off write
        } else {
            for (const auto& [name, field] : kCounts)
                if (key == name)
                    good = parseWhole(value, &(r.*field));
        }
        // Unknown keys are skipped: newer writers stay readable.
        if (!good)
            return false;
    }
    if (!fp_seen || !end_seen)
        return false; // missing sentinel: truncated or foreign payload
    *out = std::move(cell);
    return true;
}

const CellResult*
SweepResult::find(const std::string& workload, MechanismKind mechanism,
                  double scale) const
{
    for (const CellResult& c : cells) {
        if (c.workload == workload && c.mechanism == mechanism &&
            c.scale == scale) {
            return &c;
        }
    }
    return nullptr;
}

std::string
SweepResult::renderCsv() const
{
    // Columns 1-23 are deterministic simulation outcome; wall_ms and
    // later are per-run measurements. CI byte-compares the prefix.
    TextTable table({"workload", "mechanism", "tier", "scale", "status",
                     "from_cache", "timed_out", "cycles", "instructions",
                     "thread_instructions", "ldg", "stg", "lds", "sts",
                     "ldl", "stl", "l1_hits", "l1_misses", "l2_hits",
                     "l2_misses", "dram_accesses", "faults",
                     "peak_reserved", "wall_ms", "mcycles_per_sec",
                     "sim_threads", "error"});
    for (const CellResult& c : cells) {
        const RunResult& r = c.result;
        table.addRow({c.workload, mechanismKindName(c.mechanism),
                      executionTierName(c.tier),
                      fmtF(c.scale, 4), c.ok ? "ok" : "error",
                      c.from_cache ? "1" : "0", c.timed_out ? "1" : "0",
                      std::to_string(r.cycles),
                      std::to_string(r.instructions),
                      std::to_string(r.thread_instructions),
                      std::to_string(r.ldg), std::to_string(r.stg),
                      std::to_string(r.lds), std::to_string(r.sts),
                      std::to_string(r.ldl), std::to_string(r.stl),
                      std::to_string(r.l1_hits),
                      std::to_string(r.l1_misses),
                      std::to_string(r.l2_hits),
                      std::to_string(r.l2_misses),
                      std::to_string(r.dram_accesses),
                      std::to_string(r.faults.size()),
                      std::to_string(c.peak_reserved), fmtF(c.wall_ms, 3),
                      fmtF(c.simMcps(), 3), std::to_string(c.sim_threads),
                      c.error});
    }
    return table.renderCsv();
}

std::string
SweepResult::renderJson() const
{
    std::ostringstream out;
    out << "{\n  \"schema_version\": 3,\n  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult& c = cells[i];
        const RunResult& r = c.result;
        out << "    {\"workload\": \"" << jsonEscape(c.workload)
            << "\", \"mechanism\": \"" << mechanismKindName(c.mechanism)
            << "\", \"tier\": \"" << executionTierName(c.tier)
            << "\", \"scale\": " << fmtDouble(c.scale)
            << ", \"ok\": " << (c.ok ? "true" : "false")
            << ", \"from_cache\": " << (c.from_cache ? "true" : "false")
            << ", \"timed_out\": " << (c.timed_out ? "true" : "false")
            << ", \"cycles\": " << r.cycles
            << ", \"instructions\": " << r.instructions
            << ", \"thread_instructions\": " << r.thread_instructions
            << ", \"peak_reserved\": " << c.peak_reserved
            << ", \"wall_ms\": " << fmtDouble(c.wall_ms)
            << ", \"mcycles_per_sec\": " << fmtDouble(c.simMcps())
            << ", \"sim_threads\": " << c.sim_threads;
        if (!c.error.empty())
            out << ", \"error\": \"" << jsonEscape(c.error) << "\"";
        if (!r.faults.empty()) {
            out << ", \"faults\": [";
            for (size_t f = 0; f < r.faults.size(); ++f) {
                if (f)
                    out << ", ";
                out << "{\"kind\": \"" << faultKindName(r.faults[f].kind)
                    << "\", \"address\": " << r.faults[f].address
                    << ", \"detail\": \""
                    << jsonEscape(r.faults[f].detail) << "\"}";
            }
            out << "]";
        }
        out << ", \"counters\": {";
        bool first = true;
        for (const auto& [name, v] : c.device_stats.counters()) {
            if (!first)
                out << ", ";
            first = false;
            out << "\"" << jsonEscape(name) << "\": " << v;
        }
        out << "}, \"gauges\": {";
        first = true;
        for (const auto& [name, v] : c.device_stats.gauges()) {
            if (!first)
                out << ", ";
            first = false;
            out << "\"" << jsonEscape(name) << "\": " << fmtDouble(v);
        }
        out << "}}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"cache_hits\": " << cache_hits << ",\n";
    out << "  \"cache_misses\": " << cache_misses << ",\n";
    out << "  \"failures\": " << failures << ",\n";
    out << "  \"timeouts\": " << timeouts << ",\n";
    out << "  \"wall_ms\": " << fmtDouble(wall_ms) << "\n";
    out << "}\n";
    return out.str();
}

std::vector<SweepCell>
SweepSpec::expand() const
{
    std::vector<WorkloadProfile> all = profiles;
    for (const std::string& name : workloads)
        all.push_back(findWorkload(name)); // fatal on unknown names

    std::vector<SweepCell> cells;
    cells.reserve(all.size() * mechanisms.size() * scales.size());
    for (const WorkloadProfile& profile : all) {
        for (MechanismKind mechanism : mechanisms) {
            for (double scale : scales) {
                SweepCell cell;
                cell.workload = profile;
                cell.mechanism = mechanism;
                cell.scale = scale;
                cell.tier = tier;
                cell.config = config;
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

} // namespace lmi
