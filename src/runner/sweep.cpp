#include "runner/sweep.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/hash.hpp"
#include "common/table.hpp"

namespace lmi {

namespace {

/** Payload-format version, hashed into every fingerprint.
 *  v2: payload ends in an "end=1" sentinel line.
 *  v3: the execution tier joins the fingerprint and the payload
 *  carries a "tier=" line.
 *  The pinned Fig. 12 digests and perfbench hash the payload bytes, so
 *  this value, the sentinel and the constant "timed_out=0" line must
 *  not change. */
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
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
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
    out << "timed_out=0\n"; // see kCellFormatVersion
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
    out << "end=1\n"; // see kCellFormatVersion
    return out.str();
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
    // Columns 1-21 are deterministic simulation outcome; wall_ms and
    // later are per-run measurements. CI byte-compares the prefix.
    TextTable table({"workload", "mechanism", "tier", "scale", "status",
                     "cycles", "instructions", "thread_instructions",
                     "ldg", "stg", "lds", "sts", "ldl", "stl", "l1_hits",
                     "l1_misses", "l2_hits", "l2_misses", "dram_accesses",
                     "faults", "peak_reserved", "wall_ms",
                     "mcycles_per_sec", "sim_threads", "error"});
    for (const CellResult& c : cells) {
        const RunResult& r = c.result;
        table.addRow({c.workload, mechanismKindName(c.mechanism),
                      executionTierName(c.tier),
                      fmtF(c.scale, 4), c.ok ? "ok" : "error",
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
    out << "{\n  \"schema_version\": 4,\n  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult& c = cells[i];
        const RunResult& r = c.result;
        out << "    {\"workload\": \"" << jsonEscape(c.workload)
            << "\", \"mechanism\": \"" << mechanismKindName(c.mechanism)
            << "\", \"tier\": \"" << executionTierName(c.tier)
            << "\", \"scale\": " << fmtDouble(c.scale)
            << ", \"ok\": " << (c.ok ? "true" : "false")
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
    out << "  \"failures\": " << failures << ",\n";
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
