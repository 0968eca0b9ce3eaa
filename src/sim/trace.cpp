#include "sim/trace.hpp"

#include <cstdio>
#include <sstream>

#include "common/bitutil.hpp"
#include "common/table.hpp"

namespace lmi {

void
TraceRecorder::record(const TraceEvent& event)
{
    ++total_;
    if (capacity_ == 0 || events_.size() < capacity_)
        events_.push_back(event);
}

TraceAnalysis
analyzeTrace(const std::vector<TraceEvent>& events)
{
    TraceAnalysis a;
    for (const TraceEvent& e : events) {
        ++a.instructions;
        a.thread_instructions += popCount(e.active_mask);
        ++a.by_opcode[e.op];
        a.hinted += e.hinted;
        if (isIntAlu(e.op))
            ++a.int_alu;
        if (isFpAlu(e.op))
            ++a.fp_alu;
        if (isMemory(e.op)) {
            switch (memSpaceOf(e.op)) {
              case MemSpace::Global: ++a.mem_global; break;
              case MemSpace::Shared: ++a.mem_shared; break;
              case MemSpace::Local:  ++a.mem_local; break;
              default: break;
            }
        }
    }
    return a;
}

std::string
TraceAnalysis::toString() const
{
    TextTable table({"metric", "value"});
    table.addRow({"warp instructions", std::to_string(instructions)});
    table.addRow({"thread instructions",
                  std::to_string(thread_instructions)});
    table.addRow({"integer ALU", std::to_string(int_alu)});
    table.addRow({"floating point", std::to_string(fp_alu)});
    table.addRow({"global LD/ST", std::to_string(mem_global)});
    table.addRow({"shared LD/ST", std::to_string(mem_shared)});
    table.addRow({"local LD/ST", std::to_string(mem_local)});
    table.addRow({"hinted (pointer) ops", std::to_string(hinted)});
    table.addRow({"hinted fraction", fmtPct(100.0 * hintedFraction())});
    table.addRow({"check/LDST ratio", fmtF(checkToLdstRatio(), 2)});
    std::string out = table.render();

    TextTable mix({"opcode", "count"});
    for (const auto& [op, count] : by_opcode)
        mix.addRow({opcodeName(op), std::to_string(count)});
    return out + mix.render();
}

std::string
traceEventToString(const TraceEvent& event)
{
    std::ostringstream s;
    char head[96];
    std::snprintf(head, sizeof(head),
                  "sm%02u blk%04u w%02u cyc%08llu pc%04llu mask %08x %s",
                  event.sm, event.block, event.warp,
                  static_cast<unsigned long long>(event.cycle),
                  static_cast<unsigned long long>(event.pc),
                  event.active_mask, event.hinted ? "[A]" : "   ");
    s << head << " " << opcodeName(event.op);
    return s.str();
}

} // namespace lmi
