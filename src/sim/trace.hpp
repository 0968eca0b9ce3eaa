/**
 * @file
 * Execution tracing — the NVBit-analogue of this codebase.
 *
 * The paper's methodology is trace-driven (NVBit captures instruction
 * streams that MacSim replays). This module exposes the equivalent
 * capability: a TraceRecorder attached to a launch receives one
 * event per issued warp instruction and buffers them, and
 * TraceAnalysis summarizes the stream (instruction mix, hint-bit
 * density, per-region memory counts) — the inputs to Fig. 1-style
 * characterization.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/isa.hpp"

namespace lmi {

/** One issued warp instruction. */
struct TraceEvent
{
    uint32_t sm = 0;
    uint32_t block = 0;
    uint32_t warp = 0;        ///< warp index within the block
    uint64_t cycle = 0;       ///< SM-local issue cycle
    uint64_t pc = 0;
    Opcode op = Opcode::NOP;
    uint32_t active_mask = 0; ///< lanes participating
    bool hinted = false;      ///< A bit set (pointer operation)
};

/** Receives trace events during a launch and buffers the stream. */
class TraceRecorder
{
  public:
    /** @param capacity stop recording beyond this many events (0 = all) */
    explicit TraceRecorder(size_t capacity = 0) : capacity_(capacity) {}

    /** Out of line (sim/trace.cpp), so the engine's issue loop does
     *  not grow by an inlined push_back. */
    void record(const TraceEvent& event);

    const std::vector<TraceEvent>& events() const { return events_; }
    /** Events seen (including any dropped past the capacity). */
    uint64_t totalSeen() const { return total_; }

  private:
    size_t capacity_;
    uint64_t total_ = 0;
    std::vector<TraceEvent> events_;
};

/** Aggregate statistics over a trace. */
struct TraceAnalysis
{
    uint64_t instructions = 0;
    uint64_t thread_instructions = 0;
    std::map<Opcode, uint64_t> by_opcode;
    /** Hint-marked (pointer) operations. */
    uint64_t hinted = 0;
    uint64_t int_alu = 0;
    uint64_t fp_alu = 0;
    uint64_t mem_global = 0, mem_shared = 0, mem_local = 0;

    double
    hintedFraction() const
    {
        return instructions == 0 ? 0.0
                                 : double(hinted) / double(instructions);
    }

    /** The Fig. 13 metric: (pointer checks incl. LD/ST) per LD/ST. */
    double
    checkToLdstRatio() const
    {
        const uint64_t ldst = mem_global + mem_shared + mem_local;
        return ldst == 0 ? 0.0
                         : double(int_alu + ldst) / double(ldst);
    }

    /** Render as an aligned text table. */
    std::string toString() const;
};

/** Summarize @p events. */
TraceAnalysis analyzeTrace(const std::vector<TraceEvent>& events);

/** Render one event as a single trace line. */
std::string traceEventToString(const TraceEvent& event);

} // namespace lmi
