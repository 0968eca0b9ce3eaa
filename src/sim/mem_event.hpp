/**
 * @file
 * Per-SM memory-transaction logging for the weak-memory model checker.
 *
 * A launch carrying a MemEventLog records every architecturally
 * executed global-memory transaction — per lane, in issue order — plus
 * the fence, barrier and heap events that order them. Like the trace
 * and sanitizer sinks, an attached event log pins the launch to
 * sim_threads=1 so the per-SM `seq` numbers form a real witness order.
 *
 * The log is the model checker's input (analysis/model_check.hpp): the
 * checker re-executes the logged events under the scoped weak-memory
 * model, exploring alternative interleavings and relaxed reorderings
 * the slice-synchronous engine itself never produces. This header is
 * deliberately free of simulator dependencies so the analysis layer can
 * consume logs without linking the engine.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/isa.hpp"

namespace lmi {

/** One logged memory-model-relevant event. */
struct MemEvent
{
    enum class Kind : uint8_t {
        Load,    ///< global load (plain or atomic, see is_atomic)
        Store,   ///< global store (plain or atomic)
        Rmw,     ///< atomic read-modify-write (always atomic)
        Cas,     ///< atomic compare-and-swap (always atomic)
        Fence,   ///< MEMBAR at (scope, order); no address
        Barrier, ///< CTA execution barrier (acts as an acq_rel cta fence)
        Malloc,  ///< device-heap allocation: addr = base, value = size
        Free,    ///< device-heap free: addr = base
    };

    Kind kind = Kind::Load;
    bool is_atomic = false;
    AtomicOp aop = AtomicOp::Add; ///< Rmw only
    MemScope scope = MemScope::Cta;
    MemOrder order = MemOrder::Relaxed;
    uint8_t width = 4;

    uint32_t sm = 0;
    uint32_t block = 0; ///< CTA id — the checker's cta-scope domain
    uint32_t warp = 0;  ///< warp index within the block
    uint32_t gtid = 0;  ///< global thread id — the checker's agent
    uint64_t pc = 0;
    /** Per-SM issue order (shared with heap/fault sequencing). With the
     *  log attached the launch runs single-threaded, so sorting one
     *  agent's events by seq yields its program order. */
    uint64_t seq = 0;
    uint64_t cycle = 0;

    uint64_t addr = 0;
    /** Store value / RMW operand / CAS desired / malloc size. */
    uint64_t value = 0;
    /** CAS expected value; for loads, the witness-observed value when
     *  known at issue time (0 for deferred global atomics). */
    uint64_t value2 = 0;
};

/** Receives events as the engine executes them and keeps them all. */
class MemEventLog
{
  public:
    /** Out of line (sim/mem_event.cpp), so the engine's memory path
     *  does not grow by an inlined push_back at every logging site. */
    void record(const MemEvent& event);

    const std::vector<MemEvent>& events() const { return events_; }
    void clear() { events_.clear(); }

  private:
    std::vector<MemEvent> events_;
};

} // namespace lmi
