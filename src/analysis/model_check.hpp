/**
 * @file
 * Bounded stateful model checker for scoped weak memory, replaying
 * per-SM transaction logs (sim/mem_event.hpp).
 *
 * The slice-synchronous engine executes atomics at the slice barrier in
 * canonical order, so a single simulation observes exactly one — fairly
 * strong — interleaving. The checker answers the question the engine
 * cannot: *could* this kernel, under the scoped GPU memory model, reach
 * an outcome the observed run did not?
 *
 * Operational model (one state, explored exhaustively up to a bound):
 *
 *  - a single coherent global memory M;
 *  - per-CTA view V_c: a CTA's own stores become visible to the CTA
 *    immediately (L1 forwarding), other CTAs read M;
 *  - per-CTA store buffer: a non-release store enqueues; an explicit
 *    *flush* transition makes the oldest buffered store **to some
 *    address** visible in M. Buffers are FIFO per address only, so
 *    stores to different addresses drain in either order (store-store
 *    reordering, TSO-weaker);
 *  - release stores / RMWs / fences at scope >= gpu first drain the
 *    CTA's buffer, then act on M directly; cta-scope and relaxed
 *    operations act on V_c and the buffer only;
 *  - gpu-scope RMW/CAS read-modify-write M atomically (after flushing
 *    their own buffered stores to that address); cta-scope RMWs are
 *    atomic within the CTA view only;
 *  - program order is relaxed to a per-agent preserved-program-order
 *    (ppo): same-address accesses stay ordered, acquire operations
 *    order everything after them, release operations everything before
 *    them, fences per their components, heap ops are fully ordered. An
 *    event becomes *enabled* once all its ppo predecessors executed, so
 *    relaxed loads also reorder (IRIW-style weakness);
 *  - a CTA execution barrier is a rendezvous: no agent's post-barrier
 *    event is enabled until every logging agent of the CTA executed its
 *    matching barrier, and the barrier itself is an acq_rel cta fence.
 *
 * Exploration is a DFS over (enabled event, flush) transitions that
 * explores each state once. The state is a complete description of
 * what can still happen (executed events, M, the views, the store
 * buffers, the heap ranges, the watch values so far), so the DFS keeps
 * a set of the states it entered, compared exactly, and a transition
 * into one of them is pruned: that state's outcomes and faults are on
 * record already. Final states are not stored; each arrival at one is
 * a maximal execution. The search stops at a configurable execution
 * count or at kMaxModelStates stored states. Transitions are tried in
 * a fixed order (events by log index, then each CTA's flushes in
 * buffer order), which makes the counts deterministic and, when no
 * bound cuts the search, the outcomes and the faults in order those
 * of the full search. The state is flat: addresses get dense ids at
 * preprocessing, M and each V_c are arrays over them, and the DFS
 * keeps one pre-sized frame per depth that it copy-assigns into.
 *
 * Each maximal execution records the tuple of values observed by the
 * *watch loads* (by default every atomic load in the log) — the
 * litmus outcome — plus any faults:
 * use-after-free / freed-memory corruption (an access overlapping a
 * range freed earlier in that execution) and heap-protocol violations
 * (double free, free of an unallocated base). A separate single-pass
 * happens-before analysis over the witness order reports conflicting
 * concurrent access pairs that are not both atomic at sufficient scope
 * (scope-mismatch races).
 *
 * Assumptions and limits (documented in DESIGN.md "Memory model"):
 * the log is a witness — control flow and addresses are replayed, so
 * outcomes are only exhaustive for data-independent (litmus-style)
 * kernels; store *values* are replayed from the witness; at most
 * kMaxModelEvents model-relevant events (bitmask frontiers); addresses
 * are plain (run litmus under the Baseline mechanism — encoded pointers
 * would defeat address matching).
 */

#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/mem_event.hpp"

namespace lmi::analysis {

/** Model-checker knobs. */
struct ModelCheckConfig
{
    /** Execution bound: stop after this many maximal executions. */
    uint64_t max_executions = 100000;
    /**
     * Indices into the input log selecting the *watch loads* whose
     * observed values form an execution's outcome tuple. Empty =
     * every atomic load, ordered by (agent, program order).
     */
    std::vector<size_t> watch;
};

/** One fault found in some explored execution. */
struct ModelCheckFault
{
    enum class Kind : uint8_t {
        UseAfterFreeLoad,  ///< load from a freed range
        UseAfterFreeStore, ///< store into a freed range (corruption)
        DoubleFree,        ///< free of an already-freed base
        InvalidFree,       ///< free of a base never allocated
    };
    Kind kind = Kind::UseAfterFreeLoad;
    uint64_t addr = 0;
    uint32_t gtid = 0;
    uint64_t pc = 0;

    std::string toString() const;
};

/** One conflicting concurrent pair without sufficient-scope atomics. */
struct ModelCheckRace
{
    uint64_t addr = 0;
    uint32_t gtid_a = 0, gtid_b = 0;
    uint64_t pc_a = 0, pc_b = 0;
    /** Both sides atomic but at insufficient scope (else a plain race). */
    bool scope_mismatch = false;

    std::string toString() const;
};

/** What the bounded exploration found. */
struct ModelCheckReport
{
    /** Model-relevant events replayed and distinct agents. */
    size_t events = 0;
    size_t agents = 0;
    /** Maximal executions: arrivals at a final state. */
    uint64_t executions = 0;
    /** Arrivals at an already explored state (not explored again). */
    uint64_t pruned = 0;
    /** True when the execution bound or kMaxModelStates cut
     *  exploration short. */
    bool hit_bound = false;
    /** Distinct watch-load outcome tuples over all explored executions. */
    std::set<std::vector<uint64_t>> outcomes;
    /** Faults (deduplicated by kind/pc/addr) over all executions. */
    std::vector<ModelCheckFault> faults;
    /** Witness-order happens-before race pairs (deduplicated by pcs). */
    std::vector<ModelCheckRace> races;

    bool sawOutcome(const std::vector<uint64_t>& tuple) const
    {
        return outcomes.count(tuple) != 0;
    }
};

/** Hard cap on model-relevant events (frontiers are 64-bit masks). */
inline constexpr size_t kMaxModelEvents = 64;

/**
 * Cap on the states the search stores. A packed state of a 64-event
 * log is at most ~4 KiB, so the set stays under ~70 MB; a search that
 * needs more states stops with hit_bound set.
 */
inline constexpr size_t kMaxModelStates = size_t(1) << 14;

/**
 * Replay @p log under the scoped weak-memory model, exploring
 * alternative interleavings and reorderings up to the bound.
 * Logs with more than kMaxModelEvents relevant events are rejected
 * (report with events set and executions == 0).
 */
ModelCheckReport modelCheck(const std::vector<MemEvent>& log,
                            const ModelCheckConfig& config = {});

} // namespace lmi::analysis
