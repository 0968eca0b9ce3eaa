/**
 * @file
 * The cycle-level GPU engine.
 *
 * Functional-plus-timing simulation of the Table IV machine:
 *
 *  - blocks are distributed round-robin over SMs and executed in
 *    residency-limited waves;
 *  - each SM runs four greedy-then-oldest (GTO) warp schedulers over its
 *    resident warps, with a per-warp register scoreboard deciding
 *    readiness;
 *  - SIMT divergence uses a reconvergence stack (continue the lower-PC
 *    path, merge when the live path reaches the pushed PC);
 *  - memory instructions coalesce per-warp into line transactions that
 *    probe a per-SM L1, a device-wide L2, and a bandwidth-modeled HBM;
 *  - the active ProtectionMechanism is invoked at the OCU point (hinted
 *    integer results), the LSU point (every access), allocation events,
 *    and kernel end.
 *
 * Execution model — slice-synchronous, deterministically parallel:
 *
 * SMs only interact through global memory, the shared L2 and the device
 * heap. Execution therefore proceeds in fixed slices of kSliceCycles
 * cycles. Within a slice every SM steps privately against a frozen view
 * of the shared state: an SM sees the global memory committed at the
 * last barrier plus its own stores of the slice (held in per-SM page
 * overlays that live for one slice, and in a store log), L2 lookups are
 * read-only probes against the frozen tag array (plus the SM's own
 * lines touched this slice), and device malloc/free park the issuing
 * warp. At the slice barrier a
 * single thread commits everything in canonical (sm_id, seq) order:
 * store logs replay into the base memory, L2 probes replay through the
 * real LRU array, heap ops execute and unpark their warps, and the
 * earliest fault (by cycle, then SM id, then issue order) aborts the
 * launch. Because each SM's slice depends only on its own state and the
 * frozen shared snapshot, and the commit order is fixed, results are
 * byte-identical for every `sim_threads` value — the worker pool only
 * changes which host thread steps which SM. See DESIGN.md
 * ("Deterministic parallel execution").
 *
 * Hot-path engineering (see DESIGN.md):
 *
 *  - a per-instruction decode table (InstDesc) resolves operand kinds,
 *    value rows, scoreboard slots, and constant-bank reads once per
 *    launch instead of once per lane per dynamic instruction;
 *  - the per-lane register file is laid out register-major (SoA), so the
 *    lane loop of one instruction walks contiguous memory, and packed by
 *    liveness (RegLayout): registers whose live ranges never overlap
 *    share a value row, while the scoreboard keeps one slot per
 *    register;
 *  - per-thread local and per-block shared memories live in dense
 *    windows over their declared range (stack frame, shared buffers)
 *    in residency-bounded per-SM arenas allocated once per launch and
 *    reused across waves (slots are zeroed when assigned); only
 *    out-of-window bytes reach a hash-mapped SparseMemory spill;
 *  - warp registers live in a per-SM arena with one slot per resident
 *    warp; admission zeroes only the scoreboard and the rows of
 *    registers live at entry. Each SM's per-slice L2 line set is
 *    cleared by a generation bump, so steady-state issue does not touch
 *    the heap;
 *  - the SM loop is gated by live/barrier/retire counters so block
 *    retirement scans, admission and barrier release run only on the
 *    cycles where they can act, and per-scheduler sleep targets allow
 *    exact stall fast-forward across slice boundaries;
 *  - coalescer transaction lists use a per-SM reusable scratch buffer.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/isa.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/launch_options.hpp"
#include "sim/mechanism.hpp"
#include "sim/mem_event.hpp"
#include "sim/memory.hpp"
#include "sim/race_sanitizer.hpp"
#include "sim/reg_layout.hpp"
#include "sim/result.hpp"
#include "sim/trace.hpp"

namespace lmi {

/** One kernel launch request. */
struct Launch
{
    unsigned grid_blocks = 1;
    unsigned block_threads = 32;
    std::vector<uint64_t> params;
    /** Tier and observers, as passed to Device::launch.
     *  Traced, sanitized or logged launches are pinned to one worker
     *  thread (their sinks are inherently order-sensitive). */
    LaunchOptions options;
};

/**
 * Effective worker count for @p config: sim_threads if nonzero, else
 * the LMI_SIM_THREADS environment variable, else 1. An unset, empty or
 * 0 variable means 1; anything but an unsigned decimal <= UINT_MAX
 * throws FatalError. (The simulator additionally caps the count at the
 * number of active SMs per launch.)
 */
unsigned resolveSimThreads(const GpuConfig& config);

/**
 * Executes one launch. Construct per launch.
 */
class GpuSim
{
  public:
    GpuSim(const GpuConfig& config, ProtectionMechanism& mech,
           SparseMemory& global_mem, MessageHeap& heap,
           const Program& program, Launch launch);
    ~GpuSim(); // out of line: members of internal (incomplete) types

    /** Run to completion (or first fault) and return the result. */
    RunResult run();

  private:
    struct Warp;
    struct BlockCtx;
    struct SmCtx;
    struct InstDesc;
    struct ResolvedSrc;
    class GlobalMemView;
    class WorkerPool;

    /**
     * Slice length in cycles: the granularity at which SMs observe each
     * other's global stores, L2 fills and heap operations. Part of the
     * canonical machine semantics (identical for every thread count),
     * not a tuning knob.
     */
    static constexpr uint64_t kSliceCycles = 256;

    void buildDecodeTable();
    ResolvedSrc resolveSrc(const Warp& warp, const InstDesc& d,
                           unsigned idx) const;
    /** Step one SM privately up to the end of slice @p slice_no with
     *  the launch tier's stepper. */
    void stepSmSlice(SmCtx& sm, uint64_t slice_no);
    /** The cycle-level stepper (the reference machine). */
    void stepSmSliceDetailed(SmCtx& sm, uint64_t slice_no);
    /**
     * The functional stepper: executes up to one slice budget of warp
     * instructions round-robin with full architectural and mechanism
     * semantics but no timing, then pins the SM clock to the slice
     * boundary. Shares commitSlice with the detailed path, so cross-SM
     * visibility and determinism guarantees carry over.
     */
    void stepSmSliceFunctional(SmCtx& sm, uint64_t slice_no);
    /** Run @p warp functionally until it blocks or @p budget hits 0. */
    void runWarpFunctional(SmCtx& sm, Warp& warp, uint64_t& budget);
    /** Functional tier's RunResult::cycles: the issue-bound lower
     *  bound of the busiest SM (no timing model ran). */
    uint64_t estimateCycles(const std::vector<SmCtx>& sms) const;
    /**
     * Single-threaded slice barrier: replay store logs and L2 probes,
     * execute deferred heap ops, resolve the fault winner — all in
     * canonical (sm_id, seq) order. @return true when the launch
     * aborts on a fault.
     */
    bool commitSlice(std::vector<SmCtx>& sms);
    unsigned resolveThreads(unsigned used_sms) const;
    /** One issue step; @p kFunctional skips the timing model. The
     *  false instantiation is the historical detailed issue path. */
    template <bool kFunctional> bool issueWarpT(SmCtx& sm, Warp& warp);
    /** Load/store execution, one lane loop for both tiers: mechanism
     *  checks, architectural state, sanitizer and memlog. The detailed
     *  instantiation adds coalescing, the LSU and the cache hierarchy. */
    template <bool kFunctional>
    void executeMemory(SmCtx& sm, Warp& warp, const Instruction& inst);
    /**
     * Scoped atomic execution (ATOM*, CAS*), shared by both tiers.
     * Shared-memory atomics are SM-private and execute immediately;
     * global atomics run their mechanism checks now but defer the
     * read-modify-write to the slice barrier (shared, order-dependent
     * state — same treatment as heap ops), parking the warp until then.
     */
    void executeAtomic(SmCtx& sm, Warp& warp, const Instruction& inst,
                       bool functional);
    void admitBlocks(SmCtx& sm);
    void retireBlocks(SmCtx& sm);
    void markWarpDone(SmCtx& sm, Warp& warp);
    void releaseBarriers(SmCtx& sm);
    uint64_t warpReadyAt(const Warp& warp) const;
    /** Queue @p fault as this SM's pending fault and stop its slice. */
    void pendFault(SmCtx& sm, Fault fault);
    /** The warp-level MemAccess of a load/store/atomic at warp.pc. */
    MemAccess memAccess(const SmCtx& sm, const Warp& warp,
                        const Instruction& inst, bool is_store,
                        const uint64_t* addr_row) const;
    /** A MemEvent with the fields every engine site fills alike. */
    static MemEvent memEvent(MemEvent::Kind kind, const SmCtx& sm,
                             const Warp& warp, uint32_t gtid, uint64_t seq,
                             uint64_t cycle);

    const GpuConfig& config_;
    ProtectionMechanism& mech_;
    SparseMemory& global_mem_;
    MessageHeap& heap_;
    const Program& program_;
    Launch launch_;

    uint64_t dyn_shared_base_ = 0;
    std::vector<uint8_t> cbank_;
    CacheModel l2_;
    /** Scoreboard slots and value rows of the program's registers. */
    RegLayout layout_;
    RunResult result_;

    /** Per-instruction predecoded operand/scoreboard metadata. */
    std::vector<InstDesc> idesc_;
};

} // namespace lmi
