/**
 * @file
 * Protection-mechanism plug-in interface.
 *
 * Every scheme the paper evaluates — LMI, GPUShield, software Baggy
 * Bounds, GMOD canaries, cuCatch, Compute-Sanitizer memcheck, the DBI
 * variants, and the unprotected baseline — implements this interface.
 * The simulator calls the hooks at the architectural points where the
 * real hardware/software would act:
 *
 *  - compile time: codegenOptions() / transformBinary() decide what code
 *    runs (hint bits, SW check sequences, DBI trampolines);
 *  - allocation time: allocPolicy()/encodePointers() shape the
 *    allocators, onHostAlloc/onHostFree/onDeviceAlloc/onDeviceFree see
 *    every buffer event (bounds tables, canaries, liveness);
 *  - execution time: onKernelLaunch() opens a launch, onIntResults()
 *    is the OCU attachment point, onMemAccesses() the LSU/EC attachment
 *    point, extraIntLatency() the pipeline cost, and onKernelEnd()
 *    closes the launch (canary sweep, counter publishing).
 *
 * The two per-access hooks act on a whole warp instruction, as the
 * OCU and Extent Checker do in hardware (paper §VII): one call per
 * warp instruction, with the lane loop written once in forEachLane()
 * and checkLanes() below. Their contract:
 *  - lanes of the mask are handled in ascending order;
 *  - onMemAccesses() stops at the first faulting lane and reports it;
 *    later lanes are neither checked nor counted;
 *  - extra_cycles is the max over lanes, serialize_cycles the sum;
 *  - a counter whose count is 0 is never created.
 * The two hooks run concurrently on SM workers, and no two workers step
 * the same SM at once: per-call state lives on the stack, and anything a
 * hook writes that outlives the call lives in members indexed by the
 * issuing SM (onIntResults()' sm, MemAccess::sm), never in members
 * shared across SMs. Counters follow the same rule: each SM tallies its
 * own events, onKernelLaunch() clears the tallies, and onKernelEnd() —
 * one thread, after the last slice, aborted launches included — adds
 * their sums to the registry in SM order.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/msg_heap.hpp"
#include "arch/isa.hpp"
#include "common/stats.hpp"
#include "compiler/codegen.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"
#include "sim/config.hpp"
#include "sim/memory.hpp"

namespace lmi {

/** Everything a mechanism may need to inspect or mutate device state. */
struct DeviceState
{
    MessageHeap* global_alloc = nullptr; ///< cudaMalloc heap
    MessageHeap* heap_alloc = nullptr;   ///< kernel malloc heap
    SparseMemory* global_mem = nullptr;
    StatRegistry* stats = nullptr;
    const GpuConfig* config = nullptr;
};

/** One warp memory instruction, as the LSU sees it. */
struct MemAccess
{
    MemSpace space = MemSpace::Global;
    bool is_store = false;
    unsigned width = 4;
    int64_t imm_offset = 0;
    /** SM the access issues from (indexes per-SM mechanism state). */
    uint32_t sm = 0;
    /** Stack frame extent of the issuing thread: [frame_base, stack_top). */
    uint64_t frame_base = 0, stack_top = 0;
    /** Shared-memory footprint of the block. */
    uint64_t shared_limit = 0;
    /** Lanes taking part in the access. */
    uint32_t mask = 0;
    /** Address-register row: lane l's full 64-bit value (may carry an
     *  extent) is reg_values[l]. */
    const uint64_t* reg_values = nullptr;
};

/** LSU-side outcome of a mechanism check on one lane. */
struct MemCheck
{
    /** Effective address handed to the functional memory. */
    uint64_t address = 0;
    MaybeFault fault;
    /** Additional latency the check added (e.g. RCache miss). */
    unsigned extra_cycles = 0;
    /** Per-lane serialized cycles (single-ported check structures). */
    unsigned serialize_cycles = 0;
};

/** LSU-side outcome of a mechanism check on a whole warp. */
struct WarpMemCheck
{
    /** The first faulting lane's fault; lanes after it were skipped. */
    MaybeFault fault;
    unsigned fault_lane = 0;
    /** Lanes checked, the faulting lane included. */
    unsigned lanes_checked = 0;
    /** Max over the checked lanes. */
    unsigned extra_cycles = 0;
    /** Sum over the checked lanes. */
    unsigned serialize_cycles = 0;
};

/**
 * The one lane loop of the warp hooks: call @p visit(lane) for each lane
 * of @p mask in ascending order. A visitor returning bool stops the
 * loop by returning false.
 */
template <typename Visit>
inline void
forEachLane(uint32_t mask, Visit&& visit)
{
    for (; mask != 0; mask &= mask - 1) {
        const unsigned lane = unsigned(std::countr_zero(mask));
        if constexpr (std::is_void_v<decltype(visit(lane))>)
            visit(lane);
        else if (!visit(lane))
            return;
    }
}

/**
 * The onMemAccesses() contract over a per-lane check: run
 * @p check(reg_value) -> MemCheck on the lanes of @p access, write each
 * passing lane's address to @p addrs[lane], and stop at the first
 * faulting lane.
 */
template <typename CheckLane>
inline WarpMemCheck
checkLanes(const MemAccess& access, uint64_t* addrs, CheckLane&& check)
{
    WarpMemCheck r;
    forEachLane(access.mask, [&](unsigned lane) {
        ++r.lanes_checked;
        MemCheck c = check(access.reg_values[lane]);
        if (c.fault) {
            r.fault = std::move(c.fault);
            r.fault_lane = lane;
            return false;
        }
        addrs[lane] = c.address;
        r.extra_cycles = std::max(r.extra_cycles, c.extra_cycles);
        r.serialize_cycles += c.serialize_cycles;
        return true;
    });
    return r;
}

/**
 * Base class; the default implementation is the unprotected baseline.
 */
class ProtectionMechanism
{
  public:
    ProtectionMechanism() = default;
    virtual ~ProtectionMechanism() = default;

    virtual std::string name() const = 0;

    /**
     * Two-phase construction: the Device first queries the compile- and
     * allocation-time configuration, builds its allocators accordingly,
     * then binds the mechanism to the live state.
     */
    virtual void bind(DeviceState state) { state_ = state; }

    // --- Compile-time ------------------------------------------------
    /** Compiler flavor for kernels run under this mechanism. */
    virtual CodegenOptions codegenOptions() const { return {}; }
    /** Binary-level rewrite (DBI schemes). */
    virtual Program transformBinary(const Program& p) { return p; }
    /** Fractional launch overhead (DBI JIT recompilation, ~0.05). */
    virtual double launchOverheadFraction() const { return 0.0; }

    /**
     * Strip this mechanism's in-pointer metadata, yielding the plain
     * device address (used by the host runtime for free/memcpy).
     */
    virtual uint64_t
    canonical(uint64_t ptr) const
    {
        return PointerCodec::addressOf(ptr);
    }

    // --- Allocation-time ---------------------------------------------
    /** Placement policy for cudaMalloc/device malloc/stack/shared. */
    virtual AllocPolicy allocPolicy() const { return AllocPolicy::Packed; }
    /** Return extent-encoded pointers from allocators. */
    virtual bool encodePointers() const { return false; }
    /** Quarantine freed blocks (one-time allocation, §XII-C). */
    virtual bool quarantineFrees() const { return false; }
    /** Extra bytes reserved around each host allocation (canaries). */
    virtual uint64_t hostRedzoneBytes() const { return 0; }
    /**
     * Observe (and possibly tag) a host allocation.
     * @return the pointer value handed back to the program.
     */
    virtual uint64_t onHostAlloc(uint64_t ptr, uint64_t requested) { (void)requested; return ptr; }
    virtual MaybeFault onHostFree(uint64_t ptr) { (void)ptr; return std::nullopt; }
    virtual void onDeviceAlloc(uint64_t ptr, uint64_t requested) { (void)ptr; (void)requested; }
    virtual MaybeFault onDeviceFree(uint64_t ptr) { (void)ptr; return std::nullopt; }

    // --- Execution-time ----------------------------------------------
    /**
     * OCU attachment point: called once per hint-marked integer warp
     * instruction. The baseline does nothing.
     * @param sm     SM the instruction issues from
     * @param mask   lanes that executed
     * @param ptr_in lane l's operand selected by the S bit is ptr_in[l]
     * @param out    lane l's raw ALU result, overwritten in place with
     *               the value to write back (possibly poisoned)
     */
    virtual void
    onIntResults(const Instruction& inst, uint32_t sm, uint32_t mask,
                 const uint64_t* ptr_in, uint64_t* out)
    {
        (void)inst;
        (void)sm;
        (void)mask;
        (void)ptr_in;
        (void)out;
    }

    /** Extra result latency on this instruction (OCU register slices). */
    virtual unsigned
    extraIntLatency(const Instruction& inst) const
    {
        (void)inst;
        return 0;
    }

    /**
     * LSU/EC attachment point: validate and translate one warp access,
     * writing lane l's effective address to addrs[l]. The baseline adds
     * the immediate offset.
     */
    virtual WarpMemCheck
    onMemAccesses(const MemAccess& access, uint64_t* addrs)
    {
        return checkLanes(access, addrs, [&](uint64_t reg_value) {
            MemCheck r;
            r.address = reg_value + uint64_t(access.imm_offset);
            return r;
        });
    }

    /** Called once per kernel launch with the final binary, before
     *  the first slice. */
    virtual void onKernelLaunch(const Program& p) { (void)p; }

    /** Called once per kernel launch after the last slice, aborted
     *  launches included: end-of-kernel sweep (canary verification)
     *  and counter publishing. */
    virtual std::vector<Fault> onKernelEnd() { return {}; }

  protected:
    DeviceState state_;
};

/** The unprotected baseline. */
class BaselineMechanism final : public ProtectionMechanism
{
  public:
    std::string name() const override { return "baseline"; }
};

} // namespace lmi
