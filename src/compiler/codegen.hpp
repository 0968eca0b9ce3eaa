/**
 * @file
 * IR -> SASS-like code generator (paper §V-B "Stack Memory", §VI).
 *
 * Responsibilities:
 *
 *  - inline device-function calls (GPU compilers inline aggressively;
 *    this also creates the scope boundaries that drive use-after-scope
 *    nullification);
 *  - lay out the per-thread stack frame and per-block shared memory with
 *    either the packed baseline policy or LMI's 2^n-aligned policy;
 *  - lower IR to the ISA of arch/isa.hpp, emitting Fig. 7's frame-setup
 *    idiom (MOV R1, c[0x0][0x28]; IADD R1, R1, -frame);
 *  - attach the A/S hint bits computed by the pointer analysis
 *    (compiler front-end -> metadata -> backend, as in §VI-A);
 *  - under LMI, emit extent-encode sequences for stack/shared buffer
 *    pointers and extent-nullify sequences after free() and at scope
 *    exits (temporal safety, §VIII);
 *  - optionally emit software Baggy-Bounds check sequences after every
 *    pointer operation (the Fig. 12 baseline).
 *
 * Register convention: R1 is the stack pointer (as in real SASS);
 * R2/R3/R249 are codegen scratch; value registers are assigned by a
 * live-interval linear scan over R4..R248 with a round-robin free pool
 * (spaced reuse avoids write-after-write scoreboard stalls), and
 * instrumentation scratch occupies R250..R255.
 *
 * Known structural restrictions (checked or benign for the kernels this
 * repository generates):
 *  - phi moves are emitted at the end of each predecessor, so a value
 *    carried across a critical edge is updated on both outgoing paths;
 *    kernels must not read the *pre-update* phi value on the exit path
 *    (ordinary loop idioms are unaffected);
 *  - swap-shaped parallel phis (a <-> b in one block) are not sequenced.
 */

#pragma once

#include <string>

#include "alloc/layout.hpp"
#include "analysis/diagnostic.hpp"
#include "arch/isa.hpp"
#include "common/logging.hpp"
#include "compiler/pointer_analysis.hpp"
#include "core/pointer.hpp"
#include "ir/ir.hpp"

namespace lmi {

/** First register available for IR values. */
inline constexpr unsigned kFirstValueReg = 4;
/** Value registers must stay below this; above is instrumentation scratch. */
inline constexpr unsigned kMaxValueReg = 250;
/** Stack-pointer register (Fig. 7). */
inline constexpr unsigned kStackPtrReg = 1;
/** Codegen scratch registers. */
inline constexpr unsigned kScratchReg0 = 2;
inline constexpr unsigned kScratchReg1 = 3;

/** Compilation options selecting the protection flavor. */
struct CodegenOptions
{
    /**
     * LMI mode: hint bits, extent encoding, temporal nullification.
     * LMI and sw_baggy place stack and shared buffers 2^n-aligned and
     * reject inttoptr/ptrtoint and pointer stores; other flavors pack
     * them and allow casts.
     */
    bool lmi = false;
    /**
     * Sub-object extension: fieldgep results are re-encoded with a
     * narrowed sub-K extent (field sizes 16/32/64/128 B), so the OCU
     * enforces intra-object bounds — the future-work item the paper
     * leaves to In-Fat-Pointer-style schemes.
     */
    bool subobject = false;
    /** Software Baggy-Bounds: inject SASS check sequences instead of
     *  relying on the hardware OCU. */
    bool sw_baggy = false;
    /**
     * Pointer-tagging flavor (cuCatch-style): stack/shared buffer
     * pointers carry a 16-bit buffer id in bits [63:48] instead of an
     * extent; free()/scope-exit clears the tag.
     */
    bool buffer_id_tags = false;
    /**
     * Static check elision. The verifier runs on every kernel and
     * rejects malformed IR with a CompileError; this adds the range
     * analysis, which turns provably violating pointer arithmetic into
     * compile errors and marks provably safe operations with the E hint
     * bit so the OCU elides their dynamic checks. Not combined with
     * `subobject`, whose narrowed field extents the range analysis
     * does not model.
     */
    bool elide_checks = false;
};

/** Bit position of the 16-bit buffer-id tag used by tagging schemes. */
inline constexpr unsigned kTagShift = 48;
/** Mask selecting the buffer-id tag bits. */
inline constexpr uint64_t kTagMask = ~((uint64_t(1) << kTagShift) - 1);
/** First tag value reserved for host-side (cudaMalloc) allocations. */
inline constexpr uint64_t kHostTagBase = 4096;
/** Tag marking a pointer whose defining scope has exited. */
inline constexpr uint64_t kDeadTag = 0xFFFF;

/** Extract the buffer-id tag of a tagged pointer. */
constexpr uint64_t tagOf(uint64_t ptr) { return ptr >> kTagShift; }
/** Strip the buffer-id tag. */
constexpr uint64_t untag(uint64_t ptr) { return ptr & ~kTagMask; }
/** Apply a buffer-id tag. */
constexpr uint64_t withTag(uint64_t ptr, uint64_t tag)
{
    return untag(ptr) | (tag << kTagShift);
}

/** Thrown when a compile-time pass rejects a kernel. */
class CompileError : public FatalError
{
  public:
    CompileError(std::string what,
                 std::vector<analysis::Diagnostic> violations)
        : FatalError(std::move(what)), violations_(std::move(violations))
    {
    }

    const std::vector<analysis::Diagnostic>& violations() const
    {
        return violations_;
    }

  private:
    std::vector<analysis::Diagnostic> violations_;
};

/**
 * Inline every Call in @p kernel (recursively), returning a flattened
 * function with ScopeEnd markers at callee scope exits.
 */
ir::IrFunction inlineCalls(const ir::IrModule& m,
                           const ir::IrFunction& kernel);

/** A compiled kernel: the instruction stream and its stack frame. */
struct CompiledKernel
{
    Program program;
    /** Stack-frame layout (offsets relative to the frame base). */
    RegionLayout frame;
};

/**
 * Compile kernel @p kernel_name of module @p m.
 * Throws CompileError when the verifier, the range analysis (with
 * elide_checks) or the LMI pass rejects the kernel.
 */
CompiledKernel compileKernel(const ir::IrModule& m,
                             const std::string& kernel_name,
                             const CodegenOptions& opts);

} // namespace lmi
