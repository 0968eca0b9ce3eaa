/**
 * @file
 * Barrier-aware static race and divergence analysis (GPUVerify-style
 * two-thread abstraction over the kernel IR).
 *
 * The pass reasons about shared- and global-memory accesses only (local
 * memory is thread-private by construction):
 *
 *  1. The CFG is cut at Barrier instructions into *segments*; the
 *     barrier-free forward-reachable segment set from each *source*
 *     (function entry and every post-barrier segment) is one barrier
 *     epoch region. Two accesses may happen in parallel (MHP) within a
 *     block iff some region contains both segments. Global-memory
 *     accesses from different blocks are always MHP — barriers do not
 *     synchronize the grid.
 *
 *  2. Each access index is decomposed into an affine form
 *     a_tid*tid + a_cta*ctaid + konst + sum(c_i * sym_i), where sym_i
 *     are opaque SSA values carrying an interval (from the range
 *     analysis), a uniformity bit (tid-taint analysis over operands and
 *     control dependence), and an always-equal bit (pure functions of
 *     params/constants/geometry). `x & mask` collapses to `x` when the
 *     interval of `x` provably fits [0, mask] (mask+1 a power of two),
 *     which is how the workload generator's wrap-around masks vanish.
 *
 *  3. For each pair of accesses to potentially aliasing roots with at
 *     least one store, the conflict equation idx1(thread1) ==
 *     idx2(thread2) is solved per abstract thread pair: symbols shared
 *     by both sides cancel when they are always-equal, or when both
 *     accesses sit in the same segment off any barrier-free cycle and
 *     the symbol is uniform (same loop trip, same value in every
 *     thread); everything else contributes a gcd-stride + interval
 *     residual. Thread and block differences range over the launch
 *     geometry (when provided); solveSameBlock / solveCrossBlock decide
 *     them in closed form. Verdicts:
 *
 *       ProvenDisjoint  no thread pair can collide on any execution;
 *       ProvenRacy      a definite witness exists (no free symbols,
 *                       exact thread offset, accesses in the same
 *                       segment under uniform control) — reported as an
 *                       error Diagnostic;
 *       Unknown         neither provable; the dynamic sanitizer is the
 *                       backstop.
 *
 *  4. Barrier divergence: a Barrier whose block is transitively
 *     control-dependent on a branch with a tid-tainted condition is an
 *     error (threads could arrive at different barriers or not at all).
 *
 * The dynamic cross-check lives in src/sim/race_sanitizer.hpp; the
 * analyzer is warp-agnostic (a pair within one warp executes in
 * lockstep dynamically, so the sanitizer only observes the cross-warp
 * witnesses of a ProvenRacy verdict).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/range_analysis.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

/** Verdict for one pair of potentially conflicting accesses.
 *  Synchronized marks a conflicting pair whose sides are both atomics
 *  at sufficient scope: the conflict is an intended synchronization
 *  point, not a data race. */
enum class RaceVerdict : uint8_t {
    ProvenDisjoint,
    Unknown,
    ProvenRacy,
    Synchronized,
};

struct RaceAnalysisOptions
{
    /** Launch geometry hints; 0 = unknown (weakens disjointness proofs
     *  to what holds for every geometry). */
    unsigned block_threads = 0;
    unsigned grid_blocks = 0;
    /**
     * Treat distinct pointer parameters as non-aliasing buffers
     * (GPUVerify's array abstraction; the CUDA __restrict__ discipline
     * every in-tree kernel follows). Disable for soundness against
     * callers that pass one buffer twice.
     */
    bool assume_param_noalias = true;
};

/** One shared/global access the analyzer reasons about. */
struct RaceAccess
{
    ir::ValueId inst = ir::kNoValue; ///< Load/Store or atomic access
    bool is_store = false;
    MemSpace space = MemSpace::Global;
    bool is_atomic = false;
    /** Synchronization scope (atomics only; meaningless otherwise). */
    MemScope scope = MemScope::Cta;
};

/** One analyzed pair of accesses that may touch common memory. */
struct RacePair
{
    size_t first = 0, second = 0; ///< indices into RaceReport::accesses
    RaceVerdict verdict = RaceVerdict::Unknown;
    std::string reason;
};

struct RaceReport
{
    std::vector<RaceAccess> accesses;
    std::vector<RacePair> pairs;
    /** Barrier instructions reachable under non-uniform control. */
    std::vector<ir::ValueId> divergent_barriers;
    /** ProvenRacy pairs and divergent barriers, as error diagnostics. */
    std::vector<Diagnostic> diagnostics;

    size_t count(RaceVerdict v) const;
    size_t provenRacy() const { return count(RaceVerdict::ProvenRacy); }
    size_t provenDisjoint() const
    {
        return count(RaceVerdict::ProvenDisjoint);
    }
    size_t unknown() const { return count(RaceVerdict::Unknown); }
    size_t synchronized() const
    {
        return count(RaceVerdict::Synchronized);
    }
};

/**
 * The non-cancelled part of a conflict equation: an exact constant
 * plus a sum of coef*sym terms summarized as a gcd stride and a
 * saturating interval hull. Every residual value is konst + gcd*k for
 * some integer k, and lies within `sum` (which includes the constant).
 * `exact` means no symbol terms survived, so the residual IS konst.
 */
struct Residual
{
    bool exact = true; ///< no surviving symbol terms
    int64_t konst = 0; ///< constant part of the residual
    int64_t gcd = 0;   ///< stride of the symbol part; 0 when exact
    Interval sum = Interval::of(0);

    void addTerm(int64_t coef, const Interval& iv);

    /**
     * True when some residual value can land in [@p tlo, @p thi]: the
     * window must intersect the hull and contain a value congruent to
     * konst modulo the gcd stride.
     */
    bool solvableWindow(int64_t tlo, int64_t thi) const;
};

/** Outcome of one conflict subproblem (same-block or cross-block). */
struct RaceSolution
{
    bool collide = true;   ///< some thread pair may collide
    bool definite = false; ///< a concrete witness exists
    int64_t witness_d = 0; ///< thread delta of the first witness
};

/**
 * How the subproblem solvers search thread and block deltas: in closed
 * form, or by the enumeration the closed form replaces. Both give the
 * same solution, witness included; Enumerate is the test oracle.
 */
enum class DeltaSearch : uint8_t { ClosedForm, Enumerate };

/**
 * Same-block subproblem: can tid1*@p a1 - tid2*@p a2 + residual land in
 * the byte window [@p wlo, @p whi] for two distinct threads of a block
 * of @p block_threads (0 = unknown)? The window is where two accesses
 * overlap (wlo <= whi). Equal coefficients scan thread deltas
 * 1, -1, 2, -2, ... (at most 2^14 of each sign); mixed ones scan
 * (tid1, tid2) in lexicographic order for blocks of at most 512
 * threads, and are Unknown beyond. The witness is the first colliding
 * delta in that order.
 */
RaceSolution solveSameBlock(const Residual& res, int64_t a1, int64_t a2,
                            int64_t block_threads, int64_t wlo,
                            int64_t whi,
                            DeltaSearch search = DeltaSearch::ClosedForm);

/**
 * Cross-block subproblem: can two threads of different blocks collide
 * (tid coefficients @p a1 / @p a2, ctaid coefficients @p c1 / @p c2)?
 * With equal coefficients and a small enough geometry every (thread
 * delta, block delta) pair is decided; otherwise the geometry terms
 * fold into the residual. Never definite: the grid may be one block.
 */
RaceSolution solveCrossBlock(const Residual& res, int64_t a1, int64_t a2,
                             int64_t c1, int64_t c2, int64_t block_threads,
                             int64_t grid_blocks, int64_t wlo, int64_t whi,
                             DeltaSearch search = DeltaSearch::ClosedForm);

/**
 * The residual solver's congruence step: true when [@p lo, @p hi]
 * (lo <= hi) holds a value congruent to @p konst modulo @p gcd
 * (gcd >= 1). Exact over the whole int64 range in 64-bit arithmetic.
 */
bool congruentInWindow(int64_t konst, int64_t gcd, int64_t lo, int64_t hi);

/** Run the race/divergence analysis over one (flattened) function. */
RaceReport analyzeRaces(const ir::IrFunction& f,
                        const RaceAnalysisOptions& opts = {});

} // namespace lmi::analysis
