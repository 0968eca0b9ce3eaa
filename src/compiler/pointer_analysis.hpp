/**
 * @file
 * The LMI compiler analysis (paper §VI-A, Fig. 8; §XII-B).
 *
 * Walks a kernel's IR to:
 *
 *  1. find every instruction that manipulates a pointer and record which
 *     operand carries the pointer — this becomes the A/S hint-bit
 *     metadata handed to the backend;
 *  2. reject inttoptr/ptrtoint casts, which would let unverified integer
 *     values become pointers and break the Correct-by-Construction
 *     invariant (the paper emits a compiler error; §XII-B found such
 *     casts essentially absent from real GPU kernels);
 *  3. reject stores of pointer values to memory, which LMI restricts
 *     (§VI-A): the stored pointer would escape OCU tracking. Loads of
 *     pointer-typed values are equally rejected.
 */

#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "ir/ir.hpp"

namespace lmi {

/** Per-instruction pointer metadata (becomes the A/S/E hint bits). */
struct PointerOpInfo
{
    /** Index of the pointer-carrying operand in the IR instruction. */
    unsigned ptr_operand = 0;
    /**
     * The range analysis proved this check redundant; the backend sets
     * the E hint bit so the OCU power-gates the dynamic check.
     */
    bool elide = false;
};

/** Result of the analysis over one function. */
struct PointerAnalysis
{
    /** Instructions that need an OCU check, keyed by value id. */
    std::unordered_map<ir::ValueId, PointerOpInfo> pointer_ops;
    /** Compile-time violations (casts, pointer stores), error severity. */
    std::vector<analysis::Diagnostic> violations;

    bool ok() const { return violations.empty(); }
};

/**
 * Run the analysis.
 *
 * @param f            the (already inlined) kernel
 * @param restrict_casts reject inttoptr/ptrtoint (LMI default: true)
 */
PointerAnalysis analyzePointers(const ir::IrFunction& f,
                                bool restrict_casts = true);

} // namespace lmi
