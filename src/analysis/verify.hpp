/**
 * @file
 * IR verifier pass: the one checker of IR structure and types.
 *
 * Every finding is collected as a structured diagnostic, not thrown on
 * the first problem. The pass checks:
 *
 *  - structure: non-empty blocks, one terminator at each block's end,
 *    valid value and block ids, each value scheduled once;
 *  - SSA dominance: every use is dominated by its definition (phi uses
 *    are checked at the incoming edge's terminator);
 *  - phi/CFG consistency: phis lead their block, their incoming-block
 *    lists exactly match the block's CFG predecessors, and the entry
 *    block has no phis;
 *  - full type/arity rules: float operands cannot feed integer
 *    arithmetic, pointer operands cannot feed non-additive arithmetic,
 *    comparison results are only consumed by branches (the backend has
 *    no predicate-to-register materialization), branch guards are
 *    comparisons, and result types match operand types.
 *
 * The LMI pointer rules of paper §XII-B / §VI-A (no inttoptr/ptrtoint,
 * no pointer stores or loads) are not checked here: baseline
 * compilation permits them, and the compiler's pointer pass
 * (analyzePointers) enforces them for the LMI configurations.
 *
 * The parser, the optimizer, the workload builders and codegen all gate
 * on this pass, so every kernel is checked the same way in every build.
 */

#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

/** Verify one function; returns every finding (empty = clean). */
std::vector<Diagnostic> verifyFunction(const ir::IrFunction& f);

/**
 * Verify a whole module: every function, plus cross-function rules
 * (call targets resolve, argument counts/types match the callee).
 */
std::vector<Diagnostic> verifyModule(const ir::IrModule& m);

/**
 * Verify one function and throw FatalError naming the function and its
 * first error when it has one. Warnings (e.g. unreachable blocks) pass.
 */
void verifyOrThrow(const ir::IrFunction& f);

} // namespace lmi::analysis
