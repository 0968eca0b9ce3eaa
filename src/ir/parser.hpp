/**
 * @file
 * Textual IR parser: the inverse of IrFunction::toString().
 *
 * Lets kernels be written (and stored, diffed, fuzzed) as text instead
 * of C++ builder calls, the way .ll files work for LLVM. The grammar is
 * exactly the printer's output:
 *
 *   define void @copy(ptr<4,global> %in, ptr<4,global> %out) {
 *   entry:
 *     %1 = param 0 : ptr<4,global>
 *     %3 = gtid : i64
 *     %4 = gep %1, %3 : ptr<4,global>
 *     %5 = load %4 : i32
 *     store %6, %5
 *     ret
 *   }
 *
 * Multiple functions per string form a module. Parse errors throw
 * FatalError with a line number. Every parsed function then goes
 * through the IR verifier (analysis/verify.hpp), so the parser also
 * rejects, with a FatalError, any IR the verifier rejects.
 */

#pragma once

#include <string>

#include "ir/ir.hpp"

namespace lmi::ir {

/** Parse one or more functions. Throws FatalError on malformed text
 *  or on a function that fails verification. */
IrModule parseModule(const std::string& text);

/** Parse exactly one function. */
IrFunction parseFunction(const std::string& text);

/** Render a whole module in parseable form. */
std::string printModule(const IrModule& m);

} // namespace lmi::ir
