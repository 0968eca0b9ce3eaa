/**
 * @file
 * LMI-specific lint pass: findings that are legal IR but defeat or
 * weaken the protection the mechanism is supposed to provide.
 *
 * Rules:
 *
 *  - phi-mixes-allocations: a pointer phi merges values deriving from
 *    distinct allocation sites, so no single extent describes the
 *    merged value and the range analysis can never elide its checks;
 *  - extent-saturation: an allocation larger than the codec's maximum
 *    representable size encodes extent 0 (invalid), silently degrading
 *    every derived pointer to always-faulting.
 *
 * Use-after-free is not a lint rule: the safety oracle
 * (safety_oracle.hpp) proves it CFG-exactly.
 */

#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

std::vector<Diagnostic> lintFunction(const ir::IrFunction& f);

} // namespace lmi::analysis
