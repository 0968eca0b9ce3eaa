/**
 * @file
 * LMI-specific lint pass: findings that are legal IR but defeat or
 * weaken the protection the mechanism is supposed to provide.
 *
 * Rules:
 *
 *  - use-after-invalidate: a pointer is used at a point dominated by
 *    the free()/scope-end that nullified its extent — every such use
 *    dereferences (or derives from) a dead-extent pointer and will
 *    fault at run time;
 *  - phi-mixes-allocations: a pointer phi merges values deriving from
 *    distinct allocation sites, so no single extent describes the
 *    merged value and the range analysis can never elide its checks;
 *  - extent-saturation: an allocation larger than the codec's maximum
 *    representable size encodes extent 0 (invalid), silently degrading
 *    every derived pointer to always-faulting.
 */

#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

struct LintOptions
{
    /**
     * Skip the use-after-invalidate heuristic: the safety oracle
     * (safety_oracle.hpp) is running in the same pipeline and proves
     * temporal violations CFG-exactly, so the dominance-based
     * approximation here would only duplicate (or contradict) it.
     */
    bool defer_temporal = false;
};

std::vector<Diagnostic> lintFunction(const ir::IrFunction& f,
                                     const LintOptions& opts = {});

} // namespace lmi::analysis
