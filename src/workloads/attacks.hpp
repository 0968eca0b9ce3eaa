/**
 * @file
 * Adversarial attack-workload family for the detection-coverage matrix.
 *
 * Six attack scenarios, each chosen to discriminate between mechanism
 * designs rather than to maximize damage, and each paired with a benign
 * twin that performs the same shape of computation entirely in bounds:
 *
 *  intra_padding   store past the requested malloc size but inside the
 *                  power-of-two padding the in-pointer extent protects —
 *                  the fine-grained gap of every pow2 scheme (LMI, Baggy);
 *  subobject_field field pointer overflows its field while staying
 *                  inside the allocation — Table III's 0/3 row, only
 *                  the sub-K extent extension can see it;
 *  uaf_invalidate  store through the original pointer after free();
 *  uaf_realloc     free, malloc again (allocator hands the chunk back),
 *                  store through the stale pointer;
 *  off_by_one      the classic idx == N store one element past an
 *                  exactly pow2-sized buffer (no padding to hide in);
 *  neg_stride      a down-counting loop whose index underflows the
 *                  base on every iteration (negative byte offsets).
 *
 * Every kernel is single-thread (1x1 launch) and self-contained — the
 * buffers come from in-kernel alloca/malloc, never from parameters —
 * so the safety oracle has full provenance and must classify *every*
 * access: benign twins fully ProvenSafe, attacks with the scenario's
 * expected verdict. The coverage harness (security/coverage.hpp) runs
 * these under every registry mechanism and cross-checks the dynamic
 * outcome against the oracle's static verdict.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/safety_oracle.hpp"
#include "ir/ir.hpp"

namespace lmi {

/** One attack scenario with its benign twin. */
struct AttackScenario
{
    std::string name;
    std::string description;
    /** Kernel name inside the built module. */
    std::string kernel;
    /** Oracle verdict the attack variant's bad access must get. */
    analysis::AccessVerdict expected;
    /** Build the kernel; @p benign selects the twin. */
    ir::IrModule (*build)(bool benign);
    unsigned grid = 1;
    unsigned block = 1;
};

/** The six-scenario suite, in a fixed order. */
const std::vector<AttackScenario>& attackSuite();

} // namespace lmi
