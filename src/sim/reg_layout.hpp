/**
 * @file
 * Host-side register storage layout for one kernel.
 *
 * A warp register file has two parts that need different storage:
 *
 *  - the **scoreboard**: one ready cycle per register the program names,
 *    indexed by a dense *slot*. Every readiness, WAW and latency decision
 *    reads it, so it stays exactly per register;
 *  - the **values**: 32 lanes per register. Codegen spreads values over
 *    R4..R249 to space out WAW stalls, but only a dozen or so are live at
 *    once, so registers whose live ranges never overlap share one value
 *    *row*.
 *
 * Rows come from backward per-instruction liveness over the ISA CFG and
 * a greedy coloring of the interference graph. Registers live at entry
 * (read before any write on some path) keep rows of their own; those are
 * the only rows that must read zero when a warp is admitted. DESIGN.md
 * ("Register layout") gives the soundness argument.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/isa.hpp"

namespace lmi {

struct RegLayout
{
    /** slot_of value of a register the program never names. */
    static constexpr uint16_t kUnnamed = 0xffff;

    /** Per architectural register: its scoreboard slot, or kUnnamed. */
    std::array<uint16_t, kNumRegs> slot_of;
    /** Per slot, ascending: the register it stands for. */
    std::vector<uint16_t> regs;
    /** Per slot: the value row holding the register's lanes. */
    std::vector<uint16_t> row_of;
    /** Value rows per warp. */
    unsigned rows = 0;
    /** Rows of the registers live at entry; admission zeroes these. */
    std::vector<uint16_t> zero_rows;

    unsigned slots() const { return unsigned(regs.size()); }
    /** "registers: N named, R value rows, Z zeroed at admission". */
    std::string summary() const;
};

/**
 * Lay out @p program's registers. CFG: BRA goes to its target and, when
 * guarded, also falls through; EXIT and TRAP have no successor; every
 * other instruction falls through. ISETP writes a predicate, not a row.
 * Register indices or branch targets out of range are ignored (validate()
 * rejects such programs before they run).
 */
RegLayout layoutRegisters(const Program& program);

} // namespace lmi
