/**
 * @file
 * Dynamic-binary-instrumentation model (paper §X-B, Fig. 13).
 *
 * The paper compares two NVBit-style DBI tools:
 *
 *  - Compute Sanitizer memcheck: a tripwire check is injected around
 *    every memory LD/ST (global, shared, local);
 *  - LMI-by-DBI: the LMI bounds check is additionally injected after
 *    every pointer-manipulating instruction, so the number of injected
 *    checks is the "LMI bound checks / LDST" ratio of §XI-B (67.14 for
 *    gaussian, 28.13 for swin).
 *
 * DBI tools cannot use spare hardware registers, so each injected check
 * is a trampoline: spill live registers, call the check routine, restore.
 * That is modeled as a configurable instruction sequence (ALU ops on the
 * reserved scratch registers plus metadata loads for tripwire schemes)
 * spliced into the binary, with every branch target remapped. The JIT
 * recompilation cost NVBit reports (~4-5%) is accounted separately by
 * the mechanism as a launch-time constant.
 */

#pragma once

#include "arch/isa.hpp"

namespace lmi {

/**
 * What to instrument and how expensive each check is. Every memory
 * LD/ST always gets a check before it.
 */
struct DbiOptions
{
    /** Inject a check after every hint-marked pointer operation. */
    bool instrument_pointer_ops = false;
    /**
     * When instrumenting pointer ops and the binary carries no hint bits
     * (a stock binary, as NVBit sees), treat every integer ALU op whose
     * result feeds an address as a pointer op; this flag instruments all
     * integer ALU ops as the conservative NVBit implementation does.
     */
    bool instrument_all_int_ops = false;
    /** ALU instructions per injected check (trampoline + logic). */
    unsigned check_alu_instrs = 24;
    /** Metadata loads per injected check (tripwire table lookups). */
    unsigned check_mem_loads = 2;
};

/** Instrumentation summary for reporting the Fig. 13 check ratio. */
struct DbiReport
{
    uint64_t sites_ldst = 0;
    uint64_t sites_pointer = 0;
    uint64_t injected_instructions = 0;

    /** The paper's "ratio of LMI bound checks to LD/ST instructions". */
    double
    checkToLdstRatio() const
    {
        return sites_ldst == 0
                   ? 0.0
                   : double(sites_ldst + sites_pointer) / double(sites_ldst);
    }
};

/**
 * Produce an instrumented copy of @p prog. Branch targets are remapped
 * around the injected sequences.
 */
Program instrumentProgram(const Program& prog, const DbiOptions& opts,
                          DbiReport* report = nullptr);

} // namespace lmi
