/**
 * @file
 * Hardware Overflow Checking Unit (paper §VII).
 *
 * The OCU sits next to each integer ALU. For instructions whose microcode
 * carries the Activation hint bit, it:
 *
 *  1. selects the input operand holding the pointer (Selection hint bit),
 *  2. generates an address mask from the pointer's extent field,
 *  3. XORs the selected input with the ALU output to find changed bits,
 *  4. ANDs the difference with the mask: a nonzero result means the
 *     arithmetic escaped the buffer's 2^n region,
 *  5. on violation, clears the output's extent field instead of faulting
 *     (delayed termination, §XII-A); the Extent Checker in the LSU raises
 *     the actual error if the poisoned pointer is ever dereferenced.
 */

#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/pointer.hpp"

namespace lmi {

/** Decoded hint bits from the instruction microcode (paper Fig. 9). */
struct OcuHints
{
    /** Bit [28]: this instruction manipulates a pointer; check it. */
    bool active = false;
    /** Bit [27]: which source operand holds the pointer (0 or 1). */
    unsigned pointer_operand = 0;
    /**
     * Bit [26]: the compiler's range analysis proved this operation
     * in-bounds (result bit-identical with or without the check), so
     * the OCU may power-gate the dynamic check. Only meaningful when
     * `active` is set; the operand metadata stays valid either way.
     */
    bool elide_check = false;
};

/** Outcome of one OCU check. */
struct OcuResult
{
    /** The (possibly extent-cleared) value to write back. */
    uint64_t out;
    /** True when the arithmetic escaped the buffer region. */
    bool violation;
};

/** ocu.* events counted apart from the registry: by one check(), or by
 *  one SM over a launch, then record()ed in one step. */
struct OcuTally
{
    uint64_t checks = 0;
    uint64_t violations = 0;
    uint64_t invalid_input = 0;

    OcuTally&
    operator+=(const OcuTally& o)
    {
        checks += o.checks;
        violations += o.violations;
        invalid_input += o.invalid_input;
        return *this;
    }
};

/**
 * Functional + cost model of the per-lane OCUs.
 *
 * The unit is stateless apart from statistics; the paper's input-operand
 * queue only exists to time-align operands with results in a pipelined
 * ALU and has no architectural effect, so it is represented purely by the
 * latency constant consumed by the timing model. checkLane() is const,
 * so SM workers may check lanes concurrently; each SM counts into its
 * own OcuTally, and the owner record()s their sum once per launch.
 */
class Ocu
{
  public:
    /**
     * Extra result latency (cycles) for hinted integer ops: the 0.63 ns
     * check logic is register-sliced twice to close timing at >3 GHz
     * (paper §XI-C).
     */
    static constexpr unsigned kExtraLatency = 3;

    /** @param stats optional registry receiving ocu.* counters */
    explicit Ocu(StatRegistry* stats = nullptr, bool sub_extents = false)
        : stats_(stats), sub_extents_(sub_extents)
    {
    }

    /**
     * Check one hinted integer operation.
     *
     * @param ptr_in  the input operand selected by the S hint bit
     * @param alu_out the raw 64-bit ALU result
     * @return the value to write back (extent cleared on violation)
     */
    OcuResult
    check(uint64_t ptr_in, uint64_t alu_out)
    {
        OcuTally tally;
        const OcuResult r = checkLane(ptr_in, alu_out, tally);
        record(tally);
        return r;
    }

    /** check() for one lane of a warp: the events go to @p tally. */
    OcuResult
    checkLane(uint64_t ptr_in, uint64_t alu_out, OcuTally& tally) const
    {
        ++tally.checks;

        const unsigned e = PointerCodec::extentOf(ptr_in);
        if (sub_extents_ && isSubExtent(e)) {
            // Sub-object extension: the mask covers everything above the
            // field's (sub-K) modifiable bits.
            const uint64_t mask =
                ~lowMask(kSubExtentLog2Base + (e - kSubExtentBase));
            if (((ptr_in ^ alu_out) & mask) != 0) {
                ++tally.violations;
                return {PointerCodec::poison(alu_out, kPoisonSpatial),
                        true};
            }
            return {alu_out, false};
        }
        if (e == 0 || e >= kDebugExtentBase) {
            // Invalid/poisoned pointers propagate their marker:
            // arithmetic on them never revalidates the result.
            ++tally.invalid_input;
            return {PointerCodec::poison(alu_out, e), false};
        }

        // Mask generation + XOR + AND + zero-compare (paper §VII-B/C).
        const uint64_t mask = kDefaultCodec.unmodifiableMask(e);
        const uint64_t diff = (ptr_in ^ alu_out) & mask;
        if (diff != 0) {
            ++tally.violations;
            // Delayed termination: record the cause in the repurposed
            // debug extent (§IV-A3) instead of faulting here.
            return {PointerCodec::poison(alu_out, kPoisonSpatial), true};
        }
        return {alu_out, false};
    }

    /** Add @p tally to the ocu.* counters; zero counts create none. */
    void
    record(const OcuTally& tally)
    {
        if (!stats_)
            return;
        if (tally.checks)
            stats_->inc("ocu.checks", tally.checks);
        if (tally.violations)
            stats_->inc("ocu.violations", tally.violations);
        if (tally.invalid_input)
            stats_->inc("ocu.invalid_input", tally.invalid_input);
    }

  private:
    StatRegistry* stats_;
    bool sub_extents_ = false;
};

} // namespace lmi
