/**
 * @file
 * The LMI hardware mechanism (the paper's contribution, §IV-§VIII).
 *
 * Composition:
 *  - compiler: LMI pass (hint bits, 2^n stack frames, extent encode for
 *    stack/shared pointers, extent nullify on free/scope exit,
 *    inttoptr rejection);
 *  - allocators: 2^n-aligned with extent-encoded pointers;
 *  - per-lane OCU on hinted integer results, +3 cycles of result
 *    latency from the two register slices (§XI-C);
 *  - Extent Checker in the LSU: zero extent at dereference raises the
 *    fault (delayed termination, §XII-A);
 *  - optional pointer-liveness tracking (§XII-C) closing the
 *    copied-pointer use-after-free gap.
 */

#pragma once

#include "common/stats.hpp"
#include "core/extent_checker.hpp"
#include "core/liveness.hpp"
#include "core/ocu.hpp"
#include "sim/mechanism.hpp"

namespace lmi {

class LmiMechanism : public ProtectionMechanism
{
  public:
    /** The LMI variants the registry builds. */
    enum class Variant : uint8_t
    {
        /** The paper's mechanism. */
        Plain,
        /**
         * §XII-C membership-table liveness tracking, with the
         * page-invalidation optimization for large buffers.
         */
        Liveness,
        /**
         * Intra-object (sub-K extent) extension: the compiler narrows
         * field pointers and the OCU/EC honor extents 27..30 as
         * 16/32/64/128 B fields. No liveness counterpart: sub-extents
         * repurpose the UM-identity assumptions the tracker relies on.
         */
        Subobject,
        /**
         * Static-elision extension: the range analysis proves pointer
         * operations safe and the OCU power-gates (elides) their
         * dynamic checks via the E hint bit. Proven violations become
         * compile errors.
         */
        Elide,
    };

    struct Options
    {
        Variant variant = Variant::Plain;
        /**
         * Extra result latency of hinted integer ops (register-sliced
         * OCU). Default 3 cycles per §XI-C; the latency-sensitivity
         * ablation sweeps this.
         */
        unsigned ocu_latency = Ocu::kExtraLatency;
    };

    LmiMechanism() : LmiMechanism(Options{}) {}
    explicit LmiMechanism(Options options);

    std::string name() const override;
    void bind(DeviceState state) override;

    CodegenOptions codegenOptions() const override;
    AllocPolicy allocPolicy() const override { return AllocPolicy::Pow2Aligned; }
    bool encodePointers() const override { return true; }
    bool quarantineFrees() const override
    {
        // The liveness extension pairs the membership table with
        // one-time allocation (Markus/FFmalloc, cited in §XII-C) so a
        // stale alias can never match a new owner's identity.
        return options_.variant == Variant::Liveness;
    }

    uint64_t onHostAlloc(uint64_t ptr, uint64_t requested) override;
    MaybeFault onHostFree(uint64_t ptr) override;
    void onDeviceAlloc(uint64_t ptr, uint64_t requested) override;
    MaybeFault onDeviceFree(uint64_t ptr) override;

    void onIntResults(const Instruction& inst, uint32_t sm, uint32_t mask,
                      const uint64_t* ptr_in, uint64_t* out) override;
    unsigned extraIntLatency(const Instruction& inst) const override;
    WarpMemCheck onMemAccesses(const MemAccess& access,
                               uint64_t* addrs) override;
    void onKernelLaunch(const Program& p) override;
    std::vector<Fault> onKernelEnd() override;

    /** The liveness tracker, when enabled (for benches/tests). */
    const LivenessTracker* liveness() const
    {
        return liveness_ ? &*liveness_ : nullptr;
    }

  private:
    /** One SM's OCU and EC events of the current launch. */
    struct alignas(64) SmTally
    {
        OcuTally ocu;
        EcTally ec;
        /** ocu.checks_elided: lanes whose check the E hint bit gated. */
        uint64_t elided = 0;
    };

    PoisonCause classifyZeroExtent(const MemAccess& access,
                                   uint64_t reg_value) const;

    Options options_;
    Ocu ocu_;
    ExtentChecker ec_;
    std::optional<LivenessTracker> liveness_;
    /**
     * Per-SM tallies, indexed by the issuing SM so concurrent SM workers
     * never share one. Sized in bind() from the config; until then a
     * single slot serves host-less unit tests.
     */
    std::vector<SmTally> sms_;
};

} // namespace lmi
