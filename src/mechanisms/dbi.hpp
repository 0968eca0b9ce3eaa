/**
 * @file
 * Dynamic-binary-instrumentation mechanisms (paper §X-B, Fig. 13):
 *
 *  - MemcheckMechanism: NVIDIA Compute Sanitizer's memcheck — tripwire
 *    red zones around allocations, with a heavyweight check trampoline
 *    injected around every LD/ST. Geomean overhead ~33x in the paper.
 *
 *  - LmiDbiMechanism: LMI implemented through NVBit-style DBI — the same
 *    extent logic, but the checks are injected instruction sequences on
 *    every pointer operation *and* every LD/ST, with no hardware OCU.
 *    Cheaper per check than memcheck (pure ALU, no metadata loads), but
 *    many more sites: the "ratio of LMI bound checks to LD/ST" of §XI-B
 *    drives which tool wins per workload. Geomean ~73x in the paper.
 *
 * Both report the ~4-5% NVBit JIT recompilation overhead as a
 * launch-time factor.
 */

#pragma once

#include <map>

#include "compiler/instrument.hpp"
#include "sim/mechanism.hpp"

namespace lmi {

/** Compute Sanitizer memcheck model. */
class MemcheckMechanism : public ProtectionMechanism
{
  public:
    /** Trampoline ALU instructions per check: NVBit callbacks spill
     *  live state, make an ABI call, classify the address and walk
     *  the tripwire table — hundreds of dynamic instructions. */
    static constexpr unsigned kCheckAluInstrs = 960;
    /** Tripwire-table loads per check. */
    static constexpr unsigned kCheckMemLoads = 12;
    /** Red-zone bytes around each host allocation. */
    static constexpr uint64_t kRedzone = 64;
    /** NVBit JIT recompilation overhead (paper: ~5.2%). */
    static constexpr double kJitFraction = 0.052;

    std::string name() const override { return "memcheck-dbi"; }

    Program transformBinary(const Program& p) override;
    double launchOverheadFraction() const override { return kJitFraction; }
    uint64_t hostRedzoneBytes() const override { return kRedzone; }
    uint64_t onHostAlloc(uint64_t ptr, uint64_t requested) override;
    MaybeFault onHostFree(uint64_t ptr) override;
    WarpMemCheck onMemAccesses(const MemAccess& access,
                               uint64_t* addrs) override;

    const DbiReport& report() const { return report_; }

  private:
    MemCheck checkLane(const MemAccess& access, uint64_t reg_value) const;

    DbiReport report_;
    /** Tripwire zones: [start, end) intervals keyed by start. */
    std::map<uint64_t, uint64_t> tripwires_;
};

/** LMI implemented by binary instrumentation. */
class LmiDbiMechanism : public ProtectionMechanism
{
  public:
    /** ALU instructions per injected extent check: the check itself
     *  is metadata-free and much cheaper than memcheck's table walk,
     *  but the NVBit trampoline (spill/call/restore) still dominates. */
    static constexpr unsigned kCheckAluInstrs = 255;
    /** NVBit JIT recompilation overhead. */
    static constexpr double kJitFraction = 0.04;

    std::string name() const override { return "lmi-dbi"; }

    CodegenOptions
    codegenOptions() const override
    {
        // The binary carries LMI hint bits (they identify the pointer
        // ops the tool instruments) but no hardware acts on them.
        CodegenOptions opts;
        opts.lmi = true;
        return opts;
    }

    AllocPolicy allocPolicy() const override { return AllocPolicy::Pow2Aligned; }
    bool encodePointers() const override { return true; }

    Program transformBinary(const Program& p) override;
    double launchOverheadFraction() const override { return kJitFraction; }
    /** The injected check sequence poisons the pointer in software. */
    void onIntResults(const Instruction& inst, uint32_t sm, uint32_t mask,
                      const uint64_t* ptr_in, uint64_t* out) override;
    WarpMemCheck onMemAccesses(const MemAccess& access,
                               uint64_t* addrs) override;

    const DbiReport& report() const { return report_; }

  private:
    DbiReport report_;
};

} // namespace lmi
