/**
 * @file
 * Software protection schemes:
 *
 *  - BaggyBoundsMechanism: Baggy Bounds Checking naively adapted to the
 *    GPU (paper §X-A): 2^n-aligned allocation with in-pointer extents,
 *    but every check is an injected SASS sequence instead of the OCU —
 *    the high-overhead software baseline of Fig. 12.
 *
 *  - GmodMechanism: GMOD (PACT'18) canary scheme: guard zones around
 *    every cudaMalloc buffer, verified at kernel end. Detects only
 *    adjacent overflow *writes*, after the fact.
 *
 *  - CuCatchMechanism: cuCatch (PLDI'23) model: compiler-driven pointer
 *    tagging with shadow tag memory. Buffer pointers carry a 16-bit id;
 *    every access compares the pointer's id against the shadow tag
 *    painted over the buffer's bytes. Covers global (incl. temporal,
 *    incl. copied pointers), stack and static shared memory; does not
 *    cover the device heap (Table II/III).
 */

#pragma once

#include <unordered_map>
#include <vector>

#include "sim/mechanism.hpp"

namespace lmi {

/** Baggy Bounds adapted to GPU: pure software checking (Fig. 12). */
class BaggyBoundsMechanism : public ProtectionMechanism
{
  public:
    std::string name() const override { return "baggy-sw"; }

    CodegenOptions
    codegenOptions() const override
    {
        CodegenOptions opts;
        opts.sw_baggy = true;
        return opts;
    }

    AllocPolicy allocPolicy() const override { return AllocPolicy::Pow2Aligned; }
    bool encodePointers() const override { return true; }

    WarpMemCheck
    onMemAccesses(const MemAccess& access, uint64_t* addrs) override
    {
        // The injected check sequences enforce bounds; the LSU only has
        // to strip the in-pointer metadata (the 64-bit Baggy variant's
        // masked dereference).
        return checkLanes(access, addrs, [&](uint64_t reg_value) {
            MemCheck r;
            r.address = PointerCodec::addressOf(reg_value) +
                        uint64_t(access.imm_offset);
            return r;
        });
    }
};

/** GMOD canary scheme. */
class GmodMechanism : public ProtectionMechanism
{
  public:
    static constexpr uint64_t kRedzoneBytes = 64;
    static constexpr uint8_t kCanaryByte = 0xCA;

    std::string name() const override { return "gmod"; }
    uint64_t hostRedzoneBytes() const override { return kRedzoneBytes; }

    uint64_t onHostAlloc(uint64_t ptr, uint64_t requested) override;
    MaybeFault onHostFree(uint64_t ptr) override;
    std::vector<Fault> onKernelEnd() override;

  private:
    void paint(uint64_t addr, uint64_t n);
    bool intact(uint64_t addr, uint64_t n);

    struct Guarded
    {
        uint64_t ptr = 0;
        uint64_t size = 0;
    };

    std::vector<Guarded> guarded_;
};

/** cuCatch tag-based scheme. */
class CuCatchMechanism : public ProtectionMechanism
{
  public:
    /** Shadow-tag granularity (cuCatch uses 16 B granules). */
    static constexpr uint64_t kGranule = 16;

    std::string name() const override { return "cucatch"; }

    CodegenOptions
    codegenOptions() const override
    {
        CodegenOptions opts;
        opts.buffer_id_tags = true;
        return opts;
    }

    uint64_t canonical(uint64_t ptr) const override;
    uint64_t onHostAlloc(uint64_t ptr, uint64_t requested) override;
    MaybeFault onHostFree(uint64_t ptr) override;
    void onKernelLaunch(const Program& p) override;
    WarpMemCheck onMemAccesses(const MemAccess& access,
                               uint64_t* addrs) override;

  private:
    MemCheck checkLane(const MemAccess& access, uint64_t reg_value) const;
    void paintRange(std::unordered_map<uint64_t, uint64_t>& shadow,
                    uint64_t base, uint64_t n, uint64_t tag);
    uint64_t shadowTag(const std::unordered_map<uint64_t, uint64_t>& shadow,
                       uint64_t addr) const;

    std::unordered_map<uint64_t, uint64_t> shadow_global_;
    std::unordered_map<uint64_t, uint64_t> shadow_local_;
    std::unordered_map<uint64_t, uint64_t> shadow_shared_;
    std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> live_;
    uint64_t next_host_tag_ = 4096; // kHostTagBase
};

} // namespace lmi
