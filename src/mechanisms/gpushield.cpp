#include "mechanisms/gpushield.hpp"

#include <algorithm>

#include "arch/mem_map.hpp"
#include "compiler/codegen.hpp" // tag helpers

namespace lmi {

void
GpuShieldMechanism::bind(DeviceState state)
{
    ProtectionMechanism::bind(state);
    sms_ = std::vector<SmState>(
        state_.config ? std::max(1u, state_.config->num_sms) : 1);
}

uint64_t
GpuShieldMechanism::canonical(uint64_t ptr) const
{
    return untag(ptr);
}

uint64_t
GpuShieldMechanism::onHostAlloc(uint64_t ptr, uint64_t requested)
{
    const uint64_t id = next_id_++;
    bounds_table_[id] = {ptr, requested};
    if (state_.stats)
        state_.stats->inc("gpushield.buffers");
    return withTag(ptr, id);
}

WarpMemCheck
GpuShieldMechanism::onMemAccesses(const MemAccess& access, uint64_t* addrs)
{
    SmState& sm = sms_[access.sm < sms_.size() ? access.sm : 0];

    return checkLanes(access, addrs, [&](uint64_t reg) {
        MemCheck result;
        const uint64_t addr = untag(reg) + uint64_t(access.imm_offset);
        result.address = addr;

        switch (access.space) {
          case MemSpace::Global: {
            const uint64_t tag = tagOf(reg);
            auto it = tag != 0 ? bounds_table_.find(tag) : bounds_table_.end();
            if (it != bounds_table_.end()) {
                // RCache probe: one bounds entry per (buffer, region
                // chunk) in the issuing SM's RCache. A miss fetches the
                // entry from L2.
                const uint64_t granule = addr / kEntryGranule;
                const uint64_t key = (tag << 20) ^ granule;
                // Next-granule prefetch: sequential sweeps pre-fill the
                // RCache, so only non-sequential (uncoalesced) streams
                // pay the refill — the needle/LSTM effect of Fig. 12.
                uint64_t& last = sm.last_granule[tag];
                const bool sequential =
                    granule == last || granule == last + 1;
                last = granule;
                if (!sm.rcache.access(key * 16) && !sequential) {
                    result.extra_cycles = kMissPenalty;
                    result.serialize_cycles = kMissFillOccupancy;
                    ++sm.misses;
                }
                ++sm.probes;

                const Bounds& b = it->second;
                if (addr < b.base || addr + access.width > b.base + b.size) {
                    Fault fault;
                    fault.kind = FaultKind::RegionOverflow;
                    fault.address = addr;
                    fault.detail = "GPUShield: access outside buffer region";
                    result.fault = fault;
                }
                return result;
            }
            // Untagged global access: device-heap pointer (kernel-argument
            // buffers are all tagged) — only the whole heap region is
            // enforced (coarse-grained, Table III).
            if (!inHeapRegion(addr)) {
                Fault fault;
                fault.kind = FaultKind::RegionOverflow;
                fault.address = addr;
                fault.detail = "GPUShield: access escaped the heap region";
                result.fault = fault;
            }
            return result;
          }

          case MemSpace::Local:
            // Coarse whole-stack check: the access must stay inside the
            // thread's local window (frame-to-frame overflows pass).
            if (addr < kLocalBase || addr >= kLocalBase + kLocalWindow) {
                Fault fault;
                fault.kind = FaultKind::RegionOverflow;
                fault.address = addr;
                fault.detail = "GPUShield: access escaped the local region";
                result.fault = fault;
            }
            return result;

          case MemSpace::Shared:
            // Not protected (Table II/III).
            return result;

          case MemSpace::Constant:
            return result;
        }
        return result;
    });
}

void
GpuShieldMechanism::onKernelLaunch(const Program& p)
{
    (void)p;
    for (SmState& sm : sms_)
        sm.probes = sm.misses = 0;
}

std::vector<Fault>
GpuShieldMechanism::onKernelEnd()
{
    uint64_t probes = 0, misses = 0;
    for (const SmState& sm : sms_) {
        probes += sm.probes;
        misses += sm.misses;
    }
    if (state_.stats) {
        if (misses)
            state_.stats->inc("gpushield.rcache_misses", misses);
        if (probes)
            state_.stats->inc("gpushield.rcache_probes", probes);
    }
    return {};
}

} // namespace lmi
