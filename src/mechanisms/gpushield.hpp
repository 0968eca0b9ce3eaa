/**
 * @file
 * GPUShield (ISCA'22) model: hardware region-based bounds checking with
 * pointer tagging (paper §II-D, §X-A, the Fig. 12 hardware baseline).
 *
 * Semantics reproduced from the paper's description:
 *  - kernel-argument (cudaMalloc) buffers get a buffer id in the unused
 *    upper pointer bits; a bounds table maps id -> [base, base+size);
 *  - an RCache (a small per-SM bounds cache, smaller than the L1 D$)
 *    holds recently used bounds entries; a miss stalls the access while
 *    the entry is fetched from L2 — the source of the needle/LSTM
 *    overheads in Fig. 12, triggered by uncoalesced access streams;
 *  - heap and stack are protected only as whole regions (coarse), so
 *    intra-heap/intra-stack overflows pass (Table III);
 *  - shared memory and temporal safety are not covered.
 */

#pragma once

#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "sim/cache.hpp"
#include "sim/mechanism.hpp"

namespace lmi {

class GpuShieldMechanism : public ProtectionMechanism
{
  public:
    /** RCache capacity in bounds entries. */
    static constexpr unsigned kRCacheEntries = 64;
    static constexpr unsigned kRCacheAssoc = 2;
    /**
     * Address granule per RCache entry: bounds are cached per
     * (buffer, region chunk), so scattered streams touch many
     * entries while dense streams reuse one.
     */
    static constexpr uint64_t kEntryGranule = 512;
    /** Added latency of a missing bounds entry (L2 round trip). */
    static constexpr unsigned kMissPenalty = 200;
    /**
     * LSU-port cycles a bounds refill occupies (the fill competes
     * with data accesses for the single load path) — the throughput
     * cost behind needle/LSTM in Fig. 12.
     */
    static constexpr unsigned kMissFillOccupancy = 11;

    std::string name() const override { return "gpushield"; }

    void bind(DeviceState state) override;

    uint64_t canonical(uint64_t ptr) const override;
    uint64_t onHostAlloc(uint64_t ptr, uint64_t requested) override;
    WarpMemCheck onMemAccesses(const MemAccess& access,
                               uint64_t* addrs) override;
    void onKernelLaunch(const Program& p) override;
    std::vector<Fault> onKernelEnd() override;

  private:
    struct Bounds
    {
        uint64_t base = 0;
        uint64_t size = 0;
    };

    /** RCache and prefetch-detector state for one SM. */
    struct SmState
    {
        SmState() : rcache(uint64_t(kRCacheEntries) * 16, kRCacheAssoc, 16)
        {
        }

        CacheModel rcache;
        /** Per-buffer last-touched granule (sequential-prefetch
         *  detector). */
        std::unordered_map<uint64_t, uint64_t> last_granule;
        /** gpushield.rcache_* events of the current launch. */
        uint64_t probes = 0, misses = 0;
    };

    /**
     * One RCache per SM (the paper's RCache is an SM-local structure);
     * MemAccess::sm selects the instance, so concurrent SM workers
     * never share a bounds cache. Sized in bind() from the config;
     * until then a single slot serves host-less unit tests.
     */
    std::vector<SmState> sms_ = std::vector<SmState>(1);
    std::unordered_map<uint64_t, Bounds> bounds_table_;
    uint64_t next_id_ = 1;
};

} // namespace lmi
