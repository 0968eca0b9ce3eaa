/**
 * @file
 * GPU configuration (paper Table IV).
 *
 * The defaults reproduce the evaluated machine: 80 SMs at 2 GHz, 4 GTO
 * warp schedulers per SM, 96 KB L1 with 30-cycle latency, 4.5 MB 24-way
 * L2 with 200-cycle latency, and 8 GB of HBM.
 */

#pragma once

#include <cstdint>

#include "arch/mem_map.hpp"
#include "common/hash.hpp"

namespace lmi {

struct GpuConfig
{
    // --- Core organization (Table IV) --------------------------------
    unsigned num_sms = 80;
    double clock_ghz = 2.0;
    unsigned warp_size = 32;
    unsigned schedulers_per_sm = 4; ///< GTO schedulers per SM
    unsigned max_warps_per_sm = 64; ///< residency cap (waves beyond this)
    unsigned max_blocks_per_sm = 16;

    // --- Execution latencies (cycles) ---------------------------------
    unsigned int_latency = 4;
    unsigned fp_latency = 4;
    unsigned sfu_latency = 16;
    unsigned malloc_latency = 400; ///< device-heap runtime call
    unsigned barrier_latency = 2;

    // --- Memory system -------------------------------------------------
    unsigned line_bytes = 128;
    uint64_t l1_size = 96 * kKiB;    ///< Table IV
    unsigned l1_assoc = 4;
    unsigned l1_latency = 30;        ///< Table IV
    uint64_t l2_size = 4608 * kKiB;  ///< 4.5 MB (Table IV)
    unsigned l2_assoc = 24;          ///< Table IV
    unsigned l2_latency = 200;       ///< Table IV
    unsigned dram_latency = 380;     ///< HBM access beyond L2
    double dram_bytes_per_cycle = 448.0; ///< ~900 GB/s HBM at 2 GHz
    unsigned shared_latency = 24;    ///< scratchpad, L1-comparable
    unsigned coalesce_serialize = 2; ///< extra cycles per extra transaction

    // --- Local memory --------------------------------------------------
    /** Per-thread stack top VA (driver writes it to c[0x0][0x28]). */
    uint64_t stack_top = kLocalBase + 256 * kKiB;

    // --- Host-side execution (not part of the simulated machine) ------
    /**
     * Worker threads stepping SMs inside one launch. 0 = use the
     * LMI_SIM_THREADS environment variable, else 1 (serial). Results are
     * byte-identical for every value, so this field is deliberately NOT
     * folded into hashConfig().
     */
    unsigned sim_threads = 0;
};

/**
 * Fold every simulation-relevant GpuConfig field into @p h.
 *
 * Every sweep cell's fingerprint (cellFingerprint) hashes the config
 * through this, so any field added to GpuConfig MUST be added here too —
 * a missed field gives two different configs one fingerprint.
 *
 * Sole exception: sim_threads. The parallel simulator is byte-identical
 * to serial execution, so a cell's payload, fingerprint included, is the
 * same under any thread count.
 */
inline Fnv1a&
hashConfig(Fnv1a& h, const GpuConfig& c)
{
    h.u64(c.num_sms).f64(c.clock_ghz).u64(c.warp_size);
    h.u64(c.schedulers_per_sm).u64(c.max_warps_per_sm);
    h.u64(c.max_blocks_per_sm);
    h.u64(c.int_latency).u64(c.fp_latency).u64(c.sfu_latency);
    h.u64(c.malloc_latency).u64(c.barrier_latency);
    h.u64(c.line_bytes).u64(c.l1_size).u64(c.l1_assoc).u64(c.l1_latency);
    h.u64(c.l2_size).u64(c.l2_assoc).u64(c.l2_latency);
    h.u64(c.dram_latency).f64(c.dram_bytes_per_cycle);
    h.u64(c.shared_latency).u64(c.coalesce_serialize);
    h.u64(c.stack_top);
    return h;
}

/** Standalone fingerprint of one configuration. */
inline uint64_t
configHash(const GpuConfig& c)
{
    Fnv1a h;
    return hashConfig(h, c).value();
}

} // namespace lmi
