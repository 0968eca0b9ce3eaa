/**
 * @file
 * The Device: the public API a host program uses, mirroring the CUDA
 * runtime surface the paper's mechanisms hook into.
 *
 *  - cudaMalloc/cudaFree with the active mechanism's allocation policy
 *    (2^n-aligned + extent-encoded under LMI, §V-B);
 *  - memcpy to/from the simulated global memory;
 *  - compile(): runs the mechanism's compiler flavor (LMI pass, SW baggy,
 *    none) and its binary transform (DBI injection);
 *  - launch(): executes on the GpuSim engine with the mechanism attached.
 *
 * This is the entry point examples and benches use.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alloc/msg_heap.hpp"
#include "compiler/codegen.hpp"
#include "ir/ir.hpp"
#include "sim/config.hpp"
#include "sim/gpu.hpp"
#include "sim/mechanism.hpp"
#include "sim/memory.hpp"
#include "sim/result.hpp"

namespace lmi {

class Device
{
  public:
    /** Baseline device (no protection). */
    Device();
    /** Device running under @p mech with the default Table IV config. */
    explicit Device(std::unique_ptr<ProtectionMechanism> mech);
    Device(std::unique_ptr<ProtectionMechanism> mech, GpuConfig config);
    /**
     * Config-first construction for sweep cells with per-cell overrides;
     * a null @p mech means the unprotected baseline. This is the overload
     * ExperimentRunner jobs use, so device construction needs no friend
     * access and no copy-pasted init.
     */
    explicit Device(GpuConfig config,
                    std::unique_ptr<ProtectionMechanism> mech = nullptr);

    // --- Host memory API ------------------------------------------------
    /** Allocate @p size bytes of global memory; 0 on exhaustion. */
    uint64_t cudaMalloc(uint64_t size);

    /**
     * Free @p ptr. Under extent-encoding mechanisms the handle is
     * invalidated in place (extent cleared), as §V-B specifies.
     */
    MaybeFault cudaFree(uint64_t& ptr);

    /**
     * Copy host memory to the device. Under extent-encoding mechanisms
     * the runtime validates the transfer against the destination
     * buffer's extent (host-side spatial safety) and refuses overflows.
     */
    MaybeFault memcpyHtoD(uint64_t dst, const void* src, uint64_t n);
    MaybeFault memcpyDtoH(void* dst, uint64_t src, uint64_t n);

    /** Convenience typed poke/peek for tests. */
    void poke32(uint64_t addr, uint32_t v);
    uint32_t peek32(uint64_t addr);
    void poke64(uint64_t addr, uint64_t v);
    uint64_t peek64(uint64_t addr);

    // --- Kernel API ------------------------------------------------------
    /** Compile under the active mechanism's compiler/DBI flavor. */
    CompiledKernel compile(const ir::IrModule& m, const std::string& kernel);

    /**
     * Execute @p kernel on the GpuSim engine with the mechanism
     * attached. The single launch entry point: @p options selects the
     * execution tier (detailed / functional), and carries
     * the trace recorder, race sanitizer, event log and dynamic
     * shared memory that used to be separate overloads.
     * The default options run the detailed tier, byte-identical to
     * the historical plain launch.
     */
    RunResult launch(const CompiledKernel& kernel, unsigned grid_blocks,
                     unsigned block_threads, std::vector<uint64_t> params,
                     const LaunchOptions& options = {});

    // --- Introspection ----------------------------------------------------
    ProtectionMechanism& mechanism() { return *mech_; }
    /** The cudaMalloc heap (HeapKind::Global, context 0). */
    MessageHeap& globalAllocator() { return *global_alloc_; }
    /** The kernel malloc heap (HeapKind::Device, one context per SM). */
    MessageHeap& heapAllocator() { return *heap_alloc_; }
    SparseMemory& globalMemory() { return global_mem_; }
    const GpuConfig& config() const { return config_; }
    StatRegistry& stats() { return stats_; }

    /**
     * Worker threads stepping SMs in subsequent launches (results are
     * byte-identical for every value; see GpuConfig::sim_threads).
     * 0 restores the default LMI_SIM_THREADS-then-serial resolution.
     */
    void setSimThreads(unsigned threads) { config_.sim_threads = threads; }
    /** Effective worker count the next launch would use. */
    unsigned simThreads() const { return resolveSimThreads(config_); }

  private:
    void init();

    GpuConfig config_;
    std::unique_ptr<ProtectionMechanism> mech_;
    StatRegistry stats_;
    SparseMemory global_mem_;
    std::unique_ptr<MessageHeap> global_alloc_;
    std::unique_ptr<MessageHeap> heap_alloc_;
};

} // namespace lmi
