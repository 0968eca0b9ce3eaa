#include "sim/device.hpp"

#include "arch/mem_map.hpp"
#include "common/logging.hpp"

namespace lmi {

Device::Device() : Device(std::make_unique<BaselineMechanism>()) {}

Device::Device(std::unique_ptr<ProtectionMechanism> mech)
    : Device(std::move(mech), GpuConfig{})
{
}

Device::Device(GpuConfig config, std::unique_ptr<ProtectionMechanism> mech)
    : Device(std::move(mech), config)
{
}

Device::Device(std::unique_ptr<ProtectionMechanism> mech, GpuConfig config)
    : config_(config), mech_(std::move(mech))
{
    if (!mech_)
        mech_ = std::make_unique<BaselineMechanism>();
    init();
}

void
Device::init()
{
    const AllocPolicy policy = mech_->allocPolicy();
    const bool quarantine = mech_->quarantineFrees();
    // cudaMalloc serves the global region below the device heap.
    global_alloc_ = std::make_unique<MessageHeap>(
        MessageHeap::Config{.kind = HeapKind::Global,
                            .policy = policy,
                            .region_base = kGlobalBase,
                            .region_size = kGlobalSize - kHeapSize,
                            .quarantine_frees = quarantine},
        &stats_);
    // One allocator context per SM: private sizeclass caches plus a
    // remote-free list replayed at each slice boundary.
    heap_alloc_ = std::make_unique<MessageHeap>(
        MessageHeap::Config{.kind = HeapKind::Device,
                            .policy = policy,
                            .quarantine_frees = quarantine,
                            .contexts = config_.num_sms},
        &stats_);

    DeviceState state;
    state.global_alloc = global_alloc_.get();
    state.heap_alloc = heap_alloc_.get();
    state.global_mem = &global_mem_;
    state.stats = &stats_;
    state.config = &config_;
    mech_->bind(state);
}

uint64_t
Device::cudaMalloc(uint64_t size)
{
    const uint64_t redzone = mech_->hostRedzoneBytes();
    const uint64_t raw = global_alloc_->alloc(0, 0, size + 2 * redzone);
    if (raw == 0)
        return 0;
    const uint64_t ptr = raw + redzone;
    return mech_->onHostAlloc(ptr, size);
}

MaybeFault
Device::cudaFree(uint64_t& ptr)
{
    if (MaybeFault f = mech_->onHostFree(ptr))
        return f;
    const uint64_t redzone = mech_->hostRedzoneBytes();
    const uint64_t raw = mech_->canonical(ptr) - redzone;
    const MaybeFault f = global_alloc_->free(0, raw);
    if (!f && mech_->encodePointers()) {
        // The runtime clears the extent so further accesses through this
        // handle are invalid (temporal safety, §V-B / §VIII).
        ptr = PointerCodec::invalidate(ptr);
    }
    return f;
}

namespace {

/** Host-runtime extent validation for memcpy endpoints. */
MaybeFault
checkTransfer(const ProtectionMechanism& mech, uint64_t ptr, uint64_t n)
{
    if (!mech.encodePointers())
        return std::nullopt;
    if (!PointerCodec::isDereferenceable(ptr)) {
        return Fault{FaultKind::InvalidExtent,
                     PointerCodec::addressOf(ptr),
                     "memcpy through a pointer with no valid extent"};
    }
    const uint64_t end =
        kDefaultCodec.baseOf(ptr) + kDefaultCodec.sizeOf(ptr);
    if (PointerCodec::addressOf(ptr) + n > end) {
        return Fault{FaultKind::SpatialOverflow,
                     PointerCodec::addressOf(ptr),
                     "memcpy exceeds the destination buffer's extent"};
    }
    return std::nullopt;
}

} // namespace

MaybeFault
Device::memcpyHtoD(uint64_t dst, const void* src, uint64_t n)
{
    if (MaybeFault f = checkTransfer(*mech_, dst, n))
        return f;
    global_mem_.writeBytes(mech_->canonical(dst),
                           static_cast<const uint8_t*>(src), n);
    return std::nullopt;
}

MaybeFault
Device::memcpyDtoH(void* dst, uint64_t src, uint64_t n)
{
    if (MaybeFault f = checkTransfer(*mech_, src, n))
        return f;
    global_mem_.readBytes(mech_->canonical(src),
                          static_cast<uint8_t*>(dst), n);
    return std::nullopt;
}

void
Device::poke32(uint64_t addr, uint32_t v)
{
    global_mem_.write(mech_->canonical(addr), v, 4);
}

uint32_t
Device::peek32(uint64_t addr)
{
    return uint32_t(global_mem_.read(mech_->canonical(addr), 4));
}

void
Device::poke64(uint64_t addr, uint64_t v)
{
    global_mem_.write(mech_->canonical(addr), v, 8);
}

uint64_t
Device::peek64(uint64_t addr)
{
    return global_mem_.read(mech_->canonical(addr), 8);
}

CompiledKernel
Device::compile(const ir::IrModule& m, const std::string& kernel)
{
    CompiledKernel ck = compileKernel(m, kernel, mech_->codegenOptions());
    ck.program = mech_->transformBinary(ck.program);
    return ck;
}

RunResult
Device::launch(const CompiledKernel& kernel, unsigned grid_blocks,
               unsigned block_threads, std::vector<uint64_t> params,
               const LaunchOptions& options)
{
    if (block_threads == 0 || grid_blocks == 0)
        lmi_fatal("launch of %s with empty grid", kernel.program.name.c_str());
    if (params.size() != kernel.program.num_params)
        lmi_fatal("launch of %s passes %zu params, kernel expects %u",
                  kernel.program.name.c_str(), params.size(),
                  kernel.program.num_params);

    GpuSim sim(config_, *mech_, global_mem_, *heap_alloc_, kernel.program,
               Launch{grid_blocks, block_threads, std::move(params),
                      options});
    RunResult result = sim.run();
    stats_.merge(result.stats);
    return result;
}

} // namespace lmi
