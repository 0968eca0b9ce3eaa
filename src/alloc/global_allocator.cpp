#include "alloc/global_allocator.hpp"

namespace lmi {

MessageHeap::Config
GlobalAllocator::coreConfig(const Config& config)
{
    MessageHeap::Config c;
    c.policy = config.policy;
    c.region_base = config.region_base;
    c.region_size = config.region_size;
    c.packed_align = 256; // the documented cudaMalloc minimum
    c.chunked = false;
    c.encode_extent = config.encode_extent;
    c.quarantine_frees = config.quarantine_frees;
    c.contexts = config.contexts;
    c.codec = config.codec;
    c.double_free_msg = "cudaFree of already-freed pointer";
    c.invalid_free_msg = "cudaFree of pointer not returned by cudaMalloc";
    c.stat_alloc = "alloc.global.allocs";
    c.stat_free = "alloc.global.frees";
    c.stat_reserved = "alloc.global.reserved_bytes";
    c.stat_requested = "alloc.global.requested_bytes";
    c.stat_quarantined = "alloc.global.quarantined_bytes";
    c.stat_alloc_early = false;
    c.stat_free_on_quarantine = false;
    return c;
}

GlobalAllocator::GlobalAllocator(Config config, StatRegistry* stats)
    : core_(coreConfig(config), stats)
{
}

} // namespace lmi
