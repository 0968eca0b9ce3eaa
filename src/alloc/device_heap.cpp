#include "alloc/device_heap.hpp"

namespace lmi {

MessageHeap::Config
DeviceHeapAllocator::coreConfig(const Config& config)
{
    MessageHeap::Config c;
    c.policy = config.policy;
    c.region_base = config.region_base;
    c.region_size = config.region_size;
    // Chunked Fig. 5 rounding under the Packed policy; the LMI policy
    // rounds to 2^n sizeclasses instead. Group storage and oversized
    // blocks place at the historical 16-byte backing alignment.
    c.chunked = config.policy == AllocPolicy::Packed;
    c.packed_align = 16;
    c.encode_extent = config.encode_extent;
    c.quarantine_frees = config.quarantine_frees;
    c.contexts = config.contexts;
    c.codec = config.codec;
    c.double_free_msg = "device free of already-freed pointer";
    c.invalid_free_msg = "device free of pointer not returned by malloc";
    c.stat_alloc = "alloc.heap.mallocs";
    c.stat_free = "alloc.heap.frees";
    c.stat_groups = "alloc.heap.groups";
    c.stat_alloc_early = true;
    c.stat_free_on_quarantine = true;
    return c;
}

DeviceHeapAllocator::DeviceHeapAllocator(Config config, StatRegistry* stats)
    : core_(coreConfig(config), stats)
{
}

} // namespace lmi
