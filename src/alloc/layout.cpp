#include "alloc/layout.hpp"

#include <algorithm>
#include <numeric>

#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace lmi {

const BufferPlacement&
RegionLayout::find(const std::string& name) const
{
    for (const auto& b : buffers)
        if (b.name == name)
            return b;
    lmi_fatal("layout has no buffer named '%s'", name.c_str());
}

RegionLayout
layoutBuffers(const std::vector<BufferSpec>& specs, AllocPolicy policy,
              uint64_t packed_align)
{
    RegionLayout layout;
    layout.buffers.resize(specs.size());

    if (policy == AllocPolicy::Packed) {
        uint64_t cursor = 0;
        for (size_t i = 0; i < specs.size(); ++i) {
            cursor = alignUp(cursor, packed_align);
            layout.buffers[i] = {specs[i].name, cursor, specs[i].size,
                                 alignUp(specs[i].size, packed_align)};
            cursor += layout.buffers[i].reserved;
        }
        layout.total_bytes = cursor;
        layout.required_alignment = packed_align;
        return layout;
    }

    // LMI policy: place largest-first so size-alignment wastes the least
    // padding, then report placements in the caller's order.
    std::vector<size_t> order(specs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return kDefaultCodec.alignedSize(specs[a].size) >
               kDefaultCodec.alignedSize(specs[b].size);
    });

    uint64_t cursor = 0;
    for (size_t idx : order) {
        const uint64_t reserved = kDefaultCodec.alignedSize(specs[idx].size);
        if (reserved == 0)
            lmi_fatal("buffer '%s' (%llu bytes) exceeds the maximum "
                      "extent-encodable size",
                      specs[idx].name.c_str(),
                      static_cast<unsigned long long>(specs[idx].size));
        cursor = alignUp(cursor, reserved);
        layout.buffers[idx] = {specs[idx].name, cursor, specs[idx].size,
                               reserved};
        cursor += reserved;
        layout.required_alignment =
            std::max(layout.required_alignment, reserved);
    }
    layout.total_bytes = alignUp(cursor, layout.required_alignment);
    return layout;
}

} // namespace lmi
