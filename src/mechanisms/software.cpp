#include "mechanisms/software.hpp"

#include <vector>

#include "arch/mem_map.hpp"
#include "common/logging.hpp"
#include "compiler/codegen.hpp" // tag helpers

namespace lmi {

// ---------------------------------------------------------------------
// GMOD
// ---------------------------------------------------------------------

void
GmodMechanism::paint(uint64_t addr, uint64_t n)
{
    std::vector<uint8_t> pattern(n, kCanaryByte);
    state_.global_mem->writeBytes(addr, pattern.data(), n);
}

bool
GmodMechanism::intact(uint64_t addr, uint64_t n)
{
    std::vector<uint8_t> bytes(n);
    state_.global_mem->readBytes(addr, bytes.data(), n);
    for (uint8_t b : bytes)
        if (b != kCanaryByte)
            return false;
    return true;
}

uint64_t
GmodMechanism::onHostAlloc(uint64_t ptr, uint64_t requested)
{
    paint(ptr - kRedzoneBytes, kRedzoneBytes);
    paint(ptr + requested, kRedzoneBytes);
    guarded_.push_back({ptr, requested});
    return ptr;
}

MaybeFault
GmodMechanism::onHostFree(uint64_t ptr)
{
    for (size_t i = 0; i < guarded_.size(); ++i) {
        if (guarded_[i].ptr == ptr) {
            guarded_.erase(guarded_.begin() + long(i));
            break;
        }
    }
    return std::nullopt;
}

std::vector<Fault>
GmodMechanism::onKernelEnd()
{
    std::vector<Fault> faults;
    for (const auto& g : guarded_) {
        if (!intact(g.ptr - kRedzoneBytes, kRedzoneBytes) ||
            !intact(g.ptr + g.size, kRedzoneBytes)) {
            Fault fault;
            fault.kind = FaultKind::CanaryCorruption;
            fault.address = g.ptr;
            fault.detail = "GMOD: canary corrupted around buffer";
            faults.push_back(fault);
            // Re-arm so one corruption is reported once per kernel.
            paint(g.ptr - kRedzoneBytes, kRedzoneBytes);
            paint(g.ptr + g.size, kRedzoneBytes);
        }
    }
    return faults;
}

// ---------------------------------------------------------------------
// cuCatch
// ---------------------------------------------------------------------

void
CuCatchMechanism::paintRange(std::unordered_map<uint64_t, uint64_t>& shadow,
                             uint64_t base, uint64_t n, uint64_t tag)
{
    for (uint64_t a = base / kGranule; a <= (base + n - 1) / kGranule; ++a) {
        if (tag == 0)
            shadow.erase(a);
        else
            shadow[a] = tag;
    }
}

uint64_t
CuCatchMechanism::shadowTag(
    const std::unordered_map<uint64_t, uint64_t>& shadow,
    uint64_t addr) const
{
    auto it = shadow.find(addr / kGranule);
    return it == shadow.end() ? 0 : it->second;
}

uint64_t
CuCatchMechanism::canonical(uint64_t ptr) const
{
    return untag(ptr);
}

uint64_t
CuCatchMechanism::onHostAlloc(uint64_t ptr, uint64_t requested)
{
    const uint64_t tag = next_host_tag_++;
    paintRange(shadow_global_, ptr, requested, tag);
    live_[untag(ptr)] = {tag, requested};
    return withTag(ptr, tag);
}

MaybeFault
CuCatchMechanism::onHostFree(uint64_t ptr)
{
    auto it = live_.find(untag(ptr));
    if (it != live_.end()) {
        // Unpaint: stale pointers (copies included) now mismatch.
        paintRange(shadow_global_, it->first, it->second.second, 0);
        live_.erase(it);
    }
    return std::nullopt;
}

void
CuCatchMechanism::onKernelLaunch(const Program& p)
{
    shadow_local_.clear();
    shadow_shared_.clear();
    if (!state_.config)
        return;
    const uint64_t frame_base = state_.config->stack_top - p.frame_bytes;
    for (const auto& slot : p.frame_slots)
        if (slot.tag != 0 && slot.requested > 0)
            paintRange(shadow_local_, frame_base + slot.offset,
                       slot.requested, slot.tag);
    for (const auto& slot : p.shared_slots)
        if (slot.tag != 0 && slot.requested > 0)
            paintRange(shadow_shared_, slot.offset, slot.requested,
                       slot.tag);
}

WarpMemCheck
CuCatchMechanism::onMemAccesses(const MemAccess& access, uint64_t* addrs)
{
    return checkLanes(access, addrs, [&](uint64_t reg_value) {
        return checkLane(access, reg_value);
    });
}

MemCheck
CuCatchMechanism::checkLane(const MemAccess& access,
                            uint64_t reg_value) const
{
    MemCheck result;
    const uint64_t tag = tagOf(reg_value);
    const uint64_t addr = untag(reg_value) + uint64_t(access.imm_offset);
    result.address = addr;

    if (tag == 0) {
        // Untagged pointers are outside cuCatch's provenance tracking:
        // device-heap malloc, dynamic shared memory, or addresses
        // manufactured by integer arithmetic (Table II/III).
        return result;
    }
    if (tag == kDeadTag) {
        Fault fault;
        fault.kind = access.space == MemSpace::Local
                         ? FaultKind::UseAfterScope
                         : FaultKind::UseAfterFree;
        fault.address = addr;
        fault.detail = "cuCatch: pointer outlived its defining scope";
        result.fault = fault;
        return result;
    }

    const std::unordered_map<uint64_t, uint64_t>* shadow = nullptr;
    switch (access.space) {
      case MemSpace::Global:  shadow = &shadow_global_; break;
      case MemSpace::Local:   shadow = &shadow_local_; break;
      case MemSpace::Shared:  shadow = &shadow_shared_; break;
      case MemSpace::Constant: return result;
    }

    const uint64_t expected = shadowTag(*shadow, addr);
    if (expected != tag) {
        // Classify: if this pointer's own buffer is gone, the access is
        // temporal; otherwise the pointer strayed spatially.
        bool tag_live = access.space != MemSpace::Global;
        for (const auto& [base, rec] : live_)
            tag_live |= rec.first == tag;

        Fault fault;
        fault.address = addr;
        if (!tag_live) {
            fault.kind = FaultKind::UseAfterFree;
            fault.detail = "cuCatch: access through freed buffer's tag";
        } else {
            fault.kind = FaultKind::SpatialOverflow;
            fault.detail = "cuCatch: pointer/shadow tag mismatch";
        }
        result.fault = fault;
    }
    return result;
}

} // namespace lmi
