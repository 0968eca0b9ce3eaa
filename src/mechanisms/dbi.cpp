#include "mechanisms/dbi.hpp"

#include "core/pointer.hpp"

namespace lmi {

// ---------------------------------------------------------------------
// memcheck
// ---------------------------------------------------------------------

Program
MemcheckMechanism::transformBinary(const Program& p)
{
    DbiOptions opts;
    opts.check_alu_instrs = kCheckAluInstrs;
    opts.check_mem_loads = kCheckMemLoads;
    return instrumentProgram(p, opts, &report_);
}

uint64_t
MemcheckMechanism::onHostAlloc(uint64_t ptr, uint64_t requested)
{
    tripwires_[ptr - kRedzone] = ptr;
    tripwires_[ptr + requested] = ptr + requested + kRedzone;
    return ptr;
}

MaybeFault
MemcheckMechanism::onHostFree(uint64_t ptr)
{
    // The freed block itself becomes a tripwire zone until reallocated.
    const AllocBlock* block = state_.global_alloc
                                  ? state_.global_alloc->findLive(
                                        PointerCodec::addressOf(ptr))
                                  : nullptr;
    if (block)
        tripwires_[block->base] = block->base + block->reserved;
    return std::nullopt;
}

WarpMemCheck
MemcheckMechanism::onMemAccesses(const MemAccess& access, uint64_t* addrs)
{
    return checkLanes(access, addrs, [&](uint64_t reg_value) {
        return checkLane(access, reg_value);
    });
}

MemCheck
MemcheckMechanism::checkLane(const MemAccess& access,
                             uint64_t reg_value) const
{
    MemCheck result;
    const uint64_t addr = reg_value + uint64_t(access.imm_offset);
    result.address = addr;

    if (access.space == MemSpace::Global) {
        auto it = tripwires_.upper_bound(addr);
        if (it != tripwires_.begin()) {
            --it;
            if (addr < it->second) {
                Fault fault;
                fault.kind = FaultKind::TripwireHit;
                fault.address = addr;
                fault.detail = "memcheck: access hit a red zone";
                result.fault = fault;
            }
        }
    } else if (access.space == MemSpace::Local) {
        // memcheck flags accesses outside the thread's mapped stack.
        if (addr < access.frame_base || addr >= access.stack_top) {
            Fault fault;
            fault.kind = FaultKind::TripwireHit;
            fault.address = addr;
            fault.detail = "memcheck: out-of-frame local access";
            result.fault = fault;
        }
    } else if (access.space == MemSpace::Shared) {
        if (addr + access.width > access.shared_limit) {
            Fault fault;
            fault.kind = FaultKind::TripwireHit;
            fault.address = addr;
            fault.detail = "memcheck: access beyond shared allocation";
            result.fault = fault;
        }
    }
    return result;
}

// ---------------------------------------------------------------------
// LMI by DBI
// ---------------------------------------------------------------------

Program
LmiDbiMechanism::transformBinary(const Program& p)
{
    DbiOptions opts;
    opts.instrument_pointer_ops = true;
    // NVBit cannot see the hint bits' dataflow precisely; the tool
    // conservatively instruments every integer ALU instruction whose
    // result could feed an address (paper §X-B: "tracked the registers
    // ... associated with these pointers").
    opts.instrument_all_int_ops = true;
    opts.check_alu_instrs = kCheckAluInstrs;
    opts.check_mem_loads = 0; // the extent check is metadata-free
    return instrumentProgram(p, opts, &report_);
}

void
LmiDbiMechanism::onIntResults(const Instruction& inst, uint32_t sm,
                              uint32_t mask, const uint64_t* ptr_in,
                              uint64_t* out)
{
    // Functionally identical to the OCU, but performed by the injected
    // instruction sequence: mask the unmodifiable bits and poison the
    // result when they changed.
    (void)inst;
    (void)sm;
    forEachLane(mask, [&](unsigned lane) {
        const uint64_t p = ptr_in[lane];
        const unsigned e = PointerCodec::extentOf(p);
        if (e == 0 || e >= kDebugExtentBase)
            out[lane] = PointerCodec::poison(out[lane], e);
        else if (((p ^ out[lane]) & kDefaultCodec.unmodifiableMask(e)) != 0)
            out[lane] = PointerCodec::poison(out[lane], kPoisonSpatial);
    });
}

WarpMemCheck
LmiDbiMechanism::onMemAccesses(const MemAccess& access, uint64_t* addrs)
{
    // The injected sequences perform the extent comparison in software;
    // functionally that is the same zero-extent test the EC does.
    return checkLanes(access, addrs, [&](uint64_t reg_value) {
        MemCheck result;
        result.address = PointerCodec::addressOf(reg_value) +
                         uint64_t(access.imm_offset);
        if (!PointerCodec::isDereferenceable(reg_value)) {
            Fault fault;
            fault.kind = PointerCodec::extentOf(reg_value) == kPoisonSpatial
                             ? FaultKind::SpatialOverflow
                             : FaultKind::InvalidExtent;
            fault.address = result.address;
            fault.detail = "lmi-dbi: zero-extent pointer dereference";
            result.fault = fault;
        }
        return result;
    });
}

} // namespace lmi
