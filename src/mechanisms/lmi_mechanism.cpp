#include "mechanisms/lmi_mechanism.hpp"

#include <algorithm>

#include "arch/mem_map.hpp"
#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace lmi {

LmiMechanism::LmiMechanism(Options options)
    : options_(options), sms_(1)
{
}

std::string
LmiMechanism::name() const
{
    switch (options_.variant) {
      case Variant::Plain:     return "lmi";
      case Variant::Liveness:  return "lmi+liveness";
      case Variant::Subobject: return "lmi+subobject";
      case Variant::Elide:     return "lmi+elide";
    }
    lmi_panic("unknown LMI variant");
}

void
LmiMechanism::bind(DeviceState state)
{
    ProtectionMechanism::bind(state);
    const bool subobject = options_.variant == Variant::Subobject;
    ocu_ = Ocu(state_.stats, subobject);
    ec_ = ExtentChecker(state_.stats, subobject);
    sms_.assign(state_.config ? std::max(1u, state_.config->num_sms) : 1,
                SmTally{});
    if (options_.variant == Variant::Liveness) {
        LivenessTracker::Config cfg;
        cfg.page_invalidate_opt = true;
        liveness_.emplace(cfg, state_.stats);
    }
}

CodegenOptions
LmiMechanism::codegenOptions() const
{
    CodegenOptions opts;
    opts.lmi = true;
    opts.subobject = options_.variant == Variant::Subobject;
    opts.elide_checks = options_.variant == Variant::Elide;
    return opts;
}

uint64_t
LmiMechanism::onHostAlloc(uint64_t ptr, uint64_t requested)
{
    (void)requested;
    if (liveness_)
        liveness_->onMalloc(ptr);
    return ptr;
}

MaybeFault
LmiMechanism::onHostFree(uint64_t ptr)
{
    if (liveness_)
        return liveness_->onFree(ptr);
    return std::nullopt;
}

void
LmiMechanism::onDeviceAlloc(uint64_t ptr, uint64_t requested)
{
    (void)requested;
    if (liveness_)
        liveness_->onMalloc(ptr);
}

MaybeFault
LmiMechanism::onDeviceFree(uint64_t ptr)
{
    if (liveness_)
        return liveness_->onFree(ptr);
    return std::nullopt;
}

void
LmiMechanism::onIntResults(const Instruction& inst, uint32_t sm,
                           uint32_t mask, const uint64_t* ptr_in,
                           uint64_t* out)
{
    SmTally& tally = sms_[sm < sms_.size() ? sm : 0];
    if (inst.hints.elide_check) {
        // The compiler proved these results bit-identical to the
        // checked ones; the OCU power-gates the check (E hint bit).
        tally.elided += uint64_t(popCount(mask));
        return;
    }
    // A local tally stays in registers; out[] could alias the SM's.
    OcuTally warp;
    forEachLane(mask, [&](unsigned lane) {
        out[lane] = ocu_.checkLane(ptr_in[lane], out[lane], warp).out;
    });
    tally.ocu += warp;
}

unsigned
LmiMechanism::extraIntLatency(const Instruction& inst) const
{
    // Elided checks skip the register-sliced OCU entirely, so the
    // result does not pay the extra latency.
    return inst.hints.active && !inst.hints.elide_check
               ? options_.ocu_latency
               : 0;
}

PoisonCause
LmiMechanism::classifyZeroExtent(const MemAccess& access,
                                 uint64_t reg_value) const
{
    // The hardware only sees a zero extent; classification uses the
    // allocator's ground truth the way a debugger (or the repurposed
    // debug extent encodings of §IV-A3) would.
    const uint64_t addr =
        PointerCodec::addressOf(reg_value) + uint64_t(access.imm_offset);
    if (access.space == MemSpace::Local)
        return PoisonCause::ScopeExit;
    if (access.space == MemSpace::Global) {
        if (inHeapRegion(addr)) {
            // Device-heap address: live chunk means the pointer strayed
            // spatially; a dead one means its buffer was freed.
            if (state_.heap_alloc && state_.heap_alloc->findLive(addr))
                return PoisonCause::Spatial;
            return PoisonCause::Freed;
        }
        if (state_.global_alloc) {
            const AllocBlock* block = state_.global_alloc->findAny(addr);
            if (block && !block->live)
                return PoisonCause::Freed;
        }
    }
    return PoisonCause::Spatial;
}

WarpMemCheck
LmiMechanism::onMemAccesses(const MemAccess& access, uint64_t* addrs)
{
    EcTally& tally = sms_[access.sm < sms_.size() ? access.sm : 0].ec;
    const WarpMemCheck r =
        checkLanes(access, addrs, [&](uint64_t reg_value) {
            MemCheck result;
            const EcResult ec = ec_.checkLane(
                reg_value,
                PointerCodec::extentOf(reg_value) == 0
                    ? classifyZeroExtent(access, reg_value)
                    : PoisonCause::Unknown,
                tally);
            result.address = ec.address + uint64_t(access.imm_offset);
            result.fault = ec.fault;
            if (result.fault)
                return result;

            // §XII-C: the membership check catches stale-but-valid
            // copies.
            if (liveness_ && access.space == MemSpace::Global &&
                !liveness_->isLive(reg_value)) {
                Fault fault;
                fault.kind = FaultKind::UseAfterFree;
                fault.address = result.address;
                fault.detail = "membership table: buffer no longer live "
                               "(copied-pointer UAF)";
                result.fault = fault;
            }
            return result;
        });
    tally.checks += r.lanes_checked;
    return r;
}

void
LmiMechanism::onKernelLaunch(const Program& p)
{
    (void)p;
    std::fill(sms_.begin(), sms_.end(), SmTally{});
}

std::vector<Fault>
LmiMechanism::onKernelEnd()
{
    SmTally sum;
    for (const SmTally& t : sms_) {
        sum.ocu += t.ocu;
        sum.ec += t.ec;
        sum.elided += t.elided;
    }
    ocu_.record(sum.ocu);
    ec_.record(sum.ec);
    if (state_.stats && sum.elided)
        state_.stats->inc("ocu.checks_elided", sum.elided);
    return {};
}

} // namespace lmi
