/**
 * @file
 * Extent Checker (EC) in the load/store unit (paper §VII, §VIII, §XII-A).
 *
 * On every LD/ST through an LMI-protected pointer the EC inspects the
 * extent field:
 *
 *  - extent != 0: the access is structurally in-bounds (the OCU guaranteed
 *    every arithmetic step stayed inside the 2^n region), so the extent is
 *    stripped and the plain address is forwarded to the memory system;
 *  - extent == 0: the pointer was poisoned by the OCU (spatial overflow)
 *    or explicitly invalidated by free()/scope exit (temporal violation);
 *    the EC raises the fault — this is the "delayed termination" point.
 */

#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"

namespace lmi {

/** What a zero extent means, as recorded when the pointer was poisoned. */
enum class PoisonCause {
    /** Unknown: extent is zero with no recorded provenance. */
    Unknown,
    /** OCU cleared it after out-of-bounds pointer arithmetic. */
    Spatial,
    /** free()/cudaFree() cleared it. */
    Freed,
    /** Scope exit (function return) cleared it. */
    ScopeExit,
};

/** Result of one EC check. */
struct EcResult
{
    /** Plain address to send to the memory system (extent stripped). */
    uint64_t address;
    /** Fault raised, if any. */
    MaybeFault fault;
};

/**
 * Functional model of the LSU-resident extent checker.
 */
class ExtentChecker
{
  public:
    explicit ExtentChecker(StatRegistry* stats = nullptr,
                           bool sub_extents = false)
        : stats_(stats), sub_extents_(sub_extents)
    {
    }

    /**
     * Validate a pointer about to be dereferenced.
     *
     * @param ptr   the full 64-bit pointer (extent included)
     * @param cause provenance of a zero extent, used to classify the fault
     */
    EcResult
    check(uint64_t ptr, PoisonCause cause = PoisonCause::Unknown)
    {
        countChecks(1);
        return checkLane(ptr, cause);
    }

    /** Add @p n checks to ec.checks; zero creates no counter. */
    void
    countChecks(uint64_t n)
    {
        if (stats_ && n)
            checks_.bump(*stats_, "ec.checks", n);
    }

    /**
     * check() for one lane of a warp, without the ec.checks count: the
     * warp counts its lanes once through countChecks(). A warp stops at
     * its first faulting lane, so ec.faults still moves once per fault.
     */
    EcResult
    checkLane(uint64_t ptr, PoisonCause cause)
    {
        const uint64_t addr = PointerCodec::addressOf(ptr);
        if (PointerCodec::isDereferenceable(ptr))
            return {addr, std::nullopt};
        if (sub_extents_ && isSubExtent(PointerCodec::extentOf(ptr)))
            return {addr, std::nullopt};

        // A repurposed debug extent carries its own cause (§IV-A3).
        if (PointerCodec::isDebugExtent(ptr) &&
            PointerCodec::extentOf(ptr) == kPoisonSpatial)
            cause = PoisonCause::Spatial;

        if (stats_)
            faults_.bump(*stats_, "ec.faults");
        Fault fault;
        fault.address = addr;
        switch (cause) {
          case PoisonCause::Spatial:
            fault.kind = FaultKind::SpatialOverflow;
            fault.detail = "dereference of OCU-poisoned pointer";
            break;
          case PoisonCause::Freed:
            fault.kind = FaultKind::UseAfterFree;
            fault.detail = "dereference of freed pointer";
            break;
          case PoisonCause::ScopeExit:
            fault.kind = FaultKind::UseAfterScope;
            fault.detail = "dereference of out-of-scope stack pointer";
            break;
          case PoisonCause::Unknown:
            fault.kind = FaultKind::InvalidExtent;
            fault.detail = "dereference of pointer with zero extent";
            break;
        }
        return {addr, fault};
    }

  private:
    StatRegistry* stats_;
    StatSlot checks_;
    StatSlot faults_;
    bool sub_extents_ = false;
};

} // namespace lmi
