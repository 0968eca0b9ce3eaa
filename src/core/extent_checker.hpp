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

/** ec.* events counted apart from the registry: by one check(), or by
 *  one SM over a launch, then record()ed in one step. */
struct EcTally
{
    uint64_t checks = 0;
    uint64_t faults = 0;

    EcTally&
    operator+=(const EcTally& o)
    {
        checks += o.checks;
        faults += o.faults;
        return *this;
    }
};

/**
 * Functional model of the LSU-resident extent checker.
 *
 * checkLane() is const, so SM workers may check lanes concurrently; each
 * SM counts into its own EcTally, and the owner record()s their sum once
 * per launch.
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
        EcTally tally;
        tally.checks = 1;
        EcResult r = checkLane(ptr, cause, tally);
        record(tally);
        return r;
    }

    /**
     * check() for one lane of a warp. A fault goes to @p tally; the
     * checks do not: the warp adds its checked lanes once. A warp stops
     * at its first faulting lane, so ec.faults moves once per fault.
     */
    EcResult
    checkLane(uint64_t ptr, PoisonCause cause, EcTally& tally) const
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

        ++tally.faults;
        return {addr, poisonFault(addr, cause)};
    }

    /** Add @p tally to the ec.* counters; zero counts create none. */
    void
    record(const EcTally& tally)
    {
        if (!stats_)
            return;
        if (tally.checks)
            stats_->inc("ec.checks", tally.checks);
        if (tally.faults)
            stats_->inc("ec.faults", tally.faults);
    }

  private:
    /** The fault a dereference of a zero-extent pointer raises. */
    static Fault
    poisonFault(uint64_t addr, PoisonCause cause)
    {
        switch (cause) {
          case PoisonCause::Spatial:
            return {FaultKind::SpatialOverflow, addr,
                    "dereference of OCU-poisoned pointer"};
          case PoisonCause::Freed:
            return {FaultKind::UseAfterFree, addr,
                    "dereference of freed pointer"};
          case PoisonCause::ScopeExit:
            return {FaultKind::UseAfterScope, addr,
                    "dereference of out-of-scope stack pointer"};
          case PoisonCause::Unknown:
            break;
        }
        return {FaultKind::InvalidExtent, addr,
                "dereference of pointer with zero extent"};
    }

    StatRegistry* stats_;
    bool sub_extents_ = false;
};

} // namespace lmi
