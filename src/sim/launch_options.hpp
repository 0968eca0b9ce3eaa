/**
 * @file
 * Launch-time options for Device::launch — the single kernel entry
 * point. One LaunchOptions value carries everything that used to be
 * spread over the launchTraced/launchSanitized overload family plus the
 * execution-tier selection of the two-tier engine:
 *
 *  - ExecutionTier::Detailed — the cycle-level machine (Table IV
 *    timing, caches, GTO schedulers). Byte-identical for every
 *    sim_threads value; this is the reference tier every paper figure
 *    is measured on.
 *  - ExecutionTier::Functional — instructions execute with full
 *    architectural and protection-mechanism semantics (memory state,
 *    faults, OCU/LSU checks, race sanitizing) but no timing model, no
 *    cache hierarchy and no scheduler bookkeeping. RunResult::cycles
 *    degrades to an issue-bound lower-bound estimate.
 */

#pragma once

#include <cstdint>
#include <string>

namespace lmi {

class TraceRecorder;
class RaceSanitizer;
class MemEventLog;

/** Which engine tier executes the launch. */
enum class ExecutionTier : uint8_t {
    Detailed = 0,
    Functional = 1,
};

inline const char*
executionTierName(ExecutionTier tier)
{
    switch (tier) {
      case ExecutionTier::Detailed:   return "detailed";
      case ExecutionTier::Functional: return "functional";
    }
    return "?";
}

/** Parse "detailed" / "functional". @return false and
 *  leave @p out untouched on anything else. */
inline bool
parseExecutionTier(const std::string& name, ExecutionTier* out)
{
    if (name == "detailed") {
        *out = ExecutionTier::Detailed;
    } else if (name == "functional") {
        *out = ExecutionTier::Functional;
    } else {
        return false;
    }
    return true;
}

/** Empty and unread: kept only because perfbench/cell.cpp still assigns
 *  LaunchOptions::sampling. A later benchmark change deletes that line,
 *  then both `sampling` members, then this struct. */
struct SamplingParams
{
};

/**
 * Per-launch options. Everything defaults to the plain detailed launch,
 * so `dev.launch(kernel, grid, block, params)` keeps its historical
 * meaning; callers opt into tiers, tracing, sanitizing, dynamic shared
 * or dynamic shared memory by filling the relevant fields.
 */
struct LaunchOptions
{
    ExecutionTier tier = ExecutionTier::Detailed;
    /** Unused (see SamplingParams). */
    SamplingParams sampling;
    /** Dynamic shared memory requested for the launch, in bytes. */
    uint64_t dynamic_shared_bytes = 0;
    /** Optional instruction trace (NVBit-style capture). */
    TraceRecorder* trace = nullptr;
    /** Optional dynamic race sanitizer (purely observational). */
    RaceSanitizer* sanitizer = nullptr;
    /** Optional memory-transaction log feeding the weak-memory model
     *  checker (purely observational; pins the launch to one thread). */
    MemEventLog* memlog = nullptr;
};

} // namespace lmi
