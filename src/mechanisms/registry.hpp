/**
 * @file
 * Mechanism registry: name-based construction of every protection
 * scheme the evaluation compares, so benches and examples can iterate
 * over mechanisms uniformly.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/mechanism.hpp"

namespace lmi {

/** All mechanisms the evaluation exercises. */
enum class MechanismKind {
    Baseline,    ///< unprotected
    Lmi,         ///< the paper's contribution (HW OCU + EC)
    LmiLiveness, ///< LMI + §XII-C pointer-liveness tracking
    LmiSubobject,///< LMI + intra-object sub-K extents (future work)
    LmiElide,    ///< LMI + static range analysis eliding proven checks
    GpuShield,   ///< region-based HW bounds checking (ISCA'22)
    BaggySw,     ///< software Baggy Bounds adapted to GPU
    Gmod,        ///< canary scheme (PACT'18)
    CuCatch,     ///< tag-based compiler scheme (PLDI'23)
    MemcheckDbi, ///< Compute Sanitizer memcheck (tripwire DBI)
    LmiDbi,      ///< LMI implemented via DBI
};

/** Human-readable mechanism name. */
const char* mechanismKindName(MechanismKind kind);

/**
 * Every mechanism the library implements, in enum order. The single
 * canonical list: tools and benches iterate this instead of keeping
 * their own copies.
 */
const std::vector<MechanismKind>& allMechanisms();

/** Parse a mechanismKindName() string; false if @p name is unknown. */
bool mechanismFromName(const std::string& name, MechanismKind* out);

/** Construct a fresh mechanism instance. */
std::unique_ptr<ProtectionMechanism> makeMechanism(MechanismKind kind);

/** The mechanisms of the Fig. 12 performance comparison. */
std::vector<MechanismKind> hardwareComparisonMechanisms();

} // namespace lmi
