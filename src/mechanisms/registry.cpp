#include "mechanisms/registry.hpp"

#include "common/logging.hpp"
#include "mechanisms/dbi.hpp"
#include "mechanisms/gpushield.hpp"
#include "mechanisms/lmi_mechanism.hpp"
#include "mechanisms/software.hpp"

namespace lmi {

const char*
mechanismKindName(MechanismKind kind)
{
    switch (kind) {
      case MechanismKind::Baseline:    return "baseline";
      case MechanismKind::Lmi:         return "lmi";
      case MechanismKind::LmiLiveness: return "lmi+liveness";
      case MechanismKind::LmiSubobject: return "lmi+subobject";
      case MechanismKind::LmiElide:    return "lmi+elide";
      case MechanismKind::GpuShield:   return "gpushield";
      case MechanismKind::BaggySw:     return "baggy-sw";
      case MechanismKind::Gmod:        return "gmod";
      case MechanismKind::CuCatch:     return "cucatch";
      case MechanismKind::MemcheckDbi: return "memcheck-dbi";
      case MechanismKind::LmiDbi:      return "lmi-dbi";
    }
    return "unknown";
}

const std::vector<MechanismKind>&
allMechanisms()
{
    static const std::vector<MechanismKind> all = {
        MechanismKind::Baseline,     MechanismKind::Lmi,
        MechanismKind::LmiLiveness,  MechanismKind::LmiSubobject,
        MechanismKind::LmiElide,     MechanismKind::GpuShield,
        MechanismKind::BaggySw,      MechanismKind::Gmod,
        MechanismKind::CuCatch,     MechanismKind::MemcheckDbi,
        MechanismKind::LmiDbi};
    return all;
}

bool
mechanismFromName(const std::string& name, MechanismKind* out)
{
    for (MechanismKind kind : allMechanisms()) {
        if (name == mechanismKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

std::unique_ptr<ProtectionMechanism>
makeMechanism(MechanismKind kind)
{
    switch (kind) {
      case MechanismKind::Baseline:
        return std::make_unique<BaselineMechanism>();
      case MechanismKind::Lmi:
        return std::make_unique<LmiMechanism>();
      case MechanismKind::LmiLiveness:
        return std::make_unique<LmiMechanism>(
            LmiMechanism::Options{LmiMechanism::Variant::Liveness});
      case MechanismKind::LmiSubobject:
        return std::make_unique<LmiMechanism>(
            LmiMechanism::Options{LmiMechanism::Variant::Subobject});
      case MechanismKind::LmiElide:
        return std::make_unique<LmiMechanism>(
            LmiMechanism::Options{LmiMechanism::Variant::Elide});
      case MechanismKind::GpuShield:
        return std::make_unique<GpuShieldMechanism>();
      case MechanismKind::BaggySw:
        return std::make_unique<BaggyBoundsMechanism>();
      case MechanismKind::Gmod:
        return std::make_unique<GmodMechanism>();
      case MechanismKind::CuCatch:
        return std::make_unique<CuCatchMechanism>();
      case MechanismKind::MemcheckDbi:
        return std::make_unique<MemcheckMechanism>();
      case MechanismKind::LmiDbi:
        return std::make_unique<LmiDbiMechanism>();
    }
    lmi_panic("unknown mechanism kind");
}

std::vector<MechanismKind>
hardwareComparisonMechanisms()
{
    return {MechanismKind::BaggySw, MechanismKind::GpuShield,
            MechanismKind::Lmi};
}

} // namespace lmi
