#include "compiler/pointer_analysis.hpp"

#include "common/logging.hpp"

namespace lmi {

using namespace ir;

PointerAnalysis
analyzePointers(const IrFunction& f, bool restrict_casts)
{
    PointerAnalysis result;

    auto reject = [&](ValueId v, std::string msg) {
        result.violations.push_back({analysis::Severity::Error, "lmi",
                                     f.name, v, std::move(msg)});
    };

    // Types are explicit in this IR, so pointer-typedness is a lookup
    // (LLVM's getType()->isPointerTy() walk in Fig. 8).
    auto isPointer = [&](ValueId v) { return f.inst(v).type.isPtr(); };

    for (ValueId v = 1; v < f.values.size(); ++v) {
        const IrInst& in = f.inst(v);
        switch (in.op) {
          case IrOp::Gep:
          case IrOp::PtrAddByte:
          case IrOp::FieldGep:
            // Base pointer is operand 0 by construction.
            result.pointer_ops[v] = {0};
            break;

          case IrOp::IAdd:
          case IrOp::ISub:
            // Lowered pointer arithmetic: exactly one pointer operand.
            for (unsigned i = 0; i < in.ops.size(); ++i) {
                if (isPointer(in.ops[i])) {
                    result.pointer_ops[v] = {i};
                    break;
                }
            }
            break;

          case IrOp::Phi:
            // Pointer-valued phis lower to register moves that the OCU
            // verifies as identity updates (paper: "IMOV").
            if (in.type.isPtr())
                result.pointer_ops[v] = {0};
            break;

          case IrOp::IntToPtr:
            if (restrict_casts)
                reject(v, "inttoptr of %" + std::to_string(in.ops[0]) +
                              " (immediate-value pointer assignment is "
                              "rejected, paper XII-B)");
            break;

          case IrOp::PtrToInt:
            if (restrict_casts)
                reject(v, "ptrtoint of %" + std::to_string(in.ops[0]) +
                              " (pointer laundering through integers is "
                              "rejected, paper XII-B)");
            break;

          case IrOp::Store:
            // LMI restricts storing pointers to memory (paper VI-A).
            if (isPointer(in.ops[1]))
                reject(v, "store of pointer %" + std::to_string(in.ops[1]) +
                              " to memory (unsupported; pointer would "
                              "escape OCU tracking)");
            break;

          case IrOp::Load:
            if (in.type.isPtr())
                reject(v, "load of pointer-typed value %" +
                              std::to_string(v) + " from memory "
                              "(unsupported)");
            break;

          default:
            break;
        }
    }
    return result;
}

} // namespace lmi
