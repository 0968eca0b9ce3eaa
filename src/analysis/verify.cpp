#include "analysis/verify.hpp"

#include <string>
#include <unordered_map>

#include "analysis/cfg.hpp"
#include "common/logging.hpp"

namespace lmi::analysis {

using namespace ir;

namespace {

/** Where a value is scheduled: block + position within the block. */
struct DefSite
{
    BlockId block = 0;
    size_t index = 0;
    bool scheduled = false;
};

class Verifier
{
  public:
    explicit Verifier(const IrFunction& f) : f_(f) {}

    std::vector<Diagnostic> run();

  private:
    void report(Severity sev, ValueId v, std::string msg)
    {
        diags_.push_back({sev, "verify", f_.name, v, std::move(msg)});
    }
    void error(ValueId v, std::string msg)
    {
        report(Severity::Error, v, std::move(msg));
    }
    void warning(ValueId v, std::string msg)
    {
        report(Severity::Warning, v, std::move(msg));
    }

    bool validValue(ValueId v) const
    {
        return v != kNoValue && v < f_.values.size();
    }
    /** All operand ids valid (reported elsewhere when not). */
    bool operandsValid(const IrInst& in) const
    {
        for (ValueId o : in.ops)
            if (!validValue(o))
                return false;
        return true;
    }
    const Type& typeOf(ValueId v) const { return f_.inst(v).type; }

    bool checkArity(ValueId v, const IrInst& in, size_t expected)
    {
        if (in.ops.size() == expected)
            return true;
        error(v, std::string(irOpName(in.op)) + " expects " +
                     std::to_string(expected) + " operands, has " +
                     std::to_string(in.ops.size()));
        return false;
    }

    void collectSchedule();
    void checkInst(ValueId v, const IrInst& in);
    void checkPhis(BlockId b);
    void checkDominance();

    const IrFunction& f_;
    std::vector<Diagnostic> diags_;
    std::vector<DefSite> defs_;
    Cfg cfg_;
};

void
Verifier::collectSchedule()
{
    defs_.assign(f_.values.size(), {});
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        const IrBlock& block = f_.blocks[b];
        if (block.insts.empty()) {
            report(Severity::Error, kNoValue,
                   "block " + block.label + " is empty");
            continue;
        }
        for (size_t i = 0; i < block.insts.size(); ++i) {
            const ValueId v = block.insts[i];
            if (!validValue(v)) {
                report(Severity::Error, kNoValue,
                       "block " + block.label + " schedules invalid value "
                       "id " + std::to_string(v));
                continue;
            }
            if (defs_[v].scheduled) {
                error(v, "value scheduled more than once (blocks " +
                             f_.blocks[defs_[v].block].label + " and " +
                             block.label + ")");
                continue;
            }
            defs_[v] = {b, i, true};
            const bool last = i + 1 == block.insts.size();
            if (isTerminator(f_.inst(v).op) != last)
                error(v, last ? "block " + block.label +
                                    " does not end in a terminator"
                              : "terminator in the middle of block " +
                                    block.label);
        }
    }
}

void
Verifier::checkPhis(BlockId b)
{
    const IrBlock& block = f_.blocks[b];
    bool seen_non_phi = false;
    for (size_t i = 0; i < block.insts.size(); ++i) {
        const ValueId v = block.insts[i];
        if (!validValue(v))
            continue;
        const IrInst& in = f_.inst(v);
        if (in.op != IrOp::Phi) {
            seen_non_phi = true;
            continue;
        }
        if (seen_non_phi)
            error(v, "phi does not lead block " + block.label +
                         " (the backend emits phi moves only for the "
                         "leading phi run)");
        if (b == 0)
            error(v, "phi in the entry block (it has no predecessors)");
        if (in.ops.size() != in.phi_blocks.size() || in.ops.empty()) {
            error(v, "malformed phi: " + std::to_string(in.ops.size()) +
                         " operands, " +
                         std::to_string(in.phi_blocks.size()) +
                         " incoming blocks");
            continue;
        }
        // Incoming blocks must exactly cover the CFG predecessors.
        std::unordered_map<BlockId, unsigned> incoming;
        for (size_t k = 0; k < in.phi_blocks.size(); ++k) {
            const BlockId pb = in.phi_blocks[k];
            if (pb >= f_.blocks.size()) {
                error(v, "phi incoming block id " + std::to_string(pb) +
                             " out of range");
                continue;
            }
            ++incoming[pb];
            if (validValue(in.ops[k]) &&
                !(typeOf(in.ops[k]) == in.type))
                error(v, "phi incoming %" + std::to_string(in.ops[k]) +
                             " has type " + typeOf(in.ops[k]).toString() +
                             ", phi has " + in.type.toString());
        }
        for (const auto& [pb, count] : incoming) {
            if (count > 1)
                error(v, "phi lists incoming block " +
                             f_.blocks[pb].label + " more than once");
            bool is_pred = false;
            for (BlockId p : cfg_.preds[b])
                is_pred |= p == pb;
            if (!is_pred)
                error(v, "phi incoming block " + f_.blocks[pb].label +
                             " is not a predecessor of " + block.label);
        }
        for (BlockId p : cfg_.preds[b])
            if (!incoming.count(p))
                error(v, "phi misses incoming value for predecessor " +
                             f_.blocks[p].label);
    }
}

void
Verifier::checkInst(ValueId v, const IrInst& in)
{
    for (ValueId o : in.ops)
        if (!validValue(o))
            error(v, std::string(irOpName(in.op)) +
                         " has invalid operand id " + std::to_string(o));
    if (!operandsValid(in))
        return; // deeper type checks would read out-of-range values
    for (ValueId o : in.ops)
        if (!defs_[o].scheduled)
            error(v, std::string(irOpName(in.op)) + " uses %" +
                         std::to_string(o) +
                         ", which no block schedules");

    // Comparison results exist only as predicate registers: the backend
    // cannot materialize them, so any non-branch use is fatal there.
    if (in.op != IrOp::Br)
        for (ValueId o : in.ops)
            if (f_.inst(o).op == IrOp::ICmp)
                error(v, std::string(irOpName(in.op)) + " consumes "
                             "comparison %" + std::to_string(o) +
                             " (icmp results may only guard branches)");

    switch (in.op) {
      case IrOp::ConstInt:
        if (!in.type.isInt())
            error(v, "const with non-integer type " + in.type.toString());
        break;
      case IrOp::ConstFloat:
        if (!in.type.isFloat())
            error(v, "fconst with non-float type " + in.type.toString());
        break;
      case IrOp::Param:
        if (in.imm < 0 || size_t(in.imm) >= f_.params.size())
            error(v, "param index " + std::to_string(in.imm) +
                         " out of range");
        else if (!(in.type == f_.params[size_t(in.imm)].type))
            error(v, "param type " + in.type.toString() +
                         " differs from declared " +
                         f_.params[size_t(in.imm)].type.toString());
        break;
      case IrOp::Alloca:
        if (in.imm <= 0)
            error(v, "alloca of non-positive size " +
                         std::to_string(in.imm));
        if (!in.type.isPtr())
            error(v, "alloca result is not a pointer");
        break;
      case IrOp::SharedRef: {
        bool found = false;
        for (const auto& [bname, sz] : f_.shared_buffers)
            found |= bname == in.name;
        if (!found)
            error(v, "sharedref to unknown buffer '" + in.name + "'");
        if (!in.type.isPtr())
            error(v, "sharedref result is not a pointer");
        break;
      }
      case IrOp::DynSharedRef:
        if (!in.type.isPtr())
            error(v, "dynsharedref result is not a pointer");
        break;

      case IrOp::Gep:
      case IrOp::PtrAddByte:
        if (!checkArity(v, in, 2))
            break;
        if (!typeOf(in.ops[0]).isPtr())
            error(v, std::string(irOpName(in.op)) +
                         " base is not a pointer");
        else if (!(in.type == typeOf(in.ops[0])))
            error(v, std::string(irOpName(in.op)) + " result type " +
                         in.type.toString() + " differs from base type " +
                         typeOf(in.ops[0]).toString());
        if (!typeOf(in.ops[1]).isInt())
            error(v, std::string(irOpName(in.op)) +
                         " index is not an integer");
        if (in.op == IrOp::Gep && typeOf(in.ops[0]).isPtr() &&
            typeOf(in.ops[0]).elem_size == 0)
            warning(v, "gep through pointer with zero element size "
                       "(index scaling degenerates to zero)");
        break;
      case IrOp::FieldGep:
        if (!checkArity(v, in, 1))
            break;
        if (!typeOf(in.ops[0]).isPtr())
            error(v, "fieldgep base is not a pointer");
        if (in.aux == 0)
            error(v, "fieldgep with zero field size");
        if (!in.type.isPtr())
            error(v, "fieldgep result is not a pointer");
        break;

      case IrOp::Load:
        if (!checkArity(v, in, 1))
            break;
        if (!typeOf(in.ops[0]).isPtr())
            error(v, "load address is not a pointer");
        if (in.type.isVoid())
            error(v, "load with void result type");
        break;
      case IrOp::Store:
        if (!checkArity(v, in, 2))
            break;
        if (!typeOf(in.ops[0]).isPtr())
            error(v, "store address is not a pointer");
        if (typeOf(in.ops[1]).isVoid())
            error(v, "store of a void value");
        break;

      case IrOp::AtomicRmw:
      case IrOp::AtomicCas:
      case IrOp::AtomicLoad:
      case IrOp::AtomicStore: {
        const size_t arity = in.op == IrOp::AtomicCas    ? 3
                             : in.op == IrOp::AtomicLoad ? 1
                                                         : 2;
        if (!checkArity(v, in, arity))
            break;
        if (!typeOf(in.ops[0]).isPtr()) {
            error(v, std::string(irOpName(in.op)) +
                         " address is not a pointer");
        } else {
            const MemSpace space = typeOf(in.ops[0]).space;
            if (space != MemSpace::Global && space != MemSpace::Shared)
                error(v, std::string(irOpName(in.op)) + " through " +
                             memSpaceName(space) + " memory (atomics "
                             "reach only global and shared memory)");
        }
        for (size_t k = 1; k < in.ops.size(); ++k)
            if (!typeOf(in.ops[k]).isInt())
                error(v, std::string(irOpName(in.op)) + " operand %" +
                             std::to_string(in.ops[k]) +
                             " has non-integer type " +
                             typeOf(in.ops[k]).toString());
        if (in.op == IrOp::AtomicStore) {
            if (hasAcquire(in.order))
                error(v, "atomicst with an acquire component (a store "
                         "can only release)");
            if (!in.type.isVoid())
                error(v, "atomicst with a result type");
        } else {
            if (in.op == IrOp::AtomicLoad && hasRelease(in.order))
                error(v, "atomicld with a release component (a load "
                         "can only acquire)");
            if (!in.type.isInt())
                error(v, std::string(irOpName(in.op)) +
                             " result is not an integer");
        }
        if (in.op == IrOp::AtomicRmw &&
            (in.aop == AtomicOp::Cas || in.aop == AtomicOp::Ld ||
             in.aop == AtomicOp::St))
            error(v, "atomicrmw with the ISA-internal operation '" +
                         std::string(atomicOpName(in.aop)) +
                         "' (use atomiccas/atomicld/atomicst)");
        break;
      }
      case IrOp::Fence:
        if (!checkArity(v, in, 0))
            break;
        if (in.order == MemOrder::Relaxed)
            error(v, "fence with relaxed ordering (orders nothing; "
                     "forbidden by the memory model)");
        break;

      case IrOp::IAdd:
      case IrOp::ISub: {
        if (!checkArity(v, in, 2))
            break;
        // Additive ops admit at most one pointer operand (lowered
        // pointer arithmetic); everything else must be integer.
        unsigned ptr_operands = 0;
        for (ValueId o : in.ops) {
            if (typeOf(o).isPtr())
                ++ptr_operands;
            else if (!typeOf(o).isInt())
                error(v, std::string(irOpName(in.op)) + " operand %" +
                             std::to_string(o) + " has non-integer type " +
                             typeOf(o).toString());
        }
        if (ptr_operands > 1)
            error(v, std::string(irOpName(in.op)) +
                         " with two pointer operands");
        if (ptr_operands == 1 && !in.type.isPtr())
            error(v, std::string(irOpName(in.op)) +
                         " on a pointer must produce a pointer");
        if (ptr_operands == 0 && !in.type.isInt())
            error(v, std::string(irOpName(in.op)) +
                         " result is not an integer");
        break;
      }
      case IrOp::IMul:
      case IrOp::IMin:
      case IrOp::IShl:
      case IrOp::IShr:
      case IrOp::IAnd:
      case IrOp::IOr:
      case IrOp::IXor:
        if (!checkArity(v, in, 2))
            break;
        for (ValueId o : in.ops)
            if (!typeOf(o).isInt())
                error(v, std::string(irOpName(in.op)) + " operand %" +
                             std::to_string(o) + " has non-integer type " +
                             typeOf(o).toString());
        if (!in.type.isInt())
            error(v, std::string(irOpName(in.op)) +
                         " result is not an integer");
        break;

      case IrOp::FBits:
        if (!checkArity(v, in, 1))
            break;
        if (!typeOf(in.ops[0]).isFloat())
            error(v, "fbits operand is not a float");
        if (!in.type.isInt())
            error(v, "fbits result is not an integer");
        break;

      case IrOp::FAdd:
      case IrOp::FMul:
      case IrOp::FFma:
      case IrOp::FRcp: {
        const size_t arity = in.op == IrOp::FFma   ? 3
                             : in.op == IrOp::FRcp ? 1
                                                   : 2;
        if (!checkArity(v, in, arity))
            break;
        for (ValueId o : in.ops)
            if (!typeOf(o).isFloat())
                error(v, std::string(irOpName(in.op)) + " operand %" +
                             std::to_string(o) + " has non-float type " +
                             typeOf(o).toString());
        if (!in.type.isFloat())
            error(v, std::string(irOpName(in.op)) +
                         " result is not a float");
        break;
      }

      case IrOp::ICmp:
        if (!checkArity(v, in, 2))
            break;
        if (typeOf(in.ops[0]).isFloat() != typeOf(in.ops[1]).isFloat())
            error(v, "icmp mixes float and integer operands");
        break;

      case IrOp::Br:
        if (!checkArity(v, in, 1))
            break;
        if (f_.inst(in.ops[0]).op != IrOp::ICmp)
            error(v, "br guard %" + std::to_string(in.ops[0]) +
                         " is not a comparison");
        if (in.tbb >= f_.blocks.size() || in.fbb >= f_.blocks.size())
            error(v, "br target out of range");
        break;
      case IrOp::Jump:
        if (in.tbb >= f_.blocks.size())
            error(v, "jump target out of range");
        break;
      case IrOp::Ret:
        if (f_.ret_type.isVoid()) {
            if (!in.ops.empty())
                error(v, "ret with a value in a void function");
        } else if (in.ops.size() != 1) {
            error(v, "ret without a value in a non-void function");
        } else if (!(typeOf(in.ops[0]) == f_.ret_type)) {
            error(v, "ret value type " + typeOf(in.ops[0]).toString() +
                         " differs from return type " +
                         f_.ret_type.toString());
        }
        break;

      case IrOp::Malloc:
        if (!checkArity(v, in, 1))
            break;
        if (!typeOf(in.ops[0]).isInt())
            error(v, "malloc size is not an integer");
        if (!in.type.isPtr())
            error(v, "malloc result is not a pointer");
        break;
      case IrOp::Free:
      case IrOp::ScopeEnd:
        if (!checkArity(v, in, 1))
            break;
        if (!typeOf(in.ops[0]).isPtr())
            error(v, std::string(irOpName(in.op)) +
                         " operand is not a pointer");
        break;

      case IrOp::Call:
        if (in.name.empty())
            error(v, "call without a callee name");
        break;

      case IrOp::Phi:      // checked block-wise in checkPhis()
      case IrOp::Barrier:
      case IrOp::IntToPtr: // analyzePointers enforces the LMI rules
      case IrOp::PtrToInt:
      case IrOp::Tid:
      case IrOp::CtaId:
      case IrOp::NTid:
      case IrOp::NCtaId:
      case IrOp::GlobalTid:
        break;
    }
}

void
Verifier::checkDominance()
{
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        if (!cfg_.reachable(b))
            continue;
        for (size_t i = 0; i < f_.blocks[b].insts.size(); ++i) {
            const ValueId v = f_.blocks[b].insts[i];
            if (!validValue(v))
                continue;
            const IrInst& in = f_.inst(v);
            if (!operandsValid(in))
                continue;
            if (in.op == IrOp::Phi) {
                // Each incoming value must dominate the tail of its
                // incoming edge, not the phi itself.
                if (in.ops.size() != in.phi_blocks.size())
                    continue;
                for (size_t k = 0; k < in.ops.size(); ++k) {
                    const ValueId o = in.ops[k];
                    if (!defs_[o].scheduled ||
                        in.phi_blocks[k] >= f_.blocks.size())
                        continue;
                    const BlockId db = defs_[o].block;
                    if (!cfg_.dominates(db, in.phi_blocks[k]))
                        error(v, "phi incoming %" + std::to_string(o) +
                                     " does not dominate edge from " +
                                     f_.blocks[in.phi_blocks[k]].label);
                }
                continue;
            }
            for (ValueId o : in.ops) {
                if (!defs_[o].scheduled)
                    continue;
                const DefSite& d = defs_[o];
                const bool ok =
                    d.block == b ? d.index < i
                                 : cfg_.dominates(d.block, b);
                if (!ok)
                    error(v, "use of %" + std::to_string(o) +
                                 " is not dominated by its definition "
                                 "(defined in " +
                                 f_.blocks[d.block].label + ")");
            }
        }
    }
}

std::vector<Diagnostic>
Verifier::run()
{
    if (f_.blocks.empty()) {
        report(Severity::Error, kNoValue, "function has no blocks");
        return std::move(diags_);
    }
    collectSchedule();
    cfg_ = Cfg::build(f_);

    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        if (!cfg_.reachable(b))
            report(Severity::Warning, kNoValue,
                   "block " + f_.blocks[b].label + " is unreachable");
        checkPhis(b);
        for (ValueId v : f_.blocks[b].insts)
            if (validValue(v))
                checkInst(v, f_.inst(v));
    }
    checkDominance();
    return std::move(diags_);
}

} // namespace

std::vector<Diagnostic>
verifyFunction(const IrFunction& f)
{
    return Verifier(f).run();
}

std::vector<Diagnostic>
verifyModule(const IrModule& m)
{
    std::vector<Diagnostic> diags;
    for (const auto& f : m.functions) {
        auto fd = verifyFunction(f);
        diags.insert(diags.end(), fd.begin(), fd.end());
        // Cross-function rules: calls resolve and arities match.
        for (const auto& block : f.blocks) {
            for (ValueId v : block.insts) {
                if (v == kNoValue || v >= f.values.size())
                    continue;
                const IrInst& in = f.inst(v);
                if (in.op != IrOp::Call)
                    continue;
                const IrFunction* callee = m.find(in.name);
                if (!callee) {
                    diags.push_back({Severity::Error, "verify", f.name, v,
                                     "call to unknown function '" +
                                         in.name + "'"});
                    continue;
                }
                if (in.ops.size() != callee->params.size())
                    diags.push_back(
                        {Severity::Error, "verify", f.name, v,
                         "call to '" + in.name + "' passes " +
                             std::to_string(in.ops.size()) +
                             " arguments, callee takes " +
                             std::to_string(callee->params.size())});
                if (!(in.type == callee->ret_type))
                    diags.push_back(
                        {Severity::Error, "verify", f.name, v,
                         "call result type " + in.type.toString() +
                             " differs from callee return type " +
                             callee->ret_type.toString()});
            }
        }
    }
    return diags;
}

void
verifyOrThrow(const IrFunction& f)
{
    for (const Diagnostic& d : verifyFunction(f))
        if (d.severity >= Severity::Error)
            lmi_fatal("%s", d.toString().c_str());
}

} // namespace lmi::analysis
