#include "compiler/codegen.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "analysis/range_analysis.hpp"
#include "analysis/verify.hpp"
#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "core/fault.hpp"

namespace lmi {

using namespace ir;

// ---------------------------------------------------------------------
// Inlining
// ---------------------------------------------------------------------

namespace {

/** Inline one call site; returns true if a call was found and expanded. */
bool
inlineOneCall(const IrModule& m, IrFunction& f, int depth)
{
    if (depth > 16)
        lmi_fatal("%s: call inlining exceeded depth 16 (recursion?)",
                  f.name.c_str());

    for (BlockId b = 0; b < f.blocks.size(); ++b) {
        auto& insts = f.blocks[b].insts;
        for (size_t k = 0; k < insts.size(); ++k) {
            const ValueId call_id = insts[k];
            if (f.inst(call_id).op != IrOp::Call)
                continue;

            const IrInst call = f.inst(call_id); // copy: arena may grow
            const IrFunction* callee = m.find(call.name);
            if (!callee)
                lmi_fatal("%s: call to unknown function '%s'",
                          f.name.c_str(), call.name.c_str());
            if (call.ops.size() != callee->params.size())
                lmi_fatal("%s: call to '%s' passes %zu args, expected %zu",
                          f.name.c_str(), call.name.c_str(),
                          call.ops.size(), callee->params.size());

            // --- Split the containing block at the call site. ----------
            const BlockId cont_bb = BlockId(f.blocks.size());
            f.blocks.push_back(
                IrBlock{f.blocks[b].label + ".cont", {}});
            auto& orig = f.blocks[b].insts; // re-take: vector moved
            std::vector<ValueId> tail(orig.begin() + k + 1, orig.end());
            orig.resize(k); // drop call + tail

            // --- Copy callee values with remapping. --------------------
            const BlockId block_base = BlockId(f.blocks.size());
            std::unordered_map<ValueId, ValueId> vmap;
            // Params map straight to the call arguments.
            // (Filled lazily below when Param insts are encountered.)

            std::vector<ValueId> callee_allocas;
            std::vector<std::pair<ValueId, BlockId>> ret_values;

            for (BlockId cb = 0; cb < callee->blocks.size(); ++cb) {
                f.blocks.push_back(IrBlock{
                    call.name + "." + callee->blocks[cb].label, {}});
            }

            for (BlockId cb = 0; cb < callee->blocks.size(); ++cb) {
                const BlockId nb = block_base + cb;
                for (ValueId cv : callee->blocks[cb].insts) {
                    const IrInst& cin = callee->inst(cv);

                    if (cin.op == IrOp::Param) {
                        // No copy: the argument value stands in.
                        vmap[cv] = call.ops[size_t(cin.imm)];
                        continue;
                    }

                    if (cin.op == IrOp::Ret) {
                        // Scope exits for callee allocas, then jump to the
                        // continuation.
                        for (ValueId av : callee_allocas) {
                            IrInst se;
                            se.op = IrOp::ScopeEnd;
                            se.type = Type::voidTy();
                            se.ops = {vmap.at(av)};
                            f.values.push_back(se);
                            f.blocks[nb].insts.push_back(
                                ValueId(f.values.size() - 1));
                        }
                        if (!cin.ops.empty())
                            ret_values.emplace_back(vmap.at(cin.ops[0]), nb);
                        IrInst jmp;
                        jmp.op = IrOp::Jump;
                        jmp.type = Type::voidTy();
                        jmp.tbb = cont_bb;
                        f.values.push_back(jmp);
                        f.blocks[nb].insts.push_back(
                            ValueId(f.values.size() - 1));
                        continue;
                    }

                    IrInst copy = cin;
                    for (ValueId& o : copy.ops)
                        o = vmap.at(o);
                    copy.tbb = cin.tbb + block_base;
                    copy.fbb = cin.fbb + block_base;
                    for (BlockId& pb : copy.phi_blocks)
                        pb += block_base;
                    if (copy.op == IrOp::SharedRef) {
                        // Shared buffers of the callee join the kernel's.
                        bool present = false;
                        for (const auto& [n, sz] : f.shared_buffers)
                            present |= n == copy.name;
                        if (!present) {
                            for (const auto& [n, sz] :
                                 callee->shared_buffers)
                                if (n == copy.name)
                                    f.shared_buffers.emplace_back(n, sz);
                        }
                    }
                    f.values.push_back(copy);
                    const ValueId nv = ValueId(f.values.size() - 1);
                    vmap[cv] = nv;
                    f.blocks[nb].insts.push_back(nv);
                    if (copy.op == IrOp::Alloca)
                        callee_allocas.push_back(cv);
                }
            }

            // --- Terminate the head block into the callee entry. -------
            {
                IrInst jmp;
                jmp.op = IrOp::Jump;
                jmp.type = Type::voidTy();
                jmp.tbb = block_base;
                f.values.push_back(jmp);
                f.blocks[b].insts.push_back(ValueId(f.values.size() - 1));
            }

            // --- Build the continuation. -------------------------------
            if (!call.type.isVoid()) {
                // The call's value id becomes a phi over the return
                // values so existing uses keep working.
                IrInst phi;
                phi.op = IrOp::Phi;
                phi.type = call.type;
                for (auto& [v, pb] : ret_values) {
                    phi.ops.push_back(v);
                    phi.phi_blocks.push_back(pb);
                }
                if (phi.ops.empty())
                    lmi_fatal("%s: non-void callee '%s' never returns a "
                              "value", f.name.c_str(), call.name.c_str());
                f.inst(call_id) = phi;
                f.blocks[cont_bb].insts.push_back(call_id);
            } else {
                // Neutralize the call record.
                IrInst nop;
                nop.op = IrOp::ConstInt;
                nop.type = Type::i64();
                f.inst(call_id) = nop;
                f.blocks[cont_bb].insts.push_back(call_id);
            }
            for (ValueId tv : tail)
                f.blocks[cont_bb].insts.push_back(tv);

            return true;
        }
    }
    return false;
}

} // namespace

IrFunction
inlineCalls(const IrModule& m, const IrFunction& kernel)
{
    IrFunction f = kernel;
    int depth = 0;
    while (inlineOneCall(m, f, depth))
        ++depth;
    return f;
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

namespace {

/** Third scratch register for the funnel-shift check sequence. */
constexpr unsigned kScratchReg2 = 249;

/** Fault-kind payload carried by TRAP for software checks. */
constexpr uint64_t kTrapSpatial = uint64_t(FaultKind::SpatialOverflow);

class Codegen
{
  public:
    Codegen(const IrFunction& f, const PointerAnalysis& pa,
            const CodegenOptions& opts)
        : f_(f), pa_(pa), opts_(opts)
    {
    }

    CompiledKernel run();

  private:
    // -- emission helpers ---------------------------------------------
    Instruction& emit(Instruction inst)
    {
        prog_.code.push_back(inst);
        return prog_.code.back();
    }

    Instruction make(Opcode op, int dst, Operand a = Operand::none(),
                     Operand b = Operand::none(),
                     Operand c = Operand::none())
    {
        Instruction i;
        i.op = op;
        i.dst = dst;
        i.src[0] = a;
        i.src[1] = b;
        i.src[2] = c;
        return i;
    }

    unsigned regOf(ValueId v);
    void allocateRegisters();
    int predOf(ValueId v);
    /** Load a 64-bit constant into @p reg (1 or 3 instructions). */
    void emitConst64(unsigned reg, uint64_t value);
    /** OR the extent for @p size into the pointer in @p reg. */
    void emitExtentEncode(unsigned reg, uint64_t size);
    /** Clear the extent field of @p reg (SHL 5; SHR 5). */
    void emitExtentNullify(unsigned reg);
    /** OR a 16-bit buffer-id tag into the pointer in @p reg. */
    void emitTagEncode(unsigned reg, uint64_t tag);
    /** Clear the tag bits of @p reg (SHL 16; SHR 16). */
    void emitTagNullify(unsigned reg);
    /** Software Baggy-Bounds check of in/out registers (11 insts). */
    void emitSwCheck(unsigned in_reg, unsigned out_reg);
    /** Software dereference-time extent validation (4 insts). */
    void emitSwDerefCheck(unsigned addr_reg);
    void lowerInst(ValueId v);
    void emitPhiMoves(BlockId pred, BlockId succ);
    OcuHints hintsFor(ValueId v, bool imad);

    const IrFunction& f_;
    const PointerAnalysis& pa_;
    const CodegenOptions& opts_;

    Program prog_;
    RegionLayout frame_;
    RegionLayout shared_;
    std::unordered_map<ValueId, unsigned> reg_of_;
    std::unordered_map<ValueId, int> pred_of_;
    int next_pred_ = 0;
    std::vector<int> block_start_;          // block -> instruction index
    std::vector<size_t> pending_branches_;  // insts with block-id targets
    int error_block_target_ = -1;           // sw_baggy error stub
    std::vector<size_t> error_branches_;
    BlockId cur_block_ = 0;
    std::unordered_map<std::string, uint64_t> buffer_tags_;
    uint64_t next_tag_ = 1;

    uint64_t
    tagForBuffer(const std::string& buf_name)
    {
        auto it = buffer_tags_.find(buf_name);
        if (it != buffer_tags_.end())
            return it->second;
        const uint64_t tag = next_tag_++;
        if (tag >= kHostTagBase)
            lmi_fatal("%s: out of static buffer tags", f_.name.c_str());
        buffer_tags_[buf_name] = tag;
        return tag;
    }
};

unsigned
Codegen::regOf(ValueId v)
{
    auto it = reg_of_.find(v);
    if (it == reg_of_.end())
        lmi_panic("%s: value %%%u has no register (allocator bug)",
                  f_.name.c_str(), v);
    return it->second;
}

void
Codegen::allocateRegisters()
{
    // Live intervals over the linearized block order. Positions are
    // per-instruction indices; phi data flow is accounted at the
    // incoming blocks' terminators (where the phi moves are emitted),
    // and values live across a loop back-edge are extended to the
    // latch so the register survives every iteration.
    std::unordered_map<ValueId, int> def_pos, last_pos;
    std::vector<ValueId> order;
    std::vector<int> block_start(f_.blocks.size(), 0);
    std::vector<int> block_end(f_.blocks.size(), 0);

    auto needs_reg = [&](ValueId v) {
        const IrInst& in = f_.inst(v);
        return !in.type.isVoid() && in.op != IrOp::ICmp;
    };

    int pos = 0;
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        block_start[b] = pos;
        for (ValueId v : f_.blocks[b].insts) {
            const IrInst& in = f_.inst(v);
            for (ValueId o : in.ops) {
                if (needs_reg(o)) {
                    auto it = last_pos.find(o);
                    if (it == last_pos.end())
                        last_pos[o] = pos;
                    else
                        it->second = std::max(it->second, pos);
                }
            }
            if (needs_reg(v) && !def_pos.count(v)) {
                def_pos[v] = pos;
                last_pos[v] = std::max(last_pos.count(v) ? last_pos[v]
                                                         : pos, pos);
                order.push_back(v);
            }
            ++pos;
        }
        block_end[b] = pos - 1;
    }

    // Phi edges: the move in predecessor P reads the incoming value and
    // writes the phi register at P's terminator.
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        for (ValueId v : f_.blocks[b].insts) {
            const IrInst& in = f_.inst(v);
            if (in.op != IrOp::Phi)
                continue;
            for (size_t i = 0; i < in.ops.size(); ++i) {
                const int edge = block_end[in.phi_blocks[i]];
                if (needs_reg(in.ops[i]))
                    last_pos[in.ops[i]] =
                        std::max(last_pos[in.ops[i]], edge);
                def_pos[v] = std::min(def_pos[v], edge);
                last_pos[v] = std::max(last_pos[v], edge);
            }
        }
    }

    // LMI return-time nullification touches every alloca register.
    if (opts_.lmi) {
        for (ValueId v : order)
            if (f_.inst(v).op == IrOp::Alloca)
                last_pos[v] = pos - 1;
    }

    // Back-edges: values defined before a loop header and still live
    // inside the loop must survive until the latch.
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        for (ValueId v : f_.blocks[b].insts) {
            const IrInst& in = f_.inst(v);
            if (in.op != IrOp::Br && in.op != IrOp::Jump)
                continue;
            for (BlockId target : {in.tbb, in.op == IrOp::Br ? in.fbb
                                                             : in.tbb}) {
                if (block_start[target] > block_end[b])
                    continue; // forward edge
                const int head = block_start[target];
                const int latch = block_end[b];
                for (auto& [value, last] : last_pos) {
                    if (def_pos.count(value) && def_pos[value] < head &&
                        last >= head && last < latch)
                        last = latch;
                }
            }
        }
    }

    // Linear scan with a round-robin (FIFO) free pool: a just-freed
    // register goes to the back of the queue, so reuse is spaced out
    // and write-after-write scoreboard stalls on long-latency producers
    // are avoided — the same policy production GPU compilers use.
    std::sort(order.begin(), order.end(), [&](ValueId a, ValueId b) {
        return def_pos[a] < def_pos[b];
    });
    std::deque<unsigned> free_regs;
    for (unsigned r = kFirstValueReg; r < kMaxValueReg; ++r)
        free_regs.push_back(r);
    std::multimap<int, unsigned> active; // last_pos -> reg
    for (ValueId v : order) {
        const int start = def_pos[v];
        while (!active.empty() && active.begin()->first < start) {
            free_regs.push_back(active.begin()->second);
            active.erase(active.begin());
        }
        if (free_regs.empty())
            lmi_fatal("%s: register pressure exceeds %u live values",
                      f_.name.c_str(), kMaxValueReg - kFirstValueReg);
        const unsigned reg = free_regs.front();
        free_regs.pop_front();
        reg_of_[v] = reg;
        active.emplace(last_pos[v], reg);
    }
}

int
Codegen::predOf(ValueId v)
{
    auto it = pred_of_.find(v);
    if (it != pred_of_.end())
        return it->second;
    // P7 is reserved for software checks.
    const int p = next_pred_;
    next_pred_ = (next_pred_ + 1) % int(kNumPredRegs - 1);
    pred_of_[v] = p;
    return p;
}

void
Codegen::emitConst64(unsigned reg, uint64_t value)
{
    if (value <= 0xFFFFFFFFull) {
        emit(make(Opcode::MOV, int(reg), Operand::imm(value)));
        return;
    }
    emit(make(Opcode::MOV, int(reg), Operand::imm(value >> 32)));
    emit(make(Opcode::SHL, int(reg), Operand::reg(reg), Operand::imm(32)));
    emit(make(Opcode::LOP_OR, int(reg), Operand::reg(reg),
              Operand::imm(value & 0xFFFFFFFFull)));
}

void
Codegen::emitExtentEncode(unsigned reg, uint64_t size)
{
    const unsigned e = kDefaultCodec.extentForSize(size);
    if (e == 0)
        lmi_fatal("%s: buffer of %llu bytes is not extent-encodable",
                  f_.name.c_str(), static_cast<unsigned long long>(size));
    emit(make(Opcode::MOV, kScratchReg0, Operand::imm(e)));
    emit(make(Opcode::SHL, kScratchReg0, Operand::reg(kScratchReg0),
              Operand::imm(kExtentShift)));
    emit(make(Opcode::LOP_OR, int(reg), Operand::reg(reg),
              Operand::reg(kScratchReg0)));
}

void
Codegen::emitExtentNullify(unsigned reg)
{
    emit(make(Opcode::SHL, int(reg), Operand::reg(reg),
              Operand::imm(kExtentBits)));
    emit(make(Opcode::SHR, int(reg), Operand::reg(reg),
              Operand::imm(kExtentBits)));
}

void
Codegen::emitTagEncode(unsigned reg, uint64_t tag)
{
    emit(make(Opcode::MOV, kScratchReg0, Operand::imm(tag)));
    emit(make(Opcode::SHL, kScratchReg0, Operand::reg(kScratchReg0),
              Operand::imm(kTagShift)));
    emit(make(Opcode::LOP_OR, int(reg), Operand::reg(reg),
              Operand::reg(kScratchReg0)));
}

void
Codegen::emitTagNullify(unsigned reg)
{
    // Replace the tag with the dead marker so the runtime can tell
    // "scope exited" apart from "never tracked".
    emit(make(Opcode::SHL, int(reg), Operand::reg(reg),
              Operand::imm(64 - kTagShift)));
    emit(make(Opcode::SHR, int(reg), Operand::reg(reg),
              Operand::imm(64 - kTagShift)));
    emit(make(Opcode::MOV, kScratchReg0, Operand::imm(kDeadTag)));
    emit(make(Opcode::SHL, kScratchReg0, Operand::reg(kScratchReg0),
              Operand::imm(kTagShift)));
    emit(make(Opcode::LOP_OR, int(reg), Operand::reg(reg),
              Operand::reg(kScratchReg0)));
}

void
Codegen::emitSwCheck(unsigned in_reg, unsigned out_reg)
{
    // Baggy Bounds' slowpath in plain SASS. Real GPU general registers
    // are 32 bits wide (the paper's Fig. 6 maps one pointer to two
    // physical registers), so each 64-bit step costs a hi/lo pair of
    // operations; the sequence below mirrors that cost model on our
    // 64-bit logical registers with explicit hi-word extraction.
    // 1-2: extract the extent from the high word.
    emit(make(Opcode::SHR, kScratchReg0, Operand::reg(in_reg),
              Operand::imm(32)));
    emit(make(Opcode::SHR, kScratchReg0, Operand::reg(kScratchReg0),
              Operand::imm(kExtentShift - 32)));
    // 3: derive the discard shift (modifiable bits).
    emit(make(Opcode::IADD, kScratchReg0, Operand::reg(kScratchReg0),
              Operand::imm(kDefaultCodec.minAllocLog2() - 1)));
    // 4-7: XOR hi/lo pairs of input and output.
    emit(make(Opcode::LOP_XOR, kScratchReg1, Operand::reg(in_reg),
              Operand::reg(out_reg)));
    emit(make(Opcode::SHR, kScratchReg2, Operand::reg(kScratchReg1),
              Operand::imm(32)));
    emit(make(Opcode::LOP_AND, kScratchReg1, Operand::reg(kScratchReg1),
              Operand::imm(0xFFFFFFFFull)));
    emit(make(Opcode::SHL, kScratchReg2, Operand::reg(kScratchReg2),
              Operand::imm(32)));
    // 8-9: funnel shift of the pair by the discard amount.
    emit(make(Opcode::LOP_OR, kScratchReg1, Operand::reg(kScratchReg1),
              Operand::reg(kScratchReg2)));
    emit(make(Opcode::SHR, kScratchReg1, Operand::reg(kScratchReg1),
              Operand::reg(kScratchReg0)));
    // 10-11: compare and branch to the error stub.
    Instruction setp = make(Opcode::ISETP, int(kNumPredRegs - 1),
                            Operand::reg(kScratchReg1), Operand::imm(0));
    setp.cmp = CmpOp::NE;
    emit(setp);
    Instruction bra = make(Opcode::BRA, -1);
    bra.guard_pred = int(kNumPredRegs - 1);
    emit(bra);
    error_branches_.push_back(prog_.code.size() - 1);
}

void
Codegen::emitSwDerefCheck(unsigned addr_reg)
{
    // Software schemes have no Extent Checker in the LSU: every
    // dereference re-validates the extent (nonzero, below debug range)
    // before the access.
    emit(make(Opcode::SHR, kScratchReg0, Operand::reg(addr_reg),
              Operand::imm(kExtentShift)));
    Instruction setp = make(Opcode::ISETP, int(kNumPredRegs - 1),
                            Operand::reg(kScratchReg0), Operand::imm(0));
    setp.cmp = CmpOp::EQ;
    emit(setp);
    Instruction bra = make(Opcode::BRA, -1);
    bra.guard_pred = int(kNumPredRegs - 1);
    emit(bra);
    error_branches_.push_back(prog_.code.size() - 1);
}

OcuHints
Codegen::hintsFor(ValueId v, bool imad)
{
    OcuHints h;
    auto it = pa_.pointer_ops.find(v);
    if (it == pa_.pointer_ops.end())
        return h;
    if (!opts_.lmi && !opts_.sw_baggy)
        return h;
    h.active = true;
    // S selects the pointer-carrying SASS operand: 0 = src0, 1 = the
    // trailing operand (src2 for IMAD, src1 otherwise).
    h.pointer_operand = imad ? 1 : (it->second.ptr_operand == 0 ? 0 : 1);
    h.elide_check = it->second.elide;
    return h;
}

void
Codegen::emitPhiMoves(BlockId pred, BlockId succ)
{
    for (ValueId v : f_.blocks[succ].insts) {
        const IrInst& in = f_.inst(v);
        if (in.op != IrOp::Phi)
            break; // phis lead the block
        for (size_t i = 0; i < in.ops.size(); ++i) {
            if (in.phi_blocks[i] != pred)
                continue;
            Instruction mov = make(Opcode::MOV, int(regOf(v)),
                                   Operand::reg(regOf(in.ops[i])));
            // Pointer-valued phi moves are verified like IMOV (§IV-A2).
            if (in.type.isPtr() && (opts_.lmi || opts_.sw_baggy)) {
                auto it = pa_.pointer_ops.find(v);
                mov.hints = {true, 0,
                             it != pa_.pointer_ops.end() &&
                                 it->second.elide};
            }
            emit(mov);
            if (opts_.sw_baggy && mov.hints.active &&
                !mov.hints.elide_check)
                emitSwCheck(regOf(in.ops[i]), regOf(v));
        }
    }
}

void
Codegen::lowerInst(ValueId v)
{
    const IrInst& in = f_.inst(v);
    switch (in.op) {
      case IrOp::ConstInt:
        emitConst64(regOf(v), uint64_t(in.imm));
        break;

      case IrOp::ConstFloat: {
        // FP values live in registers as the bit pattern of a double.
        uint64_t bits;
        const double d = in.fimm;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        emitConst64(regOf(v), bits);
        break;
      }

      case IrOp::Param:
        emit(make(Opcode::MOV, int(regOf(v)),
                  Operand::cbank(Program::kParamBase + 8 * in.imm)));
        break;

      case IrOp::Alloca: {
        const auto& slot = frame_.find("alloca_" + std::to_string(v));
        emit(make(Opcode::IADD, int(regOf(v)),
                  Operand::reg(kStackPtrReg),
                  Operand::imm(slot.offset)));
        if (opts_.lmi || opts_.sw_baggy)
            emitExtentEncode(regOf(v), uint64_t(in.imm));
        else if (opts_.buffer_id_tags)
            emitTagEncode(regOf(v), tagForBuffer("alloca_" +
                                                 std::to_string(v)));
        break;
      }

      case IrOp::SharedRef: {
        const auto& slot = shared_.find(in.name);
        emit(make(Opcode::MOV, int(regOf(v)), Operand::imm(slot.offset)));
        if (opts_.lmi || opts_.sw_baggy)
            emitExtentEncode(regOf(v), slot.requested);
        else if (opts_.buffer_id_tags)
            emitTagEncode(regOf(v), tagForBuffer(in.name));
        break;
      }

      case IrOp::DynSharedRef:
        // The driver prepares the (possibly extent-encoded) pool base
        // pointer in the constant bank at launch time (paper §IX-A:
        // coarse-grained protection for the dynamic pool as a whole).
        emit(make(Opcode::MOV, int(regOf(v)),
                  Operand::cbank(Program::kDynSharedOffset)));
        break;

      case IrOp::Gep: {
        Instruction imad = make(Opcode::IMAD, int(regOf(v)),
                                Operand::reg(regOf(in.ops[1])),
                                Operand::imm(f_.inst(in.ops[0]).type
                                                 .elem_size),
                                Operand::reg(regOf(in.ops[0])));
        imad.hints = hintsFor(v, /*imad=*/true);
        emit(imad);
        if (opts_.sw_baggy && imad.hints.active &&
            !imad.hints.elide_check)
            emitSwCheck(regOf(in.ops[0]), regOf(v));
        break;
      }

      case IrOp::FieldGep: {
        Instruction add = make(Opcode::IADD, int(regOf(v)),
                               Operand::reg(regOf(in.ops[0])),
                               Operand::imm(uint64_t(in.imm)));
        add.hints = hintsFor(v, false);
        emit(add);
        if (opts_.sw_baggy && add.hints.active && !add.hints.elide_check)
            emitSwCheck(regOf(in.ops[0]), regOf(v));
        if (opts_.lmi && opts_.subobject) {
            const unsigned sub = subExtentForSize(in.aux);
            if (sub != 0) {
                // Narrow the extent to the field: clear, then OR the
                // sub-K encoding (paper-future-work; uses the spare
                // debug encodings 27..30).
                emitExtentNullify(regOf(v));
                emit(make(Opcode::MOV, kScratchReg0, Operand::imm(sub)));
                emit(make(Opcode::SHL, kScratchReg0,
                          Operand::reg(kScratchReg0),
                          Operand::imm(kExtentShift)));
                emit(make(Opcode::LOP_OR, int(regOf(v)),
                          Operand::reg(regOf(v)),
                          Operand::reg(kScratchReg0)));
            }
            // Fields larger than 128 B (or non-pow2) keep the object's
            // extent — coarse protection, as base LMI provides.
        }
        break;
      }

      case IrOp::PtrAddByte: {
        Instruction add = make(Opcode::IADD, int(regOf(v)),
                               Operand::reg(regOf(in.ops[0])),
                               Operand::reg(regOf(in.ops[1])));
        add.hints = hintsFor(v, false);
        emit(add);
        if (opts_.sw_baggy && add.hints.active && !add.hints.elide_check)
            emitSwCheck(regOf(in.ops[0]), regOf(v));
        break;
      }

      case IrOp::Load:
      case IrOp::Store: {
        const Type& pt = f_.inst(in.ops[0]).type;
        Opcode op;
        switch (pt.space) {
          case MemSpace::Global: op = in.op == IrOp::Load ? Opcode::LDG
                                                          : Opcode::STG;
            break;
          case MemSpace::Shared: op = in.op == IrOp::Load ? Opcode::LDS
                                                          : Opcode::STS;
            break;
          case MemSpace::Local:  op = in.op == IrOp::Load ? Opcode::LDL
                                                          : Opcode::STL;
            break;
          default:
            lmi_fatal("%s: load/store to constant space", f_.name.c_str());
        }
        if (opts_.sw_baggy)
            emitSwDerefCheck(regOf(in.ops[0]));
        Instruction mem = make(op, in.op == IrOp::Load ? int(regOf(v)) : -1,
                               Operand::reg(regOf(in.ops[0])));
        if (in.op == IrOp::Store)
            mem.src[1] = Operand::reg(regOf(in.ops[1]));
        mem.width = uint8_t(pt.elem_size ? pt.elem_size : 4);
        emit(mem);
        break;
      }

      case IrOp::AtomicRmw:
      case IrOp::AtomicCas:
      case IrOp::AtomicLoad:
      case IrOp::AtomicStore: {
        const Type& pt = f_.inst(in.ops[0]).type;
        const bool shared = pt.space == MemSpace::Shared;
        if (pt.space != MemSpace::Global && pt.space != MemSpace::Shared)
            lmi_fatal("%s: atomic through %s memory", f_.name.c_str(),
                      memSpaceName(pt.space));
        if (opts_.sw_baggy)
            emitSwDerefCheck(regOf(in.ops[0]));
        Instruction mem;
        if (in.op == IrOp::AtomicCas) {
            mem = make(shared ? Opcode::CASS : Opcode::CASG,
                       int(regOf(v)), Operand::reg(regOf(in.ops[0])),
                       Operand::reg(regOf(in.ops[1])),
                       Operand::reg(regOf(in.ops[2])));
            mem.aop = AtomicOp::Cas;
        } else {
            mem = make(shared ? Opcode::ATOMS : Opcode::ATOMG,
                       in.op == IrOp::AtomicStore ? -1 : int(regOf(v)),
                       Operand::reg(regOf(in.ops[0])));
            if (in.op == IrOp::AtomicLoad) {
                mem.aop = AtomicOp::Ld;
            } else {
                mem.aop = in.op == IrOp::AtomicStore ? AtomicOp::St
                                                     : in.aop;
                mem.src[1] = Operand::reg(regOf(in.ops[1]));
            }
        }
        mem.scope = in.scope;
        mem.order = in.order;
        mem.width = uint8_t(pt.elem_size ? pt.elem_size : 4);
        emit(mem);
        break;
      }

      case IrOp::Fence: {
        Instruction membar = make(Opcode::MEMBAR, -1);
        membar.scope = in.scope;
        membar.order = in.order;
        emit(membar);
        break;
      }

      case IrOp::IAdd:
      case IrOp::ISub: {
        Instruction a = make(in.op == IrOp::IAdd ? Opcode::IADD
                                                 : Opcode::ISUB,
                             int(regOf(v)), Operand::reg(regOf(in.ops[0])),
                             Operand::reg(regOf(in.ops[1])));
        a.hints = hintsFor(v, false);
        emit(a);
        if (opts_.sw_baggy && a.hints.active && !a.hints.elide_check) {
            const unsigned ptr_in =
                regOf(in.ops[pa_.pointer_ops.at(v).ptr_operand]);
            emitSwCheck(ptr_in, regOf(v));
        }
        break;
      }

      case IrOp::IMul:
        emit(make(Opcode::IMUL, int(regOf(v)),
                  Operand::reg(regOf(in.ops[0])),
                  Operand::reg(regOf(in.ops[1]))));
        break;
      case IrOp::IMin:
        emit(make(Opcode::IMNMX, int(regOf(v)),
                  Operand::reg(regOf(in.ops[0])),
                  Operand::reg(regOf(in.ops[1]))));
        break;
      case IrOp::IShl:
      case IrOp::IShr:
      case IrOp::IAnd:
      case IrOp::IOr:
      case IrOp::IXor: {
        Opcode op = in.op == IrOp::IShl   ? Opcode::SHL
                    : in.op == IrOp::IShr ? Opcode::SHR
                    : in.op == IrOp::IAnd ? Opcode::LOP_AND
                    : in.op == IrOp::IOr  ? Opcode::LOP_OR
                                          : Opcode::LOP_XOR;
        emit(make(op, int(regOf(v)), Operand::reg(regOf(in.ops[0])),
                  Operand::reg(regOf(in.ops[1]))));
        break;
      }

      case IrOp::FAdd:
      case IrOp::FMul:
        emit(make(in.op == IrOp::FAdd ? Opcode::FADD : Opcode::FMUL,
                  int(regOf(v)), Operand::reg(regOf(in.ops[0])),
                  Operand::reg(regOf(in.ops[1]))));
        break;
      case IrOp::FFma:
        emit(make(Opcode::FFMA, int(regOf(v)),
                  Operand::reg(regOf(in.ops[0])),
                  Operand::reg(regOf(in.ops[1])),
                  Operand::reg(regOf(in.ops[2]))));
        break;
      case IrOp::FRcp:
        emit(make(Opcode::MUFU, int(regOf(v)),
                  Operand::reg(regOf(in.ops[0]))));
        break;

      case IrOp::FBits:
        // Registers are untyped 64-bit; the reinterpret is a plain MOV.
        emit(make(Opcode::MOV, int(regOf(v)),
                  Operand::reg(regOf(in.ops[0]))));
        break;

      case IrOp::ICmp: {
        Instruction setp = make(Opcode::ISETP, predOf(v),
                                Operand::reg(regOf(in.ops[0])),
                                Operand::reg(regOf(in.ops[1])));
        setp.cmp = in.cmp;
        emit(setp);
        break;
      }

      case IrOp::Br: {
        emitPhiMoves(cur_block_, in.tbb);
        emitPhiMoves(cur_block_, in.fbb);
        Instruction t = make(Opcode::BRA, -1);
        t.guard_pred = predOf(in.ops[0]);
        t.branch_target = int(in.tbb); // block id; fixed up later
        emit(t);
        pending_branches_.push_back(prog_.code.size() - 1);
        Instruction e = make(Opcode::BRA, -1);
        e.branch_target = int(in.fbb);
        emit(e);
        pending_branches_.push_back(prog_.code.size() - 1);
        break;
      }

      case IrOp::Jump: {
        emitPhiMoves(cur_block_, in.tbb);
        Instruction j = make(Opcode::BRA, -1);
        j.branch_target = int(in.tbb);
        emit(j);
        pending_branches_.push_back(prog_.code.size() - 1);
        break;
      }

      case IrOp::Ret:
        // Kernel-level return: nullify stack buffer pointers (their
        // lifetimes end) and terminate the thread.
        if (opts_.lmi) {
            for (ValueId av = 1; av < f_.values.size(); ++av)
                if (f_.inst(av).op == IrOp::Alloca && reg_of_.count(av))
                    emitExtentNullify(reg_of_.at(av));
        }
        emit(make(Opcode::EXIT, -1));
        break;

      case IrOp::Phi:
        // Register already assigned; moves happen on the edges.
        break;

      case IrOp::Barrier:
        emit(make(Opcode::BAR, -1));
        break;

      case IrOp::Malloc:
        emit(make(Opcode::MALLOC, int(regOf(v)),
                  Operand::reg(regOf(in.ops[0]))));
        break;

      case IrOp::Free:
        emit(make(Opcode::FREE, -1, Operand::reg(regOf(in.ops[0]))));
        // Temporal safety (§VIII): nullify the freed pointer's extent
        // right after the free() call. (Tagging schemes detect UAF via
        // shadow-tag unpainting instead, which also covers copies.)
        if (opts_.lmi)
            emitExtentNullify(regOf(in.ops[0]));
        break;

      case IrOp::ScopeEnd:
        // Use-after-scope protection: the callee's stack buffer died.
        if (opts_.lmi)
            emitExtentNullify(regOf(in.ops[0]));
        else if (opts_.buffer_id_tags)
            emitTagNullify(regOf(in.ops[0]));
        break;

      case IrOp::IntToPtr:
      case IrOp::PtrToInt:
        // Survived analysis only when casts are permitted (baseline).
        emit(make(Opcode::MOV, int(regOf(v)),
                  Operand::reg(regOf(in.ops[0]))));
        break;

      case IrOp::Call:
        lmi_panic("%s: call survived inlining", f_.name.c_str());

      case IrOp::Tid:
        emit(make(Opcode::S2R, int(regOf(v)),
                  Operand::special(SpecialReg::TidX)));
        break;
      case IrOp::CtaId:
        emit(make(Opcode::S2R, int(regOf(v)),
                  Operand::special(SpecialReg::CtaIdX)));
        break;
      case IrOp::NTid:
        emit(make(Opcode::S2R, int(regOf(v)),
                  Operand::special(SpecialReg::NTidX)));
        break;
      case IrOp::NCtaId:
        emit(make(Opcode::S2R, int(regOf(v)),
                  Operand::special(SpecialReg::NCtaIdX)));
        break;
      case IrOp::GlobalTid:
        emit(make(Opcode::S2R, int(regOf(v)),
                  Operand::special(SpecialReg::GlobalTid)));
        break;
    }
}

CompiledKernel
Codegen::run()
{
    prog_.name = f_.name;
    prog_.num_params = unsigned(f_.params.size());

    // --- Frame layout (paper Fig. 7). ------------------------------
    std::vector<BufferSpec> stack_specs;
    for (ValueId v = 1; v < f_.values.size(); ++v)
        if (f_.inst(v).op == IrOp::Alloca)
            stack_specs.push_back({"alloca_" + std::to_string(v),
                                   uint64_t(f_.inst(v).imm)});
    const AllocPolicy policy = (opts_.lmi || opts_.sw_baggy)
                                   ? AllocPolicy::Pow2Aligned
                                   : AllocPolicy::Packed;
    frame_ = layoutBuffers(stack_specs, policy);
    prog_.frame_bytes = frame_.total_bytes;
    for (const auto& p : frame_.buffers)
        prog_.frame_slots.push_back(
            {p.offset, p.requested, p.reserved,
             opts_.buffer_id_tags ? tagForBuffer(p.name) : 0});

    // --- Shared-memory layout (driver responsibility, §V-B). -------
    std::vector<BufferSpec> shared_specs;
    for (const auto& [n, sz] : f_.shared_buffers)
        shared_specs.push_back({n, sz});
    shared_ = layoutBuffers(shared_specs, policy);
    prog_.static_shared_bytes = shared_.total_bytes;
    for (const auto& p : shared_.buffers)
        prog_.shared_slots.push_back(
            {p.offset, p.requested, p.reserved,
             opts_.buffer_id_tags ? tagForBuffer(p.name) : 0});

    allocateRegisters();

    // --- Prologue: stack-pointer setup as in the paper's Fig. 7. ---
    emit(make(Opcode::MOV, kStackPtrReg,
              Operand::cbank(Program::kStackPtrOffset)));
    if (prog_.frame_bytes > 0)
        emit(make(Opcode::ISUB, kStackPtrReg, Operand::reg(kStackPtrReg),
                  Operand::imm(prog_.frame_bytes)));

    // --- Blocks. -----------------------------------------------------
    block_start_.assign(f_.blocks.size(), -1);
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        cur_block_ = b;
        block_start_[b] = int(prog_.code.size());
        for (ValueId v : f_.blocks[b].insts)
            lowerInst(v);
    }

    // Safety net: fall off the end -> EXIT.
    if (prog_.code.empty() || prog_.code.back().op != Opcode::EXIT)
        emit(make(Opcode::EXIT, -1));

    // --- Software-check error stub. --------------------------------
    if (!error_branches_.empty()) {
        error_block_target_ = int(prog_.code.size());
        Instruction trap = make(Opcode::TRAP, -1,
                                Operand::imm(kTrapSpatial));
        emit(trap);
        emit(make(Opcode::EXIT, -1));
    }

    // --- Branch fixups. ---------------------------------------------
    for (size_t idx : pending_branches_) {
        Instruction& bra = prog_.code[idx];
        bra.branch_target = block_start_[BlockId(bra.branch_target)];
    }
    for (size_t idx : error_branches_)
        prog_.code[idx].branch_target = error_block_target_;

    prog_.validate();

    CompiledKernel out;
    out.program = std::move(prog_);
    out.frame = frame_;
    return out;
}

/** Throw a CompileError naming @p pass when @p diags hold errors. */
void
rejectOnErrors(const std::string& kernel_name, const char* pass,
               const std::vector<analysis::Diagnostic>& diags)
{
    std::vector<analysis::Diagnostic> errs;
    for (const auto& d : diags)
        if (d.severity == analysis::Severity::Error)
            errs.push_back(d);
    if (errs.empty())
        return;
    std::string what = std::string(pass) + " rejected kernel '" +
                       kernel_name + "': " + errs.front().message;
    throw CompileError(std::move(what), std::move(errs));
}

} // namespace

CompiledKernel
compileKernel(const IrModule& m, const std::string& kernel_name,
              const CodegenOptions& opts)
{
    const IrFunction* kernel = m.find(kernel_name);
    if (!kernel)
        lmi_fatal("no kernel named '%s' in module", kernel_name.c_str());

    IrFunction flat = inlineCalls(m, *kernel);

    // The verifier gates every compile; later passes assume valid IR.
    rejectOnErrors(kernel_name, "static analysis",
                   analysis::verifyFunction(flat));

    const bool restrict_casts = opts.lmi || opts.sw_baggy;
    PointerAnalysis pa = analyzePointers(flat, restrict_casts);

    // Check elision: proven violations are compile errors, and proven-
    // safe ops get the E hint bit so the OCU power-gates their checks.
    if (opts.elide_checks) {
        const analysis::RangeAnalysis ranges = analysis::analyzeRanges(flat);
        rejectOnErrors(kernel_name, "static analysis", ranges.diagnostics);
        for (auto& [v, info] : pa.pointer_ops)
            if (auto it = ranges.safety.find(v);
                it != ranges.safety.end() &&
                it->second == analysis::SafetyClass::ProvenSafe)
                info.elide = true;
    }
    if (restrict_casts)
        rejectOnErrors(kernel_name, "LMI pass", pa.violations);

    Codegen cg(flat, pa, opts);
    return cg.run();
}

} // namespace lmi
