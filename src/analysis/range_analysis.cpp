#include "analysis/range_analysis.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/cfg.hpp"

namespace lmi::analysis {

using namespace ir;

namespace {

/** Saturate a 128-bit exact result; any 64-bit overflow -> full. */
bool
fits64(__int128 v)
{
    return v >= __int128(INT64_MIN) && v <= __int128(INT64_MAX);
}

Interval
exact(__int128 lo, __int128 hi)
{
    if (!fits64(lo) || !fits64(hi))
        return Interval::full();
    return {int64_t(lo), int64_t(hi)};
}

} // namespace

Interval
Interval::join(const Interval& o) const
{
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
}

Interval
Interval::widen(const Interval& next) const
{
    return {next.lo < lo ? INT64_MIN : lo, next.hi > hi ? INT64_MAX : hi};
}

Interval
Interval::add(const Interval& a, const Interval& b)
{
    if (a.isFull() || b.isFull())
        return full();
    return exact(__int128(a.lo) + b.lo, __int128(a.hi) + b.hi);
}

Interval
Interval::sub(const Interval& a, const Interval& b)
{
    if (a.isFull() || b.isFull())
        return full();
    return exact(__int128(a.lo) - b.hi, __int128(a.hi) - b.lo);
}

Interval
Interval::mul(const Interval& a, const Interval& b)
{
    if (a.isFull() || b.isFull())
        return full();
    const __int128 c[4] = {__int128(a.lo) * b.lo, __int128(a.lo) * b.hi,
                           __int128(a.hi) * b.lo, __int128(a.hi) * b.hi};
    return exact(*std::min_element(c, c + 4), *std::max_element(c, c + 4));
}

Interval
Interval::min_(const Interval& a, const Interval& b)
{
    return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval
Interval::shl(const Interval& a, const Interval& b)
{
    if (!b.isConst() || b.lo < 0 || b.lo > 62 || a.isFull())
        return full();
    const unsigned s = unsigned(b.lo);
    return exact(__int128(a.lo) << s, __int128(a.hi) << s);
}

Interval
Interval::shr(const Interval& a, const Interval& b)
{
    // The ALU shifts the 64-bit pattern logically; only a provably
    // non-negative operand keeps a meaningful signed reading.
    if (a.lo < 0)
        return full();
    if (b.isConst() && b.lo >= 0 && b.lo < 64)
        return {a.lo >> unsigned(b.lo), a.hi >> unsigned(b.lo)};
    return {0, a.hi};
}

Interval
Interval::and_(const Interval& a, const Interval& b)
{
    // x & m with a constant non-negative mask m lands in [0, m] no
    // matter what x is (including negative x).
    if (b.isConst() && b.lo >= 0)
        return {0, b.lo};
    if (a.isConst() && a.lo >= 0)
        return {0, a.lo};
    if (a.lo >= 0 && b.lo >= 0)
        return {0, std::min(a.hi, b.hi)};
    return full();
}

Interval
Interval::orLike(const Interval& a, const Interval& b)
{
    // OR/XOR of non-negative values stays below the next power of two
    // covering both operands.
    if (a.lo < 0 || b.lo < 0)
        return full();
    const uint64_t m = uint64_t(std::max(a.hi, b.hi));
    uint64_t bound = 1;
    while (bound <= m && bound < (uint64_t(1) << 62))
        bound <<= 1;
    return {0, int64_t(bound - 1)};
}

std::string
Interval::toString() const
{
    std::ostringstream s;
    s << "[";
    lo == INT64_MIN ? (s << "-inf") : (s << lo);
    s << ", ";
    hi == INT64_MAX ? (s << "+inf") : (s << hi);
    s << "]";
    return s.str();
}

namespace {

class RangePass
{
  public:
    explicit RangePass(const IrFunction& f) : f_(f) {}

    RangeAnalysis run();

  private:
    Interval intervalOf(ValueId v) const
    {
        auto it = out_.ranges.find(v);
        return it == out_.ranges.end() ? Interval::full() : it->second;
    }
    bool hasPtrFact(ValueId v) const { return out_.pointers.count(v) != 0; }
    PointerFact factOf(ValueId v) const
    {
        auto it = out_.pointers.find(v);
        return it == out_.pointers.end() ? PointerFact{} : it->second;
    }

    /** Index of the pointer operand of an additive op; -1 when none. */
    int ptrOperandOf(const IrInst& in) const
    {
        for (size_t i = 0; i < in.ops.size(); ++i)
            if (f_.inst(in.ops[i]).type.isPtr())
                return int(i);
        return -1;
    }

    /** True when @p in defines a value tracked in the pointer domain. */
    bool definesPointer(const IrInst& in) const
    {
        if (in.type.isPtr())
            return true;
        return (in.op == IrOp::IAdd || in.op == IrOp::ISub) &&
               ptrOperandOf(in) >= 0;
    }

    bool evalValue(ValueId v, unsigned iter);
    Interval evalInt(ValueId v, const IrInst& in, unsigned iter);
    PointerFact evalPtr(ValueId v, const IrInst& in, unsigned iter);
    PointerFact siteFact(ValueId v, uint64_t requested) const;
    void classify();
    void classifyOp(ValueId v, const IrInst& in, unsigned ptr_operand);

    const IrFunction& f_;
    RangeAnalysis out_;
};

PointerFact
RangePass::siteFact(ValueId v, uint64_t requested) const
{
    PointerFact fact;
    // Extents at or above kDebugExtentBase collide with the debug/poison
    // encoding: the OCU treats them as invalid input and poisons the
    // result, so no check on such a pointer may ever be elided.
    const unsigned e = requested ? kDefaultCodec.extentForSize(requested) : 0;
    if (e == 0 || e >= kDebugExtentBase)
        return fact; // saturated or poison-range extent: nothing provable
    fact.known_site = true;
    fact.site = v;
    fact.site_size = requested;
    fact.offset = Interval::of(0);
    return fact;
}

Interval
RangePass::evalInt(ValueId v, const IrInst& in, unsigned iter)
{
    auto op0 = [&] { return intervalOf(in.ops[0]); };
    auto op1 = [&] { return intervalOf(in.ops[1]); };
    switch (in.op) {
      case IrOp::ConstInt:
        return Interval::of(in.imm);
      case IrOp::Load:
        // 4-byte loads zero-extend into the 64-bit register.
        return in.type.kind == Type::Kind::I32
                   ? Interval::range(0, int64_t(0xFFFFFFFF))
                   : Interval::full();
      case IrOp::ICmp:
        return Interval::range(0, 1);
      case IrOp::IAdd: return Interval::add(op0(), op1());
      case IrOp::ISub: return Interval::sub(op0(), op1());
      case IrOp::IMul: return Interval::mul(op0(), op1());
      case IrOp::IMin: return Interval::min_(op0(), op1());
      case IrOp::IShl: return Interval::shl(op0(), op1());
      case IrOp::IShr: return Interval::shr(op0(), op1());
      case IrOp::IAnd: return Interval::and_(op0(), op1());
      case IrOp::IOr:
      case IrOp::IXor: return Interval::orLike(op0(), op1());
      case IrOp::Tid:
      case IrOp::CtaId:
      case IrOp::NTid:
      case IrOp::NCtaId:
      case IrOp::GlobalTid:
        return Interval::range(0, INT64_MAX);
      case IrOp::Phi: {
        bool any = false;
        Interval joined{};
        for (ValueId o : in.ops) {
            Interval inc;
            if (out_.ranges.count(o))
                inc = out_.ranges.at(o);
            else if (f_.inst(o).type.isInt() && !out_.pointers.count(o))
                continue; // not evaluated yet (optimistic back edge)
            else
                inc = Interval::full();
            joined = any ? joined.join(inc) : inc;
            any = true;
        }
        if (!any)
            return Interval::full();
        auto old = out_.ranges.find(v);
        if (old != out_.ranges.end() && iter >= 2)
            return old->second.widen(old->second.join(joined));
        return joined;
      }
      default:
        return Interval::full();
    }
}

PointerFact
RangePass::evalPtr(ValueId v, const IrInst& in, unsigned iter)
{
    switch (in.op) {
      case IrOp::Alloca:
        return siteFact(v, uint64_t(in.imm > 0 ? in.imm : 0));
      case IrOp::SharedRef:
        for (const auto& [bname, sz] : f_.shared_buffers)
            if (bname == in.name)
                return siteFact(v, sz);
        return {};
      case IrOp::Malloc: {
        const Interval size = intervalOf(in.ops[0]);
        if (size.isConst() && size.lo > 0)
            return siteFact(v, uint64_t(size.lo));
        return {};
      }
      case IrOp::Gep: {
        PointerFact fact = factOf(in.ops[0]);
        const uint32_t elem = f_.inst(in.ops[0]).type.elem_size;
        fact.offset = Interval::add(
            fact.offset,
            Interval::mul(intervalOf(in.ops[1]), Interval::of(elem)));
        return fact;
      }
      case IrOp::PtrAddByte: {
        PointerFact fact = factOf(in.ops[0]);
        fact.offset = Interval::add(fact.offset, intervalOf(in.ops[1]));
        return fact;
      }
      case IrOp::FieldGep: {
        // Whole-allocation extent: elision never runs in sub-object
        // mode, so a field pointer keeps its allocation's [0, A) proof.
        PointerFact fact = factOf(in.ops[0]);
        fact.offset = Interval::add(fact.offset, Interval::of(in.imm));
        return fact;
      }
      case IrOp::IAdd:
      case IrOp::ISub: {
        const int pi = ptrOperandOf(in);
        if (pi < 0)
            return {};
        if (in.op == IrOp::ISub && pi != 0)
            return {}; // integer minus pointer: not pointer arithmetic
        PointerFact fact = factOf(in.ops[size_t(pi)]);
        const Interval delta = intervalOf(in.ops[size_t(pi == 0 ? 1 : 0)]);
        fact.offset = in.op == IrOp::IAdd
                          ? Interval::add(fact.offset, delta)
                          : Interval::sub(fact.offset, delta);
        return fact;
      }
      case IrOp::Phi: {
        bool any = false;
        PointerFact joined;
        for (ValueId o : in.ops) {
            PointerFact inc;
            if (hasPtrFact(o))
                inc = factOf(o);
            else if (definesPointer(f_.inst(o)))
                continue; // optimistic: back edge not evaluated yet
            // else: a non-pointer incoming — unknown provenance
            if (!any) {
                joined = inc;
            } else if (joined.known_site && inc.known_site &&
                       joined.site == inc.site) {
                joined.offset = joined.offset.join(inc.offset);
            } else {
                joined = {};
            }
            any = true;
        }
        if (!any)
            return {};
        auto old = out_.pointers.find(v);
        if (old != out_.pointers.end() && iter >= 2 &&
            old->second.known_site && joined.known_site &&
            old->second.site == joined.site)
            joined.offset = old->second.offset.widen(
                old->second.offset.join(joined.offset));
        return joined;
      }
      default:
        // Param / DynSharedRef / IntToPtr / pointer loads: unknown.
        return {};
    }
}

bool
RangePass::evalValue(ValueId v, unsigned iter)
{
    const IrInst& in = f_.inst(v);
    for (ValueId o : in.ops)
        if (o == kNoValue || o >= f_.values.size())
            return false; // malformed: the verifier owns reporting
    if (definesPointer(in)) {
        PointerFact fact = evalPtr(v, in, iter);
        auto it = out_.pointers.find(v);
        if (it != out_.pointers.end() && it->second == fact)
            return false;
        out_.pointers[v] = fact;
        return true;
    }
    if (in.type.isInt()) {
        Interval range = evalInt(v, in, iter);
        auto it = out_.ranges.find(v);
        if (it != out_.ranges.end() && it->second == range)
            return false;
        out_.ranges[v] = range;
        return true;
    }
    return false;
}

void
RangePass::classifyOp(ValueId v, const IrInst& in, unsigned ptr_operand)
{
    // Delta of the operation: how far the result moves from the input
    // pointer. A provably-zero delta is an identity update — the result
    // is bit-identical to the input, so the check passes (or poison
    // passes through unchanged) for *any* input, any provenance.
    Interval delta = Interval::full();
    switch (in.op) {
      case IrOp::Gep:
        delta = Interval::mul(intervalOf(in.ops[1]),
                              Interval::of(f_.inst(in.ops[0])
                                               .type.elem_size));
        break;
      case IrOp::PtrAddByte:
        delta = intervalOf(in.ops[1]);
        break;
      case IrOp::FieldGep:
        delta = Interval::of(in.imm);
        break;
      case IrOp::IAdd:
        delta = intervalOf(in.ops[ptr_operand == 0 ? 1 : 0]);
        break;
      case IrOp::ISub:
        if (ptr_operand == 0)
            delta = Interval::sub(Interval::of(0),
                                  intervalOf(in.ops[1]));
        break;
      case IrOp::Phi:
        delta = Interval::of(0); // phi moves are register copies
        break;
      default:
        break;
    }

    if (delta.isConst() && delta.lo == 0) {
        out_.safety[v] = SafetyClass::ProvenSafe;
        return;
    }

    const PointerFact in_fact = factOf(in.ops[ptr_operand]);
    const PointerFact out_fact = factOf(v);
    if (in_fact.known_site && out_fact.known_site &&
        in_fact.site == out_fact.site) {
        const int64_t aligned =
            int64_t(kDefaultCodec.alignedSize(in_fact.site_size));
        if (in_fact.offset.within(0, aligned - 1)) {
            if (out_fact.offset.within(0, aligned - 1)) {
                out_.safety[v] = SafetyClass::ProvenSafe;
                return;
            }
            if (out_fact.offset.hi < 0 || out_fact.offset.lo >= aligned) {
                out_.safety[v] = SafetyClass::ProvenViolating;
                out_.diagnostics.push_back(
                    {Severity::Error, "range", f_.name, v,
                     std::string(irOpName(in.op)) + " provably escapes "
                     "its " + std::to_string(aligned) + "-byte extent "
                     "(offset " + out_fact.offset.toString() +
                     " from allocation %" + std::to_string(in_fact.site) +
                     "); the OCU check fails on every execution"});
                return;
            }
        }
    }
    out_.safety[v] = SafetyClass::Unknown;
}

void
RangePass::classify()
{
    for (const auto& block : f_.blocks) {
        for (ValueId v : block.insts) {
            if (v == kNoValue || v >= f_.values.size())
                continue;
            const IrInst& in = f_.inst(v);
            bool malformed = false;
            for (ValueId o : in.ops)
                malformed |= o == kNoValue || o >= f_.values.size();
            if (malformed)
                continue;
            // Mirror the pointer pass's hint classification exactly, so
            // every entry in PointerAnalysis::pointer_ops has a verdict.
            switch (in.op) {
              case IrOp::Gep:
              case IrOp::PtrAddByte:
              case IrOp::FieldGep:
                classifyOp(v, in, 0);
                break;
              case IrOp::IAdd:
              case IrOp::ISub: {
                const int pi = ptrOperandOf(in);
                if (pi >= 0)
                    classifyOp(v, in, unsigned(pi));
                break;
              }
              case IrOp::Phi:
                if (in.type.isPtr())
                    classifyOp(v, in, 0);
                break;
              default:
                break;
            }
        }
    }
}

RangeAnalysis
RangePass::run()
{
    const Cfg cfg = Cfg::build(f_);
    bool changed = true;
    for (unsigned iter = 0; iter < kFixpointPassBound && changed; ++iter) {
        changed = false;
        for (BlockId b : cfg.rpo)
            for (ValueId v : f_.blocks[b].insts)
                if (v != kNoValue && v < f_.values.size())
                    changed |= evalValue(v, iter);
    }
    if (changed) {
        // Safety valve: convergence failed within the pass bound, so
        // degrade every fact to top — never prove from a moving target.
        for (auto& [v, r] : out_.ranges)
            r = Interval::full();
        for (auto& [v, p] : out_.pointers)
            p = {};
    }
    classify();
    return std::move(out_);
}

} // namespace

RangeAnalysis
analyzeRanges(const IrFunction& f)
{
    return RangePass(f).run();
}

} // namespace lmi::analysis
