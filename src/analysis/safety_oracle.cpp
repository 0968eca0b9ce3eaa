#include "analysis/safety_oracle.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/cfg.hpp"

namespace lmi::analysis {

using namespace ir;

const char*
accessVerdictName(AccessVerdict v)
{
    switch (v) {
      case AccessVerdict::Unknown:      return "unknown";
      case AccessVerdict::ProvenSafe:   return "proven-safe";
      case AccessVerdict::SpatialOOB:   return "spatial-oob";
      case AccessVerdict::SubObjectOOB: return "subobject-oob";
      case AccessVerdict::TemporalUAF:  return "temporal-uaf";
    }
    return "?";
}

std::string
AccessWitness::describe() const
{
    std::ostringstream s;
    s << accessVerdictName(verdict);
    if (site != kNoValue) {
        s << ": site %" << site << " (" << site_size << " B), offset "
          << offset.toString() << ", width " << width;
        if (has_field)
            s << ", field [" << field_lo << ", " << field_lo + field_size
              << ")";
        if (within_padding)
            s << ", within pow2 padding";
        if (invalidated_by != kNoValue)
            s << ", invalidated by %" << invalidated_by;
    }
    return s.str();
}

namespace {

/** Temporal automaton state of one allocation site at one program
 *  point. Lattice: Bottom < {Live, Invalidated, Reallocated} < Top. */
enum class TState : uint8_t {
    Bottom,      ///< point not reached / site not yet allocated
    Live,        ///< allocated, not invalidated on any path
    Invalidated, ///< freed / scope-ended on every path
    Reallocated, ///< freed, and a later Malloc may have reused the chunk
    Top,         ///< paths disagree (e.g. freed in one branch only)
};

struct SiteState
{
    TState state = TState::Bottom;
    /** The Free/ScopeEnd that killed the site (dead states only).
     *  Joins keep the smallest id so witnesses are deterministic. */
    ValueId killed_by = kNoValue;

    bool operator==(const SiteState&) const = default;
};

bool
isDead(TState s)
{
    return s == TState::Invalidated || s == TState::Reallocated;
}

SiteState
joinState(const SiteState& a, const SiteState& b)
{
    if (a.state == TState::Bottom)
        return b;
    if (b.state == TState::Bottom)
        return a;
    SiteState out;
    out.killed_by = a.killed_by == kNoValue ? b.killed_by
                    : b.killed_by == kNoValue
                        ? a.killed_by
                        : std::min(a.killed_by, b.killed_by);
    if (a.state == b.state)
        out.state = a.state;
    else if (isDead(a.state) && isDead(b.state))
        out.state = TState::Invalidated; // dead either way
    else
        out.state = TState::Top; // Live vs dead, or Top involved
    if (out.state == TState::Live || out.state == TState::Top)
        out.killed_by = kNoValue;
    return out;
}

/** Field window [lo, lo + size) in absolute allocation-base bytes. */
struct FieldFact
{
    bool has = false;
    uint64_t lo = 0;
    uint64_t size = 0;

    bool operator==(const FieldFact&) const = default;
};

class Oracle
{
  public:
    Oracle(const IrFunction& f, const RangeAnalysis& ranges)
        : f_(f), cfg_(Cfg::build(f)), ranges_(ranges)
    {
    }

    SafetyOracleReport run();

  private:
    bool valid(ValueId v) const
    {
        return v != kNoValue && v < f_.values.size();
    }

    void collectSites();
    void computeFields();
    void solveTemporal();
    void applyTransfer(ValueId v, std::vector<SiteState>& state) const;
    void classify();
    AccessWitness classifyAccess(ValueId v,
                                 const std::vector<SiteState>& state) const;

    const IrFunction& f_;
    Cfg cfg_;
    /** Absolute offsets from the allocation base: field windows are
     *  the oracle's own (computeFields). */
    const RangeAnalysis& ranges_;

    /** Allocation sites (Alloca + Malloc ids) in program order. */
    std::vector<ValueId> sites_;
    std::unordered_map<ValueId, size_t> site_index_;
    std::vector<bool> site_is_heap_;

    /** Per-block entry state of every site. */
    std::vector<std::vector<SiteState>> block_in_;

    std::unordered_map<ValueId, FieldFact> fields_;

    SafetyOracleReport out_;
};

void
Oracle::collectSites()
{
    for (const auto& block : f_.blocks) {
        for (ValueId v : block.insts) {
            if (!valid(v))
                continue;
            const IrOp op = f_.inst(v).op;
            if (op == IrOp::Alloca || op == IrOp::Malloc) {
                site_index_[v] = sites_.size();
                sites_.push_back(v);
                site_is_heap_.push_back(op == IrOp::Malloc);
            }
        }
    }
}

/**
 * Field windows: FieldGep opens a window when its base's offset is an
 * exact constant (so the window's absolute position is known); derived
 * arithmetic carries the window along; phis keep a window only when
 * every incoming value agrees. Optimistic back edges + bounded
 * reiteration, same recipe as the range pass.
 */
void
Oracle::computeFields()
{
    for (unsigned iter = 0; iter < kFixpointPassBound; ++iter) {
        bool changed = false;
        for (BlockId b : cfg_.rpo) {
            for (ValueId v : f_.blocks[b].insts) {
                if (!valid(v))
                    continue;
                const IrInst& in = f_.inst(v);
                if (!in.type.isPtr())
                    continue;
                FieldFact fact;
                switch (in.op) {
                  case IrOp::FieldGep: {
                    auto base = ranges_.pointers.find(in.ops[0]);
                    if (base != ranges_.pointers.end() &&
                        base->second.known_site &&
                        base->second.offset.isConst() &&
                        base->second.offset.lo >= 0 && in.imm >= 0 &&
                        in.aux > 0) {
                        fact.has = true;
                        fact.lo = uint64_t(base->second.offset.lo) +
                                  uint64_t(in.imm);
                        fact.size = in.aux;
                    }
                    break;
                  }
                  case IrOp::Gep:
                  case IrOp::PtrAddByte: {
                    auto it = fields_.find(in.ops[0]);
                    if (it != fields_.end())
                        fact = it->second;
                    break;
                  }
                  case IrOp::IAdd:
                  case IrOp::ISub: {
                    for (ValueId o : in.ops)
                        if (valid(o) && f_.inst(o).type.isPtr()) {
                            auto it = fields_.find(o);
                            if (it != fields_.end())
                                fact = it->second;
                            break;
                        }
                    break;
                  }
                  case IrOp::Phi: {
                    bool any = false, agree = true;
                    FieldFact joined;
                    for (ValueId o : in.ops) {
                        auto it = fields_.find(o);
                        if (it == fields_.end())
                            continue; // optimistic back edge
                        if (!any)
                            joined = it->second;
                        else if (!(joined == it->second))
                            agree = false;
                        any = true;
                    }
                    if (any && agree)
                        fact = joined;
                    break;
                  }
                  default:
                    break;
                }
                auto old = fields_.find(v);
                if (old == fields_.end() || !(old->second == fact)) {
                    fields_[v] = fact;
                    changed = true;
                }
            }
        }
        if (!changed)
            break;
    }
}

/** Apply one instruction's temporal transfer to @p state in place. */
void
Oracle::applyTransfer(ValueId v, std::vector<SiteState>& state) const
{
    const IrInst& in = f_.inst(v);
    switch (in.op) {
      case IrOp::Alloca:
      case IrOp::Malloc: {
        const size_t self = site_index_.at(v);
        // A fresh execution of the site: Live when this is the first
        // (Bottom) or a plain re-execution of a live site. Once the
        // site has been freed, pointers to the previous instance and
        // the new one are indistinguishable under the allocation-site
        // abstraction, so the state degrades to Top rather than
        // resurrecting to Live (which would launder stale pointers
        // into ProvenSafe).
        if (state[self].state == TState::Bottom ||
            state[self].state == TState::Live)
            state[self] = {TState::Live, kNoValue};
        else
            state[self] = {TState::Top, kNoValue};
        if (in.op == IrOp::Malloc) {
            // The allocator may hand the freed chunk right back: every
            // other invalidated heap site becomes Reallocated.
            for (size_t s = 0; s < sites_.size(); ++s)
                if (s != self && site_is_heap_[s] &&
                    state[s].state == TState::Invalidated)
                    state[s].state = TState::Reallocated;
        }
        break;
      }
      case IrOp::Free: {
        if (in.ops.empty() || !valid(in.ops[0]))
            break;
        auto fact = ranges_.pointers.find(in.ops[0]);
        if (fact != ranges_.pointers.end() && fact->second.known_site) {
            auto idx = site_index_.find(fact->second.site);
            if (idx != site_index_.end() &&
                !isDead(state[idx->second].state))
                state[idx->second] = {TState::Invalidated, v};
        } else {
            // Freeing a pointer of unknown provenance may kill any
            // heap site.
            for (size_t s = 0; s < sites_.size(); ++s)
                if (site_is_heap_[s] && state[s].state != TState::Bottom)
                    state[s] = {TState::Top, kNoValue};
        }
        break;
      }
      case IrOp::ScopeEnd: {
        if (in.ops.empty() || !valid(in.ops[0]))
            break;
        auto idx = site_index_.find(in.ops[0]);
        if (idx != site_index_.end() && !isDead(state[idx->second].state))
            state[idx->second] = {TState::Invalidated, v};
        break;
      }
      default:
        break;
    }
}

void
Oracle::solveTemporal()
{
    block_in_.assign(f_.blocks.size(),
                     std::vector<SiteState>(sites_.size()));
    if (sites_.empty() || cfg_.rpo.empty())
        return;
    // Forward dataflow to fixpoint. The lattice has height 3 per site,
    // so convergence is quick; the cap is a safety valve only.
    const unsigned cap = kFixpointPassBound + unsigned(f_.blocks.size());
    for (unsigned iter = 0; iter < cap; ++iter) {
        bool changed = false;
        for (BlockId b : cfg_.rpo) {
            std::vector<SiteState> in(sites_.size());
            if (!cfg_.preds[b].empty()) {
                bool any = false;
                for (BlockId p : cfg_.preds[b]) {
                    // Compute the predecessor's exit state on the fly.
                    std::vector<SiteState> pe = block_in_[p];
                    for (ValueId v : f_.blocks[p].insts)
                        if (valid(v))
                            applyTransfer(v, pe);
                    if (!any) {
                        in = pe;
                        any = true;
                    } else {
                        for (size_t s = 0; s < sites_.size(); ++s)
                            in[s] = joinState(in[s], pe[s]);
                    }
                }
            }
            if (in != block_in_[b]) {
                block_in_[b] = std::move(in);
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

AccessWitness
Oracle::classifyAccess(ValueId v,
                       const std::vector<SiteState>& state) const
{
    const IrInst& in = f_.inst(v);
    AccessWitness w;
    w.access = v;

    const ValueId ptr = in.ops.empty() ? kNoValue : in.ops[0];
    if (!valid(ptr))
        return w;
    const Type& pt = f_.inst(ptr).type;
    w.width = pt.elem_size ? pt.elem_size : 4;

    auto fit = ranges_.pointers.find(ptr);
    if (fit == ranges_.pointers.end() || !fit->second.known_site) {
        if (fit != ranges_.pointers.end())
            w.offset = fit->second.offset;
        return w; // unknown provenance: nothing provable
    }
    const PointerFact& fact = fit->second;
    w.site = fact.site;
    w.site_size = fact.site_size;
    w.offset = fact.offset;
    auto ffit = fields_.find(ptr);
    if (ffit != fields_.end() && ffit->second.has) {
        w.has_field = true;
        w.field_lo = ffit->second.lo;
        w.field_size = ffit->second.size;
    }

    // Temporal first: an access through a provably dead site is a UAF
    // regardless of its offset.
    SiteState st;
    auto sit = site_index_.find(fact.site);
    if (sit != site_index_.end())
        st = state[sit->second];
    else
        st.state = TState::Live; // SharedRef sites: never invalidated
    if (isDead(st.state)) {
        w.verdict = AccessVerdict::TemporalUAF;
        w.invalidated_by = st.killed_by;
        return w;
    }

    const int64_t size = int64_t(fact.site_size);
    const int64_t width = int64_t(w.width);
    const Interval& off = fact.offset;

    // Provable spatial escape: every reachable offset puts some byte of
    // the access outside [0, site_size).
    if (off.hi < 0 || off.lo > size - width) {
        w.verdict = AccessVerdict::SpatialOOB;
        const int64_t padded =
            int64_t(kDefaultCodec.alignedSize(fact.site_size));
        w.within_padding =
            off.lo >= 0 && !off.isFull() && off.hi <= padded - width;
        return w;
    }

    // Provable field escape, inside the allocation: every reachable
    // offset puts some byte outside [field_lo, field_lo + field_size).
    if (w.has_field) {
        const int64_t flo = int64_t(w.field_lo);
        const int64_t fhi = int64_t(w.field_lo + w.field_size);
        if ((off.hi < flo || off.lo > fhi - width) &&
            off.within(0, size - width)) {
            w.verdict = AccessVerdict::SubObjectOOB;
            return w;
        }
    }

    // ProvenSafe: in-bounds, in-field, site provably live.
    const bool in_bounds = off.within(0, size - width);
    const bool in_field =
        !w.has_field ||
        off.within(int64_t(w.field_lo),
                   int64_t(w.field_lo + w.field_size) - width);
    if (in_bounds && in_field && st.state == TState::Live)
        w.verdict = AccessVerdict::ProvenSafe;
    return w;
}

void
Oracle::classify()
{
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        if (!cfg_.reachable(b))
            continue;
        std::vector<SiteState> state = block_in_[b];
        for (ValueId v : f_.blocks[b].insts) {
            if (!valid(v))
                continue;
            const IrInst& in = f_.inst(v);
            switch (in.op) {
              case IrOp::Load:
              case IrOp::Store:
              case IrOp::AtomicRmw:
              case IrOp::AtomicCas:
              case IrOp::AtomicLoad:
              case IrOp::AtomicStore: {
                AccessWitness w = classifyAccess(v, state);
                if (isViolationVerdict(w.verdict))
                    out_.diagnostics.push_back(
                        {Severity::Violation, "oracle", f_.name, v,
                         std::string(irOpName(in.op)) + ": " +
                             w.describe()});
                out_.accesses.emplace(v, std::move(w));
                break;
              }
              default:
                break;
            }
            applyTransfer(v, state);
        }
    }
}

SafetyOracleReport
Oracle::run()
{
    collectSites();
    computeFields();
    solveTemporal();
    classify();
    return std::move(out_);
}

} // namespace

SafetyOracleReport
analyzeSafety(const IrFunction& f, const RangeAnalysis& ranges)
{
    return Oracle(f, ranges).run();
}

} // namespace lmi::analysis
