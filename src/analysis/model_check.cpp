#include "analysis/model_check.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "common/hash.hpp"

namespace lmi::analysis {

std::string
ModelCheckFault::toString() const
{
    const char* what = "?";
    switch (kind) {
      case Kind::UseAfterFreeLoad:  what = "load from freed memory"; break;
      case Kind::UseAfterFreeStore: what = "store into freed memory"; break;
      case Kind::DoubleFree:        what = "double free"; break;
      case Kind::InvalidFree:       what = "free of unallocated base"; break;
    }
    std::ostringstream os;
    os << what << " at 0x" << std::hex << addr << std::dec << " by thread "
       << gtid << " (pc " << pc << ")";
    return os.str();
}

std::string
ModelCheckRace::toString() const
{
    std::ostringstream os;
    os << (scope_mismatch ? "scope-mismatch race" : "data race")
       << " on 0x" << std::hex << addr << std::dec << ": thread " << gtid_a
       << " (pc " << pc_a << ") vs thread " << gtid_b << " (pc " << pc_b
       << ")";
    return os.str();
}

namespace {

using Kind = MemEvent::Kind;

inline uint64_t
bit(size_t i)
{
    return uint64_t(1) << i;
}

/** Does this event write memory when executed? */
inline bool
writesMemory(const MemEvent& e)
{
    switch (e.kind) {
      case Kind::Store: return true;
      case Kind::Rmw:   return e.aop != AtomicOp::Ld;
      case Kind::Cas:   return true; // may write
      default:          return false;
    }
    return false;
}

inline bool
readsMemory(const MemEvent& e)
{
    return e.kind == Kind::Load || e.kind == Kind::Rmw ||
           e.kind == Kind::Cas;
}

inline bool
isAccess(const MemEvent& e)
{
    return readsMemory(e) || e.kind == Kind::Store;
}

/** Acquire-ish events order everything po-after them. */
inline bool
ordersLater(const MemEvent& e)
{
    switch (e.kind) {
      case Kind::Load:
      case Kind::Rmw:
      case Kind::Cas:
      case Kind::Fence:
      case Kind::Barrier:
          return hasAcquire(e.order);
      default:
          return false;
    }
    return false;
}

/** Release-ish events order everything po-before them. */
inline bool
ordersEarlier(const MemEvent& e)
{
    switch (e.kind) {
      case Kind::Store:
      case Kind::Rmw:
      case Kind::Cas:
      case Kind::Fence:
      case Kind::Barrier:
          return hasRelease(e.order);
      default:
          return false;
    }
    return false;
}

inline bool
isHeap(const MemEvent& e)
{
    return e.kind == Kind::Malloc || e.kind == Kind::Free;
}

inline bool
rangesOverlap(uint64_t a, uint64_t wa, uint64_t b, uint64_t wb)
{
    return a < b + wb && b < a + wa;
}

/** One buffered (not yet globally visible) store. */
struct Buffered
{
    uint64_t val = 0;
    uint8_t cta = 0;   ///< dense CTA index of the issuing agent
    uint8_t aid = 0;   ///< dense address id
    uint8_t slot = 0;  ///< flush slot of the address
    uint8_t width = 4;
};

/** A heap range: live allocation or freed extent. */
struct HeapRange
{
    uint64_t base = 0;
    uint64_t size = 0;
};

/**
 * Full exploration state, one per DFS frame. Every field is a flat
 * vector: an array over dense ids or a short list. Copy-assigning a
 * child frame's state from its parent's reuses the child's capacity,
 * so it allocates nothing once the frame is warm.
 */
struct State
{
    uint64_t executed = 0;          ///< event bitmask
    std::vector<uint64_t> mem;      ///< M by address id (never written = 0)
    std::vector<uint64_t> view;     ///< n_ctas x n_addr CTA-local values
    std::vector<uint64_t> in_view;  ///< per CTA: address ids held in view
    std::vector<Buffered> buf;      ///< all store buffers, FIFO per CTA
    std::vector<HeapRange> live;    ///< allocated bases (distinct)
    std::vector<HeapRange> freed;   ///< in free order
    std::vector<uint64_t> watch_vals;
};

/** The live allocation at @p base, or live.end(). */
std::vector<HeapRange>::iterator
liveAt(State& st, uint64_t base)
{
    return std::find_if(st.live.begin(), st.live.end(),
                        [&](const HeapRange& r) { return r.base == base; });
}

/** One DFS depth: the state reached there and its transitions. */
struct Frame
{
    State st;
    std::vector<uint64_t> trans; ///< enabled transitions, in order
};

/** Hash of a packed state key (equality stays exact). */
struct KeyHash
{
    size_t operator()(const std::vector<uint64_t>& key) const
    {
        return size_t(Fnv1a().bytes(key.data(), key.size() * 8).value());
    }
};

class Checker
{
  public:
    Checker(const std::vector<MemEvent>& log, const ModelCheckConfig& cfg)
        : log_(log), cfg_(cfg)
    {
    }

    ModelCheckReport run();

  private:
    // --- preprocessing -------------------------------------------------
    void buildAgents();
    void buildPpo();
    void buildWatch();
    void buildAddresses();
    void buildFrames();

    // --- operational model ---------------------------------------------
    uint64_t readView(const State& st, uint32_t cta, uint8_t aid,
                      unsigned width) const;
    void writeView(State& st, uint32_t cta, uint8_t aid,
                   uint64_t val) const;
    void drain(State& st, uint32_t cta) const;
    void flushSlot(State& st, uint32_t cta, uint8_t slot) const;
    void buffer(State& st, size_t e, uint64_t val) const;
    void checkAccess(const State& st, size_t e, bool is_write);
    void execEvent(State& st, size_t e);
    void applyFlush(State& st, uint64_t id) const;

    // --- exploration ----------------------------------------------------
    void enabled(const State& st, std::vector<uint64_t>& out) const;
    void apply(State& st, uint64_t id);
    void pack(const State& st, std::vector<uint64_t>& key) const;
    void explore(size_t depth);

    // --- witness race pass ----------------------------------------------
    void racePass();

    void addFault(ModelCheckFault::Kind kind, uint64_t addr, size_t e);

    const std::vector<MemEvent>& log_;
    const ModelCheckConfig& cfg_;
    ModelCheckReport report_;

    size_t n_ = 0;
    std::vector<uint32_t> cta_;            ///< event -> dense cta idx
    size_t n_agents_ = 0, n_ctas_ = 0;
    std::vector<std::vector<size_t>> agent_evs_; ///< program order
    std::vector<uint64_t> pred_;           ///< ppo predecessor masks
    std::vector<int> watch_slot_;          ///< event -> outcome slot or -1
    size_t n_watch_ = 0;
    size_t n_addr_ = 0;                    ///< distinct event addresses
    std::vector<uint8_t> addr_id_;         ///< event -> dense address id
    /** Bufferable addresses, numbered in first-appearance order. */
    std::vector<uint8_t> flush_slot_;      ///< event -> slot or kNoSlot
    std::vector<uint64_t> slot_addr_;      ///< slot -> address
    std::vector<Frame> frames_;            ///< DFS depth -> frame
    /** Packed keys of the non-final states the DFS entered. */
    std::unordered_set<std::vector<uint64_t>, KeyHash> visited_;
    std::vector<uint64_t> key_;            ///< scratch key for pack()
    std::set<std::tuple<int, uint64_t, uint64_t>> fault_keys_;
    std::set<std::tuple<uint64_t, uint64_t, uint64_t>> race_keys_;

    /** Transition ids: [0, kMaxModelEvents) execute event i;
     *  kMaxModelEvents + cta * |flush slots| + a flush slot. */
    static constexpr uint64_t kFlushBase = kMaxModelEvents;
    /** Flush slot of an address no event can buffer. */
    static constexpr uint8_t kNoSlot = 0xff;
};

void
Checker::buildAgents()
{
    n_ = log_.size();
    std::vector<uint32_t> agent(n_);
    cta_.resize(n_);
    std::map<uint32_t, uint32_t> agents, ctas;
    for (size_t i = 0; i < n_; ++i) {
        agent[i] =
            agents.emplace(log_[i].gtid, uint32_t(agents.size())).first->second;
        cta_[i] =
            ctas.emplace(log_[i].block, uint32_t(ctas.size())).first->second;
    }
    n_agents_ = agents.size();
    n_ctas_ = ctas.size();
    agent_evs_.assign(n_agents_, {});
    for (size_t i = 0; i < n_; ++i)
        agent_evs_[agent[i]].push_back(i);
    for (auto& evs : agent_evs_)
        std::stable_sort(evs.begin(), evs.end(), [&](size_t a, size_t b) {
            return log_[a].seq < log_[b].seq;
        });
}

void
Checker::buildPpo()
{
    pred_.assign(n_, 0);

    // Per-agent preserved program order.
    for (const auto& evs : agent_evs_) {
        for (size_t j = 1; j < evs.size(); ++j) {
            const MemEvent& ej = log_[evs[j]];
            for (size_t i = 0; i < j; ++i) {
                const MemEvent& ei = log_[evs[i]];
                bool edge = false;
                if (isHeap(ei) || isHeap(ej))
                    edge = true; // heap protocol events stay put
                else if (ordersLater(ei) || ordersEarlier(ej))
                    edge = true;
                else if (isAccess(ei) && isAccess(ej) &&
                         rangesOverlap(ei.addr, ei.width, ej.addr,
                                       ej.width))
                    edge = true; // per-location coherence
                if (edge)
                    pred_[evs[j]] |= bit(evs[i]);
            }
        }
    }

    // Barrier rendezvous: an event po-after its agent's k-th barrier
    // waits for *every* logging agent of the CTA to reach barrier k.
    // (Logged barrier events carry the warp leader's gtid, so "agent"
    // here means warp leader — exact for one-lane litmus warps.)
    std::map<std::pair<uint32_t, size_t>, uint64_t> round; // (cta,k)->mask
    std::vector<size_t> bars_before(n_, 0);
    for (const auto& evs : agent_evs_) {
        size_t k = 0;
        for (size_t e : evs) {
            bars_before[e] = k;
            if (log_[e].kind == Kind::Barrier)
                round[{cta_[e], k++}] |= bit(e);
        }
    }
    for (const auto& evs : agent_evs_)
        for (size_t e : evs)
            for (size_t k = 0; k < bars_before[e]; ++k)
                if (auto it = round.find({cta_[e], k}); it != round.end())
                    pred_[e] |= it->second & ~bit(e);
}

void
Checker::buildWatch()
{
    watch_slot_.assign(n_, -1);
    std::vector<size_t> picks = cfg_.watch;
    if (picks.empty()) {
        // Default: every atomic load, in (agent, program order) order.
        for (const auto& evs : agent_evs_)
            for (size_t e : evs)
                if (log_[e].kind == Kind::Load && log_[e].is_atomic)
                    picks.push_back(e);
    }
    for (size_t e : picks)
        if (e < n_ && watch_slot_[e] < 0)
            watch_slot_[e] = int(n_watch_++);
}

/**
 * Dense ids for every event's address (at most kMaxModelEvents), and
 * flush slots for the bufferable ones: stores and cta-scope RMW/CAS,
 * numbered by first appearance in the log.
 */
void
Checker::buildAddresses()
{
    std::map<uint64_t, uint8_t> ids, slots;
    addr_id_.resize(n_);
    for (size_t i = 0; i < n_; ++i)
        addr_id_[i] =
            ids.emplace(log_[i].addr, uint8_t(ids.size())).first->second;
    n_addr_ = ids.size();

    for (size_t i = 0; i < n_; ++i) {
        const MemEvent& e = log_[i];
        const bool bufferable =
            e.kind == Kind::Store ||
            ((e.kind == Kind::Rmw || e.kind == Kind::Cas) &&
             uint8_t(e.scope) < uint8_t(MemScope::Gpu));
        if (bufferable && slots.emplace(e.addr, uint8_t(slots.size())).second)
            slot_addr_.push_back(e.addr);
    }
    flush_slot_.assign(n_, kNoSlot);
    for (size_t i = 0; i < n_; ++i)
        if (auto it = slots.find(log_[i].addr); it != slots.end())
            flush_slot_[i] = it->second;
}

/**
 * One frame per DFS depth. A path executes each of the n events once
 * and flushes each buffered store (at most one per event) once, so it
 * is at most 2n transitions long. Frames are sized up front so
 * references stay valid across the recursion.
 */
void
Checker::buildFrames()
{
    frames_.resize(2 * n_ + 2);
    for (Frame& f : frames_) {
        f.st.mem.assign(n_addr_, 0);
        f.st.view.assign(n_ctas_ * n_addr_, 0);
        f.st.in_view.assign(n_ctas_, 0);
        f.st.buf.reserve(n_);
        f.st.live.reserve(n_);
        f.st.freed.reserve(n_);
        f.st.watch_vals.assign(n_watch_, 0);
        f.trans.reserve(2 * n_);
    }
}

uint64_t
Checker::readView(const State& st, uint32_t cta, uint8_t aid,
                  unsigned width) const
{
    if (st.in_view[cta] & bit(aid))
        return maskToWidth(st.view[cta * n_addr_ + aid], width);
    return maskToWidth(st.mem[aid], width);
}

void
Checker::writeView(State& st, uint32_t cta, uint8_t aid,
                   uint64_t val) const
{
    st.view[cta * n_addr_ + aid] = val;
    st.in_view[cta] |= bit(aid);
}

void
Checker::drain(State& st, uint32_t cta) const
{
    auto keep = st.buf.begin();
    for (const Buffered& b : st.buf) {
        if (b.cta == cta)
            st.mem[b.aid] = maskToWidth(b.val, b.width);
        else
            *keep++ = b;
    }
    st.buf.erase(keep, st.buf.end());
}

/** Make @p cta's oldest buffered store to slot @p slot visible in M. */
void
Checker::flushSlot(State& st, uint32_t cta, uint8_t slot) const
{
    auto it = std::find_if(st.buf.begin(), st.buf.end(),
                           [&](const Buffered& b) {
                               return b.cta == cta && b.slot == slot;
                           });
    if (it == st.buf.end())
        return;
    st.mem[it->aid] = maskToWidth(it->val, it->width);
    st.buf.erase(it);
}

/** Enqueue event @p e's write of @p val in its CTA's store buffer. */
void
Checker::buffer(State& st, size_t e, uint64_t val) const
{
    Buffered b;
    b.val = val;
    b.cta = uint8_t(cta_[e]);
    b.aid = addr_id_[e];
    b.slot = flush_slot_[e];
    b.width = log_[e].width;
    st.buf.push_back(b);
}

void
Checker::addFault(ModelCheckFault::Kind kind, uint64_t addr, size_t e)
{
    if (!fault_keys_.insert({int(kind), log_[e].pc, addr}).second)
        return;
    ModelCheckFault f;
    f.kind = kind;
    f.addr = addr;
    f.gtid = log_[e].gtid;
    f.pc = log_[e].pc;
    report_.faults.push_back(f);
}

/** Temporal check at event execution time: an access overlapping a
 *  range freed earlier *in this execution* is a use-after-free. */
void
Checker::checkAccess(const State& st, size_t e, bool is_write)
{
    const MemEvent& ev = log_[e];
    for (const HeapRange& r : st.freed)
        if (rangesOverlap(ev.addr, ev.width, r.base, r.size ? r.size : 1)) {
            addFault(is_write ? ModelCheckFault::Kind::UseAfterFreeStore
                              : ModelCheckFault::Kind::UseAfterFreeLoad,
                     ev.addr, e);
            return;
        }
}

void
Checker::execEvent(State& st, size_t e)
{
    const MemEvent& ev = log_[e];
    const uint32_t c = cta_[e];
    const uint8_t aid = addr_id_[e];
    st.executed |= bit(e);
    const bool gpu_scope = uint8_t(ev.scope) >= uint8_t(MemScope::Gpu);

    switch (ev.kind) {
      case Kind::Load: {
          const uint64_t v = readView(st, c, aid, ev.width);
          if (watch_slot_[e] >= 0)
              st.watch_vals[size_t(watch_slot_[e])] = v;
          checkAccess(st, e, false);
          break;
      }
      case Kind::Store: {
          const uint64_t v = maskToWidth(ev.value, ev.width);
          if (gpu_scope && hasRelease(ev.order)) {
              drain(st, c);
              st.mem[aid] = v;
          } else {
              buffer(st, e, v);
          }
          writeView(st, c, aid, v);
          checkAccess(st, e, true);
          break;
      }
      case Kind::Rmw:
      case Kind::Cas: {
          uint64_t old;
          if (gpu_scope) {
              // The device-level atomic acts on M; the agent's own
              // earlier stores to the location must land first (release
              // orderings drain the whole buffer).
              if (hasRelease(ev.order))
                  drain(st, c);
              else
                  flushSlot(st, c, flush_slot_[e]);
              old = maskToWidth(st.mem[aid], ev.width);
          } else {
              // cta scope: atomic within the CTA view only; the update
              // drains to M like an ordinary buffered store.
              old = readView(st, c, aid, ev.width);
          }
          bool write = false;
          uint64_t next = old;
          if (ev.kind == Kind::Cas) {
              write = old == maskToWidth(ev.value2, ev.width);
              next = maskToWidth(ev.value, ev.width);
          } else if (ev.aop != AtomicOp::Ld) {
              write = true;
              next = applyAtomicRmw(ev.aop, old, ev.value, ev.width);
          }
          if (write) {
              if (gpu_scope) {
                  st.mem[aid] = maskToWidth(next, ev.width);
                  writeView(st, c, aid, st.mem[aid]);
              } else {
                  writeView(st, c, aid, next);
                  buffer(st, e, next);
              }
          }
          if (watch_slot_[e] >= 0)
              st.watch_vals[size_t(watch_slot_[e])] = old;
          checkAccess(st, e, writesMemory(ev));
          break;
      }
      case Kind::Fence:
          if (gpu_scope && hasRelease(ev.order))
              drain(st, c);
          break;
      case Kind::Barrier:
          break; // rendezvous + acq_rel ordering are static (ppo)
      case Kind::Malloc: {
          if (auto it = liveAt(st, ev.addr); it != st.live.end())
              it->size = ev.value;
          else
              st.live.push_back({ev.addr, ev.value});
          // Reuse of a freed range revalidates it.
          st.freed.erase(
              std::remove_if(st.freed.begin(), st.freed.end(),
                             [&](const HeapRange& r) {
                                 return rangesOverlap(ev.addr,
                                                      ev.value ? ev.value
                                                               : 1,
                                                      r.base,
                                                      r.size ? r.size : 1);
                             }),
              st.freed.end());
          break;
      }
      case Kind::Free: {
          if (auto it = liveAt(st, ev.addr); it != st.live.end()) {
              st.freed.push_back(*it);
              st.live.erase(it);
          } else {
              bool was_freed = false;
              for (const HeapRange& r : st.freed)
                  was_freed |= r.base == ev.addr;
              addFault(was_freed ? ModelCheckFault::Kind::DoubleFree
                                 : ModelCheckFault::Kind::InvalidFree,
                       ev.addr, e);
          }
          break;
      }
    }
}

void
Checker::applyFlush(State& st, uint64_t id) const
{
    const uint64_t slot = id - kFlushBase;
    flushSlot(st, uint32_t(slot / slot_addr_.size()),
              uint8_t(slot % slot_addr_.size()));
}

/**
 * The enabled transitions of @p st, into @p out. The order is the
 * determinism contract: events ascending by log index, then per CTA
 * one flush per buffered address, in buffer order.
 */
void
Checker::enabled(const State& st, std::vector<uint64_t>& out) const
{
    out.clear();
    for (uint64_t todo = ~st.executed & (n_ < 64 ? bit(n_) - 1 : ~0ull);
         todo; todo &= todo - 1) {
        const size_t e = size_t(__builtin_ctzll(todo));
        if (!(pred_[e] & ~st.executed))
            out.push_back(e);
    }
    if (out.empty() || st.buf.empty())
        return; // all events done: residual flushes are unobservable
    for (uint32_t c = 0; c < n_ctas_; ++c) {
        uint64_t seen = 0; // flush transitions, deduped per address
        for (const Buffered& b : st.buf) {
            if (b.cta != c || (seen & bit(b.slot)))
                continue;
            seen |= bit(b.slot);
            out.push_back(kFlushBase + c * slot_addr_.size() + b.slot);
        }
    }
}

void
Checker::apply(State& st, uint64_t id)
{
    if (id < kFlushBase)
        execEvent(st, size_t(id));
    else
        applyFlush(st, id);
}

/**
 * Pack every field of @p st into @p key, so that two states get equal
 * keys exactly when they are equal. The per-checker sizes (addresses,
 * CTAs, watch loads) are fixed, the lists carry their lengths, and a
 * CTA view holds only the values its presence mask names (the rest
 * are zero).
 */
void
Checker::pack(const State& st, std::vector<uint64_t>& key) const
{
    key.assign(1, st.executed);
    key.insert(key.end(), st.mem.begin(), st.mem.end());
    key.insert(key.end(), st.in_view.begin(), st.in_view.end());
    for (size_t c = 0; c < n_ctas_; ++c)
        for (uint64_t m = st.in_view[c]; m; m &= m - 1)
            key.push_back(st.view[c * n_addr_ + size_t(__builtin_ctzll(m))]);
    key.push_back(st.buf.size());
    for (const Buffered& b : st.buf) {
        key.push_back(b.val);
        key.push_back(b.cta | b.aid << 8 | b.slot << 16 | b.width << 24);
    }
    for (const std::vector<HeapRange>* heap : {&st.live, &st.freed}) {
        key.push_back(heap->size());
        for (const HeapRange& r : *heap) {
            key.push_back(r.base);
            key.push_back(r.size);
        }
    }
    key.insert(key.end(), st.watch_vals.begin(), st.watch_vals.end());
}

/**
 * Explore from frames_[depth], whose state the caller filled. A final
 * state is one maximal execution. Any other state is explored once:
 * it fixes every future step, so when an earlier branch entered it,
 * the outcomes and faults below it are on record already. Children
 * are built in frames_[depth + 1] by copy-assignment, so the walk
 * allocates only when it stores a new state or outcome tuple.
 */
void
Checker::explore(size_t depth)
{
    if (report_.executions >= cfg_.max_executions) {
        report_.hit_bound = true;
        return;
    }
    Frame& f = frames_[depth];
    enabled(f.st, f.trans);
    if (f.trans.empty()) {
        ++report_.executions;
        report_.outcomes.insert(f.st.watch_vals);
        return;
    }
    pack(f.st, key_);
    if (visited_.size() >= kMaxModelStates && !visited_.count(key_)) {
        report_.hit_bound = true;
        return;
    }
    if (!visited_.insert(key_).second) {
        ++report_.pruned;
        return;
    }
    assert(depth + 1 < frames_.size()); // paths are at most 2n long
    Frame& child = frames_[depth + 1];
    for (uint64_t t : f.trans) {
        child.st = f.st;
        apply(child.st, t);
        explore(depth + 1);
        if (report_.hit_bound)
            return;
    }
}

/**
 * Witness-order happens-before pass: conflicting access pairs that are
 * neither ordered (program order, release->acquire reads-from chains,
 * barrier epochs, warp lockstep) nor both atomic at sufficient scope.
 */
void
Checker::racePass()
{
    // Successor masks over po and (position-approximated) sw edges.
    std::vector<uint64_t> succ(n_, 0);
    for (const auto& evs : agent_evs_)
        for (size_t j = 1; j < evs.size(); ++j)
            succ[evs[j - 1]] |= bit(evs[j]);

    std::map<uint64_t, size_t> last_write; // addr -> log idx of last write
    for (size_t i = 0; i < n_; ++i) {
        const MemEvent& e = log_[i];
        if (!isAccess(e))
            continue;
        if (readsMemory(e) && e.is_atomic && hasAcquire(e.order)) {
            if (auto it = last_write.find(e.addr); it != last_write.end()) {
                const MemEvent& w = log_[it->second];
                // A release->acquire pair synchronizes only when both
                // sides' scope covers the distance between the threads.
                const MemScope need = w.block == e.block ? MemScope::Cta
                                                         : MemScope::Gpu;
                if (w.is_atomic && hasRelease(w.order) &&
                    uint8_t(w.scope) >= uint8_t(need) &&
                    uint8_t(e.scope) >= uint8_t(need))
                    succ[it->second] |= bit(i); // synchronizes-with
            }
        }
        if (writesMemory(e))
            last_write[e.addr] = i;
    }

    std::vector<uint64_t> reach(n_);
    for (size_t i = 0; i < n_; ++i)
        reach[i] = succ[i] | bit(i);
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t i = 0; i < n_; ++i) {
            uint64_t r = reach[i];
            uint64_t m = succ[i];
            while (m) {
                const unsigned j = unsigned(__builtin_ctzll(m));
                m &= m - 1;
                r |= reach[j];
            }
            if (r != reach[i]) {
                reach[i] = r;
                changed = true;
            }
        }
    }

    // Barrier epoch (count of own-agent barriers before the event).
    std::vector<size_t> epoch(n_, 0);
    for (const auto& evs : agent_evs_) {
        size_t k = 0;
        for (size_t e : evs) {
            epoch[e] = k;
            if (log_[e].kind == Kind::Barrier)
                ++k;
        }
    }

    for (size_t i = 0; i < n_; ++i) {
        const MemEvent& a = log_[i];
        if (!isAccess(a))
            continue;
        for (size_t j = i + 1; j < n_; ++j) {
            const MemEvent& b = log_[j];
            if (!isAccess(b) || a.gtid == b.gtid)
                continue;
            if (!rangesOverlap(a.addr, a.width, b.addr, b.width))
                continue;
            if (!writesMemory(a) && !writesMemory(b))
                continue;
            if (reach[i] & bit(j))
                continue; // happens-before ordered
            const bool same_block = a.block == b.block;
            if (same_block &&
                (a.warp == b.warp || epoch[i] != epoch[j]))
                continue; // lockstep or barrier-separated
            const MemScope need =
                same_block ? MemScope::Cta : MemScope::Gpu;
            const bool synced =
                a.is_atomic && b.is_atomic &&
                uint8_t(a.scope) >= uint8_t(need) &&
                uint8_t(b.scope) >= uint8_t(need);
            if (synced)
                continue;
            const uint64_t lo = std::min(a.pc, b.pc);
            const uint64_t hi = std::max(a.pc, b.pc);
            if (!race_keys_.emplace(lo, hi, a.addr).second)
                continue;
            ModelCheckRace r;
            r.addr = a.addr;
            r.gtid_a = a.gtid;
            r.gtid_b = b.gtid;
            r.pc_a = a.pc;
            r.pc_b = b.pc;
            r.scope_mismatch = a.is_atomic && b.is_atomic;
            report_.races.push_back(r);
        }
    }
}

ModelCheckReport
Checker::run()
{
    report_.events = log_.size();
    if (log_.size() > kMaxModelEvents)
        return report_; // rejected: frontiers are 64-bit masks

    buildAgents();
    report_.agents = n_agents_;
    buildPpo();
    buildWatch();
    buildAddresses();
    racePass();

    buildFrames();
    explore(0);
    return report_;
}

} // namespace

ModelCheckReport
modelCheck(const std::vector<MemEvent>& log, const ModelCheckConfig& config)
{
    return Checker(log, config).run();
}

} // namespace lmi::analysis
