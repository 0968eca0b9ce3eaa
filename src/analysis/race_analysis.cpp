#include "analysis/race_analysis.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "analysis/cfg.hpp"

namespace lmi::analysis {

using namespace ir;

size_t
RaceReport::count(RaceVerdict v) const
{
    size_t n = 0;
    for (const auto& p : pairs)
        n += p.verdict == v;
    return n;
}

bool
congruentInWindow(int64_t konst, int64_t gcd, int64_t lo, int64_t hi)
{
    // The smallest x >= lo with x == konst (mod gcd) is lo + r with
    // r = (konst - lo) mod gcd. r is the difference of two floor
    // remainders, each in [0, gcd), so nothing overflows; hi - lo is
    // exact in uint64 because lo <= hi.
    const auto floorMod = [gcd](int64_t v) {
        const int64_t m = v % gcd;
        return m < 0 ? m + gcd : m;
    };
    int64_t r = floorMod(konst) - floorMod(lo);
    if (r < 0)
        r += gcd;
    return uint64_t(r) <= uint64_t(hi) - uint64_t(lo);
}

namespace {

/** Bound on brute-force thread-offset enumeration per access pair. */
constexpr int64_t kEnumCap = int64_t(1) << 14;
/**
 * Minimum block size assumed when geometry is unknown and a definite
 * same-block witness needs |d| < block_threads: every real launch in
 * this codebase runs at least one full warp.
 */
constexpr int64_t kAssumeMinBlockThreads = 32;

int64_t
satAdd(int64_t a, int64_t b)
{
    int64_t r;
    if (__builtin_add_overflow(a, b, &r))
        return b > 0 ? INT64_MAX : INT64_MIN;
    return r;
}

int64_t
satMul(int64_t a, int64_t b)
{
    int64_t r;
    if (__builtin_mul_overflow(a, b, &r))
        return (a < 0) == (b < 0) ? INT64_MAX : INT64_MIN;
    return r;
}

int64_t
satSub(int64_t a, int64_t b)
{
    int64_t r;
    if (__builtin_sub_overflow(a, b, &r))
        return b < 0 ? INT64_MAX : INT64_MIN;
    return r;
}

// --- closed-form delta search -------------------------------------------
//
// The subproblem solvers scan a thread or block delta x and ask, at each
// x, whether res.solvableWindow(satSub(wlo, s), satSub(whi, s)) holds
// for the saturating shift s = Shift::at(x). ShiftSolver answers "the
// first x of a range, in scan order, where it holds" without visiting
// the range. Three linear conditions on x, each true on one interval,
// cut the range into at most seven pieces:
//
//  - satMul(a, x) is exact; s = c + slope*x is exact; the window
//    [wlo - s, whi - s] overlaps int64. Where all three hold, clamping
//    a window end cannot change its intersection with the hull, so the
//    test is exact arithmetic: some residual value y = v - s, v in
//    [wlo, whi], lies in the hull and is konst modulo gcd. For each
//    window offset v the hull bounds x to one interval, and the
//    congruence slope*x == v - c - konst (mod gcd) is a linear
//    Diophantine equation, solved once per solver by extended gcd.
//  - On every other piece the shifted window is constant: the product
//    or the sum saturates to one int64 end, or the window lies wholly
//    past one end and clamps to it. One test decides the whole piece.

using i128 = __int128;

i128
floorDiv(i128 a, i128 b)
{
    const i128 q = a / b;
    return q * b != a && (a < 0) != (b < 0) ? q - 1 : q;
}

i128
floorMod(i128 a, i128 m)
{
    const i128 r = a % m;
    return r < 0 ? r + m : r;
}

i128
gcd128(i128 a, i128 b)
{
    while (b != 0) {
        const i128 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/** Inverse of @p a modulo @p m (gcd(a, m) == 1, 0 <= a < m). */
i128
modInverse(i128 a, i128 m)
{
    i128 r0 = m, r1 = a, t0 = 0, t1 = 1;
    while (r1 != 0) {
        const i128 q = r0 / r1;
        const i128 r2 = r0 - q * r1, t2 = t0 - q * t1;
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }
    return floorMod(t0, m);
}

/** The x with lo <= k*x <= hi (k != 0), as an interval of integers. */
std::pair<i128, i128>
linearRange(i128 k, i128 lo, i128 hi)
{
    if (k > 0)
        return {-floorDiv(-lo, k), floorDiv(hi, k)};
    return {-floorDiv(-hi, k), floorDiv(lo, k)};
}

/** Narrows [p, q] to the x with lo <= k*x <= hi (k != 0); false when
 *  nothing is left. */
bool
narrowLinear(i128 k, i128 lo, i128 hi, i128& p, i128& q)
{
    const i128 kp = k * p, kq = k * q;
    if (std::min(kp, kq) >= lo && std::max(kp, kq) <= hi)
        return p <= q;
    const auto [r0, r1] = linearRange(k, lo, hi);
    p = std::max(p, r0);
    q = std::min(q, r1);
    return p <= q;
}

/**
 * Saturating shift of the conflict window as a function of one delta
 * x: satAdd(satMul(a, x), c), or satSub(c, satMul(a, x)) when `sub`.
 * The enumeration loops compute exactly this.
 */
struct Shift
{
    int64_t a = 0, c = 0;
    bool sub = false;

    int64_t at(int64_t x) const
    {
        const int64_t ax = satMul(a, x);
        return sub ? satSub(c, ax) : satAdd(ax, c);
    }
};

class ShiftSolver
{
  public:
    /** Shifts of slope @p a (negated when @p sub) against @p res and
     *  the byte window [@p wlo, @p whi], wlo <= whi. */
    ShiftSolver(const Residual& res, int64_t wlo, int64_t whi, int64_t a,
                bool sub)
        : res_(res), wlo_(wlo), whi_(whi), a_(a), sub_(sub),
          slope_(sub ? -i128(a) : i128(a)),
          cong_(!res.exact && res.gcd > 1)
    {
        assert(wlo <= whi);
        if (a != 0 && cong_) {
            // slope*x == r (mod g) is solvable iff h | r, and then
            // x == (r/h) * inv_ (mod m_).
            const i128 g = res.gcd;
            const i128 am = floorMod(slope_, g);
            h_ = gcd128(am, g);
            m_ = g / h_;
            inv_ = m_ == 1 ? 0 : modInverse(am / h_ % m_, m_);
        }
    }

    /** The window shifted by @p s, each end clamped to int64. */
    std::pair<int64_t, int64_t> window(int64_t s) const
    {
        return {satSub(wlo_, s), satSub(whi_, s)};
    }

    /** True when the window shifted by @p s can hold a residual. */
    bool hit(int64_t s) const
    {
        const auto [lo, hi] = window(s);
        return res_.solvableWindow(lo, hi);
    }

    /**
     * The first x of [@p x0, @p x1], scanning up when @p up and down
     * otherwise, at which the window shifted by Shift{a, @p c, sub}
     * can hold a residual.
     */
    std::optional<int64_t> first(int64_t c, int64_t x0, int64_t x1,
                                 bool up) const
    {
        if (x0 > x1 || res_.sum.lo > res_.sum.hi)
            return std::nullopt;
        const Shift sh{a_, c, sub_};
        if (a_ == 0)
            return hit(c) ? std::optional(up ? x0 : x1) : std::nullopt;

        // Cut [x0, x1] where one of the three conditions changes.
        i128 cuts[8];
        size_t n = 0;
        cuts[n++] = x0;
        cuts[n++] = i128(x1) + 1;
        const auto cut = [&](i128 lo, i128 hi, i128 k) {
            const i128 k0 = k * x0, k1 = k * x1;
            if (std::min(k0, k1) >= lo && std::max(k0, k1) <= hi)
                return;
            const auto [r0, r1] = linearRange(k, lo, hi);
            for (const i128 b : {r0, r1 + 1})
                if (b > x0 && b <= x1)
                    cuts[n++] = b;
        };
        cut(INT64_MIN, INT64_MAX, a_);
        cut(i128(INT64_MIN) - c, i128(INT64_MAX) - c, slope_);
        cut(i128(wlo_) - INT64_MAX - c, i128(whi_) - INT64_MIN - c, slope_);
        for (size_t i = 1; i < n; ++i) // insertion sort: n <= 8
            for (size_t j = i; j > 0 && cuts[j] < cuts[j - 1]; --j)
                std::swap(cuts[j], cuts[j - 1]);
        n = size_t(std::unique(cuts, cuts + n) - cuts);

        for (size_t i = 0; i + 1 < n; ++i) {
            const size_t k = up ? i : n - 2 - i;
            const int64_t p = int64_t(cuts[k]), q = int64_t(cuts[k + 1] - 1);
            std::optional<int64_t> r;
            if (exactAt(c, p)) {
                r = firstExact(c, p, q, up);
            } else {
                assert(window(sh.at(p)) == window(sh.at(q)));
                if (hit(sh.at(p)))
                    r = up ? p : q;
            }
            if (r)
                return r;
        }
        return std::nullopt;
    }

  private:
    /** All three conditions hold at @p x (and so on its piece). */
    bool exactAt(int64_t c, int64_t x) const
    {
        int64_t ax;
        if (__builtin_mul_overflow(a_, x, &ax))
            return false;
        const i128 s = c + slope_ * x;
        return s >= INT64_MIN && s <= INT64_MAX &&
               i128(wlo_) - s <= INT64_MAX && i128(whi_) - s >= INT64_MIN;
    }

    /** [p, q] where nothing saturates: exact arithmetic. */
    std::optional<int64_t> firstExact(int64_t c, i128 p, i128 q,
                                      bool up) const
    {
        const Interval& hull = res_.sum;
        if (!cong_) {
            // Any hull value will do: y = v - c - slope*x for some v.
            if (!narrowLinear(slope_, i128(wlo_) - c - hull.hi,
                              i128(whi_) - c - hull.lo, p, q))
                return std::nullopt;
            return int64_t(up ? p : q);
        }
        // y = v - c - slope*x must be konst (mod g), which needs
        // v == c + konst (mod h_): visit those offsets only.
        std::optional<i128> best;
        const i128 v0 = wlo_ + floorMod(i128(c) + res_.konst - wlo_, h_);
        for (i128 v = v0; v <= whi_; v += h_) {
            i128 r0 = p, r1 = q;
            if (!narrowLinear(slope_, v - c - hull.hi, v - c - hull.lo, r0,
                              r1))
                continue;
            const i128 r = floorMod(v - c - res_.konst, res_.gcd);
            const i128 x = floorMod(r / h_ * inv_, m_);
            const i128 cand = up ? r0 + floorMod(x - r0, m_)
                                 : r1 - floorMod(r1 - x, m_);
            if (cand < r0 || cand > r1)
                continue;
            if (!best || (up ? cand < *best : cand > *best))
                best = cand;
        }
        return best ? std::optional(int64_t(*best)) : std::nullopt;
    }

    const Residual& res_;
    int64_t wlo_, whi_, a_;
    bool sub_;
    i128 slope_; ///< ds/dx where nothing saturates
    bool cong_;  ///< residual values are konst modulo gcd
    i128 h_ = 1, m_ = 1, inv_ = 0;
};

/** Allocation root of a pointer expression. */
struct Root
{
    enum class Kind : uint8_t {
        Param,     ///< pointer kernel parameter (index in `id`)
        Shared,    ///< named static shared buffer (`name`)
        DynShared, ///< dynamic shared pool base
        Alloca,    ///< per-thread stack slot (ValueId in `id`)
        Malloc,    ///< device-heap site (ValueId in `id`)
        Unknown,
    };
    Kind kind = Kind::Unknown;
    uint64_t id = 0;
    std::string name;
};

/** One affine term over an opaque SSA symbol. */
struct Term
{
    ValueId sym = kNoValue;
    int64_t coef = 0;
};

/**
 * idx = tid*a_tid + ctaid*a_cta + konst + sum(coef_i * sym_i), in
 * element units of the decomposed value (callers scale to bytes).
 */
struct Affine
{
    bool ok = false;
    int64_t tid = 0, cta = 0, konst = 0;
    std::vector<Term> terms;

    static Affine fail() { return {}; }
    static Affine constant(int64_t k)
    {
        Affine a;
        a.ok = true;
        a.konst = k;
        return a;
    }
    static Affine opaque(ValueId v)
    {
        Affine a;
        a.ok = true;
        a.terms.push_back({v, 1});
        return a;
    }

    void addTerm(ValueId sym, int64_t coef)
    {
        if (coef == 0)
            return;
        for (auto& t : terms) {
            if (t.sym == sym) {
                t.coef = satAdd(t.coef, coef);
                return;
            }
        }
        terms.push_back({sym, coef});
    }

    Affine scaled(int64_t s) const
    {
        Affine r;
        r.ok = ok;
        r.tid = satMul(tid, s);
        r.cta = satMul(cta, s);
        r.konst = satMul(konst, s);
        for (const auto& t : terms)
            r.terms.push_back({t.sym, satMul(t.coef, s)});
        return r;
    }
};

class RaceAnalyzer
{
public:
    RaceAnalyzer(const IrFunction& f, const RaceAnalysisOptions& opts)
        : f_(f), opts_(opts)
    {
    }

    RaceReport run();

private:
    // --- setup -------------------------------------------------------
    void mapBlocks();
    void computePurity();
    void computeTaint();
    void buildSegments();

    // --- affine decomposition ---------------------------------------
    const Affine& decompose(ValueId v);
    Interval affineInterval(const Affine& a) const;
    Interval symInterval(ValueId v) const;

    // --- pointer roots ----------------------------------------------
    struct PtrInfo
    {
        Root root;
        Affine offset; ///< byte offset from root base
    };
    PtrInfo pointerInfo(ValueId ptr);
    bool mallocEscapes() const;

    // --- conflict solving -------------------------------------------
    RaceSolution sameBlock(const Affine& i1, const Affine& i2,
                           int64_t wlo, int64_t whi, bool same_seg,
                           bool seg_on_cycle);
    RaceSolution crossBlock(const Affine& i1, const Affine& i2,
                            int64_t wlo, int64_t whi);
    Residual buildResidual(const Affine& i1, const Affine& i2,
                           bool cancel_uniform);

    bool uniformGuard(BlockId b) const;
    bool segMhp(int s1, int s2) const;

    const IrFunction& f_;
    RaceAnalysisOptions opts_;
    Cfg cfg_;
    RangeAnalysis ranges_;

    std::vector<BlockId> block_of_;  ///< value -> defining block
    std::vector<bool> pure_;         ///< always-equal across threads
    std::vector<bool> tainted_;      ///< value tid-taint
    std::vector<bool> block_tainted_;///< block control tid-taint

    // Segments: barrier-delimited instruction runs.
    std::vector<int> seg_of_;            ///< value -> segment
    std::vector<int> first_seg_;         ///< block -> first segment
    std::vector<std::vector<int>> seg_succs_;
    std::vector<bool> seg_source_;       ///< entry or post-barrier
    std::vector<bool> seg_on_cycle_;
    std::vector<std::vector<int>> regions_; ///< per-source reachable set
    std::vector<std::vector<uint8_t>> seg_region_; ///< seg x region bit

    std::unordered_map<ValueId, Affine> affine_memo_;
    bool malloc_escapes_ = false;
};

void
RaceAnalyzer::mapBlocks()
{
    block_of_.assign(f_.values.size(), BlockId(0));
    for (BlockId b = 0; b < f_.blocks.size(); ++b)
        for (ValueId v : f_.blocks[b].insts)
            if (v < block_of_.size())
                block_of_[v] = b;
}

void
RaceAnalyzer::computePurity()
{
    // "Pure" = provably the same value in every thread of the grid:
    // a function of constants, parameters and launch geometry only.
    pure_.assign(f_.values.size(), false);
    bool changed = true;
    while (changed) {
        changed = false;
        for (ValueId v = 1; v < f_.values.size(); ++v) {
            if (pure_[v])
                continue;
            const IrInst& in = f_.inst(v);
            bool p = false;
            switch (in.op) {
            case IrOp::ConstInt:
            case IrOp::ConstFloat:
            case IrOp::Param:
            case IrOp::NTid:
            case IrOp::NCtaId:
                p = true;
                break;
            case IrOp::IAdd: case IrOp::ISub: case IrOp::IMul:
            case IrOp::IMin: case IrOp::IShl: case IrOp::IShr:
            case IrOp::IAnd: case IrOp::IOr: case IrOp::IXor:
            case IrOp::ICmp: case IrOp::FBits:
                p = true;
                for (ValueId o : in.ops)
                    p = p && o < pure_.size() && pure_[o];
                break;
            default:
                break;
            }
            if (p && !pure_[v]) {
                pure_[v] = true;
                changed = true;
            }
        }
    }
}

void
RaceAnalyzer::computeTaint()
{
    // Value taint: depends (data or control) on the thread index within
    // the block. CtaId is untainted — it is uniform inside a block, and
    // the same-block subproblem is what consumes uniformity.
    tainted_.assign(f_.values.size(), false);
    block_tainted_.assign(f_.blocks.size(), false);

    auto value_sources_taint = [&](const IrInst& in) {
        switch (in.op) {
        case IrOp::Tid:
        case IrOp::GlobalTid:
        case IrOp::Load:     // memory may hold thread-dependent data
        case IrOp::Malloc:   // distinct per thread
        case IrOp::Alloca:
        case IrOp::Call:
        case IrOp::IntToPtr:
        case IrOp::PtrToInt:
            return true;
        default:
            return false;
        }
    };

    bool changed = true;
    while (changed) {
        changed = false;
        // Block control taint: b is control-tainted when some branch
        // with a tainted condition decides whether/which way b runs,
        // transitively. b is control dependent on branch block u iff
        // some successor v of u satisfies postDominates(b, v) while
        // !postDominates(b, u).
        for (BlockId b = 0; b < f_.blocks.size(); ++b) {
            if (block_tainted_[b] || !cfg_.reachable(b))
                continue;
            bool t = false;
            for (BlockId u = 0; u < f_.blocks.size() && !t; ++u) {
                if (!cfg_.reachable(u) || f_.blocks[u].insts.empty())
                    continue;
                const IrInst& term = f_.inst(f_.blocks[u].insts.back());
                if (term.op != IrOp::Br)
                    continue;
                const bool cond_tainted =
                    (!term.ops.empty() && term.ops[0] < tainted_.size() &&
                     tainted_[term.ops[0]]) ||
                    block_tainted_[u];
                if (!cond_tainted)
                    continue;
                if (cfg_.postDominates(b, u))
                    continue;
                for (BlockId v : cfg_.succs[u]) {
                    if (cfg_.postDominates(b, v)) {
                        t = true;
                        break;
                    }
                }
            }
            if (t) {
                block_tainted_[b] = true;
                changed = true;
            }
        }
        for (ValueId v = 1; v < f_.values.size(); ++v) {
            if (tainted_[v])
                continue;
            const IrInst& in = f_.inst(v);
            bool t = value_sources_taint(in);
            if (!t) {
                for (ValueId o : in.ops)
                    t = t || (o < tainted_.size() && tainted_[o]);
            }
            if (!t && in.op == IrOp::Phi)
                t = block_tainted_[block_of_[v]];
            if (t) {
                tainted_[v] = true;
                changed = true;
            }
        }
    }
}

void
RaceAnalyzer::buildSegments()
{
    // Cut every reachable block's instruction list at Barrier ops; a
    // barrier is the last instruction of its segment. Edges connect a
    // block's final segment to the first segment of each CFG successor,
    // and never cross a barrier: the region construction below starts a
    // fresh epoch at each post-barrier segment instead.
    seg_of_.assign(f_.values.size(), -1);
    first_seg_.assign(f_.blocks.size(), -1);
    seg_succs_.clear();
    seg_source_.clear();

    std::vector<int> last_seg(f_.blocks.size(), -1);
    std::vector<int> post_barrier; // segments that start after a barrier

    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        if (!cfg_.reachable(b))
            continue;
        int cur = int(seg_succs_.size());
        seg_succs_.emplace_back();
        seg_source_.push_back(false);
        first_seg_[b] = cur;
        for (ValueId v : f_.blocks[b].insts) {
            seg_of_[v] = cur;
            if (f_.inst(v).op == IrOp::Barrier &&
                v != f_.blocks[b].insts.back()) {
                const int next = int(seg_succs_.size());
                seg_succs_.emplace_back();
                seg_source_.push_back(false);
                post_barrier.push_back(next);
                cur = next;
            }
        }
        last_seg[b] = cur;
    }
    // In verified IR a Barrier is never a block's final instruction
    // (the terminator is), so the split above always leaves the
    // terminator in a post-barrier segment; connecting the last
    // segment to each successor's first segment never crosses a
    // barrier.
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        if (!cfg_.reachable(b))
            continue;
        for (BlockId s : cfg_.succs[b])
            if (first_seg_[s] >= 0)
                seg_succs_[last_seg[b]].push_back(first_seg_[s]);
    }

    // Sources: the entry segment plus every post-barrier segment.
    if (!f_.blocks.empty() && first_seg_[0] >= 0)
        seg_source_[first_seg_[0]] = true;
    for (int s : post_barrier)
        seg_source_[s] = true;

    const size_t nseg = seg_succs_.size();

    // Regions: barrier-free forward closure of each source.
    regions_.clear();
    seg_region_.assign(nseg, {});
    for (size_t s = 0; s < nseg; ++s) {
        if (!seg_source_[s])
            continue;
        const int region = int(regions_.size());
        regions_.emplace_back();
        std::vector<int> work{int(s)};
        std::vector<bool> in(nseg, false);
        in[s] = true;
        while (!work.empty()) {
            const int cur = work.back();
            work.pop_back();
            regions_[region].push_back(cur);
            for (int nx : seg_succs_[cur]) {
                if (!in[nx]) {
                    in[nx] = true;
                    work.push_back(nx);
                }
            }
        }
        for (size_t t = 0; t < nseg; ++t) {
            if (seg_region_[t].size() < regions_.size())
                seg_region_[t].resize(regions_.size(), 0);
            seg_region_[t][region] = in[t];
        }
    }
    for (auto& row : seg_region_)
        row.resize(regions_.size(), 0);

    // A segment is "on a cycle" when it can reach itself via normal
    // (barrier-free) segment edges: accesses there may repeat with
    // different loop-carried values inside one barrier epoch.
    seg_on_cycle_.assign(nseg, false);
    for (size_t s = 0; s < nseg; ++s) {
        std::vector<int> work(seg_succs_[s].begin(), seg_succs_[s].end());
        std::vector<bool> seen(nseg, false);
        while (!work.empty()) {
            const int cur = work.back();
            work.pop_back();
            if (size_t(cur) == s) {
                seg_on_cycle_[s] = true;
                break;
            }
            if (seen[cur])
                continue;
            seen[cur] = true;
            for (int nx : seg_succs_[cur])
                work.push_back(nx);
        }
    }
}

bool
RaceAnalyzer::segMhp(int s1, int s2) const
{
    if (s1 < 0 || s2 < 0)
        return true;
    const auto& r1 = seg_region_[s1];
    const auto& r2 = seg_region_[s2];
    for (size_t r = 0; r < r1.size(); ++r)
        if (r1[r] && r2[r])
            return true;
    return false;
}

Interval
RaceAnalyzer::symInterval(ValueId v) const
{
    auto it = ranges_.ranges.find(v);
    return it == ranges_.ranges.end() ? Interval::full() : it->second;
}

Interval
RaceAnalyzer::affineInterval(const Affine& a) const
{
    if (!a.ok)
        return Interval::full();
    const int64_t B =
        opts_.block_threads ? int64_t(opts_.block_threads) : 0;
    const int64_t G = opts_.grid_blocks ? int64_t(opts_.grid_blocks) : 0;
    Interval iv = Interval::of(a.konst);
    const Interval tid_iv =
        B ? Interval::range(0, B - 1) : Interval::range(0, INT64_MAX);
    const Interval cta_iv =
        G ? Interval::range(0, G - 1) : Interval::range(0, INT64_MAX);
    if (a.tid)
        iv = Interval::add(iv, Interval::mul(Interval::of(a.tid), tid_iv));
    if (a.cta)
        iv = Interval::add(iv, Interval::mul(Interval::of(a.cta), cta_iv));
    for (const auto& t : a.terms)
        iv = Interval::add(
            iv, Interval::mul(Interval::of(t.coef), symInterval(t.sym)));
    return iv;
}

const Affine&
RaceAnalyzer::decompose(ValueId v)
{
    auto it = affine_memo_.find(v);
    if (it != affine_memo_.end())
        return it->second;
    // Seed with opaque to terminate any (malformed) operand cycle.
    affine_memo_.emplace(v, Affine::opaque(v));

    const IrInst& in = f_.inst(v);
    Affine r = Affine::opaque(v);
    switch (in.op) {
    case IrOp::ConstInt:
        r = Affine::constant(in.imm);
        break;
    case IrOp::Tid:
        r = Affine::constant(0);
        r.tid = 1;
        break;
    case IrOp::CtaId:
        r = Affine::constant(0);
        r.cta = 1;
        break;
    case IrOp::GlobalTid:
        // gtid = ctaid*ntid + tid; fold only with known block size so
        // the tid coefficient stays a plain integer.
        if (opts_.block_threads) {
            r = Affine::constant(0);
            r.tid = 1;
            r.cta = int64_t(opts_.block_threads);
        }
        break;
    case IrOp::NTid:
        if (opts_.block_threads)
            r = Affine::constant(int64_t(opts_.block_threads));
        break;
    case IrOp::NCtaId:
        if (opts_.grid_blocks)
            r = Affine::constant(int64_t(opts_.grid_blocks));
        break;
    case IrOp::IAdd:
    case IrOp::ISub: {
        const Affine a = decompose(in.ops[0]);
        const Affine b = decompose(in.ops[1]);
        if (a.ok && b.ok) {
            const int64_t s = in.op == IrOp::ISub ? -1 : 1;
            Affine sum = a;
            sum.tid = satAdd(sum.tid, satMul(s, b.tid));
            sum.cta = satAdd(sum.cta, satMul(s, b.cta));
            sum.konst = satAdd(sum.konst, satMul(s, b.konst));
            for (const auto& t : b.terms)
                sum.addTerm(t.sym, satMul(s, t.coef));
            r = sum;
        }
        break;
    }
    case IrOp::IMul: {
        const Affine a = decompose(in.ops[0]);
        const Affine b = decompose(in.ops[1]);
        // Affine * constant only; anything else stays opaque.
        auto is_const = [](const Affine& x) {
            return x.ok && x.tid == 0 && x.cta == 0 && x.terms.empty();
        };
        if (is_const(b))
            r = a.scaled(b.konst);
        else if (is_const(a))
            r = b.scaled(a.konst);
        break;
    }
    case IrOp::IShl: {
        const Affine a = decompose(in.ops[0]);
        const Affine b = decompose(in.ops[1]);
        if (a.ok && b.ok && b.tid == 0 && b.cta == 0 && b.terms.empty() &&
            b.konst >= 0 && b.konst < 62)
            r = a.scaled(int64_t(1) << b.konst);
        break;
    }
    case IrOp::IAnd: {
        // `x & mask` == x when x provably fits [0, mask] and mask+1 is
        // a power of two — the workload generator's wrap-around masks.
        const Affine a = decompose(in.ops[0]);
        const Affine b = decompose(in.ops[1]);
        auto try_mask = [&](const Affine& val, const Affine& mask) {
            if (!mask.ok || mask.tid || mask.cta || !mask.terms.empty())
                return false;
            const int64_t m = mask.konst;
            if (m < 0 || ((uint64_t(m) + 1) & uint64_t(m)) != 0)
                return false;
            const Interval iv = affineInterval(val);
            return val.ok && iv.within(0, m);
        };
        if (try_mask(a, b))
            r = a;
        else if (try_mask(b, a))
            r = b;
        break;
    }
    default:
        break; // opaque symbol
    }

    auto& slot = affine_memo_[v];
    slot = r;
    return slot;
}

RaceAnalyzer::PtrInfo
RaceAnalyzer::pointerInfo(ValueId ptr)
{
    PtrInfo info;
    info.offset = Affine::constant(0);
    ValueId cur = ptr;
    for (int depth = 0; depth < 256; ++depth) {
        const IrInst& in = f_.inst(cur);
        switch (in.op) {
        case IrOp::Gep: {
            Affine idx = decompose(in.ops[1]);
            if (!idx.ok)
                return {Root{}, Affine::fail()};
            const int64_t es =
                std::max<uint32_t>(1, f_.inst(in.ops[0]).type.elem_size
                                          ? f_.inst(in.ops[0]).type.elem_size
                                          : in.type.elem_size);
            idx = idx.scaled(es);
            Affine& off = info.offset;
            off.tid = satAdd(off.tid, idx.tid);
            off.cta = satAdd(off.cta, idx.cta);
            off.konst = satAdd(off.konst, idx.konst);
            for (const auto& t : idx.terms)
                off.addTerm(t.sym, t.coef);
            cur = in.ops[0];
            break;
        }
        case IrOp::PtrAddByte: {
            const Affine idx = decompose(in.ops[1]);
            if (!idx.ok)
                return {Root{}, Affine::fail()};
            Affine& off = info.offset;
            off.tid = satAdd(off.tid, idx.tid);
            off.cta = satAdd(off.cta, idx.cta);
            off.konst = satAdd(off.konst, idx.konst);
            for (const auto& t : idx.terms)
                off.addTerm(t.sym, t.coef);
            cur = in.ops[0];
            break;
        }
        case IrOp::FieldGep:
            info.offset.konst = satAdd(info.offset.konst, in.imm);
            cur = in.ops[0];
            break;
        case IrOp::Param:
            info.root = {Root::Kind::Param, uint64_t(in.imm), {}};
            return info;
        case IrOp::SharedRef:
            info.root = {Root::Kind::Shared, 0, in.name};
            return info;
        case IrOp::DynSharedRef:
            info.root = {Root::Kind::DynShared, 0, {}};
            return info;
        case IrOp::Alloca:
            info.root = {Root::Kind::Alloca, cur, {}};
            return info;
        case IrOp::Malloc:
            info.root = {Root::Kind::Malloc, cur, {}};
            return info;
        default:
            info.root = {Root::Kind::Unknown, 0, {}};
            return info;
        }
    }
    info.root = {Root::Kind::Unknown, 0, {}};
    return info;
}

bool
RaceAnalyzer::mallocEscapes() const
{
    // A device-malloc'd pointer that is stored to memory (or cast to an
    // integer) may be read back by another thread; all Malloc roots then
    // lose their thread-private status.
    for (ValueId v = 1; v < f_.values.size(); ++v) {
        const IrInst& in = f_.inst(v);
        if (in.op == IrOp::Store && in.ops.size() >= 2 &&
            f_.inst(in.ops[1]).type.isPtr())
            return true;
        if (in.op == IrOp::PtrToInt)
            return true;
    }
    return false;
}

Residual
RaceAnalyzer::buildResidual(const Affine& i1, const Affine& i2,
                            bool cancel_uniform)
{
    // Residual of idx1(thread1) - idx2(thread2) after removing the tid
    // terms (handled by the caller's enumeration) and optionally the
    // ctaid terms. Shared symbols cancel when always-equal across
    // threads, or (same segment, off-cycle) when uniform in the block.
    Residual res;
    res.konst = satSub(i1.konst, i2.konst);
    res.sum = Interval::of(res.konst);

    auto cancels = [&](ValueId sym) {
        if (sym >= pure_.size())
            return false;
        if (pure_[sym])
            return true;
        return cancel_uniform && !tainted_[sym];
    };

    std::unordered_map<ValueId, std::pair<int64_t, int64_t>> coefs;
    for (const auto& t : i1.terms)
        coefs[t.sym].first = satAdd(coefs[t.sym].first, t.coef);
    for (const auto& t : i2.terms)
        coefs[t.sym].second = satAdd(coefs[t.sym].second, t.coef);
    for (const auto& [sym, cc] : coefs) {
        const auto [c1, c2] = cc;
        const Interval iv = symInterval(sym);
        if (cancels(sym)) {
            // One shared value v: contributes (c1 - c2) * v.
            res.addTerm(satSub(c1, c2), iv);
        } else {
            // Independent values per thread: c1*v1 - c2*v2, with the
            // hull and gcd of both terms tracked separately.
            res.addTerm(c1, iv);
            res.addTerm(satSub(0, c2), iv);
        }
    }

    return res;
}

RaceSolution
RaceAnalyzer::sameBlock(const Affine& i1, const Affine& i2, int64_t wlo,
                        int64_t whi, bool same_seg, bool seg_on_cycle)
{
    // Same CTA: ctaid is identical on both sides, so equal-coefficient
    // ctaid terms vanish; differing coefficients cannot occur for a
    // same-block pair built from the same ctaid value, but handle them
    // by folding into the residual as zero-spread (c1-c2)*ctaid.
    const bool cancel_uniform = same_seg && !seg_on_cycle;
    Residual res = buildResidual(i1, i2, cancel_uniform);
    const int64_t dcta = satSub(i1.cta, i2.cta);
    if (dcta != 0) {
        const int64_t G =
            opts_.grid_blocks ? int64_t(opts_.grid_blocks) : 0;
        res.addTerm(dcta,
                    G ? Interval::range(0, G - 1)
                      : Interval::range(0, INT64_MAX));
    }
    return solveSameBlock(res, i1.tid, i2.tid, opts_.block_threads, wlo,
                          whi);
}

RaceSolution
RaceAnalyzer::crossBlock(const Affine& i1, const Affine& i2, int64_t wlo,
                         int64_t whi)
{
    // Different CTAs. Only always-equal symbols cancel (uniform values
    // differ across blocks).
    return solveCrossBlock(buildResidual(i1, i2, false), i1.tid, i2.tid,
                           i1.cta, i2.cta, opts_.block_threads,
                           opts_.grid_blocks, wlo, whi);
}

bool
RaceAnalyzer::uniformGuard(BlockId b) const
{
    return b < block_tainted_.size() && !block_tainted_[b];
}

RaceReport
RaceAnalyzer::run()
{
    RaceReport report;
    if (f_.blocks.empty())
        return report;

    cfg_ = Cfg::build(f_);
    ranges_ = analyzeRanges(f_);

    mapBlocks();
    computePurity();
    computeTaint();
    buildSegments();
    malloc_escapes_ = mallocEscapes();

    // Collect shared/global accesses in reachable blocks.
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        if (!cfg_.reachable(b))
            continue;
        for (ValueId v : f_.blocks[b].insts) {
            const IrInst& in = f_.inst(v);
            const bool atomic = in.op == IrOp::AtomicRmw ||
                                in.op == IrOp::AtomicCas ||
                                in.op == IrOp::AtomicLoad ||
                                in.op == IrOp::AtomicStore;
            if (in.op != IrOp::Load && in.op != IrOp::Store && !atomic)
                continue;
            const Type& pt = f_.inst(in.ops[0]).type;
            if (!pt.isPtr())
                continue;
            if (pt.space != MemSpace::Global &&
                pt.space != MemSpace::Shared)
                continue;
            const bool writes =
                in.op == IrOp::Store ||
                (atomic && in.op != IrOp::AtomicLoad);
            report.accesses.push_back(
                {v, writes, pt.space, atomic, in.scope});
        }
    }

    // Divergent barriers: reachable barrier in a control-tainted block.
    for (BlockId b = 0; b < f_.blocks.size(); ++b) {
        if (!cfg_.reachable(b) || !block_tainted_[b])
            continue;
        for (ValueId v : f_.blocks[b].insts) {
            if (f_.inst(v).op != IrOp::Barrier)
                continue;
            report.divergent_barriers.push_back(v);
            Diagnostic d;
            d.severity = Severity::Error;
            d.pass = "race";
            d.function = f_.name;
            d.value = v;
            d.message =
                "barrier divergence: __syncthreads() reachable under "
                "thread-dependent control flow";
            report.diagnostics.push_back(std::move(d));
        }
    }

    // Pairwise conflict analysis.
    for (size_t i = 0; i < report.accesses.size(); ++i) {
        for (size_t j = i; j < report.accesses.size(); ++j) {
            const RaceAccess& A = report.accesses[i];
            const RaceAccess& Bc = report.accesses[j];
            if (!A.is_store && !Bc.is_store)
                continue;
            if (A.space != Bc.space)
                continue;
            // Self-pair of a pure load never conflicts; a self-paired
            // store can still race against its own other-thread copy.
            RacePair pair;
            pair.first = i;
            pair.second = j;

            const PtrInfo p1 = pointerInfo(f_.inst(A.inst).ops[0]);
            const PtrInfo p2 = pointerInfo(f_.inst(Bc.inst).ops[0]);

            auto push = [&](RaceVerdict v, std::string why) {
                pair.verdict = v;
                pair.reason = std::move(why);
                report.pairs.push_back(pair);
            };

            // Properly scoped atomic pairs synchronize instead of
            // racing, whatever their index expressions do. Shared
            // memory is private to a block, so cta scope suffices;
            // global conflicts can span blocks (this analysis cannot
            // bound which threads collide), so require device scope.
            if (A.is_atomic && Bc.is_atomic) {
                const MemScope need = A.space == MemSpace::Shared
                                          ? MemScope::Cta
                                          : MemScope::Gpu;
                if (uint8_t(A.scope) >= uint8_t(need) &&
                    uint8_t(Bc.scope) >= uint8_t(need)) {
                    push(RaceVerdict::Synchronized,
                         A.space == MemSpace::Shared
                             ? "atomic pair at cta scope on shared "
                               "memory"
                             : "atomic pair at device scope");
                    continue;
                }
            }

            // Root-level aliasing.
            const Root& r1 = p1.root;
            const Root& r2 = p2.root;
            if (r1.kind == Root::Kind::Unknown ||
                r2.kind == Root::Kind::Unknown) {
                push(RaceVerdict::Unknown, "unknown pointer root");
                continue;
            }
            if (r1.kind != r2.kind) {
                // Distinct address regions (Param-backed global buffers
                // vs device heap; static shared vs dynamic pool).
                push(RaceVerdict::ProvenDisjoint,
                     "distinct allocation root kinds");
                continue;
            }
            switch (r1.kind) {
            case Root::Kind::Param:
                if (r1.id != r2.id && opts_.assume_param_noalias) {
                    push(RaceVerdict::ProvenDisjoint,
                         "distinct noalias parameters");
                    continue;
                }
                if (r1.id != r2.id) {
                    push(RaceVerdict::Unknown,
                         "parameters may alias (noalias assumption off)");
                    continue;
                }
                break;
            case Root::Kind::Shared:
                if (r1.name != r2.name) {
                    push(RaceVerdict::ProvenDisjoint,
                         "distinct shared buffers");
                    continue;
                }
                break;
            case Root::Kind::Malloc:
                if (r1.id != r2.id) {
                    push(RaceVerdict::ProvenDisjoint,
                         "distinct malloc sites");
                    continue;
                }
                if (!malloc_escapes_) {
                    push(RaceVerdict::ProvenDisjoint,
                         "thread-private device allocation");
                    continue;
                }
                push(RaceVerdict::Unknown, "escaped device allocation");
                continue;
            case Root::Kind::Alloca:
                push(RaceVerdict::ProvenDisjoint,
                     "thread-private stack slot");
                continue;
            case Root::Kind::DynShared:
            case Root::Kind::Unknown:
                break;
            }

            if (!p1.offset.ok || !p2.offset.ok) {
                push(RaceVerdict::Unknown, "non-affine index");
                continue;
            }

            // Byte-width window: accesses [o1, o1+w1) and [o2, o2+w2)
            // overlap iff o1-o2 in [-(w2-1), w1-1].
            auto width_of = [&](const RaceAccess& a) -> int64_t {
                const IrInst& in = f_.inst(a.inst);
                const Type& pt = f_.inst(in.ops[0]).type;
                if (pt.elem_size)
                    return int64_t(pt.elem_size);
                const Type& vt = in.op == IrOp::Store
                                     ? f_.inst(in.ops[1]).type
                                     : in.type;
                return std::max(1u, vt.accessWidth());
            };
            const int64_t w1 = width_of(A);
            const int64_t w2 = width_of(Bc);
            const int64_t wlo = -(w2 - 1), whi = w1 - 1;

            const int s1 = seg_of_[A.inst];
            const int s2 = seg_of_[Bc.inst];
            const bool same_seg = s1 >= 0 && s1 == s2;
            const bool mhp_block = segMhp(s1, s2);

            // Same-block subproblem (only when MHP within a block).
            RaceSolution same{};
            same.collide = false;
            if (mhp_block && opts_.block_threads != 1) {
                const bool on_cycle =
                    same_seg && s1 >= 0 && seg_on_cycle_[s1];
                same = sameBlock(p1.offset, p2.offset, wlo, whi,
                                 same_seg, on_cycle);
                // A self-pair with thread delta 0 is the same dynamic
                // access, not a race; sameBlock only reports d=0
                // collisions via the a==0 path, which for i==j means
                // "every pair of distinct threads hits the same index"
                // — a true conflict. Nothing to adjust here.
            }

            // Cross-block subproblem (global memory only: shared memory
            // is per-block).
            RaceSolution cross{};
            cross.collide = false;
            if (A.space == MemSpace::Global && opts_.grid_blocks != 1)
                cross = crossBlock(p1.offset, p2.offset, wlo, whi);

            if (same.definite && same_seg &&
                uniformGuard(block_of_[A.inst]) &&
                uniformGuard(block_of_[Bc.inst])) {
                std::ostringstream os;
                os << "data race on "
                   << (A.space == MemSpace::Shared ? "shared"
                                                   : "global")
                   << " memory: threads t and t"
                   << (same.witness_d >= 0 ? "+" : "")
                   << same.witness_d << " "
                   << (A.is_store && Bc.is_store
                           ? "both store"
                           : "store and load")
                   << " the same address with no intervening barrier";
                push(RaceVerdict::ProvenRacy, os.str());
                Diagnostic d;
                d.severity = Severity::Error;
                d.pass = "race";
                d.function = f_.name;
                d.value = A.inst;
                d.message = pair.reason;
                report.diagnostics.push_back(std::move(d));
                continue;
            }
            if (!same.collide && !cross.collide) {
                push(RaceVerdict::ProvenDisjoint,
                     same_seg || mhp_block
                         ? "indexes proven disjoint per thread pair"
                         : "barrier-separated epochs");
                continue;
            }
            push(RaceVerdict::Unknown,
                 same.collide ? "possible same-block collision"
                              : "possible cross-block collision");
        }
    }
    return report;
}

} // namespace

void
Residual::addTerm(int64_t coef, const Interval& iv)
{
    if (coef == 0)
        return;
    exact = false;
    const int64_t mag = coef == INT64_MIN ? INT64_MAX : std::abs(coef);
    gcd = gcd == 0 ? mag : std::gcd(gcd, mag);
    // A saturated hull degrades to "anything congruent to konst
    // modulo gcd": the congruence argument below survives it.
    sum = Interval::add(sum, Interval::mul(Interval::of(coef), iv));
}

bool
Residual::solvableWindow(int64_t tlo, int64_t thi) const
{
    const int64_t lo = std::max(tlo, sum.lo);
    const int64_t hi = std::min(thi, sum.hi);
    if (lo > hi)
        return false;
    if (exact)
        return true; // sum == [konst, konst]; membership just checked
    if (gcd <= 1)
        return true;
    return congruentInWindow(konst, gcd, lo, hi);
}

RaceSolution
solveSameBlock(const Residual& res, int64_t a1, int64_t a2,
               int64_t block_threads, int64_t wlo, int64_t whi,
               DeltaSearch search)
{
    RaceSolution out;
    const int64_t B = block_threads;

    if (a1 == a2) {
        // Collision needs a1*d + R in [wlo, whi] for some thread delta
        // d (d == 0 races only when the accesses are distinct dynamic
        // operations, which the caller decides; here enumerate d != 0
        // and also d == 0 — the caller filters self-pairs).
        const int64_t dmax = B ? B - 1 : kEnumCap;
        if (a1 == 0) {
            // Index independent of tid: any two threads collide iff the
            // residual can land in the window.
            out.collide = res.solvableWindow(wlo, whi);
            out.definite = res.exact && res.solvableWindow(wlo, whi);
            out.witness_d = 1;
            return out;
        }
        // a1*d must bring the residual into the width window; the scan
        // order is d = 1, -1, 2, -2, ...
        bool collide = false;
        bool definite = false;
        int64_t wit = 0;
        if (search == DeltaSearch::ClosedForm) {
            const ShiftSolver solver(res, wlo, whi, a1, false);
            const int64_t n = std::min(dmax, kEnumCap);
            const auto pos = solver.first(0, 1, n, true);
            const auto neg = solver.first(0, -n, -1, false);
            if (pos || neg) {
                collide = true;
                if (res.exact) {
                    definite = true;
                    wit = pos && (!neg || *pos <= -*neg) ? *pos : *neg;
                }
            }
        } else {
            for (int64_t d = 1; d <= dmax && d <= kEnumCap; ++d) {
                for (int s = 0; s < 2; ++s) {
                    const int64_t dd = s ? -d : d;
                    const int64_t shift = satMul(a1, dd);
                    const int64_t lo = satSub(wlo, shift);
                    const int64_t hi = satSub(whi, shift);
                    if (res.solvableWindow(lo, hi)) {
                        collide = true;
                        if (res.exact) {
                            definite = true;
                            wit = dd;
                        }
                    }
                    if (collide && (definite || !res.exact))
                        break;
                }
                if (collide && (definite || !res.exact))
                    break;
            }
        }
        if (definite && B == 0 && std::abs(wit) >= kAssumeMinBlockThreads)
            definite = false; // witness needs more threads than assumed
        out.collide = collide;
        out.definite = definite;
        out.witness_d = wit;
        return out;
    }

    // Mixed tid coefficients: scan (t1, t2) when the block is small
    // enough; otherwise give up (Unknown).
    if (B && B <= 512) {
        const ShiftSolver solver(res, wlo, whi, a2, true);
        for (int64_t t1 = 0; t1 < B; ++t1) {
            std::optional<int64_t> t2;
            if (search == DeltaSearch::ClosedForm) {
                // shift = a1*t1 - a2*t2, first t2 != t1.
                const int64_t c = satMul(a1, t1);
                t2 = solver.first(c, 0, t1 - 1, true);
                if (!t2)
                    t2 = solver.first(c, t1 + 1, B - 1, true);
            } else {
                for (int64_t t = 0; t < B && !t2; ++t) {
                    if (t == t1)
                        continue;
                    const int64_t shift =
                        satSub(satMul(a1, t1), satMul(a2, t));
                    if (res.solvableWindow(satSub(wlo, shift),
                                           satSub(whi, shift)))
                        t2 = t;
                }
            }
            if (t2) {
                out.collide = true;
                out.definite = res.exact;
                out.witness_d = t1 - *t2;
                return out;
            }
        }
        out.collide = false;
        return out;
    }
    out.collide = true;
    return out;
}

RaceSolution
solveCrossBlock(const Residual& res, int64_t a1, int64_t a2, int64_t c1,
                int64_t c2, int64_t block_threads, int64_t grid_blocks,
                int64_t wlo, int64_t whi, DeltaSearch search)
{
    // Never produces a definite verdict: the grid may be a single block.
    RaceSolution out;
    out.definite = false;
    const int64_t B = block_threads, G = grid_blocks;

    if (a1 == a2 && c1 == c2 && B && G) {
        const int64_t a = a1, c = c1;
        // Scan thread delta dt in (-B, B) and block delta dc != 0 in
        // (-G, G): collision iff a*dt + c*dc + R hits the window.
        // Folding a*dt into the residual's gcd would lose the mod-(c)
        // structure that proves block-striped stores disjoint, so keep
        // the exact scan when it is affordable. The closed form solves
        // each block delta's thread-delta scan at once.
        const int64_t iters = satMul(2 * B - 1, 2 * (G - 1));
        if (iters <= (kEnumCap << 6)) {
            const ShiftSolver solver(res, wlo, whi, a, false);
            for (int64_t dc = 1; dc < G; ++dc) {
                for (int s = 0; s < 2; ++s) {
                    const int64_t cs = satMul(c, s ? -dc : dc);
                    if (search == DeltaSearch::ClosedForm) {
                        if (solver.first(cs, -(B - 1), B - 1, true)) {
                            out.collide = true;
                            return out;
                        }
                        continue;
                    }
                    for (int64_t dt = -(B - 1); dt < B; ++dt) {
                        if (solver.hit(satAdd(satMul(a, dt), cs))) {
                            out.collide = true;
                            return out;
                        }
                    }
                }
            }
            out.collide = false;
            return out;
        }
    }
    // Fold geometry terms as independent-per-thread interval terms and
    // test the window once. Also covers geometry-free indexes (all
    // coefficients zero: pure residual window membership).
    Residual folded = res;
    const Interval t_iv =
        B ? Interval::range(0, B - 1) : Interval::range(0, INT64_MAX);
    const Interval c_iv =
        G ? Interval::range(0, G - 1) : Interval::range(0, INT64_MAX);
    folded.addTerm(a1, t_iv);
    folded.addTerm(satSub(0, a2), t_iv);
    folded.addTerm(c1, c_iv);
    folded.addTerm(satSub(0, c2), c_iv);
    out.collide = folded.solvableWindow(wlo, whi);
    return out;
}

RaceReport
analyzeRaces(const IrFunction& f, const RaceAnalysisOptions& opts)
{
    RaceAnalyzer az(f, opts);
    return az.run();
}

} // namespace lmi::analysis
