/**
 * @file
 * Tests for the barrier-aware static race analyzer
 * (analysis/race_analysis.hpp) and the dynamic race sanitizer
 * (sim/race_sanitizer.hpp): verdicts on hand-built fixtures, the
 * clean/seeded workload suite sweep, and the sanitizer's conflict rule
 * exercised both directly and through full simulated launches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "analysis/race_analysis.hpp"
#include "common/rng.hpp"
#include "compiler/codegen.hpp"
#include "ir/builder.hpp"
#include "sim/device.hpp"
#include "sim/race_sanitizer.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

using namespace ir;
using analysis::Interval;
using analysis::RaceAnalysisOptions;
using analysis::RaceReport;
using analysis::RaceVerdict;

IrModule
module(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

RaceReport
analyze(const IrFunction& f, unsigned block_threads = 64,
        unsigned grid_blocks = 2)
{
    RaceAnalysisOptions opts;
    opts.block_threads = block_threads;
    opts.grid_blocks = grid_blocks;
    return analysis::analyzeRaces(f, opts);
}

// ---------------------------------------------------------------------
// Residual solver arithmetic.
// ---------------------------------------------------------------------

/** The congruence step computed in 128 bits, as the solver once did:
 *  the smallest x >= lo with x == konst (mod gcd), then x <= hi. */
bool
congruentInWindowWide(int64_t konst, int64_t gcd, int64_t lo, int64_t hi)
{
    const __int128 diff = __int128(konst) - lo;
    const __int128 q = diff >= 0 ? diff / gcd : -((-diff + gcd - 1) / gcd);
    const __int128 x = __int128(konst) - q * gcd;
    return x <= hi;
}

TEST(RaceAnalysis, CongruentWindowMatchesWideArithmetic)
{
    using analysis::congruentInWindow;
    constexpr int64_t kMin = INT64_MIN, kMax = INT64_MAX;
    const std::vector<int64_t> gcds = {1, 2, 3, 7, 4096,
                                       int64_t(1) << 62, kMax / 2 + 1,
                                       kMax - 1, kMax};
    // Saturated hull ends, small values, and the neighbours of each
    // stride and its negation.
    std::vector<int64_t> values = {kMin, kMin + 1, kMin + 2, -2, -1, 0,
                                   1, 2, kMax - 2, kMax - 1, kMax};
    for (int64_t g : gcds)
        for (int64_t d : {-1, 0, 1}) {
            int64_t v;
            if (!__builtin_add_overflow(g, d, &v))
                values.push_back(v);
            if (!__builtin_sub_overflow(d, g, &v))
                values.push_back(v);
        }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());

    size_t checked = 0;
    for (int64_t g : gcds)
        for (int64_t konst : values)
            for (int64_t lo : values)
                for (int64_t hi : values) {
                    if (lo > hi)
                        continue;
                    ASSERT_EQ(congruentInWindow(konst, g, lo, hi),
                              congruentInWindowWide(konst, g, lo, hi))
                        << "konst=" << konst << " gcd=" << g
                        << " lo=" << lo << " hi=" << hi;
                    ++checked;
                }
    EXPECT_GT(checked, 100000u);

    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const int64_t g =
            rng.chance(0.5) ? int64_t(1 + rng.below(64))
                            : int64_t(1 + rng.below(uint64_t(kMax)));
        const int64_t konst = int64_t(rng.next());
        int64_t lo = int64_t(rng.next()), hi = int64_t(rng.next());
        if (lo > hi)
            std::swap(lo, hi);
        ASSERT_EQ(congruentInWindow(konst, g, lo, hi),
                  congruentInWindowWide(konst, g, lo, hi))
            << "konst=" << konst << " gcd=" << g << " lo=" << lo
            << " hi=" << hi;
    }

    // Hand-checked edges.
    EXPECT_TRUE(congruentInWindow(5, 2, kMin, kMin + 1));
    EXPECT_FALSE(congruentInWindow(0, kMax, 1, kMax - 1));
    EXPECT_TRUE(congruentInWindow(0, kMax, 1, kMax));
    EXPECT_FALSE(congruentInWindow(kMax, kMax, kMin, kMin)); // kMin = -kMax-1
    EXPECT_TRUE(congruentInWindow(kMax, kMax, kMin + 1, kMin + 1));
}

/** A seeded residual: exact, gcd-strided, saturated, or raw fields. */
analysis::Residual
randomResidual(Rng& rng, const std::vector<int64_t>& coefs)
{
    constexpr int64_t kMin = INT64_MIN, kMax = INT64_MAX;
    const std::vector<Interval> intervals = {
        Interval::of(0),         Interval::range(0, 3),
        Interval::range(-5, 5),  Interval::range(0, 255),
        Interval::range(0, int64_t(1) << 31), Interval::full(),
        Interval::range(0, kMax), Interval::range(kMin, 0)};
    const auto small = [&rng] { return int64_t(rng.below(129)) - 64; };
    analysis::Residual res;
    switch (rng.below(4)) {
    case 0: // exact
        res.konst = rng.chance(0.8) ? small() : coefs[rng.below(coefs.size())];
        res.sum = Interval::of(res.konst);
        break;
    case 1: // gcd-strided, bounded or saturated hull
    case 2:
        res.konst = small();
        res.sum = Interval::of(res.konst);
        for (uint64_t n = rng.range(1, 2); n; --n)
            res.addTerm(coefs[rng.below(coefs.size())],
                        intervals[rng.below(intervals.size())]);
        break;
    default: { // raw fields, extreme values included
        res.exact = false;
        res.konst = int64_t(rng.next());
        res.gcd = rng.chance(0.5) ? int64_t(rng.below(65))
                                  : int64_t(rng.below(uint64_t(kMax)));
        // Hull ends at, near or far from the int64 ends, where the
        // scans' saturated windows land.
        const auto end = [&](int64_t extreme, int64_t toward) {
            const uint64_t pick = rng.below(3);
            return pick == 0   ? extreme
                   : pick == 1 ? extreme + toward * int64_t(rng.below(40))
                               : int64_t(rng.next());
        };
        int64_t lo = end(kMin, 1);
        int64_t hi = end(kMax, -1);
        if (lo > hi)
            std::swap(lo, hi);
        res.sum = Interval::range(lo, hi);
        break;
    }
    }
    return res;
}

TEST(RaceAnalysis, ClosedFormMatchesEnumeration)
{
    using analysis::DeltaSearch;
    using analysis::RaceSolution;
    constexpr int64_t kMin = INT64_MIN, kMax = INT64_MAX;
    std::vector<int64_t> coefs = {0,       1,        -1,       2,
                                  -2,      3,        4,        -4,
                                  8,       12,       -12,      256,
                                  4096,    -4096,    kMin,     kMin + 1,
                                  kMax,    kMax - 1, kMax / 3, -(kMax / 3),
                                  int64_t(1) << 62, -(int64_t(1) << 62),
                                  (int64_t(1) << 50) + 4};
    const std::vector<int64_t> blocks = {0, 1, 2, 3, 5, 8, 17, 32, 33,
                                         64, 96, 512};
    const std::vector<int64_t> grids = {0, 1, 2, 3, 5, 9, 40};
    const int64_t widths[] = {1, 2, 4, 8, 16};

    Rng rng(24);
    size_t same_collide = 0, same_clear = 0, definite = 0, mixed = 0,
           mixed_collide = 0, cross_collide = 0, cross_clear = 0;
    for (int i = 0; i < 6000; ++i) {
        const analysis::Residual res = randomResidual(rng, coefs);
        const auto coef = [&] {
            return rng.chance(0.7) ? coefs[rng.below(coefs.size())]
                                   : int64_t(rng.below(41)) - 20;
        };
        const int64_t a1 = coef();
        const int64_t a2 = rng.chance(0.6) ? a1 : coef();
        const int64_t c1 = coef();
        const int64_t c2 = rng.chance(0.8) ? c1 : coef();
        // Mixed coefficients scan B^2 pairs: keep most blocks small.
        int64_t B = blocks[rng.below(blocks.size())];
        if (a1 != a2 && B > 96 && rng.chance(0.9))
            B = 33;
        const int64_t G = grids[rng.below(grids.size())];
        int64_t wlo = -(widths[rng.below(5)] - 1);
        int64_t whi = widths[rng.below(5)] - 1;
        if (rng.chance(0.2)) {
            // Windows off zero or at the int64 ends, where a shifted
            // window can clamp wholly to one end.
            const int64_t bases[] = {-20, kMin, kMax - 40};
            wlo = bases[rng.below(3)] + int64_t(rng.below(20));
            whi = wlo + int64_t(rng.below(20));
        }
        std::ostringstream what;
        what << "instance " << i << ": exact=" << res.exact
             << " konst=" << res.konst << " gcd=" << res.gcd << " sum="
             << res.sum.toString() << " a1=" << a1 << " a2=" << a2
             << " c1=" << c1 << " c2=" << c2 << " B=" << B << " G=" << G
             << " window=[" << wlo << ", " << whi << "]";

        const RaceSolution fast =
            analysis::solveSameBlock(res, a1, a2, B, wlo, whi);
        const RaceSolution slow = analysis::solveSameBlock(
            res, a1, a2, B, wlo, whi, DeltaSearch::Enumerate);
        ASSERT_EQ(fast.collide, slow.collide) << what.str();
        ASSERT_EQ(fast.definite, slow.definite) << what.str();
        ASSERT_EQ(fast.witness_d, slow.witness_d) << what.str();
        (slow.collide ? same_collide : same_clear) += a1 == a2;
        definite += slow.definite && slow.witness_d != 1;
        if (a1 != a2 && B && B <= 512) {
            ++mixed;
            mixed_collide += slow.collide;
        }

        const RaceSolution fast_x = analysis::solveCrossBlock(
            res, a1, a2, c1, c2, B, G, wlo, whi);
        const RaceSolution slow_x = analysis::solveCrossBlock(
            res, a1, a2, c1, c2, B, G, wlo, whi, DeltaSearch::Enumerate);
        ASSERT_EQ(fast_x.collide, slow_x.collide) << what.str();
        ASSERT_EQ(fast_x.definite, slow_x.definite) << what.str();
        if (a1 == a2 && c1 == c2 && B && G > 1)
            (slow_x.collide ? cross_collide : cross_clear) += 1;
    }
    // Every branch saw both outcomes.
    EXPECT_GT(same_collide, 100u);
    EXPECT_GT(same_clear, 100u);
    EXPECT_GT(definite, 50u);
    EXPECT_GT(mixed_collide, 50u);
    EXPECT_GT(mixed - mixed_collide, 50u);
    EXPECT_GT(cross_collide, 100u);
    EXPECT_GT(cross_clear, 100u);
}

// ---------------------------------------------------------------------
// Static analyzer: fixtures.
// ---------------------------------------------------------------------

TEST(RaceAnalysis, TidIndexedStoresAreProvenDisjoint)
{
    IrFunction f = IrBuilder::makeKernel(
        "disjoint", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto v = b.load(b.gep(b.param(0), t));
    b.store(b.gep(b.param(1), t), v);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_EQ(r.provenRacy(), 0u);
    EXPECT_EQ(r.unknown(), 0u);
    EXPECT_GT(r.provenDisjoint(), 0u);
    EXPECT_TRUE(r.divergent_barriers.empty());
    EXPECT_TRUE(r.diagnostics.empty());
}

TEST(RaceAnalysis, BroadcastStoreIsProvenRacy)
{
    // Every thread stores to out[0]: a definite same-address witness.
    IrFunction f = IrBuilder::makeKernel("bcast", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.tid();
    b.store(b.gep(b.param(0), b.constInt(0)), t);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_GE(r.provenRacy(), 1u);
    EXPECT_FALSE(r.diagnostics.empty());
}

TEST(RaceAnalysis, NeighborExchangeNeedsTheBarrier)
{
    // tile[t] = in[t]; (barrier?); out[t] = tile[t + 1]. Without the
    // barrier, thread t's load collides with thread t+1's store — a
    // definite witness one thread-delta away. With it, the two accesses
    // sit in different barrier epochs and cannot happen in parallel.
    auto build = [](bool with_barrier) {
        IrFunction f = IrBuilder::makeKernel(
            "exch", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
        IrBuilder b(f);
        b.setInsertPoint(b.block("entry"));
        auto tile = b.sharedBuffer("tile", 65 * 4, 4);
        auto t = b.tid();
        auto g = b.gtid();
        b.store(b.gep(tile, t), b.load(b.gep(b.param(0), g)));
        if (with_barrier)
            b.barrier();
        auto n1 = b.iadd(t, b.constInt(1));
        b.store(b.gep(b.param(1), g), b.load(b.gep(tile, n1)));
        b.ret();
        return f;
    };

    const RaceReport racy = analyze(build(false));
    EXPECT_GE(racy.provenRacy(), 1u);

    const RaceReport clean = analyze(build(true));
    EXPECT_EQ(clean.provenRacy(), 0u);
    EXPECT_EQ(clean.unknown(), 0u);
}

TEST(RaceAnalysis, BarrierUnderTidDependentControlIsDivergent)
{
    IrFunction f = IrBuilder::makeKernel("divbar", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto bar = b.block("bar");
    auto done = b.block("done");

    b.setInsertPoint(entry);
    auto t = b.tid();
    auto even = b.icmp(CmpOp::EQ, b.iand(t, b.constInt(1)), b.constInt(0));
    b.br(even, bar, done);
    b.setInsertPoint(bar);
    b.barrier();
    b.jump(done);
    b.setInsertPoint(done);
    b.store(b.gep(b.param(0), t), t);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_EQ(r.divergent_barriers.size(), 1u);
    EXPECT_FALSE(r.diagnostics.empty());
}

TEST(RaceAnalysis, DataDependentIndexIsUnknownNotRacy)
{
    // out[in[t]] = t: the index is a loaded value the analyzer cannot
    // bound, so the store pair must stay Unknown (sanitizer territory),
    // never ProvenRacy (no definite witness) and never ProvenDisjoint.
    IrFunction f = IrBuilder::makeKernel(
        "gather", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto idx = b.load(b.gep(b.param(0), t));
    b.store(b.gep(b.param(1), idx), t);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_EQ(r.provenRacy(), 0u);
    EXPECT_GE(r.unknown(), 1u);
}

TEST(RaceAnalysis, DistinctParamsDoNotAliasByDefault)
{
    // in[t+1] load vs out[t] store would collide if in == out; the
    // GPUVerify-style array abstraction assumes they do not.
    IrFunction f = IrBuilder::makeKernel(
        "shift", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto v = b.load(b.gep(b.param(0), b.iadd(t, b.constInt(1))));
    b.store(b.gep(b.param(1), t), v);
    b.ret();

    const RaceReport lax = analyze(f);
    EXPECT_EQ(lax.provenRacy(), 0u);
    EXPECT_EQ(lax.unknown(), 0u);

    RaceAnalysisOptions strict;
    strict.block_threads = 64;
    strict.grid_blocks = 2;
    strict.assume_param_noalias = false;
    const RaceReport r = analysis::analyzeRaces(f, strict);
    EXPECT_GE(r.unknown(), 1u) << "a maybe-aliasing cross-param pair "
                                  "must not be proven disjoint";
}

// ---------------------------------------------------------------------
// Static analyzer: the workload suite is the acceptance gate.
// ---------------------------------------------------------------------

TEST(RaceAnalysis, CleanWorkloadSuiteIsFullyProvenDisjoint)
{
    for (const WorkloadProfile& p : workloadSuite()) {
        const IrModule m = buildWorkloadKernel(p);
        const IrFunction flat = inlineCalls(m, *m.find(p.name));
        RaceAnalysisOptions opts;
        opts.block_threads = p.block_threads;
        opts.grid_blocks = p.grid_blocks;
        const RaceReport r = analysis::analyzeRaces(flat, opts);
        EXPECT_EQ(r.provenRacy(), 0u) << p.name;
        EXPECT_EQ(r.unknown(), 0u) << p.name;
        EXPECT_TRUE(r.divergent_barriers.empty()) << p.name;
    }
}

TEST(RaceAnalysis, EverySeededVariantIsFlagged)
{
    for (const SeededWorkload& sw : raceSeededVariants()) {
        const IrModule m = buildWorkloadKernel(sw.profile, sw.seed);
        const IrFunction flat = inlineCalls(m, *m.find(sw.profile.name));
        RaceAnalysisOptions opts;
        opts.block_threads = sw.profile.block_threads;
        opts.grid_blocks = sw.profile.grid_blocks;
        const RaceReport r = analysis::analyzeRaces(flat, opts);
        EXPECT_TRUE(r.provenRacy() > 0 || !r.divergent_barriers.empty())
            << sw.name;
    }
}

// ---------------------------------------------------------------------
// Dynamic sanitizer: conflict rule, exercised directly.
// ---------------------------------------------------------------------

TEST(RaceSanitizer, SameWarpAccessesNeverConflict)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    s.onAccess(MemSpace::Shared, 0, 0, 1, 11, 0x40, 4, true);
    s.onAccess(MemSpace::Shared, 0, 0, 2, 12, 0x40, 4, false);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, CrossWarpSameEpochStoreConflicts)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    s.onAccess(MemSpace::Shared, 0, 1, 32, 11, 0x40, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
    ASSERT_EQ(s.reports().size(), 1u);
    EXPECT_EQ(s.reports()[0].warp, 1u);
    EXPECT_EQ(s.reports()[0].other_warp, 0u);
    EXPECT_TRUE(s.reports()[0].is_store);
}

TEST(RaceSanitizer, LoadLoadNeverConflicts)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Global, 0, 0, 0, 10, 0x100, 4, false);
    s.onAccess(MemSpace::Global, 1, 0, 64, 11, 0x100, 4, false);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, BarrierEpochOrdersCrossWarpAccesses)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    s.onBarrierRelease(0);
    s.onAccess(MemSpace::Shared, 0, 1, 32, 11, 0x40, 4, false);
    EXPECT_EQ(s.conflictCount(), 0u);

    // A second store in the *new* epoch conflicts with the epoch-1 load
    // from the other warp.
    s.onAccess(MemSpace::Shared, 0, 0, 0, 12, 0x40, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
}

TEST(RaceSanitizer, CrossBlockGlobalConflictIgnoresBarriers)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Global, 0, 0, 0, 10, 0x200, 4, true);
    s.onBarrierRelease(0);
    s.onBarrierRelease(1);
    s.onAccess(MemSpace::Global, 1, 0, 64, 11, 0x200, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
}

TEST(RaceSanitizer, DeviceAllocForgetsRecycledShadow)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Global, 0, 0, 0, 10, 0x300, 4, true);
    s.onDeviceAlloc(0x300, 64);
    s.onAccess(MemSpace::Global, 1, 0, 64, 11, 0x300, 4, true);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, BlockRetireDropsSharedShadowAndEpoch)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    EXPECT_EQ(s.wordsTracked(), 1u);
    s.onBlockRetire(0);
    EXPECT_EQ(s.wordsTracked(), 0u);
    // A new resident block with the same id starts clean.
    s.onAccess(MemSpace::Shared, 0, 1, 32, 11, 0x40, 4, true);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, WideAccessChecksEveryWord)
{
    RaceSanitizer s;
    s.onAccess(MemSpace::Global, 0, 0, 0, 10, 0x400, 8, true);
    s.onAccess(MemSpace::Global, 0, 1, 32, 11, 0x404, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
}

// ---------------------------------------------------------------------
// Dynamic sanitizer: full launches through the simulator.
// ---------------------------------------------------------------------

TEST(RaceSanitizer, CleanLaunchHasNoConflictsAndIdenticalOutput)
{
    // tile[t] = in[t]; barrier; out[t] = tile[63 - t], twice: once
    // plain, once sanitized. Outputs and timing must match exactly and
    // the sanitizer must stay silent (cross-warp reads are ordered by
    // the barrier epoch).
    auto build = [] {
        IrFunction f = IrBuilder::makeKernel(
            "rev", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
        IrBuilder b(f);
        b.setInsertPoint(b.block("entry"));
        auto tile = b.sharedBuffer("tile", 64 * 4, 4);
        auto t = b.tid();
        b.store(b.gep(tile, t), b.load(b.gep(b.param(0), t)));
        b.barrier();
        b.store(b.gep(b.param(1), t),
                b.load(b.gep(tile, b.isub(b.constInt(63), t))));
        b.ret();
        return module(std::move(f));
    };

    const unsigned n = 64;
    auto run = [&](RaceSanitizer* sanitizer) {
        Device dev;
        const uint64_t in = dev.cudaMalloc(n * 4);
        const uint64_t out = dev.cudaMalloc(n * 4);
        for (unsigned i = 0; i < n; ++i)
            dev.poke32(in + 4 * i, 100 + i);
        const CompiledKernel k = dev.compile(build(), "rev");
        LaunchOptions opts;
        opts.sanitizer = sanitizer;
        const RunResult r = dev.launch(k, 1, n, {in, out}, opts);
        std::vector<uint32_t> result;
        for (unsigned i = 0; i < n; ++i)
            result.push_back(dev.peek32(out + 4 * i));
        return std::make_pair(r, result);
    };

    RaceSanitizer sanitizer;
    const auto plain = run(nullptr);
    const auto watched = run(&sanitizer);
    EXPECT_FALSE(plain.first.faulted());
    EXPECT_FALSE(watched.first.faulted());
    EXPECT_EQ(plain.second, watched.second);
    EXPECT_EQ(plain.first.cycles, watched.first.cycles);
    EXPECT_EQ(sanitizer.conflictCount(), 0u);
    EXPECT_GT(sanitizer.wordsTracked(), 0u);
}

TEST(RaceSanitizer, BroadcastLaunchReportsCrossWarpConflicts)
{
    IrFunction f = IrBuilder::makeKernel("bcast", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.store(b.gep(b.param(0), b.constInt(0)), b.tid());
    b.ret();

    Device dev;
    const uint64_t out = dev.cudaMalloc(256);
    const CompiledKernel k = dev.compile(module(std::move(f)), "bcast");
    RaceSanitizer sanitizer;
    LaunchOptions opts;
    opts.sanitizer = &sanitizer;
    const RunResult r = dev.launch(k, 1, 64, {out}, opts);
    EXPECT_FALSE(r.faulted());
    EXPECT_GT(sanitizer.conflictCount(), 0u);
    ASSERT_FALSE(sanitizer.reports().empty());
    EXPECT_EQ(sanitizer.reports()[0].space, MemSpace::Global);
}

} // namespace
} // namespace lmi
