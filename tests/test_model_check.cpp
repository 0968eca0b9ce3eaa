/**
 * @file
 * Bounded weak-memory model checker tests: hand-built event logs with
 * known reachable/forbidden outcome sets, temporal (use-after-free)
 * fault discovery across interleavings, the execution bound and the
 * event-count cap, watch-load overrides, and end-to-end verdicts for
 * the whole litmus workload family.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/model_check.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "workloads/litmus.hpp"

namespace lmi {
namespace {

using analysis::ModelCheckConfig;
using analysis::ModelCheckFault;
using analysis::ModelCheckReport;
using analysis::modelCheck;

/** One log event; sm mirrors the block like the single-thread engine. */
MemEvent
ev(MemEvent::Kind kind, uint32_t gtid, uint32_t block, uint64_t seq,
   uint64_t addr, uint64_t value = 0,
   MemOrder order = MemOrder::Relaxed, MemScope scope = MemScope::Gpu)
{
    MemEvent e;
    e.kind = kind;
    e.is_atomic = kind != MemEvent::Kind::Malloc &&
                  kind != MemEvent::Kind::Free &&
                  kind != MemEvent::Kind::Barrier;
    e.order = order;
    e.scope = scope;
    e.width = 4;
    e.sm = block;
    e.block = block;
    e.gtid = gtid;
    e.pc = seq * 4;
    e.seq = seq;
    e.addr = addr;
    e.value = value;
    return e;
}

constexpr uint64_t kX = 0x1000, kF = 0x1004;

/** Classic message passing: writer stores data then flag, reader loads
 *  flag then data. Order parameterized. */
std::vector<MemEvent>
mpLog(MemOrder store_flag, MemOrder load_flag)
{
    using K = MemEvent::Kind;
    return {
        ev(K::Store, 0, 0, 0, kX, 1),
        ev(K::Store, 0, 0, 1, kF, 1, store_flag),
        ev(K::Load, 1, 1, 0, kF, 0, load_flag),
        ev(K::Load, 1, 1, 1, kX, 0),
    };
}

TEST(ModelCheck, RelaxedMpReachesTheWeakOutcome)
{
    const ModelCheckReport r = modelCheck(mpLog(MemOrder::Relaxed,
                                                MemOrder::Relaxed));
    EXPECT_EQ(r.agents, 2u);
    EXPECT_EQ(r.events, 4u);
    EXPECT_FALSE(r.hit_bound);
    // Watch tuple = reader's (flag, data). All four combinations are
    // reachable under relaxed ordering, including the weak (1, 0).
    EXPECT_TRUE(r.sawOutcome({1, 0}));
    EXPECT_TRUE(r.sawOutcome({0, 0}));
    EXPECT_TRUE(r.sawOutcome({1, 1}));
    EXPECT_EQ(r.outcomes.size(), 4u);
    EXPECT_TRUE(r.faults.empty());
    EXPECT_TRUE(r.races.empty());
}

TEST(ModelCheck, ReleaseAcquireMpForbidsStaleData)
{
    const ModelCheckReport r = modelCheck(mpLog(MemOrder::Release,
                                                MemOrder::Acquire));
    EXPECT_FALSE(r.sawOutcome({1, 0}))
        << "flag=1 must publish data=1 under release/acquire";
    EXPECT_TRUE(r.sawOutcome({1, 1}));
    EXPECT_TRUE(r.sawOutcome({0, 0}));
}

TEST(ModelCheck, ExecutionBoundIsHonoured)
{
    ModelCheckConfig cfg;
    cfg.max_executions = 1;
    const ModelCheckReport r =
        modelCheck(mpLog(MemOrder::Relaxed, MemOrder::Relaxed), cfg);
    EXPECT_EQ(r.executions, 1u);
    EXPECT_TRUE(r.hit_bound);
    EXPECT_EQ(r.outcomes.size(), 1u);
}

TEST(ModelCheck, WatchOverrideSelectsEvents)
{
    ModelCheckConfig cfg;
    cfg.watch = {3}; // only the reader's data load
    const ModelCheckReport r =
        modelCheck(mpLog(MemOrder::Relaxed, MemOrder::Relaxed), cfg);
    for (const auto& tuple : r.outcomes)
        EXPECT_EQ(tuple.size(), 1u);
    EXPECT_TRUE(r.sawOutcome({0}));
    EXPECT_TRUE(r.sawOutcome({1}));
}

TEST(ModelCheck, FindsUseAfterFreeInSomeInterleaving)
{
    using K = MemEvent::Kind;
    // Owner allocates then frees; a sibling thread stores into the
    // allocation with no ordering against the free.
    const std::vector<MemEvent> log = {
        ev(K::Malloc, 0, 0, 0, 0x2000, 64),
        ev(K::Free, 0, 0, 1, 0x2000),
        ev(K::Store, 1, 0, 0, 0x2010, 7),
    };
    const ModelCheckReport r = modelCheck(log);
    ASSERT_FALSE(r.faults.empty());
    EXPECT_EQ(r.faults[0].kind,
              ModelCheckFault::Kind::UseAfterFreeStore);
    EXPECT_EQ(r.faults[0].addr, 0x2010u);
    EXPECT_EQ(r.faults[0].gtid, 1u);
}

TEST(ModelCheck, BarrierOrderingSuppressesUseAfterFree)
{
    using K = MemEvent::Kind;
    // Same shape, but a CTA barrier separates the store from the free:
    // every interleaving runs the store before the free.
    const std::vector<MemEvent> log = {
        ev(K::Malloc, 0, 0, 0, 0x2000, 64),
        ev(K::Barrier, 0, 0, 1, 0, 0, MemOrder::AcqRel, MemScope::Cta),
        ev(K::Free, 0, 0, 2, 0x2000),
        ev(K::Store, 1, 0, 0, 0x2010, 7),
        ev(K::Barrier, 1, 0, 1, 0, 0, MemOrder::AcqRel, MemScope::Cta),
    };
    const ModelCheckReport r = modelCheck(log);
    EXPECT_TRUE(r.faults.empty());
}

TEST(ModelCheck, RejectsOversizedLogs)
{
    std::vector<MemEvent> log;
    for (size_t i = 0; i < analysis::kMaxModelEvents + 1; ++i)
        log.push_back(ev(MemEvent::Kind::Load, 0, 0, i, kX));
    const ModelCheckReport r = modelCheck(log);
    EXPECT_EQ(r.executions, 0u);
}

TEST(ModelCheck, StateCapBoundsMemory)
{
    using K = MemEvent::Kind;
    // 32 CTAs each store to their own address and read their
    // neighbour's: every CTA steps independently, so the states number
    // in the billions. The state cap stops the search before the
    // default execution bound does.
    std::vector<MemEvent> log;
    for (uint32_t c = 0; c < 32; ++c) {
        log.push_back(ev(K::Store, c, c, 0, 0x4000 + 8 * c, 1));
        log.push_back(ev(K::Load, c, c, 1, 0x4000 + 8 * ((c + 1) % 32)));
    }
    ASSERT_EQ(log.size(), analysis::kMaxModelEvents);
    const ModelCheckReport r = modelCheck(log);
    EXPECT_TRUE(r.hit_bound);
    EXPECT_LT(r.executions, ModelCheckConfig{}.max_executions);
}

TEST(ModelCheck, ScopeMismatchRaceIsReported)
{
    using K = MemEvent::Kind;
    // Cross-block handshake at cta scope: the release/acquire pair is
    // too narrow to synchronize, so the data accesses race.
    const std::vector<MemEvent> log = {
        ev(K::Store, 0, 0, 0, kX, 1),
        ev(K::Store, 0, 0, 1, kF, 1, MemOrder::Release, MemScope::Cta),
        ev(K::Load, 1, 1, 0, kF, 0, MemOrder::Acquire, MemScope::Cta),
        ev(K::Load, 1, 1, 1, kX, 0),
    };
    const ModelCheckReport r = modelCheck(log);
    // The race lands on the flag cell: its release/acquire pair is
    // atomic on both sides but too narrow for the cross-block
    // distance. (The data cell's relaxed device-scope atomics conflict
    // at sufficient scope, which is not a data race.)
    ASSERT_FALSE(r.races.empty());
    bool on_flag = false;
    for (const auto& race : r.races)
        on_flag |= race.addr == kF && race.scope_mismatch;
    EXPECT_TRUE(on_flag);
}

TEST(ModelCheck, ProperlyScopedHandshakeHasNoRace)
{
    const ModelCheckReport r = modelCheck(mpLog(MemOrder::Release,
                                                MemOrder::Acquire));
    EXPECT_TRUE(r.races.empty());
}

// ---------------------------------------------------------------------
// Seeded random logs against a golden digest table.
// ---------------------------------------------------------------------

/** Heap block the seeded logs allocate, free and access. */
constexpr uint64_t kHeapBase = 0x2000, kHeapSize = 16;

struct SeededCase
{
    std::vector<MemEvent> log;
    ModelCheckConfig cfg;
};

/**
 * A small random log: 1-4 CTAs with one or two agents (warps) each,
 * 3-7 random events over five addresses (two inside the heap block),
 * an optional malloc/free pair and a stray free. Every fourth case
 * runs under a bound of 1-40 executions, the rest under 3000.
 */
SeededCase
seededCase(uint64_t seed)
{
    using K = MemEvent::Kind;
    static const uint64_t kAddrs[] = {kX, kF, 0x1008, kHeapBase,
                                      kHeapBase + 8};
    static const AtomicOp kRmwOps[] = {AtomicOp::Add, AtomicOp::Exch,
                                       AtomicOp::Min, AtomicOp::Max,
                                       AtomicOp::Or,  AtomicOp::Xor,
                                       AtomicOp::Ld};
    Rng rng(seed);
    SeededCase sc;
    const uint32_t n_ctas = uint32_t(1 + rng.below(4));
    const uint32_t n_agents = n_ctas + uint32_t(rng.below(n_ctas + 1));
    const size_t n = size_t(3 + rng.below(5));

    std::vector<uint64_t> seq(n_agents, 0);
    auto add = [&](K kind, uint32_t agent) -> MemEvent& {
        MemEvent e;
        e.kind = kind;
        e.block = agent % n_ctas;
        e.sm = e.block;
        e.warp = agent / n_ctas;
        e.gtid = e.block * 64 + e.warp * 32;
        e.seq = seq[agent]++;
        e.pc = 8 * (sc.log.size() + 1);
        sc.log.push_back(e);
        return sc.log.back();
    };
    auto agent = [&] { return uint32_t(rng.below(n_agents)); };

    const bool heap = rng.chance(0.4);
    const size_t malloc_at = heap ? size_t(rng.below(n)) : n;
    const size_t free_at = heap ? malloc_at + size_t(rng.below(n - malloc_at))
                                : n;
    for (size_t i = 0; i < n; ++i) {
        if (i == malloc_at) {
            MemEvent& m = add(K::Malloc, agent());
            m.addr = kHeapBase;
            m.value = kHeapSize;
        }
        const uint64_t r = rng.below(100);
        const K kind = r < 24   ? K::Load
                       : r < 48 ? K::Store
                       : r < 64 ? K::Rmw
                       : r < 78 ? K::Cas
                       : r < 90 ? K::Fence
                                : K::Barrier;
        MemEvent& e = add(kind, agent());
        e.scope = MemScope(rng.below(3));
        e.order = MemOrder(rng.below(4));
        if (kind == K::Barrier) {
            e.scope = MemScope::Cta;
            e.order = MemOrder::AcqRel;
        } else if (kind != K::Fence) {
            e.is_atomic = kind == K::Rmw || kind == K::Cas ||
                          rng.chance(0.6);
            e.width = rng.chance(0.8) ? 4 : 8;
            e.addr = kAddrs[rng.below(5)];
            // Occasionally wider than the access, to exercise masking.
            e.value = rng.chance(0.1) ? (uint64_t(1) << 32) + 1
                                      : 1 + rng.below(3);
            e.value2 = rng.below(3);
            if (kind == K::Rmw)
                e.aop = kRmwOps[rng.below(7)];
        }
        if (i == free_at) {
            MemEvent& f = add(K::Free, agent());
            f.addr = kHeapBase;
        }
    }
    if (rng.chance(0.1)) // double free, or free of a never-allocated base
        add(K::Free, agent()).addr = rng.chance(0.5) ? kHeapBase : 0x3000;

    sc.cfg.max_executions = seed % 4 == 3 ? 1 + rng.below(40) : 3000;
    if (rng.chance(0.15)) { // explicit watch list; may repeat or overrun
        for (size_t k = 0; k < 3; ++k)
            sc.cfg.watch.push_back(size_t(rng.below(sc.log.size() + 1)));
    }
    return sc;
}

/**
 * Digest of what a report found, with no counts: the outcome set, the
 * faults in report order and the races. Two searches that reach the
 * same executions agree on it however many transitions they take.
 */
uint64_t
outcomeDigest(const ModelCheckReport& r)
{
    Fnv1a h;
    h.u64(r.events).u64(r.agents);
    h.u64(r.outcomes.size());
    for (const auto& tuple : r.outcomes) {
        h.u64(tuple.size());
        for (uint64_t v : tuple)
            h.u64(v);
    }
    h.u64(r.faults.size());
    for (const ModelCheckFault& f : r.faults)
        h.u64(uint64_t(f.kind)).u64(f.addr).u64(f.gtid).u64(f.pc);
    h.u64(r.races.size());
    for (const analysis::ModelCheckRace& race : r.races)
        h.u64(race.addr).u64(race.gtid_a).u64(race.gtid_b)
            .u64(race.pc_a).u64(race.pc_b).u64(race.scope_mismatch);
    return h.value();
}

/** "<seed> x=<executions> p=<pruned> b=<hit_bound> <outcome digest>". */
std::string
reportLine(uint64_t seed, const ModelCheckReport& r)
{
    char line[96];
    std::snprintf(line, sizeof(line), "%03llu x=%llu p=%llu b=%d %016llx",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(r.executions),
                  static_cast<unsigned long long>(r.pruned),
                  int(r.hit_bound),
                  static_cast<unsigned long long>(outcomeDigest(r)));
    return line;
}

constexpr uint64_t kSeededCases = 200;

// clang-format off
const std::vector<std::string> kSeededGolden = {
    "000 x=28 p=507 b=0 b6c2c9117f70508c",
    "001 x=2 p=1 b=0 6507f6abd6668858",
    "002 x=7 p=28 b=0 6aede7827df96a3f",
    "003 x=18 p=34 b=1 3738c3df84cc9130",
    "004 x=5 p=16 b=0 17641293a28a0ea3",
    "005 x=17 p=169 b=0 cac3277ce610488c",
    "006 x=10 p=57 b=0 25b3f94a40120210",
    "007 x=8 p=6 b=1 76f8550f88d893d8",
    "008 x=5 p=5 b=0 9205d7a524a187b9",
    "009 x=4 p=16 b=0 8db3cdee94f86ec1",
    "010 x=7 p=76 b=0 f49b189feca7f17a",
    "011 x=30 p=62 b=1 0326e0451d27e56d",
    "012 x=4 p=46 b=0 4ed2c04ef6f6d572",
    "013 x=6 p=37 b=0 b1ae480e524ead3d",
    "014 x=1 p=2 b=0 0931b5e2595a714a",
    "015 x=2 p=15 b=0 2a79ed556f56e421",
    "016 x=16 p=147 b=0 e407157ed0c49c24",
    "017 x=19 p=229 b=0 0265cabd3277f9fc",
    "018 x=2 p=1 b=0 ac996a37a797a904",
    "019 x=5 p=5 b=0 af4cfcbbb4fc9dec",
    "020 x=3 p=3 b=0 b2226cb3dddc1f90",
    "021 x=3 p=3 b=0 45a283445b377484",
    "022 x=17 p=133 b=0 8eebc63c926e18b6",
    "023 x=6 p=4 b=0 10c16f2a2dc0e744",
    "024 x=2 p=7 b=0 2a79ed556f56e421",
    "025 x=7 p=20 b=0 b496489b0ee9e8a2",
    "026 x=46 p=926 b=0 31837680303bdbea",
    "027 x=11 p=199 b=0 065fbb182b5ede4a",
    "028 x=1 p=1 b=0 cd00953547efd540",
    "029 x=10 p=20 b=0 cd00953547efd540",
    "030 x=10 p=56 b=0 65d365baffe03f7f",
    "031 x=13 p=12 b=1 d26d6598dbd40eca",
    "032 x=7 p=57 b=0 58eb523d3b510201",
    "033 x=2 p=10 b=0 55efd30013993bcf",
    "034 x=14 p=62 b=0 764e03cd00aef0e3",
    "035 x=9 p=209 b=0 6068835edc453bd7",
    "036 x=8 p=83 b=0 e373369bc4099270",
    "037 x=5 p=20 b=0 2cf016dded1be333",
    "038 x=1 p=0 b=0 5750c666876285bb",
    "039 x=4 p=3 b=0 07b06bca89818a45",
    "040 x=8 p=47 b=0 f4f4df43ba4cc994",
    "041 x=9 p=154 b=0 fa660ef17b829085",
    "042 x=11 p=161 b=0 7dd8c323507735b2",
    "043 x=2 p=3 b=0 764e03cd00aef0e3",
    "044 x=3 p=9 b=0 314e726fc7256ac2",
    "045 x=3 p=7 b=0 20aba59de203cf03",
    "046 x=6 p=26 b=0 3efa8c97f9d0218c",
    "047 x=21 p=92 b=1 c1aae5bfbdf0822b",
    "048 x=7 p=83 b=0 87ac6e71d00079e5",
    "049 x=5 p=22 b=0 5ba8562e2fc68ce2",
    "050 x=16 p=149 b=0 795d460fac6e8cdc",
    "051 x=1 p=21 b=0 eadea773e39ff383",
    "052 x=5 p=42 b=0 c1160e1ad5860e20",
    "053 x=5 p=5 b=0 45a283445b377484",
    "054 x=64 p=492 b=0 e088a4d1ca1c29eb",
    "055 x=16 p=131 b=0 cd00953547efd540",
    "056 x=5 p=5 b=0 45a283445b377484",
    "057 x=48 p=1031 b=0 8479f5a340b01514",
    "058 x=3 p=11 b=0 47c171437b942f43",
    "059 x=1 p=6 b=0 76e7abc0ab623460",
    "060 x=2 p=12 b=0 e32e97498605a6f3",
    "061 x=8 p=24 b=0 c04cef3da9cc9f30",
    "062 x=2 p=5 b=0 764e03cd00aef0e3",
    "063 x=6 p=11 b=0 7a4e23b02016ca63",
    "064 x=5 p=77 b=0 440bf7a77d79666b",
    "065 x=3 p=17 b=0 4278536986e23d80",
    "066 x=4 p=26 b=0 584342cf17b05e69",
    "067 x=3 p=21 b=0 5ba8562e2fc68ce2",
    "068 x=14 p=80 b=0 47c171437b942f43",
    "069 x=5 p=24 b=0 0a38a6ca2d950a82",
    "070 x=23 p=370 b=0 846cf3f2dd3aca0b",
    "071 x=14 p=113 b=0 592790bf5ed1970d",
    "072 x=8 p=20 b=0 a05efc7122e8957d",
    "073 x=7 p=130 b=0 03c14820f1ae7425",
    "074 x=2 p=2 b=0 3a0cbe89e01208d1",
    "075 x=2 p=3 b=0 e3739408fc5e99c1",
    "076 x=10 p=23 b=0 f2d6b135bb1c608d",
    "077 x=6 p=13 b=0 d7b94e639daee537",
    "078 x=3 p=13 b=0 918ba2fcc0568e18",
    "079 x=4 p=66 b=0 4ba520625c08afd4",
    "080 x=21 p=275 b=0 890b6d8e2edf075b",
    "081 x=4 p=27 b=0 48d5933037e2432d",
    "082 x=1 p=7 b=0 f43160773565804d",
    "083 x=22 p=756 b=0 994653e4684f482a",
    "084 x=39 p=264 b=0 95e021f8ff065c82",
    "085 x=5 p=26 b=0 9c9213cf88bdbc60",
    "086 x=19 p=49 b=0 09f96a92a560f82b",
    "087 x=5 p=5 b=0 ac996a37a797a904",
    "088 x=3 p=7 b=0 02dd0d87fb2b4ce2",
    "089 x=16 p=146 b=0 0b9d7990b7c464aa",
    "090 x=4 p=98 b=0 f852530d7fcf1206",
    "091 x=8 p=202 b=0 4840738b4fe43606",
    "092 x=3 p=3 b=0 c30c690b5c066d85",
    "093 x=31 p=634 b=0 4f564f7663c431a4",
    "094 x=6 p=204 b=0 5097b8600c2a08d5",
    "095 x=1 p=0 b=0 6cad5333776055f0",
    "096 x=13 p=53 b=0 9ab690936b28be13",
    "097 x=3 p=38 b=0 85c420037569a921",
    "098 x=8 p=27 b=0 20aba59de203cf03",
    "099 x=28 p=328 b=0 49e0ab5a2fb6a3f6",
    "100 x=1 p=0 b=0 f92f4b974f49dada",
    "101 x=52 p=277 b=0 995bfb70f3f6a9b5",
    "102 x=6 p=20 b=0 074b2b7cf9b324e2",
    "103 x=5 p=7 b=0 764e03cd00aef0e3",
    "104 x=4 p=10 b=0 804baf3accbf1561",
    "105 x=3 p=7 b=0 57ea1dffd5c3d32d",
    "106 x=7 p=35 b=0 09e15ca3cfe509dc",
    "107 x=1 p=2 b=0 a5fa43b863371122",
    "108 x=1 p=0 b=0 82da94d940dca9c6",
    "109 x=3 p=3 b=0 45a283445b377484",
    "110 x=18 p=395 b=0 1a46bd6aa6e1dc48",
    "111 x=18 p=224 b=0 86ab66cfc2aafe13",
    "112 x=4 p=98 b=0 2d2daf6c4aa1348f",
    "113 x=1 p=0 b=0 e3739408fc5e99c1",
    "114 x=6 p=20 b=0 8dd135d9ddb377e1",
    "115 x=9 p=33 b=0 ce61762d539b9743",
    "116 x=55 p=1400 b=0 1325c25879eaf3d7",
    "117 x=6 p=4 b=0 4e5e5b3e8cf4726f",
    "118 x=5 p=24 b=0 d8a776f5e80aaa81",
    "119 x=24 p=512 b=0 fa91f8e0bbd93ade",
    "120 x=24 p=254 b=0 6f9dbe02abd87e77",
    "121 x=5 p=109 b=0 e01ba79551ae3a4a",
    "122 x=3 p=15 b=0 edc0a178e7f5b109",
    "123 x=3 p=3 b=0 196f5252bc9bc167",
    "124 x=2 p=18 b=0 8dd135d9ddb377e1",
    "125 x=3 p=1 b=0 b1b7e0472e515ae5",
    "126 x=9 p=90 b=0 584a78e8f0c3e90d",
    "127 x=5 p=16 b=0 cd00953547efd540",
    "128 x=7 p=28 b=0 291564f24e712682",
    "129 x=6 p=28 b=0 47b688b2fd4cda42",
    "130 x=5 p=12 b=0 2984b6c3b8953743",
    "131 x=1 p=3 b=0 42c620c0bd32b22a",
    "132 x=24 p=318 b=0 45315f801b05d886",
    "133 x=3 p=22 b=0 eadea773e39ff383",
    "134 x=18 p=610 b=0 65abc5202922aece",
    "135 x=3 p=4 b=0 b496489b0ee9e8a2",
    "136 x=3 p=4 b=0 cde2a31c5b603590",
    "137 x=15 p=46 b=0 9cad0a7d6dd53115",
    "138 x=4 p=26 b=0 db9b4f65c3b1872a",
    "139 x=3 p=7 b=0 969f4d9677f13a33",
    "140 x=8 p=59 b=0 4944715d8d097ac7",
    "141 x=4 p=8 b=0 b496489b0ee9e8a2",
    "142 x=6 p=136 b=0 e940a5598f607ca4",
    "143 x=14 p=142 b=0 1406ee81bae81fa0",
    "144 x=2 p=9 b=0 deffc9158be8bd63",
    "145 x=17 p=113 b=0 e3da950f170f4db6",
    "146 x=5 p=6 b=0 2e218533ecd80be0",
    "147 x=2 p=14 b=0 5a610719c21867ad",
    "148 x=14 p=42 b=0 dda233c4c87d2c26",
    "149 x=5 p=26 b=0 05a6416e25c2a275",
    "150 x=1 p=2 b=0 2edcf58051c93f78",
    "151 x=4 p=2 b=0 b1b7e0472e515ae5",
    "152 x=19 p=961 b=0 95911243e7c8e93c",
    "153 x=1 p=2 b=0 e3739408fc5e99c1",
    "154 x=12 p=31 b=0 efa1402ba1999603",
    "155 x=1 p=0 b=0 e108c28ecc179fe4",
    "156 x=4 p=16 b=0 43282dd201868d45",
    "157 x=30 p=263 b=0 58eb523d3b510201",
    "158 x=3 p=7 b=0 ce61762d539b9743",
    "159 x=5 p=10 b=0 a9382a0f683cf19b",
    "160 x=12 p=81 b=0 cc197aa7ebee6fa0",
    "161 x=9 p=73 b=0 91289f372a6183e4",
    "162 x=3 p=2 b=0 b1b7e0472e515ae5",
    "163 x=5 p=28 b=1 70a6f810cc4fd3aa",
    "164 x=3 p=7 b=0 5f4b9256a7336be2",
    "165 x=4 p=26 b=0 c341c7a66f745c44",
    "166 x=9 p=125 b=0 f43582ed2dfc7edd",
    "167 x=9 p=8 b=1 05800d0abeaac621",
    "168 x=4 p=5 b=0 b496489b0ee9e8a2",
    "169 x=2 p=7 b=0 cc197aa7ebee6fa0",
    "170 x=9 p=43 b=0 66e9fa35e6e1d01f",
    "171 x=6 p=3 b=1 747b2ef5510a7ab4",
    "172 x=6 p=96 b=0 61010914d2bccd63",
    "173 x=9 p=90 b=0 f9f22baa3a6d24c9",
    "174 x=5 p=12 b=0 a58c94b70cf9a281",
    "175 x=1 p=0 b=0 b5ce1c0cd3453dc1",
    "176 x=14 p=125 b=0 9f2f67fc67229609",
    "177 x=13 p=36 b=0 b945fbee765af0b5",
    "178 x=4 p=3 b=0 b1b7e0472e515ae5",
    "179 x=5 p=77 b=0 fb50bcbe5978ab55",
    "180 x=1 p=1 b=0 7566e93fa4ad8b43",
    "181 x=3 p=11 b=0 1d3fa71257e26ede",
    "182 x=827 p=9227 b=0 8a96d281e9915d32",
    "183 x=14 p=136 b=0 2046df19b3e69fcf",
    "184 x=80 p=227 b=0 7963a00cb9915f88",
    "185 x=10 p=68 b=0 ff123873db162d32",
    "186 x=1 p=0 b=0 82da94d940dca9c6",
    "187 x=15 p=124 b=0 ec1dae18faf6fde3",
    "188 x=17 p=161 b=0 dca6210315096b90",
    "189 x=4 p=18 b=0 0a38a6ca2d950a82",
    "190 x=9 p=9 b=0 9265ddb98b75e675",
    "191 x=27 p=131 b=1 9c6fe3074f2f1f22",
    "192 x=2 p=11 b=0 4278536986e23d80",
    "193 x=4 p=14 b=0 f1ce5a2ff48f1de4",
    "194 x=1 p=1 b=0 e3739408fc5e99c1",
    "195 x=5 p=203 b=0 405cc6855c25a839",
    "196 x=3 p=3 b=0 a20442cf9c7a2ac6",
    "197 x=5 p=5 b=0 196f5252bc9bc167",
    "198 x=11 p=199 b=0 65da85039ff73c0d",
    "199 x=5 p=5 b=0 1c6cc52a9e42904d",
};
// clang-format on

/**
 * Pins every report field of 200 seeded logs: the execution and
 * pruned counts and the bound flag in the clear, and the outcome set,
 * faults and races in report order as their outcomeDigest. On every
 * row that finishes within its budget the digest is that of the
 * stateless search this checker replaced, so a change to the state
 * representation that leaks state between sibling DFS frames, or
 * reorders transitions, shows up here. A mismatch prints the actual
 * table.
 */
TEST(ModelCheck, SeededLogsMatchGolden)
{
    std::set<MemEvent::Kind> kinds;
    std::set<MemScope> scopes;
    std::set<MemOrder> orders;
    std::set<uint32_t> cta_counts;
    bool cta_rmw = false, cta_cas = false, heap_pair = false;
    size_t bounded = 0, faulted = 0, racy = 0, pruned = 0;

    std::vector<std::string> actual;
    for (uint64_t seed = 0; seed < kSeededCases; ++seed) {
        const SeededCase sc = seededCase(seed);
        uint32_t n_ctas = 0;
        bool has_malloc = false, has_free = false;
        for (const MemEvent& e : sc.log) {
            kinds.insert(e.kind);
            if (e.kind != MemEvent::Kind::Barrier &&
                e.kind != MemEvent::Kind::Malloc &&
                e.kind != MemEvent::Kind::Free) {
                scopes.insert(e.scope);
                orders.insert(e.order);
            }
            cta_rmw |= e.kind == MemEvent::Kind::Rmw &&
                       e.scope == MemScope::Cta;
            cta_cas |= e.kind == MemEvent::Kind::Cas &&
                       e.scope == MemScope::Cta;
            has_malloc |= e.kind == MemEvent::Kind::Malloc;
            has_free |= e.kind == MemEvent::Kind::Free;
            n_ctas = std::max(n_ctas, e.block + 1);
        }
        cta_counts.insert(n_ctas);
        heap_pair |= has_malloc && has_free;

        const ModelCheckReport r = modelCheck(sc.log, sc.cfg);
        bounded += r.hit_bound;
        faulted += !r.faults.empty();
        racy += !r.races.empty();
        pruned += r.pruned != 0;
        actual.push_back(reportLine(seed, r));
    }

    // The seeded family must exercise the whole model.
    EXPECT_EQ(kinds.size(), 8u) << "every event kind";
    EXPECT_EQ(scopes.size(), 3u) << "every scope";
    EXPECT_EQ(orders.size(), 4u) << "every order";
    EXPECT_EQ(cta_counts, (std::set<uint32_t>{1, 2, 3, 4}));
    EXPECT_TRUE(cta_rmw && cta_cas) << "cta-scope RMW and CAS";
    EXPECT_TRUE(heap_pair) << "a malloc/free pair";
    EXPECT_GT(bounded, 0u) << "some cases hit a small bound";
    EXPECT_GT(faulted, 0u);
    EXPECT_GT(racy, 0u);
    EXPECT_GT(pruned, 0u);

    EXPECT_EQ(actual, kSeededGolden);
    if (actual != kSeededGolden) {
        std::string dump = "actual table:\n";
        for (const std::string& s : actual)
            dump += "    \"" + s + "\",\n";
        ADD_FAILURE() << dump;
    }
}

/** "<seed> <outcome digest>" of each seeded log, searched to the end. */
// clang-format off
const std::vector<std::string> kUnboundedGolden = {
    "000 b6c2c9117f70508c",
    "001 6507f6abd6668858",
    "002 6aede7827df96a3f",
    "003 703c389b2e5d2428",
    "004 17641293a28a0ea3",
    "005 cac3277ce610488c",
    "006 25b3f94a40120210",
    "007 ad8c9ae3338b91b8",
    "008 9205d7a524a187b9",
    "009 8db3cdee94f86ec1",
    "010 f49b189feca7f17a",
    "011 0326e0451d27e56d",
    "012 4ed2c04ef6f6d572",
    "013 b1ae480e524ead3d",
    "014 0931b5e2595a714a",
    "015 2a79ed556f56e421",
    "016 e407157ed0c49c24",
    "017 0265cabd3277f9fc",
    "018 ac996a37a797a904",
    "019 af4cfcbbb4fc9dec",
    "020 b2226cb3dddc1f90",
    "021 45a283445b377484",
    "022 8eebc63c926e18b6",
    "023 10c16f2a2dc0e744",
    "024 2a79ed556f56e421",
    "025 b496489b0ee9e8a2",
    "026 31837680303bdbea",
    "027 065fbb182b5ede4a",
    "028 cd00953547efd540",
    "029 cd00953547efd540",
    "030 65d365baffe03f7f",
    "031 c542e5a974b9212b",
    "032 58eb523d3b510201",
    "033 55efd30013993bcf",
    "034 764e03cd00aef0e3",
    "035 6068835edc453bd7",
    "036 e373369bc4099270",
    "037 2cf016dded1be333",
    "038 5750c666876285bb",
    "039 07b06bca89818a45",
    "040 f4f4df43ba4cc994",
    "041 fa660ef17b829085",
    "042 7dd8c323507735b2",
    "043 764e03cd00aef0e3",
    "044 314e726fc7256ac2",
    "045 20aba59de203cf03",
    "046 3efa8c97f9d0218c",
    "047 efe12164b0c0afec",
    "048 87ac6e71d00079e5",
    "049 5ba8562e2fc68ce2",
    "050 795d460fac6e8cdc",
    "051 eadea773e39ff383",
    "052 c1160e1ad5860e20",
    "053 45a283445b377484",
    "054 e088a4d1ca1c29eb",
    "055 cd00953547efd540",
    "056 45a283445b377484",
    "057 8479f5a340b01514",
    "058 47c171437b942f43",
    "059 76e7abc0ab623460",
    "060 e32e97498605a6f3",
    "061 c04cef3da9cc9f30",
    "062 764e03cd00aef0e3",
    "063 7a4e23b02016ca63",
    "064 440bf7a77d79666b",
    "065 4278536986e23d80",
    "066 584342cf17b05e69",
    "067 5ba8562e2fc68ce2",
    "068 47c171437b942f43",
    "069 0a38a6ca2d950a82",
    "070 846cf3f2dd3aca0b",
    "071 592790bf5ed1970d",
    "072 a05efc7122e8957d",
    "073 03c14820f1ae7425",
    "074 3a0cbe89e01208d1",
    "075 e3739408fc5e99c1",
    "076 f2d6b135bb1c608d",
    "077 d7b94e639daee537",
    "078 918ba2fcc0568e18",
    "079 4ba520625c08afd4",
    "080 890b6d8e2edf075b",
    "081 48d5933037e2432d",
    "082 f43160773565804d",
    "083 994653e4684f482a",
    "084 95e021f8ff065c82",
    "085 9c9213cf88bdbc60",
    "086 09f96a92a560f82b",
    "087 ac996a37a797a904",
    "088 02dd0d87fb2b4ce2",
    "089 0b9d7990b7c464aa",
    "090 f852530d7fcf1206",
    "091 4840738b4fe43606",
    "092 c30c690b5c066d85",
    "093 4f564f7663c431a4",
    "094 5097b8600c2a08d5",
    "095 6cad5333776055f0",
    "096 9ab690936b28be13",
    "097 85c420037569a921",
    "098 20aba59de203cf03",
    "099 49e0ab5a2fb6a3f6",
    "100 f92f4b974f49dada",
    "101 995bfb70f3f6a9b5",
    "102 074b2b7cf9b324e2",
    "103 764e03cd00aef0e3",
    "104 804baf3accbf1561",
    "105 57ea1dffd5c3d32d",
    "106 09e15ca3cfe509dc",
    "107 a5fa43b863371122",
    "108 82da94d940dca9c6",
    "109 45a283445b377484",
    "110 1a46bd6aa6e1dc48",
    "111 86ab66cfc2aafe13",
    "112 2d2daf6c4aa1348f",
    "113 e3739408fc5e99c1",
    "114 8dd135d9ddb377e1",
    "115 ce61762d539b9743",
    "116 1325c25879eaf3d7",
    "117 4e5e5b3e8cf4726f",
    "118 d8a776f5e80aaa81",
    "119 fa91f8e0bbd93ade",
    "120 6f9dbe02abd87e77",
    "121 e01ba79551ae3a4a",
    "122 edc0a178e7f5b109",
    "123 196f5252bc9bc167",
    "124 8dd135d9ddb377e1",
    "125 b1b7e0472e515ae5",
    "126 584a78e8f0c3e90d",
    "127 cd00953547efd540",
    "128 291564f24e712682",
    "129 47b688b2fd4cda42",
    "130 2984b6c3b8953743",
    "131 42c620c0bd32b22a",
    "132 45315f801b05d886",
    "133 eadea773e39ff383",
    "134 65abc5202922aece",
    "135 b496489b0ee9e8a2",
    "136 cde2a31c5b603590",
    "137 9cad0a7d6dd53115",
    "138 db9b4f65c3b1872a",
    "139 969f4d9677f13a33",
    "140 4944715d8d097ac7",
    "141 b496489b0ee9e8a2",
    "142 e940a5598f607ca4",
    "143 1406ee81bae81fa0",
    "144 deffc9158be8bd63",
    "145 e3da950f170f4db6",
    "146 2e218533ecd80be0",
    "147 5a610719c21867ad",
    "148 dda233c4c87d2c26",
    "149 05a6416e25c2a275",
    "150 2edcf58051c93f78",
    "151 b1b7e0472e515ae5",
    "152 95911243e7c8e93c",
    "153 e3739408fc5e99c1",
    "154 efa1402ba1999603",
    "155 e108c28ecc179fe4",
    "156 43282dd201868d45",
    "157 58eb523d3b510201",
    "158 ce61762d539b9743",
    "159 a9382a0f683cf19b",
    "160 cc197aa7ebee6fa0",
    "161 91289f372a6183e4",
    "162 b1b7e0472e515ae5",
    "163 ce0bb3bee385940a",
    "164 5f4b9256a7336be2",
    "165 c341c7a66f745c44",
    "166 f43582ed2dfc7edd",
    "167 05800d0abeaac621",
    "168 b496489b0ee9e8a2",
    "169 cc197aa7ebee6fa0",
    "170 66e9fa35e6e1d01f",
    "171 a434a050f7317e6c",
    "172 61010914d2bccd63",
    "173 f9f22baa3a6d24c9",
    "174 a58c94b70cf9a281",
    "175 b5ce1c0cd3453dc1",
    "176 9f2f67fc67229609",
    "177 b945fbee765af0b5",
    "178 b1b7e0472e515ae5",
    "179 fb50bcbe5978ab55",
    "180 7566e93fa4ad8b43",
    "181 1d3fa71257e26ede",
    "182 8a96d281e9915d32",
    "183 2046df19b3e69fcf",
    "184 7963a00cb9915f88",
    "185 ff123873db162d32",
    "186 82da94d940dca9c6",
    "187 ec1dae18faf6fde3",
    "188 dca6210315096b90",
    "189 0a38a6ca2d950a82",
    "190 9265ddb98b75e675",
    "191 9c6fe3074f2f1f22",
    "192 4278536986e23d80",
    "193 f1ce5a2ff48f1de4",
    "194 e3739408fc5e99c1",
    "195 405cc6855c25a839",
    "196 a20442cf9c7a2ac6",
    "197 196f5252bc9bc167",
    "198 65da85039ff73c0d",
    "199 1c6cc52a9e42904d",
};
// clang-format on

/**
 * The seeded logs again, at a budget no log reaches: each search runs
 * to the end, so its outcome digest (outcomes, faults in order, races)
 * is what the whole state space holds, whatever order or pruning the
 * search uses. The table was recorded from the stateless sleep-set
 * search. A mismatch prints the actual table. One hand-built log
 * follows, whose states differ only in their store buffers.
 */
TEST(ModelCheck, UnboundedSeededOutcomesMatchGolden)
{
    std::vector<std::string> actual;
    for (uint64_t seed = 0; seed < kSeededCases; ++seed) {
        SeededCase sc = seededCase(seed);
        sc.cfg.max_executions = std::numeric_limits<uint64_t>::max();
        const ModelCheckReport r = modelCheck(sc.log, sc.cfg);
        EXPECT_FALSE(r.hit_bound) << "seed " << seed;
        char line[32];
        std::snprintf(line, sizeof(line), "%03llu %016llx",
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(outcomeDigest(r)));
        actual.push_back(line);
    }
    EXPECT_EQ(actual, kUnboundedGolden);
    if (actual != kUnboundedGolden) {
        std::string dump = "actual table:\n";
        for (const std::string& s : actual)
            dump += "    \"" + s + "\",\n";
        ADD_FAILURE() << dump;
    }

    // A shape the seeded family lacks: one CTA stores 2, 2, then 1 to X.
    // After the first flush, only the store buffer tells the state with
    // two pending stores from the one with one, and the reader sees 1
    // only if the last flush happens.
    using K = MemEvent::Kind;
    const ModelCheckReport r = modelCheck({
        ev(K::Store, 0, 0, 0, kX, 2),
        ev(K::Store, 0, 0, 1, kX, 2),
        ev(K::Store, 0, 0, 2, kX, 1),
        ev(K::Load, 1, 1, 0, kX),
    });
    EXPECT_EQ(r.outcomes, (std::set<std::vector<uint64_t>>{{0}, {1}, {2}}));
}

// ---------------------------------------------------------------------
// End-to-end litmus family.
// ---------------------------------------------------------------------

TEST(Litmus, SuiteHasTheDocumentedShape)
{
    const auto& suite = litmusSuite();
    ASSERT_EQ(suite.size(), 9u);
    EXPECT_NO_THROW(findLitmus("mp_release_gpu"));
    EXPECT_THROW(findLitmus("nope"), FatalError);
}

using Outcomes = std::set<std::vector<uint64_t>>;

/** Every 0/1 tuple of @p width values except those in @p except. */
Outcomes
binaryTuples(size_t width, const Outcomes& except = {})
{
    Outcomes all;
    for (uint64_t bits = 0; bits < (uint64_t(1) << width); ++bits) {
        std::vector<uint64_t> tuple(width);
        for (size_t i = 0; i < width; ++i)
            tuple[i] = (bits >> (width - 1 - i)) & 1;
        if (!except.count(tuple))
            all.insert(tuple);
    }
    return all;
}

/** Exploration statistics at the default bound (100000), as recorded in
 *  tools/litmus_expected.json. */
struct LitmusStats
{
    uint64_t executions = 0;
    uint64_t pruned = 0;
    bool hit_bound = false;
    Outcomes outcomes;
};

const std::map<std::string, LitmusStats>&
litmusStats()
{
    static const std::map<std::string, LitmusStats> stats = {
        {"mp_relaxed", {16, 80, false, binaryTuples(2)}},
        {"mp_release_gpu", {6, 14, false, binaryTuples(2, {{1, 0}})}},
        {"mp_scope_mismatch", {12, 29, false, binaryTuples(2)}},
        {"sb_relaxed", {12, 98, false, binaryTuples(2)}},
        {"sb_fenced", {6, 41, false, binaryTuples(2, {{0, 0}})}},
        {"iriw_relaxed", {62, 1400, false, binaryTuples(4)}},
        {"iriw_acquire",
         {60, 821, false, binaryTuples(4, {{1, 0, 1, 0}})}},
        {"lmi_uaf_race", {3, 2, false, {{}}}},
        {"lmi_uaf_sync", {2, 8, false, {{}}}},
    };
    return stats;
}

TEST(Litmus, EveryTestMatchesItsExpectations)
{
    ASSERT_EQ(litmusStats().size(), litmusSuite().size());
    for (const LitmusTest& test : litmusSuite()) {
        SCOPED_TRACE(test.name);
        const LitmusResult r = runLitmus(test);
        EXPECT_TRUE(r.pass) << r.verdict;
        EXPECT_FALSE(r.sim_outcome_forbidden)
            << "engine produced a forbidden outcome";
        EXPECT_EQ(r.uaf_found, test.expect_uaf);
        EXPECT_EQ(r.race_found, test.expect_race);

        // Exploration is deterministic: the transition order fixes the
        // execution count, the revisits pruned and the bound flag.
        const auto it = litmusStats().find(test.name);
        ASSERT_NE(it, litmusStats().end());
        const LitmusStats& want = it->second;
        EXPECT_EQ(r.report.executions, want.executions);
        EXPECT_EQ(r.report.pruned, want.pruned);
        EXPECT_EQ(r.report.hit_bound, want.hit_bound);
        EXPECT_EQ(r.report.outcomes, want.outcomes);
    }
}

TEST(Litmus, ForbiddenOutcomesAreAbsentAndWeakOnesFound)
{
    const LitmusResult strong = runLitmus(findLitmus("mp_release_gpu"));
    EXPECT_FALSE(strong.forbidden_reached);
    EXPECT_EQ(strong.verdict, "forbidden-absent");

    const LitmusResult weak = runLitmus(findLitmus("mp_relaxed"));
    EXPECT_TRUE(weak.weak_found);
    EXPECT_EQ(weak.verdict, "weak-found");
    EXPECT_TRUE(weak.report.sawOutcome({1, 0}));
}

} // namespace
} // namespace lmi
