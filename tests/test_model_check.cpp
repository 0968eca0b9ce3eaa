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

/** "<seed> x=<executions> p=<pruned> <digest of the whole report>". */
std::string
reportLine(uint64_t seed, const ModelCheckReport& r)
{
    Fnv1a h;
    h.u64(r.events).u64(r.agents).u64(r.executions).u64(r.pruned);
    h.u64(r.hit_bound);
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
    char line[96];
    std::snprintf(line, sizeof(line), "%03llu x=%llu p=%llu %016llx",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(r.executions),
                  static_cast<unsigned long long>(r.pruned),
                  static_cast<unsigned long long>(h.value()));
    return line;
}

constexpr uint64_t kSeededCases = 200;

// clang-format off
const std::vector<std::string> kSeededGolden = {
    "000 x=3000 p=1730 472eb566cea56abc",
    "001 x=3 p=0 9c2c851620f9dcdb",
    "002 x=60 p=0 34ba2204ca84e1e3",
    "003 x=18 p=4 c65161643ec3c127",
    "004 x=54 p=0 a526b03e6818d355",
    "005 x=2264 p=1315 939951f1d3a47864",
    "006 x=440 p=0 db24bd91ba63f3ef",
    "007 x=8 p=1 5cf186844d9f8cf0",
    "008 x=9 p=3 31b457a02a56e493",
    "009 x=56 p=0 55eea039807e6ab9",
    "010 x=325 p=50 97baf8ff816f7cd2",
    "011 x=30 p=0 6285ca0f78000bf1",
    "012 x=45 p=70 5f966fa2496c0a39",
    "013 x=80 p=16 2032421aa305469d",
    "014 x=3 p=0 7326ba01dc4ef369",
    "015 x=6 p=0 4f8cc88f93bc6806",
    "016 x=900 p=171 88479468636995ae",
    "017 x=1200 p=1066 8572958a09c6aace",
    "018 x=3 p=0 7f671f9db8433547",
    "019 x=14 p=0 a35126558ffaf862",
    "020 x=6 p=0 b9b21f74b104ca76",
    "021 x=2 p=4 9f1a053e239bbb22",
    "022 x=677 p=63 b20a62680b8ae1d2",
    "023 x=12 p=0 e2ec8e273226f428",
    "024 x=13 p=0 e191deb764c3a5cc",
    "025 x=22 p=9 b15e25e1851f85dd",
    "026 x=3000 p=0 de2376b4e936c96e",
    "027 x=38 p=0 e791d7901976302d",
    "028 x=2 p=0 8d9f52b4279e1d62",
    "029 x=88 p=0 3343e33fd02d3478",
    "030 x=315 p=0 74b6cb101da8c3bf",
    "031 x=13 p=5 1c1eb8e863da27e3",
    "032 x=180 p=108 7284dae586d37b79",
    "033 x=17 p=0 87e8be446b49917e",
    "034 x=54 p=102 4d3f96f709a3a7b3",
    "035 x=32 p=38 47fedbffd7799810",
    "036 x=300 p=49 888210b9807cbf42",
    "037 x=40 p=13 b7405293e67e3796",
    "038 x=1 p=0 1b5ae1b5a32a2f9a",
    "039 x=5 p=0 2f7ef61222ab52a1",
    "040 x=120 p=0 c07442d54aea4b8c",
    "041 x=430 p=383 5f74959a2629a374",
    "042 x=1712 p=248 f6f2d32b2d50e3ac",
    "043 x=5 p=0 ebd4061e0c52ef06",
    "044 x=20 p=0 ac37eabcabb0cf96",
    "045 x=12 p=0 04bcf71dbace564f",
    "046 x=60 p=0 49f2102029730df0",
    "047 x=21 p=0 40a6bc7a4de3cde7",
    "048 x=54 p=385 e7cb8049e53ee8d5",
    "049 x=99 p=0 ace54a6d769e7181",
    "050 x=600 p=65 a3cc6c7730da7a73",
    "051 x=33 p=0 83c0c77a8da1e683",
    "052 x=48 p=38 56236be62e5a7416",
    "053 x=6 p=5 3e7dfe7c95e71de7",
    "054 x=3000 p=2319 db1ac6ab2a56412b",
    "055 x=26 p=0 767b388bbef888db",
    "056 x=9 p=2 e44ec7310b57d70f",
    "057 x=3000 p=0 0dba0421256c2878",
    "058 x=9 p=7 6e7917a1c1b88a0d",
    "059 x=12 p=0 b13e554959ea5b8c",
    "060 x=20 p=10 7cd3e5cf089e930d",
    "061 x=60 p=7 4f31fe8141b81d2b",
    "062 x=10 p=0 110db19eda6ccae9",
    "063 x=18 p=5 7b483f2a23a734d4",
    "064 x=36 p=135 2004af1b1a5f51a8",
    "065 x=68 p=7 c588d430aae9f623",
    "066 x=60 p=8 cda00e1e3af311bd",
    "067 x=16 p=0 781b48bb065aa3f3",
    "068 x=21 p=135 8da85f8129142f91",
    "069 x=36 p=29 a629687f5ad8289b",
    "070 x=3000 p=251 827ee6791f670b7c",
    "071 x=16 p=40 54cbbd18b6188ed4",
    "072 x=83 p=7 8678de98d1874ac9",
    "073 x=520 p=866 e1467c0403b84bdc",
    "074 x=4 p=0 132f292f24637cf5",
    "075 x=6 p=0 48539049f164b307",
    "076 x=50 p=3 9f0bd865852d591c",
    "077 x=47 p=8 d6338e716a7625d0",
    "078 x=42 p=0 b2b95c6c3eb41d92",
    "079 x=39 p=3 0025bfef05596351",
    "080 x=1770 p=1578 a28c5588b0afe2cb",
    "081 x=96 p=0 f0c25b52d16ccb8d",
    "082 x=13 p=0 7bf2358c30e6f260",
    "083 x=33 p=0 15dc6c3e773f9340",
    "084 x=900 p=761 5211b0c21a3928b8",
    "085 x=68 p=0 8f3d9c6e8b10ae04",
    "086 x=144 p=70 a1261ee99736879d",
    "087 x=6 p=5 bb051092e44636a7",
    "088 x=9 p=2 0292c99a2bbd08a9",
    "089 x=498 p=388 13e08348cbf97be4",
    "090 x=4 p=140 19d086c8da5cf34e",
    "091 x=22 p=0 9752096d5c415c91",
    "092 x=6 p=0 997539aa36e19b63",
    "093 x=3000 p=627 a5c9ef61cfc77f2d",
    "094 x=1800 p=572 bdf8eabd38e90f3e",
    "095 x=1 p=0 cf53c690dbe778d1",
    "096 x=190 p=76 8f58bf33d99e95a1",
    "097 x=70 p=74 19ff221c23ea32ed",
    "098 x=42 p=13 d0f5a5ba4d06a5e4",
    "099 x=38 p=10 111193be07e23d01",
    "100 x=1 p=0 797c5c84db42da7b",
    "101 x=1681 p=304 f60701deade02a19",
    "102 x=65 p=0 ec9e068c6d8e21a3",
    "103 x=17 p=0 2a374a886e733192",
    "104 x=20 p=0 37bf48b589a6f795",
    "105 x=12 p=0 384cde3bcbfab3e1",
    "106 x=24 p=48 5aa43dcc88a47074",
    "107 x=4 p=0 de6834254b0889e6",
    "108 x=1 p=0 9b5108fcb9f79087",
    "109 x=2 p=4 9f1a053e239bbb22",
    "110 x=3000 p=2239 49830573d618587f",
    "111 x=30 p=85 13805abb058ba199",
    "112 x=720 p=35 e168f357be9ab86a",
    "113 x=1 p=0 b8f8cdfb02956ba0",
    "114 x=38 p=20 b77c7c6a8ce46a13",
    "115 x=28 p=0 1b88fb33b798b69e",
    "116 x=3000 p=3690 6dad0ab391bcdd43",
    "117 x=6 p=5 870076e90bb7718c",
    "118 x=60 p=0 9e713afac2c87dbd",
    "119 x=34 p=0 9e0ff11e3a82bf11",
    "120 x=1440 p=770 b5638e84a8d727f7",
    "121 x=600 p=170 a280bd8291c8602e",
    "122 x=50 p=0 f48913f7a44a4d1b",
    "123 x=2 p=4 13938debd4ff56a1",
    "124 x=20 p=9 965a9d0dc2a7d33c",
    "125 x=4 p=0 1fe490f43ce93ce1",
    "126 x=300 p=49 ad8178664c25a0ff",
    "127 x=29 p=0 c38a2a06e6de97fc",
    "128 x=24 p=25 1defb807dc565ec3",
    "129 x=89 p=71 10c05b5a745605bc",
    "130 x=26 p=3 1e7efae6f57bb1ba",
    "131 x=5 p=0 51952d035c325c6f",
    "132 x=2890 p=1075 e429c663a4e002c6",
    "133 x=80 p=0 b8ac4666b7aade73",
    "134 x=3000 p=0 9dbe51f5568d11fa",
    "135 x=4 p=3 6429abfec919d605",
    "136 x=10 p=0 12f929fd70e0801a",
    "137 x=90 p=75 c6e8de38a8b57644",
    "138 x=3 p=33 c5d4cd6266bb61a8",
    "139 x=9 p=3 5c93b3ea21346299",
    "140 x=96 p=90 a9cf7f5b53e89c1d",
    "141 x=20 p=0 dce9a13c02796d56",
    "142 x=801 p=1116 7228877f7f51f688",
    "143 x=4 p=220 110ee1a0199b75f8",
    "144 x=21 p=0 651e2c7423e6d996",
    "145 x=900 p=283 37ecfc97f86c923b",
    "146 x=3 p=9 1a1c465b5804f12a",
    "147 x=22 p=0 ac628d711ea4039a",
    "148 x=92 p=25 5fc1d1a47e418ac3",
    "149 x=252 p=0 8d47a947086c3a89",
    "150 x=4 p=0 1849a6630530a29c",
    "151 x=1 p=5 37ad986d4106a781",
    "152 x=3000 p=279 cfa6b0c94bc883ba",
    "153 x=3 p=0 ee09596212f02162",
    "154 x=12 p=33 83d7740f0bdd40ae",
    "155 x=1 p=0 7a2329b75c597c85",
    "156 x=43 p=3 cc668f73d80a4ead",
    "157 x=3000 p=3303 fe1eaba1936aaa02",
    "158 x=20 p=0 6cd6204862c66617",
    "159 x=20 p=0 ea40c7176272ebef",
    "160 x=642 p=0 538f782f0cb02978",
    "161 x=156 p=76 b1581c901d29f074",
    "162 x=6 p=0 54f51c5b4d43f2a3",
    "163 x=5 p=0 7ff5df9b44f57aee",
    "164 x=12 p=0 52cc9d03a0ab828e",
    "165 x=48 p=5 e25fa5e5b4213cd1",
    "166 x=144 p=208 4d1b39cb64ee575d",
    "167 x=9 p=3 20bb0948bce8a668",
    "168 x=4 p=9 3dea561012a48d8f",
    "169 x=10 p=2 cd6714f6ceae4148",
    "170 x=90 p=54 4e2e035b56570373",
    "171 x=6 p=5 e53c747c3186c796",
    "172 x=626 p=0 7ab2e6127acee3eb",
    "173 x=240 p=84 8a95d68db64027ad",
    "174 x=9 p=11 6b55db7e6534bae3",
    "175 x=1 p=0 1654d4a27086cf60",
    "176 x=300 p=854 b20cc95767466c6d",
    "177 x=270 p=0 95bf34f1c5838680",
    "178 x=8 p=0 5e47d55e9f097f6d",
    "179 x=25 p=2 d87f2b12edfbd5af",
    "180 x=2 p=0 3a446ddfa6f63241",
    "181 x=12 p=6 ce8b2921c7418b14",
    "182 x=3000 p=4330 756dc159daa382a4",
    "183 x=33 p=21 f6c6e7b83db20b00",
    "184 x=1172 p=0 ba1dc61a142ca760",
    "185 x=170 p=216 d1d40007eb4d6aa0",
    "186 x=1 p=0 9b5108fcb9f79087",
    "187 x=20 p=15 91ab5ec6bb870859",
    "188 x=654 p=646 4d77ad7e9fb38a98",
    "189 x=40 p=0 9b116ff8f6b31cca",
    "190 x=14 p=9 4a7fd28f749305f2",
    "191 x=27 p=15 eb274c3786afeb77",
    "192 x=35 p=0 a4f1817e6c82b023",
    "193 x=24 p=0 64427ca8bb885adc",
    "194 x=2 p=0 de32797bd0af4783",
    "195 x=40 p=11 39538293e4a0bbfb",
    "196 x=6 p=0 f168009be0f4d5e0",
    "197 x=6 p=5 78b5171aec4a81a4",
    "198 x=900 p=706 6eb05506e2ffb098",
    "199 x=12 p=0 859ed64e32a95f61",
};
// clang-format on

/**
 * Pins every report field of 200 seeded logs: execution and pruned
 * counts, the bound flag, the outcome set, and faults and races in
 * report order. The table was recorded from the map-based checker
 * that copied a std::map state per transition, so a change to the
 * state representation that leaks state between sibling DFS frames, or
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
        {"mp_relaxed", {483, 34, false, binaryTuples(2)}},
        {"mp_release_gpu", {36, 1, false, binaryTuples(2, {{1, 0}})}},
        {"mp_scope_mismatch", {110, 12, false, binaryTuples(2)}},
        {"sb_relaxed", {633, 47, false, binaryTuples(2)}},
        {"sb_fenced", {289, 28, false, binaryTuples(2, {{0, 0}})}},
        {"iriw_relaxed", {100000, 11144, true, binaryTuples(4)}},
        {"iriw_acquire",
         {31240, 3709, false, binaryTuples(4, {{1, 0, 1, 0}})}},
        {"lmi_uaf_race", {9, 0, false, {{}}}},
        {"lmi_uaf_sync", {33, 0, false, {{}}}},
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
        // execution count, the sleep-set prunes and the bound flag.
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
