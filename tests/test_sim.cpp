/**
 * @file
 * End-to-end simulator tests: IR kernels compiled by the in-tree
 * compiler and executed on the GpuSim engine under the baseline
 * mechanism. These validate functional correctness (values land in
 * memory), SIMT divergence, barriers, device malloc, and the timing
 * counters the benches rely on.
 */

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "sim/device.hpp"

namespace lmi {
namespace {

using namespace ir;

IrModule
module(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

/** out[gtid] = a[gtid] + b[gtid] (i32). */
IrModule
vaddKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "vadd", {{"a", Type::ptr(4)}, {"b", Type::ptr(4)},
                 {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto pa = b.param(0);
    auto pb = b.param(1);
    auto po = b.param(2);
    auto t = b.gtid();
    auto va = b.load(b.gep(pa, t));
    auto vb = b.load(b.gep(pb, t));
    auto sum = b.iadd(va, vb);
    b.store(b.gep(po, t), sum);
    b.ret();
    return module(std::move(f));
}

TEST(Sim, VectorAdd)
{
    Device dev;
    const unsigned n = 256;
    const uint64_t a = dev.cudaMalloc(n * 4);
    const uint64_t b = dev.cudaMalloc(n * 4);
    const uint64_t out = dev.cudaMalloc(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        dev.poke32(a + 4 * i, i);
        dev.poke32(b + 4 * i, 1000 + i);
    }

    const CompiledKernel k = dev.compile(vaddKernel(), "vadd");
    const RunResult r = dev.launch(k, /*grid=*/2, /*block=*/128,
                                   {a, b, out});
    EXPECT_FALSE(r.faulted());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(dev.peek32(out + 4 * i), 1000 + 2 * i) << "i=" << i;
    // Region profile: only global accesses.
    EXPECT_EQ(r.lds + r.sts + r.ldl + r.stl, 0u);
    EXPECT_GT(r.ldg, 0u);
    EXPECT_GT(r.stg, 0u);
}

TEST(Sim, GridStrideLoop)
{
    // out[i] = i for i in [0, n) with fewer threads than elements.
    IrFunction f = IrBuilder::makeKernel(
        "iota", {{"out", Type::ptr(4)}, {"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto header = b.block("header");
    auto body = b.block("body");
    auto exit = b.block("exit");

    b.setInsertPoint(entry);
    auto out = b.param(0);
    auto n = b.param(1);
    auto t = b.gtid();
    auto ntid = b.ntid();
    auto nblk = b.nctaid();
    auto stride = b.imul(ntid, nblk);
    b.jump(header);

    b.setInsertPoint(header);
    auto i = b.phi(Type::i64(), {{t, entry}});
    auto cond = b.icmp(CmpOp::LT, i, n);
    b.br(cond, body, exit);

    b.setInsertPoint(body);
    b.store(b.gep(out, i), i);
    auto next = b.iadd(i, stride);
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(body);
    b.jump(header);

    b.setInsertPoint(exit);
    b.ret();

    Device dev;
    const unsigned n_elems = 1000;
    const uint64_t out_buf = dev.cudaMalloc(n_elems * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "iota");
    const RunResult r =
        dev.launch(k, 2, 64, {out_buf, n_elems});
    EXPECT_FALSE(r.faulted());
    for (unsigned i = 0; i < n_elems; ++i)
        ASSERT_EQ(dev.peek32(out_buf + 4 * i), i) << "i=" << i;
}

TEST(Sim, DivergentBranch)
{
    // out[gtid] = (gtid % 2 == 0) ? 7 : 9 — intra-warp divergence.
    IrFunction f = IrBuilder::makeKernel("div", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto even = b.block("even");
    auto odd = b.block("odd");
    auto merge = b.block("merge");

    b.setInsertPoint(entry);
    auto out = b.param(0);
    auto t = b.gtid();
    auto bit = b.iand(t, b.constInt(1));
    auto is_even = b.icmp(CmpOp::EQ, bit, b.constInt(0));
    b.br(is_even, even, odd);

    b.setInsertPoint(even);
    auto seven = b.constInt(7, Type::i32());
    b.jump(merge);

    b.setInsertPoint(odd);
    auto nine = b.constInt(9, Type::i32());
    b.jump(merge);

    b.setInsertPoint(merge);
    auto v = b.phi(Type::i32(), {{seven, even}, {nine, odd}});
    b.store(b.gep(out, t), v);
    b.ret();

    Device dev;
    const unsigned n = 64;
    const uint64_t out_buf = dev.cudaMalloc(n * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "div");
    const RunResult r = dev.launch(k, 1, n, {out_buf});
    EXPECT_FALSE(r.faulted());
    for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(dev.peek32(out_buf + 4 * i), i % 2 == 0 ? 7u : 9u)
            << "i=" << i;
}

TEST(Sim, SharedMemoryReverseWithBarrier)
{
    // Block-local reversal through shared memory: out[t] = in[B-1-t].
    IrFunction f = IrBuilder::makeKernel(
        "rev", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto in = b.param(0);
    auto out = b.param(1);
    auto tile = b.sharedBuffer("tile", 64 * 4, 4);
    auto t = b.tid();
    auto v = b.load(b.gep(in, t));
    b.store(b.gep(tile, t), v);
    b.barrier();
    auto last = b.constInt(63);
    auto mirrored = b.isub(last, t);
    auto rv = b.load(b.gep(tile, mirrored));
    b.store(b.gep(out, t), rv);
    b.ret();

    Device dev;
    const unsigned n = 64;
    const uint64_t in_buf = dev.cudaMalloc(n * 4);
    const uint64_t out_buf = dev.cudaMalloc(n * 4);
    for (unsigned i = 0; i < n; ++i)
        dev.poke32(in_buf + 4 * i, 100 + i);
    const CompiledKernel k = dev.compile(module(std::move(f)), "rev");
    const RunResult r = dev.launch(k, 1, n, {in_buf, out_buf});
    EXPECT_FALSE(r.faulted());
    for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(dev.peek32(out_buf + 4 * i), 100 + (n - 1 - i));
    EXPECT_GT(r.lds, 0u);
    EXPECT_GT(r.sts, 0u);
}

TEST(Sim, LocalStackBuffer)
{
    // Per-thread stack array staging: out[t] = t * 3.
    IrFunction f = IrBuilder::makeKernel("stk", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto out = b.param(0);
    auto buf = b.alloca_(64, 4);
    auto t = b.gtid();
    auto v = b.imul(t, b.constInt(3));
    auto slot = b.gep(buf, b.constInt(5));
    b.store(slot, v);
    auto rv = b.load(slot);
    b.store(b.gep(out, t), rv);
    b.ret();

    Device dev;
    const unsigned n = 96;
    const uint64_t out_buf = dev.cudaMalloc(n * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "stk");
    const RunResult r = dev.launch(k, 3, 32, {out_buf});
    EXPECT_FALSE(r.faulted());
    for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(dev.peek32(out_buf + 4 * i), 3 * i) << "i=" << i;
    EXPECT_GT(r.ldl, 0u);
    EXPECT_GT(r.stl, 0u);
}

TEST(Sim, DeviceMallocFree)
{
    // Each thread mallocs a scratch buffer, uses it, frees it.
    IrFunction f = IrBuilder::makeKernel("heap", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto out = b.param(0);
    auto t = b.gtid();
    auto buf = b.malloc_(b.constInt(256), 4);
    auto slot = b.gep(buf, b.constInt(2));
    b.store(slot, t);
    auto rv = b.load(slot);
    b.store(b.gep(out, t), rv);
    b.free_(buf);
    b.ret();

    Device dev;
    const unsigned n = 64;
    const uint64_t out_buf = dev.cudaMalloc(n * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "heap");
    const RunResult r = dev.launch(k, 2, 32, {out_buf});
    EXPECT_FALSE(r.faulted());
    for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(dev.peek32(out_buf + 4 * i), i);
    EXPECT_EQ(dev.heapAllocator().liveReservedBytes(), 0u);
}

TEST(Sim, FloatArithmetic)
{
    // out[t] = a[t] * 2.5 + 1.0 via FFMA (doubles in registers).
    IrFunction f = IrBuilder::makeKernel(
        "saxpyish", {{"a", Type::ptr(8)}, {"out", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto a = b.param(0);
    auto out = b.param(1);
    auto t = b.gtid();
    auto va = b.load(b.gep(a, t));
    f.inst(va).type = Type::f32(); // the builder types loads as integers
    auto fv = b.ffma(va, b.constFloat(2.5), b.constFloat(1.0));
    b.store(b.gep(out, t), fv);
    b.ret();

    Device dev;
    const unsigned n = 32;
    const uint64_t abuf = dev.cudaMalloc(n * 8);
    const uint64_t obuf = dev.cudaMalloc(n * 8);
    for (unsigned i = 0; i < n; ++i) {
        const double d = double(i);
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        dev.poke64(abuf + 8 * i, bits);
    }
    const CompiledKernel k = dev.compile(module(std::move(f)), "saxpyish");
    const RunResult r = dev.launch(k, 1, n, {abuf, obuf});
    EXPECT_FALSE(r.faulted());
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t bits = dev.peek64(obuf + 8 * i);
        double d;
        std::memcpy(&d, &bits, 8);
        EXPECT_DOUBLE_EQ(d, double(i) * 2.5 + 1.0) << "i=" << i;
    }
}

TEST(Sim, MultiSmLargeGrid)
{
    Device dev;
    const unsigned blocks = 200, threads = 128;
    const unsigned n = blocks * threads;
    const uint64_t a = dev.cudaMalloc(uint64_t(n) * 4);
    const uint64_t b2 = dev.cudaMalloc(uint64_t(n) * 4);
    const uint64_t out = dev.cudaMalloc(uint64_t(n) * 4);
    const CompiledKernel k = dev.compile(vaddKernel(), "vadd");
    const RunResult r = dev.launch(k, blocks, threads, {a, b2, out});
    EXPECT_FALSE(r.faulted());
    // 200 blocks over 80 SMs: at least 3 waves' worth of work ran.
    EXPECT_GT(r.thread_instructions, uint64_t(n) * 5);
    EXPECT_GT(r.dram_accesses, 0u);
}

TEST(Sim, CacheCountersPopulated)
{
    Device dev;
    const unsigned n = 4096;
    const uint64_t a = dev.cudaMalloc(n * 4);
    const uint64_t b2 = dev.cudaMalloc(n * 4);
    const uint64_t out = dev.cudaMalloc(n * 4);
    const CompiledKernel k = dev.compile(vaddKernel(), "vadd");
    const RunResult r = dev.launch(k, n / 128, 128, {a, b2, out});
    EXPECT_GT(r.l1_hits + r.l1_misses, 0u);
    EXPECT_GT(r.l2_hits + r.l2_misses, 0u);
}

TEST(Sim, LaunchValidatesParams)
{
    Device dev;
    const CompiledKernel k = dev.compile(vaddKernel(), "vadd");
    EXPECT_THROW(dev.launch(k, 1, 32, {}), FatalError);
    EXPECT_THROW(dev.launch(k, 0, 32, {1, 2, 3}), FatalError);
}

TEST(Sim, CudaFreeFaults)
{
    Device dev;
    uint64_t p = dev.cudaMalloc(1024);
    EXPECT_FALSE(dev.cudaFree(p).has_value());
    uint64_t again = p;
    const MaybeFault f = dev.cudaFree(again);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, FaultKind::DoubleFree);
}

TEST(Sim, BarrierUnderIntraWarpDivergenceFaults)
{
    // Odd lanes of each warp take the barrier, even lanes skip it: the
    // warp arrives at BAR with a partial active mask, which on real
    // hardware deadlocks or silently misbehaves. The engine must raise
    // a BarrierDivergence fault with a diagnostic naming the warp.
    IrFunction f = IrBuilder::makeKernel("divbar", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto bar = b.block("bar");
    auto done = b.block("done");

    b.setInsertPoint(entry);
    auto t = b.tid();
    auto odd = b.icmp(CmpOp::EQ, b.iand(t, b.constInt(1)), b.constInt(1));
    b.br(odd, bar, done);
    b.setInsertPoint(bar);
    b.barrier();
    b.jump(done);
    b.setInsertPoint(done);
    b.store(b.gep(b.param(0), t), t);
    b.ret();

    Device dev;
    const uint64_t out = dev.cudaMalloc(64 * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "divbar");
    const RunResult r = dev.launch(k, 1, 32, {out});
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::BarrierDivergence);
    EXPECT_NE(r.faults[0].detail.find("warp"), std::string::npos);
}

TEST(Sim, BarrierSkippedByOneWarpFaults)
{
    // Warp 0 (tid < 32) parks at a barrier; warp 1 runs straight to the
    // exit. The block can never release the barrier — the engine must
    // diagnose the exited-while-waiting hang instead of spinning.
    IrFunction f = IrBuilder::makeKernel("skipbar", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto bar = b.block("bar");
    auto done = b.block("done");

    b.setInsertPoint(entry);
    auto t = b.tid();
    auto low = b.icmp(CmpOp::LT, t, b.constInt(32));
    b.br(low, bar, done);
    b.setInsertPoint(bar);
    b.barrier();
    b.jump(done);
    b.setInsertPoint(done);
    b.store(b.gep(b.param(0), t), t);
    b.ret();

    Device dev;
    const uint64_t out = dev.cudaMalloc(64 * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "skipbar");
    const RunResult r = dev.launch(k, 1, 64, {out});
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::BarrierDivergence);
    EXPECT_NE(r.faults[0].detail.find("exited"), std::string::npos);
}

TEST(Sim, UniformBarrierInBranchDoesNotFault)
{
    // All threads take the same (data-uniform) path to the barrier:
    // no divergence, the launch completes normally.
    IrFunction f = IrBuilder::makeKernel(
        "unibar", {{"out", Type::ptr(4)}, {"flag", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto bar = b.block("bar");
    auto done = b.block("done");

    b.setInsertPoint(entry);
    auto t = b.tid();
    auto taken = b.icmp(CmpOp::EQ, b.param(1), b.constInt(1));
    b.br(taken, bar, done);
    b.setInsertPoint(bar);
    b.barrier();
    b.jump(done);
    b.setInsertPoint(done);
    b.store(b.gep(b.param(0), t), t);
    b.ret();

    Device dev;
    const uint64_t out = dev.cudaMalloc(64 * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "unibar");
    const RunResult r = dev.launch(k, 1, 64, {out, 1});
    EXPECT_FALSE(r.faulted());
    for (unsigned i = 0; i < 64; ++i)
        ASSERT_EQ(dev.peek32(out + 4 * i), i);
}

TEST(Sim, ReusedSharedAndLocalSlotsReadZero)
{
    // One SM holding two 2-warp blocks at a time runs a 6-block grid in
    // three waves, so later blocks land on shared and local slots an
    // earlier block dirtied. Each thread reads its shared word, both
    // ends of its frame and one word past the shared buffer and past
    // the frame (kept outside the dense windows) before writing them:
    // every read must see 0.
    IrFunction f = IrBuilder::makeKernel(
        "fresh", {{"seen_shared", Type::ptr(8)},
                  {"seen_local", Type::ptr(8)},
                  {"echo", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.tid();
    auto g = b.gtid();
    auto tile = b.sharedBuffer("tile", 64 * 8, 8);
    auto buf = b.alloca_(64, 8);
    auto word = b.gep(tile, t);
    auto past_tile = b.gep(tile, b.iadd(t, b.constInt(64)));
    auto lo = b.gep(buf, b.constInt(0));
    auto hi = b.gep(buf, b.constInt(7));
    auto past_frame = b.gep(buf, b.constInt(9));
    b.store(b.gep(b.param(0), g), b.ior(b.load(word), b.load(past_tile)));
    b.store(b.gep(b.param(1), g),
            b.ior(b.ior(b.load(lo), b.load(hi)), b.load(past_frame)));
    auto mark = b.iadd(g, b.constInt(1));
    for (auto p : {word, past_tile, lo, hi, past_frame})
        b.store(p, mark);
    b.store(b.gep(b.param(2), g),
            b.iadd(b.iadd(b.load(word), b.load(past_tile)),
                   b.iadd(b.iadd(b.load(lo), b.load(hi)),
                          b.load(past_frame))));
    b.ret();

    GpuConfig cfg;
    cfg.num_sms = 1;
    cfg.max_blocks_per_sm = 2;
    cfg.max_warps_per_sm = 4;
    const unsigned blocks = 6, threads = 64, n = blocks * threads;
    for (const ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        Device dev(cfg);
        const uint64_t seen_shared = dev.cudaMalloc(n * 8);
        const uint64_t seen_local = dev.cudaMalloc(n * 8);
        const uint64_t echo = dev.cudaMalloc(n * 8);
        for (unsigned i = 0; i < n; ++i) {
            dev.poke64(seen_shared + 8 * i, 0xdead);
            dev.poke64(seen_local + 8 * i, 0xdead);
        }
        const CompiledKernel k = dev.compile(module(f), "fresh");
        LaunchOptions opts;
        opts.tier = tier;
        const RunResult r = dev.launch(k, blocks, threads,
                                       {seen_shared, seen_local, echo},
                                       opts);
        ASSERT_FALSE(r.faulted());
        for (unsigned i = 0; i < n; ++i) {
            ASSERT_EQ(dev.peek64(seen_shared + 8 * i), 0u) << "i=" << i;
            ASSERT_EQ(dev.peek64(seen_local + 8 * i), 0u) << "i=" << i;
            ASSERT_EQ(dev.peek64(echo + 8 * i), 5u * (i + 1)) << "i=" << i;
        }
    }
}

TEST(Sim, BaselineAccessesPastSharedAndFrameReadBack)
{
    // The unprotected baseline lets kernels write past their declared
    // shared buffer and past their stack frame. Those bytes must behave
    // like memory: the 8-byte accesses at offset 60 straddle the end of
    // the 64-byte buffer (and the frame's top edge), the rest land wholly
    // outside, and unwritten bytes past the edge read 0.
    IrFunction f = IrBuilder::makeKernel(
        "past", {{"out", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.tid();
    auto out = b.param(0);
    auto tile = b.sharedBuffer("tile", 64, 8);
    auto buf = b.alloca_(64, 8);
    const int64_t offsets[] = {60, 64, 200, 4092, 9000};
    const unsigned nvals = 2 * std::size(offsets) + 2;
    auto row = b.imul(t, b.constInt(nvals));
    unsigned slot = 0;
    auto emit = [&](ValueId v) {
        b.store(b.gep(out, b.iadd(row, b.constInt(slot++))), v);
    };
    // Shared: lane t owns bytes [off + 16t, off + 16t + 8); local frames
    // are per lane, so every lane uses the same offsets there.
    auto lane_off = b.imul(t, b.constInt(16));
    for (const int64_t off : offsets) {
        auto v = b.iadd(b.imul(t, b.constInt(1000)), b.constInt(off));
        auto sp = b.ptrAddBytes(tile, b.iadd(lane_off, b.constInt(off)));
        auto lp = b.ptrAddBytes(buf, b.constInt(off));
        b.store(sp, v);
        b.store(lp, b.iadd(v, b.constInt(7)));
        emit(b.load(sp));
        emit(b.load(lp));
    }
    emit(b.load(b.ptrAddBytes(tile, b.iadd(lane_off, b.constInt(20000)))));
    emit(b.load(b.ptrAddBytes(buf, b.constInt(20000))));
    b.ret();

    Device dev;
    const unsigned threads = 32;
    const uint64_t out_buf = dev.cudaMalloc(threads * nvals * 8);
    const CompiledKernel k = dev.compile(module(std::move(f)), "past");
    ASSERT_EQ(k.program.static_shared_bytes, 64u);
    ASSERT_EQ(k.program.frame_bytes, 64u);
    const RunResult r = dev.launch(k, 1, threads, {out_buf});
    ASSERT_FALSE(r.faulted());
    for (unsigned t = 0; t < threads; ++t) {
        const uint64_t base = out_buf + 8 * uint64_t(t) * nvals;
        for (size_t i = 0; i < std::size(offsets); ++i) {
            const uint64_t v = 1000 * t + uint64_t(offsets[i]);
            EXPECT_EQ(dev.peek64(base + 16 * i), v) << "t=" << t;
            EXPECT_EQ(dev.peek64(base + 16 * i + 8), v + 7) << "t=" << t;
        }
        EXPECT_EQ(dev.peek64(base + 16 * std::size(offsets)), 0u);
        EXPECT_EQ(dev.peek64(base + 16 * std::size(offsets) + 8), 0u);
    }
}

} // namespace
} // namespace lmi
