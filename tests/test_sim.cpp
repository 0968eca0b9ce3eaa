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

} // namespace
} // namespace lmi
