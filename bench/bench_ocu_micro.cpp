/**
 * @file
 * Google-benchmark microbenchmarks of the LMI primitives: the pointer
 * codec, the OCU check, the Extent Checker, the liveness tracker, and
 * the 128-bit microcode codec. These bound the simulator-side cost of
 * the mechanism hooks (host performance, not GPU cycles).
 */

#include <benchmark/benchmark.h>

#include "arch/microcode.hpp"
#include "core/extent_checker.hpp"
#include "core/liveness.hpp"
#include "core/ocu.hpp"

namespace lmi {
namespace {

void
BM_PointerEncode(benchmark::State& state)
{
    const PointerCodec codec;
    uint64_t addr = 0x12340000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode(addr, 4096));
        addr += 4096;
    }
}
BENCHMARK(BM_PointerEncode);

void
BM_PointerBaseOf(benchmark::State& state)
{
    const PointerCodec codec;
    const uint64_t p = codec.encode(0x12345678, 256);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.baseOf(p));
}
BENCHMARK(BM_PointerBaseOf);

void
BM_OcuCheckInBounds(benchmark::State& state)
{
    const PointerCodec codec;
    Ocu ocu;
    const uint64_t p = codec.encode(0x40000, 4096);
    uint64_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ocu.check(p, p + (off & 0xFFF)));
        ++off;
    }
}
BENCHMARK(BM_OcuCheckInBounds);

void
BM_OcuCheckViolation(benchmark::State& state)
{
    const PointerCodec codec;
    Ocu ocu;
    const uint64_t p = codec.encode(0x40000, 4096);
    for (auto _ : state)
        benchmark::DoNotOptimize(ocu.check(p, p + 4096));
}
BENCHMARK(BM_OcuCheckViolation);

void
BM_ExtentCheck(benchmark::State& state)
{
    ExtentChecker ec;
    const PointerCodec codec;
    const uint64_t p = codec.encode(0x40000, 4096);
    for (auto _ : state)
        benchmark::DoNotOptimize(ec.check(p));
}
BENCHMARK(BM_ExtentCheck);

void
BM_LivenessMallocFree(benchmark::State& state)
{
    LivenessTracker tracker;
    const PointerCodec codec;
    uint64_t base = uint64_t(1) << 30;
    for (auto _ : state) {
        const uint64_t p = codec.encode(base, 256);
        tracker.onMalloc(p);
        benchmark::DoNotOptimize(tracker.onFree(p));
        base += 256;
    }
}
BENCHMARK(BM_LivenessMallocFree);

void
BM_LivenessIsLive(benchmark::State& state)
{
    LivenessTracker tracker;
    const PointerCodec codec;
    const uint64_t p = codec.encode(uint64_t(1) << 30, 256);
    tracker.onMalloc(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(tracker.isLive(p));
}
BENCHMARK(BM_LivenessIsLive);

void
BM_MicrocodePack(benchmark::State& state)
{
    Instruction inst;
    inst.op = Opcode::IADD;
    inst.dst = 4;
    inst.src[0] = Operand::reg(2);
    inst.src[1] = Operand::imm(0x40);
    inst.hints = {true, 0};
    for (auto _ : state)
        benchmark::DoNotOptimize(packMicrocode(inst));
}
BENCHMARK(BM_MicrocodePack);

void
BM_MicrocodeRoundTrip(benchmark::State& state)
{
    Instruction inst;
    inst.op = Opcode::LDG;
    inst.dst = 8;
    inst.src[0] = Operand::reg(4);
    inst.imm_offset = 0x80;
    const Microcode mc = packMicrocode(inst);
    for (auto _ : state)
        benchmark::DoNotOptimize(unpackMicrocode(mc));
}
BENCHMARK(BM_MicrocodeRoundTrip);

} // namespace
} // namespace lmi

BENCHMARK_MAIN();
