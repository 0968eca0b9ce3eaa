/**
 * @file
 * Global-memory visibility of the slice-synchronous engine.
 *
 * Within a slice an SM sees the global memory committed at the last
 * slice barrier plus its own stores of the slice; global atomics apply
 * at the barrier. Each test is a hand-built ISA program under Baseline,
 * run on both tiers at sim_threads 1 and 4:
 *  - two blocks on two SMs share one page: block 0 stores to it and
 *    spins on a flag, block 1 waits for that store, then stores a value
 *    and the flag; block 0 then writes the page again and must read
 *    block 1's value;
 *  - a store, a global atomic and a plain load to one address, so the
 *    load must see the atomic's result on a page the SM already wrote;
 *  - 8-byte loads and stores that straddle a 4 KiB page boundary.
 */

#include <gtest/gtest.h>

#include "common/bitutil.hpp"
#include "isa_program.hpp"
#include "sim/device.hpp"

namespace lmi {
namespace {

using namespace isa_test;

const Operand kParam0 = Operand::cbank(Program::kParamBase);
constexpr uint64_t kPage = SparseMemory::kPageBytes;

/** Every (tier, sim_threads) pair the tests run under. */
template <typename F>
void
forEachEngine(F&& body)
{
    for (const ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(std::string("tier=") + executionTierName(tier) +
                         " sim_threads=" + std::to_string(threads));
            Device dev;
            dev.setSimThreads(threads);
            LaunchOptions opts;
            opts.tier = tier;
            body(dev, opts);
        }
    }
}

/** A page-aligned device address with @p pages whole pages behind it. */
uint64_t
alignedPages(Device& dev, unsigned pages)
{
    return alignUp(dev.cudaMalloc((pages + 1) * kPage), kPage);
}

TEST(GlobalView, ForeignStoresSeenOnAPageThisSmWrote)
{
    // Slots of one page: A and W are block 0's, B and F block 1's; the
    // rest record what each block observed.
    enum : int64_t { kA = 0, kB = 8, kF = 16, kW = 24, kSeenB = 32,
                     kSeenF = 40, kSeenA = 48 };
    enum : int { kCta = 2, kBase = 3, kCount = 5, kVal = 6, kGot = 7,
                 kGotB = 9 };
    constexpr uint64_t kSpin = 100000;
    const std::vector<Instruction> code = {
        /*0*/ ins(Opcode::S2R, kCta, Operand::special(SpecialReg::CtaIdX)),
        /*1*/ ins(Opcode::LDC, kBase, kParam0),
        /*2*/ movImm(kCount, 0),
        /*3*/ isetp(0, CmpOp::NE, Operand::reg(kCta), Operand::imm(0)),
        /*4*/ bra(19, 0),
        // Block 0: store A, spin on F, write the page, read B.
        /*5*/ movImm(kVal, 1),
        /*6*/ stg(kBase, kVal, kA),
        /*7*/ ldg(kGot, kBase, kF),
        /*8*/ isetp(1, CmpOp::NE, Operand::reg(kGot), Operand::imm(0)),
        /*9*/ bra(13, 1),
        /*10*/ ins(Opcode::IADD, kCount, Operand::reg(kCount), Operand::imm(1)),
        /*11*/ isetp(2, CmpOp::LT, Operand::reg(kCount), Operand::imm(kSpin)),
        /*12*/ bra(7, 2),
        /*13*/ movImm(kVal, 7),
        /*14*/ stg(kBase, kVal, kW),
        /*15*/ ldg(kGotB, kBase, kB),
        /*16*/ stg(kBase, kGotB, kSeenB),
        /*17*/ stg(kBase, kGot, kSeenF),
        /*18*/ ins(Opcode::EXIT, -1),
        // Block 1: spin on A, then store B and F.
        /*19*/ ldg(kGot, kBase, kA),
        /*20*/ isetp(1, CmpOp::NE, Operand::reg(kGot), Operand::imm(0)),
        /*21*/ bra(25, 1),
        /*22*/ ins(Opcode::IADD, kCount, Operand::reg(kCount), Operand::imm(1)),
        /*23*/ isetp(2, CmpOp::LT, Operand::reg(kCount), Operand::imm(kSpin)),
        /*24*/ bra(19, 2),
        /*25*/ movImm(kVal, 42),
        /*26*/ stg(kBase, kVal, kB),
        /*27*/ movImm(kVal, 1),
        /*28*/ stg(kBase, kVal, kF),
        /*29*/ stg(kBase, kGot, kSeenA),
        /*30*/ ins(Opcode::EXIT, -1),
    };
    const CompiledKernel k = kernel("shared_page", code);
    forEachEngine([&](Device& dev, const LaunchOptions& opts) {
        ASSERT_GE(dev.config().num_sms, 2u);
        const uint64_t page = alignedPages(dev, 1);
        const RunResult r = dev.launch(k, 2, 1, {page}, opts);
        ASSERT_FALSE(r.faulted());
        EXPECT_EQ(dev.peek64(page + kSeenA), 1u);
        EXPECT_EQ(dev.peek64(page + kSeenF), 1u);
        EXPECT_EQ(dev.peek64(page + kSeenB), 42u);
        EXPECT_EQ(dev.peek64(page + kW), 7u);
    });
}

TEST(GlobalView, LoadAfterAtomicSeesItsResult)
{
    enum : int64_t { kY = 0, kOld = 8, kNew = 16 };
    enum : int { kBase = 3, kVal = 6, kAdd = 7, kGotOld = 8, kGotNew = 9 };
    Instruction atom = ins(Opcode::ATOMG, kGotOld, Operand::reg(kBase),
                           Operand::reg(kAdd));
    atom.width = 8;
    atom.aop = AtomicOp::Add;
    atom.scope = MemScope::Gpu;
    const CompiledKernel k = kernel(
        "atomic_then_load",
        {
            ins(Opcode::LDC, kBase, kParam0),
            movImm(kVal, 10),
            stg(kBase, kVal, kY),
            movImm(kAdd, 3),
            atom,
            ldg(kGotNew, kBase, kY),
            stg(kBase, kGotOld, kOld),
            stg(kBase, kGotNew, kNew),
            ins(Opcode::EXIT, -1),
        });
    forEachEngine([&](Device& dev, const LaunchOptions& opts) {
        const uint64_t page = alignedPages(dev, 1);
        const RunResult r = dev.launch(k, 1, 1, {page}, opts);
        ASSERT_FALSE(r.faulted());
        EXPECT_EQ(dev.peek64(page + kOld), 10u);
        EXPECT_EQ(dev.peek64(page + kNew), 13u);
        EXPECT_EQ(dev.peek64(page + kY), 13u);
    });
}

TEST(GlobalView, PageCrossingLoadsAndStores)
{
    // The parameter is a page boundary P. The kernel stores V across P,
    // loads it back, and loads a host-written value across P + kPage.
    constexpr uint64_t kV = 0x1122334455667788ull;
    constexpr uint64_t kHost = 0x99aabbccddeeff00ull;
    enum : int { kBase = 3, kVal = 6, kGotOwn = 7, kGotHost = 8 };
    const CompiledKernel k = kernel(
        "page_crossing",
        {
            ins(Opcode::LDC, kBase, kParam0),
            movImm(kVal, kV),
            stg(kBase, kVal, -4),
            ldg(kGotOwn, kBase, -4),
            ldg(kGotHost, kBase, int64_t(kPage) - 3),
            stg(kBase, kGotOwn, 64),
            stg(kBase, kGotHost, 72),
            ins(Opcode::EXIT, -1),
        });
    forEachEngine([&](Device& dev, const LaunchOptions& opts) {
        const uint64_t boundary = alignedPages(dev, 3) + kPage;
        dev.poke64(boundary + kPage - 3, kHost);
        const RunResult r = dev.launch(k, 1, 1, {boundary}, opts);
        ASSERT_FALSE(r.faulted());
        EXPECT_EQ(dev.peek64(boundary - 4), kV);
        EXPECT_EQ(dev.peek64(boundary + 64), kV);
        EXPECT_EQ(dev.peek64(boundary + 72), kHost);
    });
}

} // namespace
} // namespace lmi
