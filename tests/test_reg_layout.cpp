/**
 * @file
 * Register layout and register-file semantics on hand-built ISA
 * programs.
 *
 *  - layoutRegisters never gives two simultaneously live registers one
 *    value row (a diamond, a loop-carried value, a divergent loop exit,
 *    an entry-live register, and the generated programs below), checked
 *    against a plain set-based liveness;
 *  - a register read before it is written reads zero, also in a warp
 *    slot an earlier warp of a multi-wave grid dirtied;
 *  - 200 generated SIMT programs (ALU ops, S2R, ISETP, guarded
 *    forward and backward branches with tid-dependent trip counts,
 *    read-before-write registers, two diverging warps per block) store
 *    every register at EXIT, and both engine tiers must store what a
 *    per-thread scalar interpreter computes.
 *
 * The programs are built as ISA directly: the IR is SSA, so it cannot
 * express a read before a write.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>

#include "common/rng.hpp"
#include "isa_program.hpp"
#include "sim/device.hpp"
#include "sim/reg_layout.hpp"

namespace lmi {
namespace {

using namespace isa_test;

const Operand kOutParam = Operand::cbank(Program::kParamBase);

Program
program(std::vector<Instruction> code)
{
    Program p;
    p.name = "layout";
    p.code = std::move(code);
    return p;
}

using RegSet = std::bitset<kNumRegs>;

/** Reference liveness: live-in register sets per instruction, by plain
 *  iteration to a fixed point over the engine's CFG. */
std::vector<RegSet>
referenceLiveIn(const Program& p)
{
    const size_t n = p.code.size();
    std::vector<RegSet> in(n);
    const auto succs = [&](size_t i) {
        std::vector<size_t> s;
        const Instruction& inst = p.code[i];
        if (inst.op == Opcode::BRA)
            s.push_back(size_t(inst.branch_target));
        const bool stops = inst.op == Opcode::EXIT ||
                           inst.op == Opcode::TRAP ||
                           (inst.op == Opcode::BRA &&
                            inst.guard_pred == kNoPred);
        if (!stops && i + 1 < n)
            s.push_back(i + 1);
        return s;
    };
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t i = 0; i < n; ++i) {
            const Instruction& inst = p.code[i];
            RegSet live;
            for (const size_t s : succs(i))
                live |= in[s];
            if (inst.dst >= 0 && inst.op != Opcode::ISETP &&
                !isStore(inst.op))
                live.reset(size_t(inst.dst));
            for (const Operand& o : inst.src)
                if (o.isReg())
                    live.set(o.value);
            if (live != in[i]) {
                in[i] = live;
                changed = true;
            }
        }
    }
    return in;
}

/** No two registers live at one point share a row, no write clobbers a
 *  live register's row, and entry-live registers own zeroed rows. */
void
expectLiveRowsDisjoint(const Program& p, const RegLayout& layout)
{
    const std::vector<RegSet> in = referenceLiveIn(p);
    const auto rowOf = [&](size_t r) {
        EXPECT_NE(layout.slot_of[r], RegLayout::kUnnamed) << "R" << r;
        return layout.row_of[layout.slot_of[r]];
    };
    const auto expectDisjoint = [&](const RegSet& live, size_t at) {
        std::vector<int> holder(layout.rows, -1);
        for (size_t r = 0; r < kNumRegs; ++r) {
            if (!live[r])
                continue;
            const unsigned row = rowOf(r);
            ASSERT_LT(row, layout.rows);
            EXPECT_EQ(holder[row], -1)
                << "R" << holder[row] << " and R" << r << " share row "
                << row << " at " << at << "\n" << p.disassemble();
            holder[row] = int(r);
        }
    };
    for (size_t i = 0; i < p.code.size(); ++i) {
        expectDisjoint(in[i], i);
        const Instruction& inst = p.code[i];
        if (inst.dst < 0 || inst.op == Opcode::ISETP || isStore(inst.op))
            continue;
        // Every writing instruction falls through.
        const RegSet out = i + 1 < p.code.size() ? in[i + 1] : RegSet();
        for (size_t r = 0; r < kNumRegs; ++r) {
            if (out[r] && r != size_t(inst.dst)) {
                EXPECT_NE(rowOf(r), rowOf(size_t(inst.dst)))
                    << "writing R" << inst.dst << " at " << i
                    << " clobbers live R" << r;
            }
        }
    }
    for (size_t r = 0; r < kNumRegs; ++r) {
        if (!in[0][r])
            continue;
        const unsigned row = rowOf(r);
        EXPECT_NE(std::find(layout.zero_rows.begin(),
                            layout.zero_rows.end(), row),
                  layout.zero_rows.end())
            << "entry-live R" << r << " is not zeroed";
        for (size_t q = 0; q < kNumRegs; ++q) {
            if (q != r && layout.slot_of[q] != RegLayout::kUnnamed) {
                EXPECT_NE(rowOf(q), row)
                    << "entry-live R" << r << " shares with R" << q;
            }
        }
    }
}

const Operand kTid = Operand::special(SpecialReg::TidX);

TEST(RegLayout, DiamondKeepsArmValuesApartFromValuesLiveAcross)
{
    // R2 lives across both arms; each arm writes R5 (a phi) through an
    // arm-local temporary; the join reads R2 and R5.
    const Program p = program({
        /*0*/ ins(Opcode::S2R, 2, kTid),
        /*1*/ isetp(0, CmpOp::LT, Operand::reg(2), Operand::imm(16)),
        /*2*/ bra(6, 0),
        /*3*/ ins(Opcode::IADD, 7, Operand::reg(2), Operand::imm(1)),
        /*4*/ ins(Opcode::IMUL, 5, Operand::reg(7), Operand::imm(3)),
        /*5*/ bra(8),
        /*6*/ ins(Opcode::ISUB, 9, Operand::reg(2), Operand::imm(1)),
        /*7*/ ins(Opcode::SHL, 5, Operand::reg(9), Operand::imm(2)),
        /*8*/ ins(Opcode::IADD, 11, Operand::reg(5), Operand::reg(2)),
        /*9*/ stg(2, 11, 0),
        /*10*/ ins(Opcode::EXIT, -1),
    });
    const RegLayout layout = layoutRegisters(p);
    expectLiveRowsDisjoint(p, layout);
    EXPECT_EQ(layout.slots(), 5u);
    EXPECT_TRUE(layout.zero_rows.empty());
    // The two arm temporaries are never live together: one row.
    EXPECT_EQ(layout.row_of[layout.slot_of[7]],
              layout.row_of[layout.slot_of[9]]);
    EXPECT_LT(layout.rows, layout.slots());
}

TEST(RegLayout, LoopCarriedValueKeepsItsRowAroundTheBackEdge)
{
    // R10 accumulates across iterations, R12 counts down; R13 lives
    // only between its write and the next instruction.
    const Program p = program({
        /*0*/ ins(Opcode::MOV, 10, Operand::imm(0)),
        /*1*/ ins(Opcode::S2R, 11, kTid),
        /*2*/ ins(Opcode::LOP_AND, 12, Operand::reg(11), Operand::imm(3)),
        /*3*/ ins(Opcode::IADD, 13, Operand::reg(10), Operand::reg(12)),
        /*4*/ ins(Opcode::IADD, 10, Operand::reg(13), Operand::imm(1)),
        /*5*/ ins(Opcode::ISUB, 12, Operand::reg(12), Operand::imm(1)),
        /*6*/ isetp(1, CmpOp::GT, Operand::reg(12), Operand::imm(0)),
        /*7*/ bra(3, 1),
        /*8*/ stg(11, 10, 0),
        /*9*/ ins(Opcode::EXIT, -1),
    });
    const RegLayout layout = layoutRegisters(p);
    expectLiveRowsDisjoint(p, layout);
    const auto row = [&](unsigned r) {
        return layout.row_of[layout.slot_of[r]];
    };
    EXPECT_NE(row(10), row(12));
    EXPECT_NE(row(10), row(11));
    EXPECT_NE(row(12), row(11));
    // ISETP's destination is predicate 1, not R1.
    EXPECT_EQ(layout.slot_of[1], RegLayout::kUnnamed);
    EXPECT_TRUE(layout.zero_rows.empty());
}

TEST(RegLayout, DivergentLoopExitKeepsBothExitValuesLive)
{
    // Lanes leave the loop early (guarded forward BRA) carrying R20, or
    // at the latch carrying R21; the exit block reads both.
    const Program p = program({
        /*0*/ ins(Opcode::S2R, 3, kTid),
        /*1*/ ins(Opcode::MOV, 20, Operand::imm(5)),
        /*2*/ ins(Opcode::MOV, 21, Operand::imm(7)),
        /*3*/ ins(Opcode::IADD, 22, Operand::reg(3), Operand::reg(21)),
        /*4*/ isetp(0, CmpOp::GT, Operand::reg(22), Operand::imm(40)),
        /*5*/ bra(11, 0),
        /*6*/ ins(Opcode::IADD, 21, Operand::reg(21), Operand::imm(9)),
        /*7*/ ins(Opcode::IADD, 23, Operand::reg(20), Operand::reg(3)),
        /*8*/ ins(Opcode::LOP_XOR, 20, Operand::reg(23), Operand::imm(1)),
        /*9*/ isetp(1, CmpOp::LT, Operand::reg(21), Operand::imm(60)),
        /*10*/ bra(3, 1),
        /*11*/ ins(Opcode::IADD, 24, Operand::reg(20), Operand::reg(21)),
        /*12*/ stg(3, 24, 0),
        /*13*/ ins(Opcode::EXIT, -1),
    });
    const RegLayout layout = layoutRegisters(p);
    expectLiveRowsDisjoint(p, layout);
    const auto row = [&](unsigned r) {
        return layout.row_of[layout.slot_of[r]];
    };
    EXPECT_NE(row(20), row(21));
    EXPECT_NE(row(20), row(22));
    EXPECT_TRUE(layout.zero_rows.empty());
}

TEST(RegLayout, EntryLiveRegisterOwnsAZeroedRow)
{
    // R8 is read before any write on the taken path and written first
    // on the fall-through path; R9 is written before every read.
    const Program p = program({
        /*0*/ ins(Opcode::S2R, 2, kTid),
        /*1*/ isetp(0, CmpOp::LT, Operand::reg(2), Operand::imm(8)),
        /*2*/ bra(4, 0),
        /*3*/ ins(Opcode::MOV, 8, Operand::imm(77)),
        /*4*/ ins(Opcode::IADD, 9, Operand::reg(8), Operand::imm(1)),
        /*5*/ stg(2, 9, 0),
        /*6*/ ins(Opcode::MOV, 9, Operand::imm(3)),
        /*7*/ ins(Opcode::EXIT, -1),
    });
    const RegLayout layout = layoutRegisters(p);
    expectLiveRowsDisjoint(p, layout);
    ASSERT_EQ(layout.zero_rows.size(), 1u);
    EXPECT_EQ(layout.row_of[layout.slot_of[8]], layout.zero_rows[0]);
    EXPECT_EQ(layout.summary(),
              "registers: 3 named, 3 value rows, 1 zeroed at admission");
}

TEST(Sim, ReusedRegisterSlotsReadZero)
{
    // R10 is read before any write on the even lanes' path and written
    // first on the odd lanes' path; every lane stores it, then all
    // registers are dirtied. One SM holding two 2-warp blocks runs a
    // 6-block grid in three waves, so later warps take register slots
    // earlier warps dirtied: even lanes must still store 0.
    enum : int { kGtid = 2, kOut = 3, kLane = 4, kOdd = 5, kAddr = 6,
                 kReg = 10 };
    const std::vector<Instruction> code = {
        /*0*/ ins(Opcode::S2R, kGtid, Operand::special(SpecialReg::GlobalTid)),
        /*1*/ ins(Opcode::LDC, kOut, kOutParam),
        /*2*/ ins(Opcode::S2R, kLane, Operand::special(SpecialReg::LaneId)),
        /*3*/ ins(Opcode::LOP_AND, kOdd, Operand::reg(kLane), Operand::imm(1)),
        /*4*/ isetp(0, CmpOp::EQ, Operand::reg(kOdd), Operand::imm(0)),
        /*5*/ bra(7, 0),
        /*6*/ ins(Opcode::MOV, kReg, Operand::imm(77)),
        /*7*/ ins(Opcode::IMAD, kAddr, Operand::reg(kGtid), Operand::imm(8),
                  Operand::reg(kOut)),
        /*8*/ stg(kAddr, kReg, 0),
        /*9*/ ins(Opcode::IADD, kReg, Operand::reg(kGtid), Operand::imm(1000)),
        /*10*/ ins(Opcode::MOV, kOdd, Operand::imm(~uint64_t(0))),
        /*11*/ ins(Opcode::MOV, kLane, Operand::imm(~uint64_t(0))),
        /*12*/ ins(Opcode::EXIT, -1),
    };
    const CompiledKernel k = kernel("fresh_regs", code);

    GpuConfig cfg;
    cfg.num_sms = 1;
    cfg.max_blocks_per_sm = 2;
    cfg.max_warps_per_sm = 4;
    const unsigned blocks = 6, threads = 64, n = blocks * threads;
    for (const ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        Device dev(cfg);
        const uint64_t out = dev.cudaMalloc(n * 8);
        for (unsigned i = 0; i < n; ++i)
            dev.poke64(out + 8 * i, 0xdead);
        LaunchOptions opts;
        opts.tier = tier;
        const RunResult r = dev.launch(k, blocks, threads, {out}, opts);
        ASSERT_FALSE(r.faulted());
        for (unsigned i = 0; i < n; ++i)
            ASSERT_EQ(dev.peek64(out + 8 * i), i % 2 ? 77u : 0u)
                << executionTierName(tier) << " gtid=" << i;
    }
}

// ---------------------------------------------------------------------
// Differential SIMT test: generated programs against a scalar model
// ---------------------------------------------------------------------

constexpr unsigned kBlockThreads = 64;
constexpr unsigned kGridBlocks = 2;

/**
 * A random structured SIMT program. Registers come from a random set
 * spread over R2..R249: a reserved tid register written once up front,
 * a pool the ALU ops read and write (many read before any write),
 * loop counters only loop headers and latches write, and the
 * epilogue's base-address pair. The epilogue stores every pool and
 * counter register to out[gtid * nstored + i].
 */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed) : rng_(seed)
    {
        std::vector<unsigned> regs;
        for (unsigned r = 2; r < 250; ++r)
            regs.push_back(r);
        for (size_t i = regs.size(); i > 1; --i)
            std::swap(regs[i - 1], regs[rng_.below(i)]);
        size_t next = 0;
        tid_ = regs[next++];
        out_ = regs[next++];
        base_ = regs[next++];
        const unsigned npool = unsigned(rng_.range(4, 14));
        for (unsigned i = 0; i < npool; ++i)
            pool_.push_back(regs[next++]);
        for (unsigned i = 0; i < kMaxDepth; ++i)
            counters_.push_back(regs[next++]);
    }

    std::vector<Instruction>
    generate()
    {
        code_.push_back(ins(Opcode::S2R, int(tid_),
                            Operand::special(SpecialReg::TidX)));
        block(0, unsigned(rng_.range(6, 24)));
        stored_ = pool_;
        stored_.insert(stored_.end(), counters_.begin(), counters_.end());
        code_.push_back(ins(Opcode::LDC, int(out_), kOutParam));
        code_.push_back(ins(Opcode::S2R, int(base_),
                            Operand::special(SpecialReg::GlobalTid)));
        code_.push_back(ins(Opcode::IMAD, int(base_), Operand::reg(base_),
                            Operand::imm(8 * stored_.size()),
                            Operand::reg(out_)));
        for (size_t i = 0; i < stored_.size(); ++i)
            code_.push_back(stg(base_, stored_[i], int64_t(8 * i)));
        code_.push_back(ins(Opcode::EXIT, -1));
        return code_;
    }

    size_t storedCount() const { return stored_.size(); }

  private:
    static constexpr unsigned kMaxDepth = 3;

    Operand
    source()
    {
        switch (rng_.below(6)) {
          case 0:
            return Operand::reg(tid_);
          case 1:
            return Operand::imm(rng_.chance(0.5) ? rng_.below(9)
                                                 : rng_.next());
          default:
            return Operand::reg(pool_[rng_.below(pool_.size())]);
        }
    }

    /** A small source for shift amounts (mostly in range, some >= 64). */
    Operand
    shiftAmount()
    {
        return rng_.chance(0.7) ? Operand::imm(rng_.below(70)) : source();
    }

    int poolDst() { return int(pool_[rng_.below(pool_.size())]); }

    void
    alu()
    {
        static constexpr Opcode kOps[] = {
            Opcode::IADD,    Opcode::IADD3,  Opcode::ISUB,   Opcode::IMUL,
            Opcode::IMAD,    Opcode::IMNMX,  Opcode::SHL,    Opcode::SHR,
            Opcode::LOP_AND, Opcode::LOP_OR, Opcode::LOP_XOR, Opcode::MOV};
        // One draw per statement, so the program does not depend on the
        // compiler's argument evaluation order.
        const Opcode op = kOps[rng_.below(std::size(kOps))];
        const int dst = poolDst();
        const Operand a = source();
        const bool shift = op == Opcode::SHL || op == Opcode::SHR;
        const Operand b = shift ? shiftAmount() : source();
        const Operand c = source();
        code_.push_back(ins(op, dst, a, b, c));
    }

    void
    s2r()
    {
        static constexpr SpecialReg kRegs[] = {
            SpecialReg::TidX, SpecialReg::LaneId, SpecialReg::WarpId,
            SpecialReg::GlobalTid, SpecialReg::CtaIdX};
        const int dst = poolDst();
        const SpecialReg sr = kRegs[rng_.below(std::size(kRegs))];
        code_.push_back(ins(Opcode::S2R, dst, Operand::special(sr)));
    }

    void
    condition(int pred)
    {
        static constexpr CmpOp kCmps[] = {CmpOp::EQ, CmpOp::NE, CmpOp::LT,
                                          CmpOp::LE, CmpOp::GT, CmpOp::GE};
        // Mostly lane-dependent so warps diverge.
        const Operand a = rng_.chance(0.5)
                              ? Operand::reg(tid_)
                              : Operand::reg(pool_[rng_.below(pool_.size())]);
        const Operand b = rng_.chance(0.6) ? Operand::imm(rng_.below(64))
                                           : source();
        const CmpOp cmp = kCmps[rng_.below(std::size(kCmps))];
        code_.push_back(isetp(pred, cmp, a, b));
    }

    void
    block(unsigned depth, unsigned items)
    {
        for (unsigned n = 0; n < items; ++n) {
            const uint64_t pick = rng_.below(10);
            if (pick < 5) {
                alu();
            } else if (pick < 6) {
                s2r();
            } else if (pick < 8 && depth < kMaxDepth) {
                ifThen(depth);
            } else if (depth < kMaxDepth) {
                loop(depth);
            } else {
                alu();
            }
        }
    }

    /** if (!cond) skip { body }, or an if/else with an unguarded jump. */
    void
    ifThen(unsigned depth)
    {
        const int pred = int(rng_.below(kNumPredRegs));
        condition(pred);
        const size_t br = code_.size();
        code_.push_back(bra(-1, pred, rng_.chance(0.5)));
        block(depth + 1, unsigned(rng_.range(1, 5)));
        if (rng_.chance(0.4)) {
            const size_t jump = code_.size();
            code_.push_back(bra(-1));
            code_[br].branch_target = int(code_.size());
            block(depth + 1, unsigned(rng_.range(1, 5)));
            code_[jump].branch_target = int(code_.size());
        } else {
            code_[br].branch_target = int(code_.size());
        }
    }

    /** do { body } while (--counter > 0), 1..4 tid-dependent trips. */
    void
    loop(unsigned depth)
    {
        const unsigned c = counters_[depth];
        code_.push_back(ins(Opcode::LOP_AND, int(c),
                            rng_.chance(0.6) ? Operand::reg(tid_)
                                             : source(),
                            Operand::imm(3)));
        const int head = int(code_.size());
        block(depth + 1, unsigned(rng_.range(1, 5)));
        code_.push_back(
            ins(Opcode::ISUB, int(c), Operand::reg(c), Operand::imm(1)));
        const int pred = int(rng_.below(kNumPredRegs));
        code_.push_back(isetp(pred, CmpOp::GT, Operand::reg(c),
                              Operand::imm(0)));
        code_.push_back(bra(head, pred));
    }

    Rng rng_;
    unsigned tid_ = 0, out_ = 0, base_ = 0;
    std::vector<unsigned> pool_, counters_, stored_;
    std::vector<Instruction> code_;
};

/** Per-thread reference semantics of the generated subset. */
std::vector<uint64_t>
interpret(const std::vector<Instruction>& code, unsigned block,
          unsigned tid, uint64_t out)
{
    std::array<uint64_t, kNumRegs> r{};
    std::array<bool, kNumPredRegs> p{};
    std::vector<uint64_t> stored;
    const auto val = [&](const Operand& o) -> uint64_t {
        switch (o.kind) {
          case Operand::Kind::Reg: return r[o.value];
          case Operand::Kind::Imm: return o.value;
          case Operand::Kind::CBank:
            EXPECT_EQ(o.value, Program::kParamBase);
            return out;
          case Operand::Kind::Special:
            switch (SpecialReg(o.value)) {
              case SpecialReg::TidX: return tid;
              case SpecialReg::LaneId: return tid % 32;
              case SpecialReg::WarpId: return tid / 32;
              case SpecialReg::GlobalTid:
                return uint64_t(block) * kBlockThreads + tid;
              case SpecialReg::CtaIdX: return block;
              default: ADD_FAILURE() << "unmodelled special"; return 0;
            }
          case Operand::Kind::None: return 0;
        }
        return 0;
    };
    const auto shift = [](uint64_t v, uint64_t s, bool left) {
        return s >= 64 ? 0 : left ? v << s : v >> s;
    };
    for (size_t pc = 0, steps = 0; steps < 100000; ++steps) {
        const Instruction& i = code.at(pc);
        const uint64_t a = val(i.src[0]), b = val(i.src[1]),
                       c = val(i.src[2]);
        ++pc;
        switch (i.op) {
          case Opcode::IADD: r[i.dst] = a + b; break;
          case Opcode::IADD3: r[i.dst] = a + b + c; break;
          case Opcode::ISUB: r[i.dst] = a - b; break;
          case Opcode::IMUL: r[i.dst] = a * b; break;
          case Opcode::IMAD: r[i.dst] = a * b + c; break;
          case Opcode::IMNMX:
            r[i.dst] = uint64_t(std::min(int64_t(a), int64_t(b)));
            break;
          case Opcode::SHL: r[i.dst] = shift(a, b, true); break;
          case Opcode::SHR: r[i.dst] = shift(a, b, false); break;
          case Opcode::LOP_AND: r[i.dst] = a & b; break;
          case Opcode::LOP_OR: r[i.dst] = a | b; break;
          case Opcode::LOP_XOR: r[i.dst] = a ^ b; break;
          case Opcode::MOV:
          case Opcode::S2R:
          case Opcode::LDC: r[i.dst] = a; break;
          case Opcode::ISETP: {
            const int64_t x = int64_t(a), y = int64_t(b);
            bool v = false;
            switch (i.cmp) {
              case CmpOp::EQ: v = x == y; break;
              case CmpOp::NE: v = x != y; break;
              case CmpOp::LT: v = x < y; break;
              case CmpOp::LE: v = x <= y; break;
              case CmpOp::GT: v = x > y; break;
              case CmpOp::GE: v = x >= y; break;
            }
            p[unsigned(i.dst)] = v;
            break;
          }
          case Opcode::BRA:
            if (i.guard_pred == kNoPred ||
                p[unsigned(i.guard_pred)] != i.guard_neg)
                pc = size_t(i.branch_target);
            break;
          case Opcode::STG: stored.push_back(val(i.src[1])); break;
          case Opcode::EXIT: return stored;
          default:
            ADD_FAILURE() << "unmodelled opcode " << opcodeName(i.op);
            return stored;
        }
    }
    ADD_FAILURE() << "generated program did not terminate";
    return stored;
}

TEST(RegLayout, GeneratedProgramsKeepLiveRowsDisjoint)
{
    for (unsigned seed = 1; seed <= 200; ++seed) {
        ProgramGen gen(seed);
        const Program p = program(gen.generate());
        const RegLayout layout = layoutRegisters(p);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectLiveRowsDisjoint(p, layout);
        EXPECT_LE(layout.rows, layout.slots());
    }
}

TEST(Simt, GeneratedProgramsMatchScalarModel)
{
    // One SM holding one block at a time, so the second block's warps
    // run in register slots the first block's warps dirtied.
    GpuConfig cfg;
    cfg.num_sms = 1;
    cfg.max_blocks_per_sm = 1;
    constexpr unsigned kPrograms = 200;
    const unsigned n = kGridBlocks * kBlockThreads;
    for (unsigned seed = 1; seed <= kPrograms; ++seed) {
        ProgramGen gen(seed);
        const CompiledKernel k = kernel("simt_" + std::to_string(seed),
                                        gen.generate());
        const size_t nstored = gen.storedCount();
        for (const ExecutionTier tier :
             {ExecutionTier::Detailed, ExecutionTier::Functional}) {
            Device dev(cfg);
            const uint64_t out = dev.cudaMalloc(n * nstored * 8);
            LaunchOptions opts;
            opts.tier = tier;
            const RunResult r =
                dev.launch(k, kGridBlocks, kBlockThreads, {out}, opts);
            ASSERT_FALSE(r.faulted()) << "seed " << seed;
            for (unsigned g = 0; g < n; ++g) {
                const std::vector<uint64_t> want =
                    interpret(k.program.code, g / kBlockThreads,
                              g % kBlockThreads, out);
                ASSERT_EQ(want.size(), nstored) << "seed " << seed;
                for (size_t i = 0; i < nstored; ++i)
                    ASSERT_EQ(dev.peek64(out + 8 * (g * nstored + i)),
                              want[i])
                        << executionTierName(tier) << " seed " << seed
                        << " gtid " << g << " stored reg #" << i << "\n"
                        << k.program.disassemble();
            }
        }
    }
}

} // namespace
} // namespace lmi
