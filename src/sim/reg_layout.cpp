#include "sim/reg_layout.hpp"

#include <algorithm>
#include <cstdio>

namespace lmi {

namespace {

bool
namesRegister(int r)
{
    return r >= 0 && r < int(kNumRegs);
}

/** True when the engine writes @p inst's destination register. */
bool
writesRegister(const Instruction& inst)
{
    if (!namesRegister(inst.dst))
        return false;
    switch (inst.op) {
      case Opcode::ISETP: // writes a predicate
      case Opcode::STG:
      case Opcode::STS:
      case Opcode::STL:
      case Opcode::BRA:
      case Opcode::BAR:
      case Opcode::EXIT:
      case Opcode::RET:
      case Opcode::TRAP:
      case Opcode::FREE:
      case Opcode::MEMBAR:
      case Opcode::NOP:
        return false;
      default:
        return true;
    }
}

/** @p inst's branch target, or -1 when it has none in [0, @p n). */
int64_t
branchTarget(const Instruction& inst, size_t n)
{
    return inst.op == Opcode::BRA && inst.branch_target >= 0 &&
                   size_t(inst.branch_target) < n
               ? inst.branch_target
               : -1;
}

/** False for EXIT, TRAP and an unguarded BRA. */
bool
fallsThrough(const Instruction& inst)
{
    return inst.op != Opcode::EXIT && inst.op != Opcode::TRAP &&
           !(inst.op == Opcode::BRA && inst.guard_pred == kNoPred);
}

} // namespace

std::string
RegLayout::summary() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "registers: %u named, %u value rows, %zu zeroed at "
                  "admission",
                  slots(), rows, zero_rows.size());
    return buf;
}

RegLayout
layoutRegisters(const Program& program)
{
    RegLayout layout;
    layout.slot_of.fill(RegLayout::kUnnamed);
    const std::vector<Instruction>& code = program.code;
    const size_t n = code.size();

    // One pass over the code: each instruction's written and read
    // registers and the basic-block leaders (0, branch targets, and the
    // instruction after a BRA, EXIT or TRAP). kNumRegs stands for "no
    // register". A destination names a register even where the engine
    // does not write it (the WAW check still reads its slot).
    struct Regs
    {
        uint16_t def;
        uint16_t use[kMaxSrcs];
    };
    std::vector<Regs> regs(n);
    std::vector<uint8_t> leader(n + 1, 0);
    leader[0] = leader[n] = 1;
    std::array<bool, kNumRegs + 1> named{};
    for (size_t i = 0; i < n; ++i) {
        const Instruction& inst = code[i];
        Regs& r = regs[i];
        named[inst.op != Opcode::ISETP && namesRegister(inst.dst)
                  ? size_t(inst.dst)
                  : kNumRegs] = true;
        r.def = uint16_t(writesRegister(inst) ? inst.dst : kNumRegs);
        for (unsigned k = 0; k < kMaxSrcs; ++k) {
            const Operand& src = inst.src[k];
            r.use[k] = uint16_t(src.isReg() && src.value < kNumRegs
                                    ? src.value
                                    : kNumRegs);
            named[r.use[k]] = true;
        }
        if (branchTarget(inst, n) >= 0)
            leader[size_t(branchTarget(inst, n))] = 1;
        if (inst.op == Opcode::BRA || !fallsThrough(inst))
            leader[i + 1] = 1;
    }

    // Dense scoreboard slots, in ascending register order. "No
    // register" maps to a scratch slot past the last, so the walks
    // below set and clear bits without a branch per operand.
    layout.regs.reserve(kNumRegs);
    for (unsigned r = 0; r < kNumRegs; ++r) {
        if (named[r]) {
            layout.slot_of[r] = uint16_t(layout.regs.size());
            layout.regs.push_back(uint16_t(r));
        }
    }
    const size_t slots = layout.regs.size();
    layout.row_of.assign(slots, 0);
    if (slots == 0)
        return layout;
    const size_t scratch = slots;
    const size_t words = (slots + 1 + 63) / 64;
    const auto bit = [](size_t slot) { return uint64_t(1) << (slot % 64); };
    // The walks below run once per word, keeping that word of a set in
    // a register: slot s's bit if it lies in word w, else 0.
    const auto bitIn = [](size_t s, size_t w) {
        return s / 64 == w ? uint64_t(1) << (s % 64) : 0;
    };
    const auto slotOf = [&](uint16_t reg) {
        return reg == kNumRegs ? uint16_t(scratch) : layout.slot_of[reg];
    };
    std::vector<size_t> first_def(slots + 1, n);
    for (size_t i = n; i-- > 0;) {
        Regs& r = regs[i];
        r.def = slotOf(r.def);
        first_def[r.def] = i;
        for (uint16_t& u : r.use)
            u = slotOf(u);
    }

    // Basic blocks: block b covers [start[b], start[b + 1]).
    std::vector<uint32_t> start, block_of(n + 1, 0);
    for (size_t i = 0; i <= n; ++i) {
        if (leader[i]) {
            block_of[i] = uint32_t(start.size());
            start.push_back(uint32_t(i));
        }
    }
    const size_t blocks = start.size() - 1;

    // Per block: successor blocks (-1: none), the slots it reads before
    // writing (use) and the slots it writes (kill).
    std::vector<std::array<int32_t, 2>> succ(blocks, {-1, -1});
    std::vector<uint64_t> use(blocks * words, 0), kill(blocks * words, 0);
    for (size_t b = 0; b < blocks; ++b) {
        const Instruction& last = code[start[b + 1] - 1];
        if (fallsThrough(last) && start[b + 1] < n)
            succ[b][0] = int32_t(block_of[start[b + 1]]);
        if (branchTarget(last, n) >= 0)
            succ[b][1] = int32_t(block_of[size_t(branchTarget(last, n))]);
        for (size_t w = 0; w < words; ++w) {
            uint64_t u = 0, k = 0;
            for (size_t i = start[b]; i < start[b + 1]; ++i) {
                for (const uint16_t s : regs[i].use)
                    u |= bitIn(s, w) & ~k;
                k |= bitIn(regs[i].def, w);
            }
            use[b * words + w] = u;
            kill[b * words + w] = k;
        }
    }

    // Backward liveness over blocks to a fixed point, swept in reverse
    // program order (forward code settles in one sweep, each loop nest
    // adds a few): live_in = use | (live_out & ~kill).
    std::vector<uint64_t> live_in(blocks * words, 0);
    std::vector<uint64_t> out(words);
    const auto liveOut = [&](size_t b) {
        std::fill(out.begin(), out.end(), 0);
        for (const int32_t sb : succ[b])
            if (sb >= 0)
                for (size_t w = 0; w < words; ++w)
                    out[w] |= live_in[size_t(sb) * words + w];
    };
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t b = blocks; b-- > 0;) {
            liveOut(b);
            for (size_t w = 0; w < words; ++w) {
                const uint64_t in = use[b * words + w] |
                                    (out[w] & ~kill[b * words + w]);
                changed = changed || in != live_in[b * words + w];
                live_in[b * words + w] = in;
            }
        }
    }

    // Interference: a written register conflicts with every other
    // register live after the write (the write clobbers its row).
    // adj[d] collects the live-out sets of d's writes; two registers
    // interfere when either is in the other's set. (A set may hold its
    // own register or the scratch slot; neither is ever a row-mate.)
    std::vector<uint64_t> adj((slots + 1) * words, 0);
    for (size_t b = 0; b < blocks; ++b) {
        liveOut(b);
        for (size_t w = 0; w < words; ++w) {
            uint64_t live = out[w];
            for (size_t i = start[b + 1]; i-- > start[b];) {
                const size_t d = regs[i].def;
                adj[d * words + w] |= live;
                live &= ~bitIn(d, w);
                for (const uint16_t s : regs[i].use)
                    live |= bitIn(s, w);
            }
        }
    }

    // Registers live at entry read zero until written: own rows, the
    // only ones admission zeroes.
    std::vector<bool> entry_live(slots, false);
    for (size_t s = 0; s < slots; ++s) {
        if (live_in[s / 64] & bit(s)) {
            entry_live[s] = true;
            layout.row_of[s] = uint16_t(layout.zero_rows.size());
            layout.zero_rows.push_back(uint16_t(layout.zero_rows.size()));
        }
    }
    const size_t first_shared = layout.zero_rows.size();

    // Greedy coloring of the rest in first-write order (the order a
    // linear scan would meet the live ranges), never-written registers
    // last: each register takes the lowest row none of its neighbours
    // holds.
    std::vector<uint16_t> order;
    order.reserve(slots);
    for (size_t i = 0; i < n; ++i) {
        const uint16_t d = regs[i].def;
        if (d != scratch && first_def[d] == i && !entry_live[d])
            order.push_back(d);
    }
    for (size_t s = 0; s < slots; ++s)
        if (first_def[s] == n && !entry_live[s])
            order.push_back(uint16_t(s));
    // Per shared row: its slots, and the union of their adj sets.
    std::vector<uint64_t> members, members_adj;
    for (const uint16_t s : order) {
        const uint64_t* nb = &adj[size_t(s) * words];
        size_t row = 0;
        for (; row * words < members.size(); ++row) {
            const uint64_t* m = &members[row * words];
            bool clash = (members_adj[row * words + s / 64] & bit(s)) != 0;
            for (size_t w = 0; w < words && !clash; ++w)
                clash = (m[w] & nb[w]) != 0;
            if (!clash)
                break;
        }
        if (row * words == members.size()) {
            members.resize(members.size() + words, 0);
            members_adj.resize(members.size(), 0);
        }
        members[row * words + s / 64] |= bit(s);
        for (size_t w = 0; w < words; ++w)
            members_adj[row * words + w] |= nb[w];
        layout.row_of[s] = uint16_t(first_shared + row);
    }
    layout.rows = unsigned(first_shared + members.size() / words);
    return layout;
}

} // namespace lmi
