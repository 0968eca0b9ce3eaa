#include "ir/parser.hpp"

#include <cctype>
#include <sstream>
#include <unordered_map>

#include "analysis/verify.hpp"
#include "common/logging.hpp"

namespace lmi::ir {

namespace {

/** Minimal cursor-based tokenizer over one line. */
class LineLexer
{
  public:
    LineLexer(const std::string& line, int line_no)
        : line_(line), line_no_(line_no)
    {
    }

    [[noreturn]] void
    fail(const std::string& what) const
    {
        lmi_fatal("IR parse error at line %d: %s (in '%s')", line_no_,
                  what.c_str(), line_.c_str());
    }

    void
    skipSpace()
    {
        while (pos_ < line_.size() && std::isspace(uint8_t(line_[pos_])))
            ++pos_;
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= line_.size();
    }

    char
    peek()
    {
        skipSpace();
        return pos_ < line_.size() ? line_[pos_] : '\0';
    }

    /** Consume @p token if present. */
    bool
    accept(const std::string& token)
    {
        skipSpace();
        if (line_.compare(pos_, token.size(), token) == 0) {
            pos_ += token.size();
            return true;
        }
        return false;
    }

    void
    expect(const std::string& token)
    {
        if (!accept(token))
            fail("expected '" + token + "'");
    }

    /** Identifier: [A-Za-z0-9_.]+ */
    std::string
    ident()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < line_.size() &&
               (std::isalnum(uint8_t(line_[pos_])) || line_[pos_] == '_' ||
                line_[pos_] == '.'))
            ++pos_;
        if (start == pos_)
            fail("expected identifier");
        return line_.substr(start, pos_ - start);
    }

    int64_t
    integer()
    {
        skipSpace();
        size_t start = pos_;
        if (pos_ < line_.size() && (line_[pos_] == '-' || line_[pos_] == '+'))
            ++pos_;
        while (pos_ < line_.size() && std::isdigit(uint8_t(line_[pos_])))
            ++pos_;
        if (start == pos_)
            fail("expected integer");
        return std::stoll(line_.substr(start, pos_ - start));
    }

    double
    real()
    {
        skipSpace();
        size_t consumed = 0;
        double v = 0;
        try {
            v = std::stod(line_.substr(pos_), &consumed);
        } catch (const std::exception&) {
            fail("expected number");
        }
        pos_ += consumed;
        return v;
    }

    /** %N value reference. */
    std::string
    valueRef()
    {
        expect("%");
        return ident();
    }

  private:
    const std::string& line_;
    size_t pos_ = 0;
    int line_no_;
};

Type
parseType(LineLexer& lex)
{
    if (lex.accept("void"))
        return Type::voidTy();
    if (lex.accept("i32"))
        return Type::i32();
    if (lex.accept("i64"))
        return Type::i64();
    if (lex.accept("f32"))
        return Type::f32();
    if (lex.accept("ptr<")) {
        const uint32_t elem = uint32_t(lex.integer());
        lex.expect(",");
        const std::string space = lex.ident();
        lex.expect(">");
        MemSpace ms;
        if (space == "global")
            ms = MemSpace::Global;
        else if (space == "shared")
            ms = MemSpace::Shared;
        else if (space == "local")
            ms = MemSpace::Local;
        else if (space == "constant")
            ms = MemSpace::Constant;
        else
            lex.fail("unknown memory space '" + space + "'");
        return Type::ptr(elem, ms);
    }
    lex.fail("expected a type");
}

/** Opcode table: textual mnemonic -> IrOp. */
const std::unordered_map<std::string, IrOp>&
opTable()
{
    static const std::unordered_map<std::string, IrOp> table = {
        {"const", IrOp::ConstInt},   {"fconst", IrOp::ConstFloat},
        {"param", IrOp::Param},      {"alloca", IrOp::Alloca},
        {"sharedref", IrOp::SharedRef},
        {"dynsharedref", IrOp::DynSharedRef},
        {"gep", IrOp::Gep},          {"ptraddbyte", IrOp::PtrAddByte},
        {"fieldgep", IrOp::FieldGep},
        {"load", IrOp::Load},        {"store", IrOp::Store},
        {"atomicrmw", IrOp::AtomicRmw}, {"atomiccas", IrOp::AtomicCas},
        {"atomicld", IrOp::AtomicLoad}, {"atomicst", IrOp::AtomicStore},
        {"fence", IrOp::Fence},
        {"iadd", IrOp::IAdd},        {"isub", IrOp::ISub},
        {"imul", IrOp::IMul},        {"imin", IrOp::IMin},
        {"ishl", IrOp::IShl},        {"ishr", IrOp::IShr},
        {"iand", IrOp::IAnd},        {"ior", IrOp::IOr},
        {"ixor", IrOp::IXor},        {"fadd", IrOp::FAdd},
        {"fmul", IrOp::FMul},        {"ffma", IrOp::FFma},
        {"frcp", IrOp::FRcp},        {"fbits", IrOp::FBits},
        {"icmp", IrOp::ICmp},
        {"br", IrOp::Br},            {"jump", IrOp::Jump},
        {"ret", IrOp::Ret},          {"phi", IrOp::Phi},
        {"barrier", IrOp::Barrier},  {"malloc", IrOp::Malloc},
        {"free", IrOp::Free},        {"inttoptr", IrOp::IntToPtr},
        {"ptrtoint", IrOp::PtrToInt}, {"call", IrOp::Call},
        {"scope_end", IrOp::ScopeEnd}, {"tid", IrOp::Tid},
        {"ctaid", IrOp::CtaId},      {"ntid", IrOp::NTid},
        {"nctaid", IrOp::NCtaId},    {"gtid", IrOp::GlobalTid},
    };
    return table;
}

CmpOp
parseCmp(const std::string& name, LineLexer& lex)
{
    if (name == "EQ") return CmpOp::EQ;
    if (name == "NE") return CmpOp::NE;
    if (name == "LT") return CmpOp::LT;
    if (name == "LE") return CmpOp::LE;
    if (name == "GT") return CmpOp::GT;
    if (name == "GE") return CmpOp::GE;
    lex.fail("unknown comparison '" + name + "'");
}

AtomicOp
parseAop(const std::string& name, LineLexer& lex)
{
    if (name == "add")  return AtomicOp::Add;
    if (name == "exch") return AtomicOp::Exch;
    if (name == "min")  return AtomicOp::Min;
    if (name == "max")  return AtomicOp::Max;
    if (name == "and")  return AtomicOp::And;
    if (name == "or")   return AtomicOp::Or;
    if (name == "xor")  return AtomicOp::Xor;
    lex.fail("unknown atomic operation '" + name + "'");
}

MemOrder
parseOrder(const std::string& name, LineLexer& lex)
{
    if (name == "relaxed") return MemOrder::Relaxed;
    if (name == "acquire") return MemOrder::Acquire;
    if (name == "release") return MemOrder::Release;
    if (name == "acqrel")  return MemOrder::AcqRel;
    lex.fail("unknown memory ordering '" + name + "'");
}

MemScope
parseScope(const std::string& name, LineLexer& lex)
{
    if (name == "cta") return MemScope::Cta;
    if (name == "gpu") return MemScope::Gpu;
    if (name == "sys") return MemScope::Sys;
    lex.fail("unknown memory scope '" + name + "'");
}

struct PendingLine
{
    std::string text;
    int line_no;
    BlockId block;
    ValueId value; ///< pre-assigned arena slot
    std::string def_name; ///< textual %name of the result ("" if void)
};

} // namespace

IrModule
parseModule(const std::string& text)
{
    IrModule module;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;

    std::string pending;
    int depth = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments.
        const size_t hash = line.find("//");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        bool blank = true;
        for (char c : line)
            blank &= std::isspace(uint8_t(c)) != 0;
        if (blank && depth == 0)
            continue;
        pending += line + "\n";
        for (char c : line) {
            if (c == '{')
                ++depth;
            if (c == '}')
                --depth;
        }
        if (depth == 0 && !pending.empty()) {
            module.functions.push_back(parseFunction(pending));
            pending.clear();
        }
    }
    if (depth != 0)
        lmi_fatal("IR parse error: unbalanced braces at end of input");
    if (module.functions.empty())
        lmi_fatal("IR parse error: no functions found");
    return module;
}

IrFunction
parseFunction(const std::string& text)
{
    IrFunction f;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;

    // --- Header -------------------------------------------------------
    for (;;) {
        if (!std::getline(in, line))
            lmi_fatal("IR parse error: missing 'define'");
        ++line_no;
        bool blank = true;
        for (char c : line)
            blank &= std::isspace(uint8_t(c)) != 0;
        if (!blank)
            break;
    }
    {
        LineLexer lex(line, line_no);
        lex.expect("define");
        f.ret_type = parseType(lex);
        lex.expect("@");
        f.name = lex.ident();
        lex.expect("(");
        if (!lex.accept(")")) {
            for (;;) {
                IrParam param;
                param.type = parseType(lex);
                lex.expect("%");
                param.name = lex.ident();
                f.params.push_back(param);
                if (lex.accept(")"))
                    break;
                lex.expect(",");
            }
        }
        lex.expect("{");
    }

    // --- First pass: blocks, shared buffers, value slots ----------------
    std::vector<PendingLine> body;
    std::unordered_map<std::string, BlockId> block_ids;
    std::unordered_map<std::string, ValueId> value_ids;
    BlockId current_block = ~BlockId(0);

    while (std::getline(in, line)) {
        ++line_no;
        const size_t hash = line.find("//");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        bool blank = true;
        for (char c : line)
            blank &= std::isspace(uint8_t(c)) != 0;
        if (blank)
            continue;

        // Function end.
        {
            LineLexer lex(line, line_no);
            if (lex.accept("}"))
                break;
        }
        // Shared declaration.
        {
            LineLexer lex(line, line_no);
            if (lex.accept("shared")) {
                lex.expect("@");
                const std::string bname = lex.ident();
                lex.expect("[");
                const uint64_t size = uint64_t(lex.integer());
                lex.expect("x");
                lex.expect("i8");
                lex.expect("]");
                f.shared_buffers.emplace_back(bname, size);
                continue;
            }
        }
        // Label? An identifier followed by ':' and nothing else.
        {
            const size_t colon = line.find(':');
            if (colon != std::string::npos &&
                line.find('=') == std::string::npos &&
                line.find('?') == std::string::npos) {
                LineLexer lex(line, line_no);
                const std::string label = lex.ident();
                lex.expect(":");
                if (lex.atEnd()) {
                    if (block_ids.count(label))
                        lmi_fatal("IR parse error at line %d: duplicate "
                                  "label '%s'", line_no, label.c_str());
                    block_ids[label] = BlockId(f.blocks.size());
                    f.blocks.push_back(IrBlock{label, {}});
                    current_block = BlockId(f.blocks.size() - 1);
                    continue;
                }
            }
        }
        if (current_block == ~BlockId(0))
            lmi_fatal("IR parse error at line %d: instruction before any "
                      "block label", line_no);

        // Instruction: reserve its arena slot now (enables forward refs
        // from phis).
        PendingLine pl;
        pl.text = line;
        pl.line_no = line_no;
        pl.block = current_block;
        {
            LineLexer lex(line, line_no);
            if (lex.peek() == '%') {
                lex.expect("%");
                pl.def_name = lex.ident();
                lex.expect("=");
            }
        }
        f.values.emplace_back();
        pl.value = ValueId(f.values.size() - 1);
        if (!pl.def_name.empty()) {
            if (value_ids.count(pl.def_name))
                lmi_fatal("IR parse error at line %d: %%%s redefined",
                          line_no, pl.def_name.c_str());
            value_ids[pl.def_name] = pl.value;
        }
        f.blocks[current_block].insts.push_back(pl.value);
        body.push_back(std::move(pl));
    }

    // --- Second pass: fill instructions --------------------------------
    auto resolve_value = [&](const std::string& name, LineLexer& lex) {
        auto it = value_ids.find(name);
        if (it == value_ids.end())
            lex.fail("unknown value %" + name);
        return it->second;
    };
    auto resolve_block = [&](const std::string& label, LineLexer& lex) {
        auto it = block_ids.find(label);
        if (it == block_ids.end())
            lex.fail("unknown label '" + label + "'");
        return it->second;
    };

    for (const PendingLine& pl : body) {
        LineLexer lex(pl.text, pl.line_no);
        if (!pl.def_name.empty()) {
            lex.expect("%");
            lex.ident();
            lex.expect("=");
        }
        std::string mnemonic = lex.ident();
        IrInst inst;

        // icmp.<CMP>; atomicrmw.<aop>.<order>.<scope>;
        // atomiccas/atomicld/atomicst/fence.<order>.<scope>
        std::string cmp_suffix;
        std::string atomic_suffix;
        const size_t dot = mnemonic.find('.');
        if (dot != std::string::npos) {
            const std::string head = mnemonic.substr(0, dot);
            if (head == "icmp") {
                cmp_suffix = mnemonic.substr(dot + 1);
                mnemonic = "icmp";
            } else if (head == "atomicrmw" || head == "atomiccas" ||
                       head == "atomicld" || head == "atomicst" ||
                       head == "fence") {
                atomic_suffix = mnemonic.substr(dot + 1);
                mnemonic = head;
            }
        }

        auto it = opTable().find(mnemonic);
        if (it == opTable().end())
            lex.fail("unknown opcode '" + mnemonic + "'");
        inst.op = it->second;

        if (isAtomicAccess(inst.op) || inst.op == IrOp::Fence) {
            std::vector<std::string> parts;
            size_t start = 0;
            while (start <= atomic_suffix.size()) {
                const size_t next = atomic_suffix.find('.', start);
                parts.push_back(atomic_suffix.substr(
                    start, next == std::string::npos ? next : next - start));
                if (next == std::string::npos)
                    break;
                start = next + 1;
            }
            const size_t expected = inst.op == IrOp::AtomicRmw ? 3 : 2;
            if (atomic_suffix.empty() || parts.size() != expected)
                lex.fail("expected " + std::string(mnemonic) + ".<" +
                         (expected == 3 ? "aop>.<order>.<scope>"
                                        : "order>.<scope>") + " suffix");
            size_t p = 0;
            if (inst.op == IrOp::AtomicRmw)
                inst.aop = parseAop(parts[p++], lex);
            inst.order = parseOrder(parts[p++], lex);
            inst.scope = parseScope(parts[p++], lex);
        }

        switch (inst.op) {
          case IrOp::ConstInt:
          case IrOp::Param:
          case IrOp::Alloca:
            inst.imm = lex.integer();
            break;
          case IrOp::ConstFloat:
            inst.fimm = lex.real();
            break;
          case IrOp::SharedRef:
          case IrOp::Call:
            lex.expect("@");
            inst.name = lex.ident();
            break;
          default:
            break;
        }
        if (inst.op == IrOp::ICmp)
            inst.cmp = parseCmp(cmp_suffix, lex);

        if (inst.op == IrOp::Jump) {
            lex.expect("->");
            inst.tbb = resolve_block(lex.ident(), lex);
        } else if (inst.op == IrOp::Phi) {
            for (;;) {
                lex.expect("%");
                inst.ops.push_back(resolve_value(lex.ident(), lex));
                lex.expect("[");
                inst.phi_blocks.push_back(resolve_block(lex.ident(), lex));
                lex.expect("]");
                if (!lex.accept(","))
                    break;
            }
        } else {
            // fieldgep prints its compile-time fields before the base
            // operand: off=<bytes> size=<bytes>.
            if (inst.op == IrOp::FieldGep) {
                lex.expect("off=");
                inst.imm = lex.integer();
                lex.expect("size=");
                inst.aux = uint64_t(lex.integer());
            }
            // Generic operand list: %a, %b, ... possibly followed by
            // "? tbb : fbb" (br) and/or ": type".
            while (lex.peek() == '%') {
                lex.expect("%");
                inst.ops.push_back(resolve_value(lex.ident(), lex));
                if (!lex.accept(","))
                    break;
            }
            if (inst.op == IrOp::Br) {
                lex.expect("?");
                inst.tbb = resolve_block(lex.ident(), lex);
                lex.expect(":");
                inst.fbb = resolve_block(lex.ident(), lex);
            }
        }

        if (lex.accept(":"))
            inst.type = parseType(lex);
        if (!lex.atEnd())
            lex.fail("trailing tokens");

        // Void ops keep Void type; defs must have one.
        if (!pl.def_name.empty() && inst.type.isVoid())
            lex.fail("definition without a result type");

        // Param types come from the signature if elided.
        if (inst.op == IrOp::Param && inst.type.isVoid()) {
            if (inst.imm < 0 || size_t(inst.imm) >= f.params.size())
                lex.fail("param index out of range");
            inst.type = f.params[size_t(inst.imm)].type;
        }

        f.inst(pl.value) = std::move(inst);
    }

    analysis::verifyOrThrow(f);
    return f;
}

std::string
printModule(const IrModule& m)
{
    std::string out;
    for (const auto& f : m.functions)
        out += f.toString() + "\n";
    return out;
}

} // namespace lmi::ir
