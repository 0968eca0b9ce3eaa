/**
 * @file
 * Textual-IR parser tests: print/parse round trips (including every
 * Table V workload kernel and every security-suite construct), kernels
 * authored directly as text, parse-error diagnostics, and seeded
 * line-level mutants of the workload kernels, which must fail cleanly
 * or compile.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compiler/codegen.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "sim/device.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

using namespace ir;

/** Structural equivalence check via normalization: print both sides. */
void
expectRoundTrip(const IrFunction& f)
{
    const std::string once = f.toString();
    const IrFunction parsed = parseFunction(once);
    const std::string twice = parsed.toString();
    EXPECT_EQ(once, twice);
}

TEST(Parser, RoundTripsSimpleKernel)
{
    IrFunction f = IrBuilder::makeKernel(
        "copy", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto v = b.load(b.gep(b.param(0), t));
    b.store(b.gep(b.param(1), t), v);
    b.ret();
    expectRoundTrip(f);
}

TEST(Parser, RoundTripsControlFlowAndPhis)
{
    IrFunction f = IrBuilder::makeKernel("loop", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto header = b.block("header");
    auto body = b.block("body");
    auto exit = b.block("exit");
    b.setInsertPoint(entry);
    auto zero = b.constInt(0);
    auto n = b.param(0);
    b.jump(header);
    b.setInsertPoint(header);
    auto i = b.phi(Type::i64(), {{zero, entry}});
    auto c = b.icmp(CmpOp::LT, i, n);
    b.br(c, body, exit);
    b.setInsertPoint(body);
    auto next = b.iadd(i, b.constInt(1));
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(body);
    b.jump(header);
    b.setInsertPoint(exit);
    b.ret();
    expectRoundTrip(f);
}

TEST(Parser, RoundTripsFloatsExactly)
{
    IrFunction f = IrBuilder::makeKernel("fp", {{"out", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto x = b.ffma(b.constFloat(1.0001), b.constFloat(2.5),
                    b.constFloat(0.3333333333333333));
    b.store(b.gep(b.param(0), b.constInt(0)), x);
    b.ret();
    expectRoundTrip(f);
}

TEST(Parser, RoundTripsSharedHeapAndCasts)
{
    IrFunction f = IrBuilder::makeKernel("kitchen", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto tile = b.sharedBuffer("tile", 1024, 4);
    auto pool = b.dynamicShared(4);
    auto hp = b.malloc_(b.constInt(512), 4);
    auto lp = b.alloca_(128, 4);
    b.store(b.gep(tile, b.constInt(0)), b.constInt(1, Type::i32()));
    b.store(b.gep(pool, b.constInt(0)), b.constInt(2, Type::i32()));
    b.store(b.gep(hp, b.constInt(0)), b.constInt(3, Type::i32()));
    b.store(b.gep(lp, b.constInt(0)), b.constInt(4, Type::i32()));
    auto raw = b.ptrToInt(hp);
    auto back = b.intToPtr(raw, Type::ptr(4));
    auto v = b.load(back);
    b.store(b.gep(b.param(0), b.constInt(0)), v);
    b.free_(hp);
    b.barrier();
    b.ret();
    expectRoundTrip(f);
}

TEST(Parser, RoundTripsEveryWorkloadKernel)
{
    for (const auto& profile : workloadSuite()) {
        SCOPED_TRACE(profile.name);
        const IrModule m = buildWorkloadKernel(profile);
        expectRoundTrip(m.functions[0]);
    }
}

TEST(Parser, TextAuthoredKernelExecutes)
{
    // A kernel written as text end to end: parse, compile, run.
    const std::string text = R"(
define void @scale(ptr<4,global> %in, ptr<4,global> %out) {
entry:
  %1 = param 0 : ptr<4,global>
  %2 = param 1 : ptr<4,global>
  %3 = gtid : i64
  %4 = gep %1, %3 : ptr<4,global>
  %5 = load %4 : i32
  %6 = const 10 : i64
  %7 = imul %5, %6 : i64
  %8 = gep %2, %3 : ptr<4,global>
  store %8, %7
  ret
}
)";
    const IrModule m = parseModule(text);
    Device dev;
    const unsigned n = 64;
    const uint64_t in = dev.cudaMalloc(n * 4);
    const uint64_t out = dev.cudaMalloc(n * 4);
    for (unsigned i = 0; i < n; ++i)
        dev.poke32(in + 4 * i, i + 1);
    const CompiledKernel k = dev.compile(m, "scale");
    const RunResult r = dev.launch(k, 2, 32, {in, out});
    ASSERT_FALSE(r.faulted());
    for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(dev.peek32(out + 4 * i), 10 * (i + 1));
}

TEST(Parser, ModuleWithMultipleFunctions)
{
    IrModule m;
    {
        IrFunction helper = IrBuilder::makeKernel("helper", {});
        helper.ret_type = Type::i64();
        IrBuilder b(helper);
        b.setInsertPoint(b.block("entry"));
        b.retVal(b.constInt(5));
        m.functions.push_back(std::move(helper));
    }
    {
        IrFunction main_fn = IrBuilder::makeKernel("main", {{"out", Type::ptr(4)}});
        IrBuilder b(main_fn);
        b.setInsertPoint(b.block("entry"));
        auto r = b.call("helper", Type::i64(), {});
        b.store(b.gep(b.param(0), b.constInt(0)), r);
        b.ret();
        m.functions.push_back(std::move(main_fn));
    }
    const IrModule parsed = parseModule(printModule(m));
    ASSERT_EQ(parsed.functions.size(), 2u);
    EXPECT_EQ(printModule(parsed), printModule(m));
}

TEST(Parser, ErrorsCarryLineNumbers)
{
    EXPECT_THROW(parseModule("define void @x( {"), FatalError);
    EXPECT_THROW(parseFunction("define void @f() {\nentry:\n  bogus\n}\n"),
                 FatalError);
    EXPECT_THROW(parseFunction("define void @f() {\nentry:\n"
                               "  %1 = load %99 : i32\n  ret\n}\n"),
                 FatalError);
    EXPECT_THROW(
        parseFunction("define void @f() {\nentry:\n  jump -> nowhere\n}\n"),
        FatalError);
    EXPECT_THROW(parseModule(""), FatalError);
}

TEST(Parser, RejectsDuplicateDefinitions)
{
    EXPECT_THROW(parseFunction("define void @f() {\nentry:\n"
                               "  %1 = const 1 : i64\n"
                               "  %1 = const 2 : i64\n  ret\n}\n"),
                 FatalError);
    EXPECT_THROW(parseFunction("define void @f() {\nentry:\nentry:\n  ret\n}\n"),
                 FatalError);
}

TEST(Parser, CommentsAndBlankLinesIgnored)
{
    const std::string text = R"(
// leading comment
define void @k(ptr<4,global> %out) {
entry:
  // write one value
  %1 = param 0 : ptr<4,global>
  %2 = const 0 : i64

  %3 = gep %1, %2 : ptr<4,global>
  store %3, %2
  ret
}
)";
    const IrModule m = parseModule(text);
    EXPECT_EQ(m.functions[0].name, "k");
}

/** Start offsets of the `%name` tokens of an instruction line. */
std::vector<size_t>
operandTokens(const std::string& line)
{
    std::vector<size_t> at;
    const size_t eq = line.find(" = ");
    for (size_t i = eq == std::string::npos ? 0 : eq; i < line.size(); ++i)
        if (line[i] == '%')
            at.push_back(i);
    return at;
}

size_t
tokenEnd(const std::string& line, size_t at)
{
    size_t e = at + 1;
    while (e < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[e])) ||
            line[e] == '_' || line[e] == '.'))
        ++e;
    return e;
}

/** One seeded mutant: drop, duplicate or swap lines, or swap two
 *  operands of one instruction. */
std::string
mutate(const std::vector<std::string>& lines, Rng& rng)
{
    std::vector<std::string> out = lines;
    const size_t i = rng.below(out.size());
    const size_t j = rng.below(out.size());
    switch (rng.below(4)) {
      case 0:
        out.erase(out.begin() + i);
        break;
      case 1:
        out.insert(out.begin() + i, out[i]);
        break;
      case 2:
        std::swap(out[i], out[j]);
        break;
      default: {
        // The first instruction line at or after i with two operands.
        for (size_t k = 0; k < out.size(); ++k) {
            std::string& line = out[(i + k) % out.size()];
            const std::vector<size_t> ops = operandTokens(line);
            if (line.rfind("  ", 0) != 0 || ops.size() < 2)
                continue;
            const size_t a = rng.below(ops.size() - 1);
            const size_t b = a + 1 + rng.below(ops.size() - a - 1);
            const size_t a_end = tokenEnd(line, ops[a]);
            const size_t b_end = tokenEnd(line, ops[b]);
            line = line.substr(0, ops[a]) +
                   line.substr(ops[b], b_end - ops[b]) +
                   line.substr(a_end, ops[b] - a_end) +
                   line.substr(ops[a], a_end - ops[a]) + line.substr(b_end);
            break;
        }
        break;
      }
    }
    std::string text;
    for (const std::string& line : out)
        text += line + "\n";
    return text;
}

TEST(Parser, MutatedWorkloadTextFailsCleanlyOrCompiles)
{
    // The verifier is the only gate between parsed text and codegen:
    // whatever a mutant breaks must surface as FatalError (parse or
    // verification) or CompileError, never as a crash.
    constexpr unsigned kMutantsPerKernel = 24;
    CodegenOptions lmi_opts;
    lmi_opts.lmi = true;
    unsigned parse_rejects = 0, verify_rejects = 0, compiled = 0;
    Rng rng(0x1f0e11u);
    for (const auto& profile : workloadSuite()) {
        std::vector<std::string> lines;
        std::istringstream text(printModule(buildWorkloadKernel(profile)));
        for (std::string line; std::getline(text, line);)
            lines.push_back(line);
        for (unsigned n = 0; n < kMutantsPerKernel; ++n) {
            const std::string mutant = mutate(lines, rng);
            SCOPED_TRACE(profile.name + " mutant:\n" + mutant);
            IrModule m;
            try {
                m = parseModule(mutant);
            } catch (const FatalError& e) {
                const bool by_verifier =
                    std::string(e.what()).find("[verify]") !=
                    std::string::npos;
                verify_rejects += by_verifier;
                parse_rejects += !by_verifier;
                continue;
            }
            for (const CodegenOptions& opts : {CodegenOptions{}, lmi_opts}) {
                try {
                    compileKernel(m, m.functions[0].name, opts);
                    ++compiled;
                } catch (const FatalError&) {
                    // CompileError included: a clean rejection.
                }
            }
        }
    }
    // Each outcome is reached, so every gate is exercised.
    EXPECT_GT(parse_rejects, 0u);
    EXPECT_GT(verify_rejects, 0u);
    EXPECT_GT(compiled, 0u);
}

} // namespace
} // namespace lmi
