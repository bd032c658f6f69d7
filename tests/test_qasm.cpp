#include "qasm/parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "core/circuit.hpp"

namespace qtc {
namespace {

/// The exact OpenQASM program from the paper's Fig. 1a.
const char* kFig1 = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[2];
cx q[2],q[3];
cx q[0],q[1];
h q[1];
cx q[1],q[2];
t q[0];
cx q[2],q[0];
cx q[0],q[1];
)";

TEST(Qasm, ParsesFig1Program) {
  const QuantumCircuit qc = qasm::parse(kFig1);
  EXPECT_EQ(qc.num_qubits(), 4);
  ASSERT_EQ(qc.size(), 8u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::H);
  EXPECT_EQ(qc.ops()[0].qubits[0], 2);
  EXPECT_EQ(qc.ops()[1].kind, OpKind::CX);
  EXPECT_EQ(qc.ops()[1].qubits, (std::vector<Qubit>{2, 3}));
  EXPECT_EQ(qc.ops()[5].kind, OpKind::T);
  EXPECT_EQ(qc.count(OpKind::CX), 5);
}

TEST(Qasm, EmitParseRoundTripPreservesOps) {
  const QuantumCircuit qc = qasm::parse(kFig1);
  const QuantumCircuit back = qasm::parse(qasm::emit(qc));
  ASSERT_EQ(back.size(), qc.size());
  for (std::size_t i = 0; i < qc.size(); ++i) {
    EXPECT_EQ(back.ops()[i].kind, qc.ops()[i].kind);
    EXPECT_EQ(back.ops()[i].qubits, qc.ops()[i].qubits);
  }
}

TEST(Qasm, ParsesParameterExpressions) {
  const auto qc = qasm::parse(
      "OPENQASM 2.0;\nqreg q[1];\nU(pi/2, -pi/4, 2*pi) q[0];\n");
  ASSERT_EQ(qc.size(), 1u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::U);
  EXPECT_NEAR(qc.ops()[0].params[0], PI / 2, 1e-12);
  EXPECT_NEAR(qc.ops()[0].params[1], -PI / 4, 1e-12);
  EXPECT_NEAR(qc.ops()[0].params[2], 2 * PI, 1e-12);
}

TEST(Qasm, ParsesFunctionAndPowerExpressions) {
  const auto qc = qasm::parse(
      "OPENQASM 2.0;\nqreg q[1];\nU(sin(pi/2), 2^3, sqrt(4)) q[0];\n");
  EXPECT_NEAR(qc.ops()[0].params[0], 1.0, 1e-12);
  EXPECT_NEAR(qc.ops()[0].params[1], 8.0, 1e-12);
  EXPECT_NEAR(qc.ops()[0].params[2], 2.0, 1e-12);
}

TEST(Qasm, BuiltinCXUppercase) {
  const auto qc = qasm::parse("OPENQASM 2.0;\nqreg q[2];\nCX q[0],q[1];\n");
  EXPECT_EQ(qc.ops()[0].kind, OpKind::CX);
}

TEST(Qasm, RegisterBroadcastSingleGate) {
  const auto qc =
      qasm::parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q;\n");
  EXPECT_EQ(qc.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(qc.ops()[i].qubits[0], i);
}

TEST(Qasm, RegisterBroadcastPairwiseCx) {
  const auto qc = qasm::parse(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[2];\nqreg b[2];\n"
      "cx a,b;\n");
  ASSERT_EQ(qc.size(), 2u);
  EXPECT_EQ(qc.ops()[0].qubits, (std::vector<Qubit>{0, 2}));
  EXPECT_EQ(qc.ops()[1].qubits, (std::vector<Qubit>{1, 3}));
}

TEST(Qasm, BroadcastMixedSingleAndRegister) {
  const auto qc = qasm::parse(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[1];\nqreg b[3];\n"
      "cx a[0],b;\n");
  ASSERT_EQ(qc.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(qc.ops()[i].qubits, (std::vector<Qubit>{0, 1 + i}));
}

TEST(Qasm, BroadcastSizeMismatchThrows) {
  EXPECT_THROW(
      qasm::parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[2];\n"
                  "qreg b[3];\ncx a,b;\n"),
      qasm::ParseError);
}

TEST(Qasm, MeasureBroadcastAndArrow) {
  const auto qc = qasm::parse(
      "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c;\n");
  ASSERT_EQ(qc.size(), 2u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::Measure);
  EXPECT_EQ(qc.ops()[1].qubits[0], 1);
  EXPECT_EQ(qc.ops()[1].clbits[0], 1);
}

TEST(Qasm, CustomGateMacroExpansion) {
  const auto qc = qasm::parse(R"(OPENQASM 2.0;
include "qelib1.inc";
gate bell a, b { h a; cx a, b; }
qreg q[2];
bell q[0], q[1];
)");
  ASSERT_EQ(qc.size(), 2u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::H);
  EXPECT_EQ(qc.ops()[1].kind, OpKind::CX);
}

TEST(Qasm, CustomGateWithParamsAndNesting) {
  const auto qc = qasm::parse(R"(OPENQASM 2.0;
include "qelib1.inc";
gate rot(t) a { rz(t/2) a; }
gate double_rot(t) a, b { rot(t) a; rot(2*t) b; }
qreg q[2];
double_rot(pi) q[0], q[1];
)");
  ASSERT_EQ(qc.size(), 2u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::RZ);
  EXPECT_NEAR(qc.ops()[0].params[0], PI / 2, 1e-12);
  EXPECT_NEAR(qc.ops()[1].params[0], PI, 1e-12);
  EXPECT_EQ(qc.ops()[1].qubits[0], 1);
}

TEST(Qasm, GateBodyBarrier) {
  const auto qc = qasm::parse(R"(OPENQASM 2.0;
include "qelib1.inc";
gate hb a { h a; barrier a; h a; }
qreg q[1];
hb q[0];
)");
  ASSERT_EQ(qc.size(), 3u);
  EXPECT_EQ(qc.ops()[1].kind, OpKind::Barrier);
}

TEST(Qasm, OpaqueGateApplicationThrows) {
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\nopaque magic a;\nqreg q[1];\n"
                           "magic q[0];\n"),
               qasm::ParseError);
}

TEST(Qasm, ConditionalGate) {
  const auto qc = qasm::parse(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[2];\n"
      "if (c==3) x q[0];\n");
  ASSERT_EQ(qc.size(), 1u);
  EXPECT_TRUE(qc.ops()[0].conditioned());
  EXPECT_EQ(qc.ops()[0].cond_val, 3u);
}

TEST(Qasm, ConditionalRoundTrips) {
  const char* src =
      "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n";
  auto qc = qasm::parse(src);
  qc.x(0);
  qc.c_if(0, 1);
  const auto back = qasm::parse(qasm::emit(qc));
  EXPECT_TRUE(back.ops().back().conditioned());
  EXPECT_EQ(back.ops().back().cond_val, 1u);
}

TEST(Qasm, BarrierOnWholeRegister) {
  const auto qc =
      qasm::parse("OPENQASM 2.0;\nqreg q[3];\nbarrier q;\n");
  ASSERT_EQ(qc.size(), 1u);
  EXPECT_EQ(qc.ops()[0].qubits.size(), 3u);
}

TEST(Qasm, ResetStatement) {
  const auto qc = qasm::parse("OPENQASM 2.0;\nqreg q[2];\nreset q;\n");
  EXPECT_EQ(qc.count(OpKind::Reset), 2);
}

TEST(Qasm, CommentsAreIgnored) {
  const auto qc = qasm::parse(
      "// header comment\nOPENQASM 2.0;\nqreg q[1]; // trailing\n"
      "// a line\nU(0,0,0) q[0];\n");
  EXPECT_EQ(qc.size(), 1u);
}

TEST(Qasm, ErrorsCarrySourcePosition) {
  try {
    qasm::parse("OPENQASM 2.0;\nqreg q[1];\nbadgate q[0];\n");
    FAIL() << "expected ParseError";
  } catch (const qasm::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("badgate"), std::string::npos);
  }
}

/// Parse `decl` as line 2 of a program and return the ParseError it raises.
qasm::ParseError register_error(const std::string& decl) {
  try {
    qasm::parse("OPENQASM 2.0;\n" + decl + "\n");
  } catch (const qasm::ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError for: " << decl;
  return qasm::ParseError("none", 0, 0);
}

TEST(Qasm, RegisterSizeOverflowIsRejected) {
  // Each size used to be narrowed to int unchecked: 2^32 + 2 declared two
  // qubits and INT_MAX + 1 a negative count. The error points at the size.
  for (const char* decl :
       {"qreg q[4294967298];", "qreg q[2147483648];", "creg c[4294967298];",
        "creg c[2147483648];", "qreg q[99999999999999999999999];"}) {
    SCOPED_TRACE(decl);
    const qasm::ParseError e = register_error(decl);
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.col(), 8);
    EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos);
  }
}

TEST(Qasm, RegisterSizeZeroOrNegativeIsRejected) {
  const qasm::ParseError zero = register_error("qreg q[0];");
  EXPECT_EQ(zero.line(), 2);
  EXPECT_EQ(zero.col(), 8);
  EXPECT_NE(std::string(zero.what()).find("positive"), std::string::npos);
  EXPECT_EQ(register_error("creg c[0];").col(), 8);
  // The lexer has no negative literals: '-' is a symbol, not an integer.
  const qasm::ParseError negative = register_error("qreg q[-1];");
  EXPECT_EQ(negative.line(), 2);
  EXPECT_EQ(negative.col(), 8);
}

TEST(Qasm, RegisterCapAppliesToTheTotal) {
  // 2^24 qubits (qbin::kMaxQubits) in one register is allowed; one more
  // qubit in a second register is not, so the running int count never
  // overflows however many registers a program declares.
  const QuantumCircuit qc = qasm::parse("OPENQASM 2.0;\nqreg q[16777216];\n");
  EXPECT_EQ(qc.num_qubits(), 1 << 24);
  const qasm::ParseError e = register_error("qreg a[16777215];\nqreg b[2];");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.col(), 8);
}

/// Parse `rz(<expr>) q[0];` on line 3 and return the angle.
double parse_angle(const std::string& expr) {
  const QuantumCircuit qc =
      qasm::parse("OPENQASM 2.0;\nqreg q[1];\nrz(" + expr + ") q[0];\n");
  return qc.ops().at(0).params.at(0);
}

/// The ParseError `rz(<expr>) q[0];` raises on line 3.
qasm::ParseError angle_error(const std::string& expr) {
  try {
    parse_angle(expr);
  } catch (const qasm::ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError";
  return qasm::ParseError("none", 0, 0);
}

std::string repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

TEST(Qasm, DeepParenthesesAreRejected) {
  // Used to recurse once per '(' until the stack overflowed. The error
  // points at the first '(' past the cap; the expression starts at col 4.
  const qasm::ParseError e = angle_error(std::string(100000, '('));
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.col(), 4 + qasm::kMaxExprDepth);
  EXPECT_NE(std::string(e.what()).find("nested"), std::string::npos);
  const int cap = qasm::kMaxExprDepth;
  EXPECT_EQ(parse_angle(repeat("(", cap) + "0.5" + repeat(")", cap)), 0.5);
  const std::string close = repeat(")", cap + 1);
  EXPECT_THROW(parse_angle(repeat("(", cap + 1) + "0.5" + close),
               qasm::ParseError);
  EXPECT_THROW(parse_angle(repeat("sin(", cap + 1) + "0" + close),
               qasm::ParseError);
}

TEST(Qasm, DeepUnaryMinusIsRejected) {
  const qasm::ParseError e = angle_error(std::string(100000, '-') + "1");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.col(), 4 + qasm::kMaxExprDepth);
  EXPECT_THROW(parse_angle(std::string(100000, '+') + "1"), qasm::ParseError);
}

/// `gate d0 a { h a; h a; }` and `gate dk a { d(k-1) a; d(k-1) a; }` for
/// k < levels, one per line from line 3: d(k) expands to 2^(k+1) ops.
std::string doubling_chain(int levels) {
  std::string src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  src += "gate d0 a { h a; h a; }\n";
  for (int k = 1; k < levels; ++k)
    src += "gate d" + std::to_string(k) + " a { d" + std::to_string(k - 1) +
           " a; d" + std::to_string(k - 1) + " a; }\n";
  return src;
}

qasm::ParseError parse_error(const std::string& source) {
  try {
    qasm::parse(source);
  } catch (const qasm::ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError";
  return qasm::ParseError("none", 0, 0);
}

TEST(Qasm, DoublingGateChainIsRejectedBeforeExpanding) {
  // 40 levels ask for 2^40 ops; the count recorded with each definition
  // rejects the application at its token without building any op.
  const std::string chain = doubling_chain(40);
  const qasm::ParseError e =
      parse_error(chain + "qreg q[2];\nh q[0];\n  d39 q[1];\n");
  EXPECT_EQ(e.line(), 3 + 40 + 2);
  EXPECT_EQ(e.col(), 3);
  EXPECT_NE(std::string(e.what()).find("operations"), std::string::npos);
  // An in-budget definition broadcast past the cap is rejected too:
  // d20 is 2^21 ops, over a 4-qubit register 2^23 > kMaxExpandedOps.
  static_assert(qasm::kMaxExpandedOps < (std::uint64_t{1} << 23));
  EXPECT_THROW(qasm::parse(chain + "qreg q[4];\nd20 q;\n"), qasm::ParseError);
  // Small members of the same chain still expand.
  const QuantumCircuit qc = qasm::parse(chain + "qreg q[1];\nd5 q[0];\n");
  EXPECT_EQ(qc.size(), 64u);
}

TEST(Qasm, NestedDefinitionsExpandOpForOp) {
  // Six levels over a parameterized two-qubit base: each level applies the
  // one below twice (operands swapped, angle transformed) around a barrier.
  std::string src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  src += "gate l0(t) a, b { cx a, b; rz(t) b; }\n";
  for (int k = 1; k <= 6; ++k) {
    const std::string lo = "l" + std::to_string(k - 1);
    src += "gate l" + std::to_string(k) + "(t) a, b { " + lo +
           "(t/2) a, b; barrier a; " + lo + "(-t) b, a; }\n";
  }
  src += "qreg q[2];\nl6(0.75) q[1], q[0];\n";
  const QuantumCircuit got = qasm::parse(src);

  QuantumCircuit want(2);
  std::function<void(int, double, int, int)> expand = [&](int k, double t,
                                                          int a, int b) {
    if (k == 0) {
      want.cx(a, b).rz(t, b);
      return;
    }
    expand(k - 1, t / 2, a, b);
    want.barrier({a});
    expand(k - 1, -t, b, a);
  };
  expand(6, 0.75, 1, 0);
  ASSERT_EQ(got.size(), 2u * 64 + 63);
  EXPECT_EQ(got.ops(), want.ops());
}

TEST(Qasm, GateNestingIsCapped) {
  // A chain of one-statement definitions expands to a single op, so only
  // the nesting cap bounds the expander's recursion.
  std::string src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  src += "gate n0 a { h a; }\n";
  for (int k = 1; k < qasm::kMaxGateNesting; ++k)
    src += "gate n" + std::to_string(k) + " a { n" + std::to_string(k - 1) +
           " a; }\n";
  const std::string top = "n" + std::to_string(qasm::kMaxGateNesting - 1);
  const QuantumCircuit qc =
      qasm::parse(src + "qreg q[1];\n" + top + " q[0];\n");
  ASSERT_EQ(qc.size(), 1u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::H);
  // One level more fails at the body statement that crosses the cap.
  const qasm::ParseError e = parse_error(src + "gate deeper a { " + top +
                                         " a; }\n");
  EXPECT_EQ(e.line(), 3 + qasm::kMaxGateNesting);
  EXPECT_EQ(e.col(), 17);
  EXPECT_NE(std::string(e.what()).find("nested"), std::string::npos);
}

TEST(Qasm, GateBodiesBindDefinitionsWhenDefined) {
  // A body may use only gates defined before it, so definitions cannot
  // recurse: a self- or mutual reference fails as an unknown gate.
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\ngate a x { b x; }\n"
                           "gate b x { a x; }\nqreg q[1];\na q[0];\n"),
               qasm::ParseError);
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\ngate g x { g x; }\n"
                           "qreg q[1];\ng q[0];\n"),
               qasm::ParseError);
  // qelib1's own definition of cx refers to the builtin CX.
  const QuantumCircuit cx = qasm::parse(
      "OPENQASM 2.0;\ngate cx c, t { CX c, t; }\nqreg q[2];\ncx q[0], q[1];\n");
  ASSERT_EQ(cx.size(), 1u);
  EXPECT_EQ(cx.ops()[0].kind, OpKind::CX);
  // A redefinition applies from its own definition on; earlier bodies keep
  // the definition they were defined with.
  const QuantumCircuit qc = qasm::parse(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a { h a; }\n"
      "gate f a { g a; }\ngate g a { x a; }\nqreg q[1];\nf q[0];\ng q[0];\n");
  ASSERT_EQ(qc.size(), 2u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::H);
  EXPECT_EQ(qc.ops()[1].kind, OpKind::X);
}

TEST(Qasm, LongOperatorChainsAreRejected) {
  // Iterative to parse, but the left-deep tree is evaluated and destroyed
  // recursively, so a chain counts one level per operator.
  EXPECT_THROW(parse_angle("1" + repeat("+1", 100000)), qasm::ParseError);
  EXPECT_THROW(parse_angle("2" + repeat("^1", 100000)), qasm::ParseError);
  EXPECT_EQ(parse_angle("1" + repeat("+1", 63)), 64.0);
}

TEST(Qasm, Depth64ExpressionParses) {
  EXPECT_EQ(parse_angle(repeat("-", 64) + "0.25"), 0.25);
  EXPECT_EQ(parse_angle(repeat("(", 64) + "pi/4" + repeat(")", 64)), PI / 4);
  // 64 nested negated parentheses: "-(" is two levels each.
  EXPECT_EQ(parse_angle(repeat("-(", 64) + "0.5" + repeat(")", 64)), 0.5);
  EXPECT_DOUBLE_EQ(parse_angle(repeat("cos(", 64) + "0" + repeat(")", 64)),
                   [] {
                     double x = 0;
                     for (int i = 0; i < 64; ++i) x = std::cos(x);
                     return x;
                   }());
}

TEST(Qasm, UnknownRegisterThrows) {
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\nqreg q[1];\nU(0,0,0) r[0];\n"),
               qasm::ParseError);
}

TEST(Qasm, IndexOutOfRangeThrows) {
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\nqreg q[2];\nCX q[0],q[5];\n"),
               qasm::ParseError);
}

TEST(Qasm, MissingSemicolonThrows) {
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\nqreg q[1]\n"), qasm::ParseError);
}

TEST(Qasm, UnterminatedStringThrows) {
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\ninclude \"qelib1.inc;\n"),
               qasm::ParseError);
}

TEST(Qasm, UnknownIncludeThrows) {
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\ninclude \"other.inc\";\n"),
               qasm::ParseError);
}

TEST(Qasm, MissingHeaderThrows) {
  EXPECT_THROW(qasm::parse("qreg q[1];\n"), qasm::ParseError);
}

TEST(Qasm, QelibNamesWork) {
  const auto qc = qasm::parse(R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
u1(0.1) q[0];
u2(0.1,0.2) q[0];
u3(0.1,0.2,0.3) q[0];
sdg q[1];
tdg q[1];
ccx q[0],q[1],q[2];
cswap q[0],q[1],q[2];
crz(0.5) q[0],q[1];
cu1(0.5) q[0],q[1];
cu3(0.1,0.2,0.3) q[0],q[1];
)");
  EXPECT_EQ(qc.size(), 10u);
  EXPECT_EQ(qc.ops()[0].kind, OpKind::P);
  EXPECT_EQ(qc.ops()[2].kind, OpKind::U);
  EXPECT_EQ(qc.ops()[5].kind, OpKind::CCX);
  EXPECT_EQ(qc.ops()[8].kind, OpKind::CP);
}

TEST(Qasm, EmitUsesQelibSpellings) {
  QuantumCircuit qc(2, 0);
  qc.p(0.5, 0).u(1, 2, 3, 1).cp(0.25, 0, 1);
  const std::string text = qasm::emit(qc);
  EXPECT_NE(text.find("u1(0.5)"), std::string::npos);
  EXPECT_NE(text.find("u3(1,2,3)"), std::string::npos);
  EXPECT_NE(text.find("cu1(0.25)"), std::string::npos);
}

}  // namespace
}  // namespace qtc
