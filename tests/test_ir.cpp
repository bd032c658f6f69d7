// The IR's operand storage: SmallVec keeps three qubits, three params and
// one clbit inside each Operation and spills only longer lists (barriers) to
// the heap. These tests pin the inline/spill boundary, value semantics of
// both forms (copy, move, self-assignment), comparison against std::vector,
// and wide barriers surviving the QASM and QBIN round trips.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/circuit.hpp"
#include "core/small_vec.hpp"
#include "qasm/parser.hpp"
#include "qbin/qbin.hpp"

namespace qtc {
namespace {

static_assert(sizeof(Operation) <= 96, "Operation must not grow");
static_assert(!std::is_convertible_v<QubitList, std::vector<Qubit>>,
              "no hidden allocation back into a std::vector");
static_assert(!std::is_convertible_v<ParamList, std::vector<double>>);
static_assert(std::is_convertible_v<const QubitList&, std::span<const Qubit>>);
static_assert(std::is_nothrow_move_constructible_v<Operation>);
// The decoders' caps keep every barrier list within the container's range.
static_assert(qbin::kMaxQubits <= QubitList::max_size());

std::vector<int> iota(int n, int first = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), first);
  return v;
}

TEST(SmallVec, ThreeQubitsStayInlineAndTheFourthSpills) {
  QubitList q = {4, 5, 6};
  EXPECT_TRUE(q.is_inline());
  EXPECT_EQ(q.capacity(), 3u);
  q.push_back(7);
  EXPECT_FALSE(q.is_inline());
  EXPECT_EQ(q, (std::vector<int>{4, 5, 6, 7}));

  ParamList p = {0.1, 0.2, 0.3};
  EXPECT_TRUE(p.is_inline());
  p.push_back(0.4);
  EXPECT_FALSE(p.is_inline());
  EXPECT_EQ(p, (std::vector<double>{0.1, 0.2, 0.3, 0.4}));

  ClbitList c = {2};
  EXPECT_TRUE(c.is_inline());
  c.push_back(3);
  EXPECT_FALSE(c.is_inline());
  EXPECT_EQ(c, (std::vector<int>{2, 3}));
}

TEST(SmallVec, EveryGateKindFitsInline) {
  QuantumCircuit qc(3, 1);
  qc.u(0.1, 0.2, 0.3, 0).cu(0.4, 0.5, 0.6, 0, 1).ccx(0, 1, 2).cswap(2, 0, 1);
  qc.measure(1, 0);
  for (const Operation& op : qc.ops()) {
    EXPECT_TRUE(op.qubits.is_inline()) << op_name(op.kind);
    EXPECT_TRUE(op.params.is_inline()) << op_name(op.kind);
    EXPECT_TRUE(op.clbits.is_inline()) << op_name(op.kind);
  }
}

TEST(SmallVec, WideBarriersSpill) {
  for (int n : {5, 127}) {
    QuantumCircuit qc(n);
    qc.barrier();
    const Operation& op = qc.ops().back();
    EXPECT_FALSE(op.qubits.is_inline());
    EXPECT_EQ(op.qubits, iota(n));
  }
  QuantumCircuit three(3);
  three.barrier();
  EXPECT_TRUE(three.ops().back().qubits.is_inline());
}

TEST(SmallVec, CopiesAreIndependentInBothForms) {
  for (int n : {2, 3, 4, 127}) {
    SCOPED_TRACE(n);
    QubitList a(iota(n));
    QubitList b = a;
    EXPECT_EQ(b, a);
    b[0] = -1;
    EXPECT_EQ(a[0], 0);
    QubitList c = {9};
    c = a;
    EXPECT_EQ(c, iota(n));
    c.push_back(99);
    EXPECT_EQ(a.size(), static_cast<std::size_t>(n));
  }
}

TEST(SmallVec, MovesTakeTheStorageAndLeaveTheSourceEmptyInline) {
  for (int n : {2, 3, 4, 127}) {
    SCOPED_TRACE(n);
    QubitList a(iota(n));
    const int* heap = a.is_inline() ? nullptr : a.data();
    QubitList b = std::move(a);
    EXPECT_EQ(b, iota(n));
    if (heap != nullptr) {
      EXPECT_EQ(b.data(), heap);  // a spilled list moves without a copy
    }
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(a.is_inline());
    a.push_back(7);  // the moved-from list is usable
    EXPECT_EQ(a, (std::vector<int>{7}));

    QubitList c(iota(200, 5));  // a heap list replaced by a move
    c = std::move(b);
    EXPECT_EQ(c, iota(n));
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(SmallVec, SelfAssignmentKeepsTheElements) {
  for (int n : {3, 127}) {
    SCOPED_TRACE(n);
    QubitList a(iota(n));
    QubitList& alias = a;
    a = alias;
    EXPECT_EQ(a, iota(n));
    a = std::move(alias);
    EXPECT_EQ(a, iota(n));
  }
}

TEST(SmallVec, PushBackOfItsOwnElementAcrossTheSpill) {
  QubitList a = {1, 2, 3};
  a.push_back(a[0]);  // the reference points into storage that moves
  EXPECT_EQ(a, (std::vector<int>{1, 2, 3, 1}));
}

TEST(SmallVec, ResizeAssignClearAndAt) {
  ParamList p;
  p.resize(2);
  EXPECT_EQ(p, (std::vector<double>{0.0, 0.0}));
  p.resize(5, 1.5);
  EXPECT_EQ(p, (std::vector<double>{0.0, 0.0, 1.5, 1.5, 1.5}));
  p.resize(1);
  EXPECT_EQ(p, (std::vector<double>{0.0}));
  p.assign(3, 2.0);
  EXPECT_EQ(p, (std::vector<double>{2.0, 2.0, 2.0}));
  const std::vector<double> src = {1, 2, 3, 4};
  p.assign(src.begin(), src.end());
  EXPECT_EQ(p, src);
  const std::size_t cap = p.capacity();
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), cap);  // clear keeps the block, as vector does
  EXPECT_THROW(p.at(0), std::out_of_range);
  QubitList q;
  q.reserve(10);
  EXPECT_FALSE(q.is_inline());
  EXPECT_TRUE(q.empty());
}

TEST(SmallVec, ComparesLikeAVector) {
  const QubitList q = {0, 1};
  EXPECT_TRUE(q == (std::vector<int>{0, 1}));
  EXPECT_TRUE((std::vector<int>{0, 1}) == q);
  EXPECT_TRUE(q != (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE((std::vector<int>{1, 0}) != q);
  EXPECT_TRUE(q != QubitList{0});
  EXPECT_TRUE(QubitList({0, 1}) < QubitList({0, 2}));
  EXPECT_TRUE(QubitList({0}) < QubitList({0, 1}));
  EXPECT_FALSE(q < q);
  // Doubles compare with ==, as std::vector's operator== does.
  EXPECT_EQ(ParamList{0.0}, ParamList{-0.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(ParamList{nan}, ParamList{nan});
}

TEST(SmallVec, OperationsCompareAcrossStorageForms) {
  // A heap list that shrank back to three equals an inline one.
  Operation a, b;
  a.kind = b.kind = OpKind::Barrier;
  a.qubits = {0, 1, 2};
  b.qubits.assign(5, 0);
  b.qubits = {0, 1, 2};
  EXPECT_FALSE(b.qubits.is_inline());
  EXPECT_EQ(a, b);
  Operation c = b;  // copying a shrunk heap list lands inline
  EXPECT_TRUE(c.qubits.is_inline());
  EXPECT_EQ(c, a);
}

QuantumCircuit wide_barrier_circuit() {
  QuantumCircuit qc;
  qc.add_qreg("q", 127);
  qc.add_qreg("r", 3);
  qc.add_creg("c", 2);
  qc.h(0).cx(0, 126).u(0.1, -0.2, 0.3, 64);
  qc.barrier();  // all 130 qubits
  std::vector<Qubit> some;
  for (int q = 0; q < 127; q += 2) some.push_back(q);
  qc.barrier(some);
  qc.barrier({1, 2, 3, 4, 5});
  qc.measure(126, 1);
  return qc;
}

TEST(SmallVec, WideBarrierRoundTripsThroughQasm) {
  const QuantumCircuit qc = wide_barrier_circuit();
  const QuantumCircuit back = qasm::parse(qasm::emit(qc));
  EXPECT_EQ(back, qc);
  EXPECT_EQ(back.ops()[3].qubits.size(), 130u);
}

TEST(SmallVec, WideBarrierRoundTripsThroughQbin) {
  const QuantumCircuit qc = wide_barrier_circuit();
  const qbin::Bytes payload = qbin::encode(qc);
  const QuantumCircuit back = qbin::decode(payload);
  EXPECT_EQ(back, qc);
  EXPECT_EQ(qbin::encode(back), payload);
  EXPECT_EQ(qbin::structural_digest(back), qbin::structural_digest(qc));
}

TEST(SmallVec, QasmBarrierLongerThanTheCircuitIsRefused) {
  // A repeated register cannot grow a barrier list past the qubit count:
  // the parser refuses it as a duplicate before building the list.
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\nqreg q[4];\nbarrier q, q;\n"),
               qasm::ParseError);
  EXPECT_THROW(qasm::parse("OPENQASM 2.0;\nqreg q[4];\nbarrier q, q[0];\n"),
               qasm::ParseError);
  const QuantumCircuit ok =
      qasm::parse("OPENQASM 2.0;\nqreg q[4];\nqreg r[1];\nbarrier q, r[0];\n");
  EXPECT_EQ(ok.ops().back().qubits, iota(5));
}

}  // namespace
}  // namespace qtc
