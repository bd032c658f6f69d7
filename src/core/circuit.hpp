#pragma once
// The quantum circuit intermediate representation: a sequence of operations
// over flattened qubit/clbit indices, with named quantum and classical
// registers layered on top (as in OpenQASM 2.0). This is the central data
// structure every other module consumes and produces.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/gates.hpp"
#include "core/small_vec.hpp"
#include "core/types.hpp"

namespace qtc {

/// A named contiguous slice of the circuit's flattened qubits or clbits.
struct Register {
  std::string name;
  int size = 0;
  int offset = 0;  // index of the register's bit 0 in the flattened space

  bool operator==(const Register&) const = default;
};

/// Operand lists of one operation. Three qubits and one clbit cover every
/// gate kind and Measure in place; only a barrier over more than three
/// qubits spills its qubit list to the heap.
using QubitList = SmallVec<Qubit, 3>;
using ClbitList = SmallVec<Clbit, 1>;

/// One instruction in a circuit. For controlled kinds the control qubit(s)
/// come first in `qubits`. `cond_reg >= 0` makes the operation classically
/// conditioned: it executes only when the creg's value equals `cond_val`
/// (OpenQASM `if (c == val) ...`).
struct Operation {
  OpKind kind{};
  int cond_reg = -1;
  QubitList qubits;
  ClbitList clbits;  // used by Measure
  ParamList params;  // rotation angles etc.
  std::uint64_t cond_val = 0;

  bool conditioned() const { return cond_reg >= 0; }

  /// Structural equality (params compare as exact doubles) — the contract
  /// behind qasm round-tripping: parse(emit(c)) == c.
  bool operator==(const Operation&) const = default;
};

class QuantumCircuit {
 public:
  QuantumCircuit() = default;
  /// Anonymous circuit with single registers "q"/"c" of the given sizes.
  explicit QuantumCircuit(int num_qubits, int num_clbits = 0);

  int num_qubits() const { return num_qubits_; }
  int num_clbits() const { return num_clbits_; }
  const std::vector<Operation>& ops() const { return ops_; }
  std::vector<Operation>& ops() { return ops_; }

  const std::vector<Register>& qregs() const { return qregs_; }
  const std::vector<Register>& cregs() const { return cregs_; }

  /// Append a fresh register; returns its index. Flattened indices of
  /// existing bits are unaffected (registers are appended at the end).
  int add_qreg(const std::string& name, int size);
  int add_creg(const std::string& name, int size);
  /// Index of the named register, or -1.
  int find_qreg(const std::string& name) const;
  int find_creg(const std::string& name) const;

  // --- builder methods -----------------------------------------------------
  QuantumCircuit& append(Operation op);
  /// Append every op of `ops` in order, each validated as by append(); if
  /// any op is invalid nothing is appended. An empty circuit adopts the
  /// vector's storage instead of moving the ops one by one.
  QuantumCircuit& append_all(std::vector<Operation> ops);
  QuantumCircuit& gate(OpKind kind, QubitList qubits, ParamList params = {});

  QuantumCircuit& id(Qubit q) { return gate(OpKind::I, {q}); }
  QuantumCircuit& x(Qubit q) { return gate(OpKind::X, {q}); }
  QuantumCircuit& y(Qubit q) { return gate(OpKind::Y, {q}); }
  QuantumCircuit& z(Qubit q) { return gate(OpKind::Z, {q}); }
  QuantumCircuit& h(Qubit q) { return gate(OpKind::H, {q}); }
  QuantumCircuit& s(Qubit q) { return gate(OpKind::S, {q}); }
  QuantumCircuit& sdg(Qubit q) { return gate(OpKind::Sdg, {q}); }
  QuantumCircuit& t(Qubit q) { return gate(OpKind::T, {q}); }
  QuantumCircuit& tdg(Qubit q) { return gate(OpKind::Tdg, {q}); }
  QuantumCircuit& sx(Qubit q) { return gate(OpKind::SX, {q}); }
  QuantumCircuit& sxdg(Qubit q) { return gate(OpKind::SXdg, {q}); }
  QuantumCircuit& rx(double theta, Qubit q) {
    return gate(OpKind::RX, {q}, {theta});
  }
  QuantumCircuit& ry(double theta, Qubit q) {
    return gate(OpKind::RY, {q}, {theta});
  }
  QuantumCircuit& rz(double theta, Qubit q) {
    return gate(OpKind::RZ, {q}, {theta});
  }
  QuantumCircuit& p(double lambda, Qubit q) {
    return gate(OpKind::P, {q}, {lambda});
  }
  QuantumCircuit& u1(double lambda, Qubit q) { return p(lambda, q); }
  QuantumCircuit& u2(double phi, double lambda, Qubit q) {
    return gate(OpKind::U2, {q}, {phi, lambda});
  }
  QuantumCircuit& u(double theta, double phi, double lambda, Qubit q) {
    return gate(OpKind::U, {q}, {theta, phi, lambda});
  }
  QuantumCircuit& cx(Qubit control, Qubit target) {
    return gate(OpKind::CX, {control, target});
  }
  QuantumCircuit& cy(Qubit control, Qubit target) {
    return gate(OpKind::CY, {control, target});
  }
  QuantumCircuit& cz(Qubit control, Qubit target) {
    return gate(OpKind::CZ, {control, target});
  }
  QuantumCircuit& ch(Qubit control, Qubit target) {
    return gate(OpKind::CH, {control, target});
  }
  QuantumCircuit& crx(double theta, Qubit control, Qubit target) {
    return gate(OpKind::CRX, {control, target}, {theta});
  }
  QuantumCircuit& cry(double theta, Qubit control, Qubit target) {
    return gate(OpKind::CRY, {control, target}, {theta});
  }
  QuantumCircuit& crz(double theta, Qubit control, Qubit target) {
    return gate(OpKind::CRZ, {control, target}, {theta});
  }
  QuantumCircuit& cp(double lambda, Qubit control, Qubit target) {
    return gate(OpKind::CP, {control, target}, {lambda});
  }
  QuantumCircuit& cu(double theta, double phi, double lambda, Qubit control,
                     Qubit target) {
    return gate(OpKind::CU, {control, target}, {theta, phi, lambda});
  }
  QuantumCircuit& swap(Qubit a, Qubit b) { return gate(OpKind::SWAP, {a, b}); }
  QuantumCircuit& ecr(Qubit a, Qubit b) { return gate(OpKind::ECR, {a, b}); }
  QuantumCircuit& iswap(Qubit a, Qubit b) {
    return gate(OpKind::ISWAP, {a, b});
  }
  QuantumCircuit& rzz(double theta, Qubit a, Qubit b) {
    return gate(OpKind::RZZ, {a, b}, {theta});
  }
  QuantumCircuit& rxx(double theta, Qubit a, Qubit b) {
    return gate(OpKind::RXX, {a, b}, {theta});
  }
  QuantumCircuit& ccx(Qubit c0, Qubit c1, Qubit target) {
    return gate(OpKind::CCX, {c0, c1, target});
  }
  QuantumCircuit& cswap(Qubit control, Qubit a, Qubit b) {
    return gate(OpKind::CSWAP, {control, a, b});
  }
  QuantumCircuit& measure(Qubit q, Clbit c);
  /// Measure qubit i into clbit i for all qubits (requires enough clbits).
  QuantumCircuit& measure_all();
  QuantumCircuit& reset(Qubit q);
  /// Barrier over the given qubits (all qubits if empty).
  QuantumCircuit& barrier(QubitList qubits = {});
  /// Apply `if (creg == value)` to the most recently appended operation.
  QuantumCircuit& c_if(int creg_index, std::uint64_t value);

  // --- queries ---------------------------------------------------------
  std::size_t size() const { return ops_.size(); }
  /// Gate counts by mnemonic.
  std::map<std::string, int> count_ops() const;
  int count(OpKind kind) const;
  /// Number of gates acting on >= 2 qubits.
  int two_qubit_gate_count() const;
  /// Circuit depth: longest path of operations over shared qubits/clbits.
  /// Barriers synchronize but do not count as a level.
  int depth() const;
  bool has_measurements() const;
  bool has_conditionals() const;

  // --- whole-circuit transforms ------------------------------------------
  /// Append all of `other`'s operations (registers must be compatible sizes).
  QuantumCircuit& compose(const QuantumCircuit& other);
  /// Reverse circuit with every gate inverted. Throws if the circuit contains
  /// measurement/reset or a gate without an in-set inverse.
  QuantumCircuit inverse() const;
  /// Copy with qubit i relabelled to layout[i]; the new circuit has
  /// `new_num_qubits` qubits (>= max of layout + 1).
  QuantumCircuit remapped(const std::vector<int>& layout,
                          int new_num_qubits) const;
  /// Circuit containing only the unitary operations (drops measure/barrier).
  QuantumCircuit unitary_part() const;
  /// Op-free circuit with this circuit's quantum and classical registers.
  /// Every pass builds its output on it, so a condition keeps naming the
  /// creg it was written on.
  QuantumCircuit empty_like() const;
  /// Op-free circuit over `num_qubits` qubits in one register "q", with
  /// this circuit's classical registers: the output of a relabelling onto
  /// other qubits (routing onto a device, remapped()).
  QuantumCircuit empty_like(int num_qubits) const;

  /// ASCII circuit diagram (see drawer.hpp).
  std::string to_string() const;

  /// Structural equality: same registers (names, sizes, offsets) and the
  /// same operation sequence, compared exactly.
  bool operator==(const QuantumCircuit&) const = default;

 private:
  void check_op(const Operation& op) const;

  int num_qubits_ = 0;
  int num_clbits_ = 0;
  std::vector<Register> qregs_;
  std::vector<Register> cregs_;
  std::vector<Operation> ops_;
};

}  // namespace qtc
