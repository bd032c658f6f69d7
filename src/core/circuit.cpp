#include "core/circuit.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/drawer.hpp"

namespace qtc {

QuantumCircuit::QuantumCircuit(int num_qubits, int num_clbits) {
  if (num_qubits < 0 || num_clbits < 0)
    throw std::invalid_argument("circuit: negative register size");
  if (num_qubits > 0) add_qreg("q", num_qubits);
  if (num_clbits > 0) add_creg("c", num_clbits);
}

int QuantumCircuit::add_qreg(const std::string& name, int size) {
  if (size <= 0) throw std::invalid_argument("qreg: size must be positive");
  if (find_qreg(name) >= 0)
    throw std::invalid_argument("qreg: duplicate register name " + name);
  qregs_.push_back({name, size, num_qubits_});
  num_qubits_ += size;
  return static_cast<int>(qregs_.size()) - 1;
}

int QuantumCircuit::add_creg(const std::string& name, int size) {
  if (size <= 0) throw std::invalid_argument("creg: size must be positive");
  if (find_creg(name) >= 0)
    throw std::invalid_argument("creg: duplicate register name " + name);
  cregs_.push_back({name, size, num_clbits_});
  num_clbits_ += size;
  return static_cast<int>(cregs_.size()) - 1;
}

int QuantumCircuit::find_qreg(const std::string& name) const {
  for (std::size_t i = 0; i < qregs_.size(); ++i)
    if (qregs_[i].name == name) return static_cast<int>(i);
  return -1;
}

int QuantumCircuit::find_creg(const std::string& name) const {
  for (std::size_t i = 0; i < cregs_.size(); ++i)
    if (cregs_[i].name == name) return static_cast<int>(i);
  return -1;
}

void QuantumCircuit::check_op(const Operation& op) const {
  if (op.kind != OpKind::Barrier) {
    const int expected = op_num_qubits(op.kind);
    if (static_cast<int>(op.qubits.size()) != expected)
      throw std::invalid_argument(std::string("op ") + op_name(op.kind) +
                                  ": wrong number of qubits");
    if (static_cast<int>(op.params.size()) != op_num_params(op.kind))
      throw std::invalid_argument(std::string("op ") + op_name(op.kind) +
                                  ": wrong number of parameters");
  }
  for (Qubit q : op.qubits)
    if (q < 0 || q >= num_qubits_)
      throw std::out_of_range("op: qubit index out of range");
  for (Clbit c : op.clbits)
    if (c < 0 || c >= num_clbits_)
      throw std::out_of_range("op: clbit index out of range");
  for (std::size_t i = 0; i < op.qubits.size(); ++i)
    for (std::size_t j = i + 1; j < op.qubits.size(); ++j)
      if (op.qubits[i] == op.qubits[j])
        throw std::invalid_argument("op: duplicate qubit operand");
  if (op.kind == OpKind::Measure && op.clbits.size() != 1)
    throw std::invalid_argument("measure: needs exactly one clbit");
  if (op.cond_reg >= static_cast<int>(cregs_.size()))
    throw std::out_of_range("op: condition register out of range");
}

QuantumCircuit& QuantumCircuit::append(Operation op) {
  check_op(op);
  ops_.push_back(std::move(op));
  return *this;
}

QuantumCircuit& QuantumCircuit::append_all(std::vector<Operation> ops) {
  for (const Operation& op : ops) check_op(op);
  if (ops_.empty()) {
    ops_ = std::move(ops);
  } else {
    ops_.insert(ops_.end(), std::make_move_iterator(ops.begin()),
                std::make_move_iterator(ops.end()));
  }
  return *this;
}

QuantumCircuit& QuantumCircuit::gate(OpKind kind, QubitList qubits,
                                     ParamList params) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  return append(std::move(op));
}

QuantumCircuit& QuantumCircuit::measure(Qubit q, Clbit c) {
  Operation op;
  op.kind = OpKind::Measure;
  op.qubits = {q};
  op.clbits = {c};
  return append(std::move(op));
}

QuantumCircuit& QuantumCircuit::measure_all() {
  if (num_clbits_ < num_qubits_)
    throw std::invalid_argument("measure_all: not enough classical bits");
  for (Qubit q = 0; q < num_qubits_; ++q) measure(q, q);
  return *this;
}

QuantumCircuit& QuantumCircuit::reset(Qubit q) {
  return gate(OpKind::Reset, {q});
}

QuantumCircuit& QuantumCircuit::barrier(QubitList qubits) {
  if (qubits.empty()) {
    qubits.reserve(num_qubits_);
    for (Qubit q = 0; q < num_qubits_; ++q) qubits.push_back(q);
  }
  Operation op;
  op.kind = OpKind::Barrier;
  op.qubits = std::move(qubits);
  return append(std::move(op));
}

QuantumCircuit& QuantumCircuit::c_if(int creg_index, std::uint64_t value) {
  if (ops_.empty()) throw std::logic_error("c_if: no operation to condition");
  if (creg_index < 0 || creg_index >= static_cast<int>(cregs_.size()))
    throw std::out_of_range("c_if: bad register index");
  ops_.back().cond_reg = creg_index;
  ops_.back().cond_val = value;
  return *this;
}

std::map<std::string, int> QuantumCircuit::count_ops() const {
  std::map<std::string, int> counts;
  for (const auto& op : ops_) ++counts[op_name(op.kind)];
  return counts;
}

int QuantumCircuit::count(OpKind kind) const {
  int n = 0;
  for (const auto& op : ops_)
    if (op.kind == kind) ++n;
  return n;
}

int QuantumCircuit::two_qubit_gate_count() const {
  int n = 0;
  for (const auto& op : ops_)
    if (op.kind != OpKind::Barrier && op.qubits.size() >= 2) ++n;
  return n;
}

int QuantumCircuit::depth() const {
  std::vector<int> qlevel(num_qubits_, 0), clevel(num_clbits_, 0);
  int depth = 0;
  for (const auto& op : ops_) {
    int level = 0;
    for (Qubit q : op.qubits) level = std::max(level, qlevel[q]);
    for (Clbit c : op.clbits) level = std::max(level, clevel[c]);
    if (op.conditioned())
      for (Clbit c = 0; c < num_clbits_; ++c) level = std::max(level, clevel[c]);
    if (op.kind != OpKind::Barrier) ++level;
    for (Qubit q : op.qubits) qlevel[q] = level;
    for (Clbit c : op.clbits) clevel[c] = level;
    depth = std::max(depth, level);
  }
  return depth;
}

bool QuantumCircuit::has_measurements() const {
  return std::any_of(ops_.begin(), ops_.end(), [](const Operation& op) {
    return op.kind == OpKind::Measure;
  });
}

bool QuantumCircuit::has_conditionals() const {
  return std::any_of(ops_.begin(), ops_.end(),
                     [](const Operation& op) { return op.conditioned(); });
}

QuantumCircuit& QuantumCircuit::compose(const QuantumCircuit& other) {
  if (other.num_qubits_ > num_qubits_ || other.num_clbits_ > num_clbits_)
    throw std::invalid_argument("compose: other circuit is larger");
  for (const auto& op : other.ops_) append(op);
  return *this;
}

QuantumCircuit QuantumCircuit::inverse() const {
  QuantumCircuit inv;
  inv.num_qubits_ = num_qubits_;
  inv.num_clbits_ = num_clbits_;
  inv.qregs_ = qregs_;
  inv.cregs_ = cregs_;
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    if (it->kind == OpKind::Barrier) {
      inv.ops_.push_back(*it);
      continue;
    }
    if (!op_is_unitary(it->kind))
      throw std::invalid_argument("inverse: circuit contains measure/reset");
    auto [kind, params] = op_inverse(it->kind, it->params);
    Operation op = *it;
    op.kind = kind;
    op.params = std::move(params);
    inv.ops_.push_back(std::move(op));
  }
  return inv;
}

QuantumCircuit QuantumCircuit::remapped(const std::vector<int>& layout,
                                        int new_num_qubits) const {
  if (static_cast<int>(layout.size()) != num_qubits_)
    throw std::invalid_argument("remapped: layout size mismatch");
  for (int v : layout)
    if (v < 0 || v >= new_num_qubits)
      throw std::out_of_range("remapped: layout target out of range");
  QuantumCircuit out = empty_like(new_num_qubits);
  for (const auto& op : ops_) {
    Operation moved = op;
    for (auto& q : moved.qubits) q = layout[q];
    out.append(std::move(moved));
  }
  return out;
}

QuantumCircuit QuantumCircuit::empty_like() const {
  QuantumCircuit out = empty_like(0);
  out.num_qubits_ = num_qubits_;
  out.qregs_ = qregs_;
  return out;
}

QuantumCircuit QuantumCircuit::empty_like(int num_qubits) const {
  QuantumCircuit out(num_qubits);
  out.num_clbits_ = num_clbits_;
  out.cregs_ = cregs_;
  return out;
}

QuantumCircuit QuantumCircuit::unitary_part() const {
  QuantumCircuit out;
  out.num_qubits_ = num_qubits_;
  out.num_clbits_ = num_clbits_;
  out.qregs_ = qregs_;
  out.cregs_ = cregs_;
  for (const auto& op : ops_)
    if (op_is_unitary(op.kind) && !op.conditioned()) out.ops_.push_back(op);
  return out;
}

std::string QuantumCircuit::to_string() const { return draw(*this); }

}  // namespace qtc
