#include "core/drawer.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <sstream>
#include <vector>

#include "core/circuit.hpp"

namespace qtc {

namespace {

std::string fmt_param(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string fmt_params(std::span<const double> params) {
  if (params.empty()) return {};
  std::string s = "(";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i) s += ",";
    s += fmt_param(params[i]);
  }
  return s + ")";
}

/// What to print on each qubit's row for one operation. Controls render as
/// "*"; swap endpoints as "x"; targets as the base gate mnemonic.
struct CellPlan {
  std::vector<std::pair<Qubit, std::string>> cells;
};

CellPlan plan_op(const Operation& op) {
  CellPlan plan;
  const std::string params = fmt_params(op.params);
  std::string cond;
  if (op.conditioned()) cond = "?";
  auto base = [&](const char* label, Qubit q) {
    plan.cells.emplace_back(q, std::string(label) + params + cond);
  };
  switch (op.kind) {
    case OpKind::CX:
      plan.cells.emplace_back(op.qubits[0], "*");
      base("X", op.qubits[1]);
      break;
    case OpKind::CY:
      plan.cells.emplace_back(op.qubits[0], "*");
      base("Y", op.qubits[1]);
      break;
    case OpKind::CZ:
      plan.cells.emplace_back(op.qubits[0], "*");
      base("Z", op.qubits[1]);
      break;
    case OpKind::CH:
      plan.cells.emplace_back(op.qubits[0], "*");
      base("H", op.qubits[1]);
      break;
    case OpKind::CRX:
    case OpKind::CRY:
    case OpKind::CRZ:
    case OpKind::CP:
    case OpKind::CU: {
      plan.cells.emplace_back(op.qubits[0], "*");
      std::string label = op_name(op.kind) + 1;  // drop leading 'c'
      std::transform(label.begin(), label.end(), label.begin(), ::toupper);
      base(label.c_str(), op.qubits[1]);
      break;
    }
    case OpKind::SWAP:
      plan.cells.emplace_back(op.qubits[0], "x");
      plan.cells.emplace_back(op.qubits[1], "x");
      break;
    case OpKind::CCX:
      plan.cells.emplace_back(op.qubits[0], "*");
      plan.cells.emplace_back(op.qubits[1], "*");
      base("X", op.qubits[2]);
      break;
    case OpKind::CSWAP:
      plan.cells.emplace_back(op.qubits[0], "*");
      plan.cells.emplace_back(op.qubits[1], "x");
      plan.cells.emplace_back(op.qubits[2], "x");
      break;
    case OpKind::Measure:
      plan.cells.emplace_back(op.qubits[0],
                              "M->" + std::to_string(op.clbits[0]));
      break;
    case OpKind::Reset:
      plan.cells.emplace_back(op.qubits[0], "|0>");
      break;
    case OpKind::Barrier:
      for (Qubit q : op.qubits) plan.cells.emplace_back(q, "#");
      break;
    default: {
      std::string label = op_name(op.kind);
      std::transform(label.begin(), label.end(), label.begin(), ::toupper);
      for (Qubit q : op.qubits)
        plan.cells.emplace_back(q, label + params + cond);
      break;
    }
  }
  return plan;
}

}  // namespace

std::string draw(const QuantumCircuit& circuit) {
  const int nq = circuit.num_qubits();
  if (nq == 0) return "(empty circuit)\n";

  // Greedily pack operations into columns: an op goes into the first column
  // after the last column used by any qubit in its vertical span.
  std::vector<int> frontier(nq, 0);
  struct Placed {
    const Operation* op;
    int column;
  };
  std::vector<Placed> placed;
  int num_columns = 0;
  for (const auto& op : circuit.ops()) {
    if (op.qubits.empty()) continue;
    Qubit lo = *std::min_element(op.qubits.begin(), op.qubits.end());
    Qubit hi = *std::max_element(op.qubits.begin(), op.qubits.end());
    int col = 0;
    for (Qubit q = lo; q <= hi; ++q) col = std::max(col, frontier[q]);
    for (Qubit q = lo; q <= hi; ++q) frontier[q] = col + 1;
    placed.push_back({&op, col});
    num_columns = std::max(num_columns, col + 1);
  }

  // Qubit row labels from register structure.
  std::vector<std::string> labels(nq);
  for (const auto& reg : circuit.qregs())
    for (int i = 0; i < reg.size; ++i)
      labels[reg.offset + i] = reg.name + "[" + std::to_string(i) + "]";
  std::size_t label_w = 0;
  for (const auto& l : labels) label_w = std::max(label_w, l.size());

  // Fill a cell grid; `connect[q][col]` marks pass-through vertical wires.
  std::vector<std::vector<std::string>> grid(
      nq, std::vector<std::string>(num_columns));
  std::vector<std::vector<bool>> connect(nq,
                                         std::vector<bool>(num_columns, false));
  for (const auto& [op, col] : placed) {
    const CellPlan plan = plan_op(*op);
    for (const auto& [q, text] : plan.cells) grid[q][col] = text;
    if (op->qubits.size() > 1 && op->kind != OpKind::Barrier) {
      Qubit lo = *std::min_element(op->qubits.begin(), op->qubits.end());
      Qubit hi = *std::max_element(op->qubits.begin(), op->qubits.end());
      for (Qubit q = lo + 1; q < hi; ++q)
        if (grid[q][col].empty()) connect[q][col] = true;
    }
  }

  std::vector<std::size_t> col_w(num_columns, 1);
  for (int c = 0; c < num_columns; ++c)
    for (int q = 0; q < nq; ++q)
      col_w[c] = std::max(col_w[c], grid[q][c].size());

  std::ostringstream os;
  for (int q = 0; q < nq; ++q) {
    os << labels[q];
    os << std::string(label_w - labels[q].size(), ' ') << ": -";
    for (int c = 0; c < num_columns; ++c) {
      std::string cell = grid[q][c];
      if (cell.empty()) cell = connect[q][c] ? "|" : "-";
      const std::size_t pad = col_w[c] - cell.size();
      const std::size_t left = pad / 2;
      os << std::string(left, '-') << cell << std::string(pad - left, '-')
         << "--";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace qtc
