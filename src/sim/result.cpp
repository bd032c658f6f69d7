#include "sim/result.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace qtc::sim {

std::string Counts::to_string(int bar_width) const {
  std::ostringstream os;
  int max_count = 0;
  for (const auto& [bits, c] : histogram) max_count = std::max(max_count, c);
  for (const auto& [bits, c] : histogram) {
    const int bar =
        max_count > 0 ? (c * bar_width + max_count - 1) / max_count : 0;
    os << bits << " : " << std::string(bar, '#') << " " << c << " ("
       << (shots ? 100.0 * c / shots : 0.0) << "%)\n";
  }
  return os.str();
}

std::string bits_key(const std::vector<int>& clbits) {
  const int ncl = static_cast<int>(clbits.size());
  std::string s(ncl, '0');
  for (int c = 0; c < ncl; ++c)
    if (clbits[c]) s[ncl - 1 - c] = '1';
  return s;
}

void FinalLayer::require(const char* api) const {
  if (!ok()) throw std::invalid_argument(std::string(api) + ": " + violation);
}

FinalLayer final_layer(const QuantumCircuit& circuit) {
  FinalLayer layer;
  layer.clbit_qubit.assign(static_cast<std::size_t>(circuit.num_clbits()), -1);
  MeasureLast rule(circuit.num_qubits());
  for (const Operation& op : circuit.ops()) {
    if (op.conditioned() || op.kind == OpKind::Reset) {
      layer.violation = op.conditioned() ? "conditioned ops are not supported"
                                         : "reset is not supported";
      return layer;
    }
    if (const int q = rule.visit(op); q >= 0) {
      layer.violation = "qubit " + std::to_string(q) +
                        " is used after it is measured (measure-last only)";
      return layer;
    }
    if (op.kind == OpKind::Measure)
      layer.clbit_qubit[op.clbits[0]] = op.qubits[0];
  }
  return layer;
}

}  // namespace qtc::sim
