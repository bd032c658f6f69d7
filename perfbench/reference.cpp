#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>

#include "core/gates.hpp"
#include "transpiler/direction.hpp"

namespace perfbench {

using qtc::cplx;
using qtc::OpKind;
using qtc::QuantumCircuit;

namespace {

/// Largest register the equivalence check will simulate (16 MiB of state).
constexpr int kMaxCheckQubits = 20;

/// Apply a k-qubit gate matrix (qubit list order = gate-local bit order).
void apply(std::vector<cplx>& state, const qtc::Matrix& m,
           const std::vector<int>& qubits) {
  const std::size_t k = qubits.size();
  const std::size_t dim = std::size_t{1} << k;
  std::uint64_t mask = 0;
  for (int q : qubits) mask |= std::uint64_t{1} << q;
  std::vector<std::uint64_t> index(dim);
  std::vector<cplx> in(dim);
  for (std::uint64_t base = 0; base < state.size(); ++base) {
    if (base & mask) continue;
    for (std::size_t local = 0; local < dim; ++local) {
      std::uint64_t i = base;
      for (std::size_t b = 0; b < k; ++b)
        if (local >> b & 1) i |= std::uint64_t{1} << qubits[b];
      index[local] = i;
      in[local] = state[i];
    }
    for (std::size_t r = 0; r < dim; ++r) {
      cplx acc = 0;
      for (std::size_t c = 0; c < dim; ++c) acc += m(r, c) * in[c];
      state[index[r]] = acc;
    }
  }
}

/// State of the circuit's unitary part over `num_qubits` qubits, each op's
/// qubits relabelled through `relabel`.
std::vector<cplx> simulate(const QuantumCircuit& circuit, int num_qubits,
                           const std::vector<int>& relabel) {
  std::vector<cplx> state(std::size_t{1} << num_qubits, cplx{0, 0});
  state[0] = 1;
  for (const qtc::Operation& op : circuit.ops()) {
    if (!qtc::op_is_unitary(op.kind)) continue;
    std::vector<int> qubits;
    for (int q : op.qubits) qubits.push_back(relabel[q]);
    apply(state, qtc::op_matrix(op.kind, op.params), qubits);
  }
  return state;
}

std::string bits_of(std::uint64_t value, int width) {
  std::string s(width, '0');
  for (int b = 0; b < width; ++b)
    if (value >> b & 1) s[width - 1 - b] = '1';
  return s;
}

/// Final state of the circuit's unitary part from |0...0>. Amplitude index
/// bit q is qubit q.
std::vector<cplx> reference_state(const QuantumCircuit& circuit) {
  std::vector<int> identity(circuit.num_qubits());
  for (int q = 0; q < circuit.num_qubits(); ++q) identity[q] = q;
  return simulate(circuit, circuit.num_qubits(), identity);
}

}  // namespace

HeavySet heavy_set(const QuantumCircuit& logical) {
  const std::vector<cplx> state = reference_state(logical);
  std::vector<double> p(state.size());
  for (std::size_t i = 0; i < state.size(); ++i) p[i] = std::norm(state[i]);
  std::vector<double> sorted = p;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  // Measure-all circuits map qubit q to clbit q, so index bits are clbits.
  HeavySet heavy;
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i] > median) {
      heavy.outputs.push_back(bits_of(i, logical.num_qubits()));
      heavy.ideal_probability += p[i];
    }
  return heavy;
}

std::string check_compiled(const QuantumCircuit& compiled,
                           const qtc::arch::Backend& backend) {
  for (const qtc::Operation& op : compiled.ops()) {
    if (!backend.is_basis_gate(op.kind))
      return std::string("non-basis op '") + qtc::op_name(op.kind) + "'";
    if (op.kind != OpKind::Barrier && op.qubits.size() == 2 &&
        !backend.coupling_map().has_edge(op.qubits[0], op.qubits[1]))
      return "two-qubit op off the directed coupling map";
  }
  if (!qtc::transpiler::satisfies_coupling(compiled, backend.coupling_map()))
    return "transpiler::satisfies_coupling is false";
  return "";
}

std::string check_equivalent(const QuantumCircuit& logical,
                             const QuantumCircuit& compiled,
                             const qtc::map::Layout& initial,
                             const qtc::map::Layout& final_layout) {
  // Compact the physical qubits that matter: those the compiled circuit
  // touches plus every logical qubit's start and end position.
  std::vector<int> compact(compiled.num_qubits(), -1);
  int used = 0;
  auto touch = [&](int p) {
    if (compact[p] < 0) compact[p] = used++;
  };
  for (int l = 0; l < logical.num_qubits(); ++l) {
    touch(initial.l2p[l]);
    touch(final_layout.l2p[l]);
  }
  for (const qtc::Operation& op : compiled.ops())
    if (qtc::op_is_unitary(op.kind))
      for (int q : op.qubits) touch(q);
  if (used > kMaxCheckQubits)
    return "compiled circuit touches " + std::to_string(used) +
           " qubits, more than the check simulates";
  // Every qubit starts in |0>, so the initial layout only widens the
  // footprint; the final layout says where each logical qubit must end.
  const std::vector<cplx> got = simulate(compiled, used, compact);
  const std::vector<cplx> logical_state = reference_state(logical);
  std::vector<cplx> want(got.size(), cplx{0, 0});
  for (std::uint64_t x = 0; x < logical_state.size(); ++x) {
    std::uint64_t i = 0;
    for (int l = 0; l < logical.num_qubits(); ++l)
      if (x >> l & 1) i |= std::uint64_t{1} << compact[final_layout.l2p[l]];
    want[i] = logical_state[x];
  }
  // Equal up to global phase: |<want|got>| == 1 for unit vectors.
  cplx overlap = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    overlap += std::conj(want[i]) * got[i];
  const double fidelity = std::abs(overlap);
  if (std::abs(fidelity - 1.0) > 1e-6)
    return "state overlap " + std::to_string(fidelity) + " != 1";
  return "";
}

}  // namespace perfbench
