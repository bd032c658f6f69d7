#include "inputs.hpp"

#include <algorithm>

#include "ignis/quantum_volume.hpp"

namespace perfbench {

using qtc::QuantumCircuit;
using qtc::Rng;

namespace {

int pick(Rng& rng, int n) { return static_cast<int>(rng.index(n)); }

/// A qubit other than `a`.
int other(Rng& rng, int a, int n) { return (a + 1 + pick(rng, n - 1)) % n; }

QuantumCircuit measured(QuantumCircuit qc) {
  QuantumCircuit out(qc.num_qubits(), qc.num_qubits());
  out.compose(qc);
  out.measure_all();
  return out;
}

}  // namespace

QuantumCircuit vqe_ansatz(const std::vector<double>& angles) {
  QuantumCircuit qc(4, 4);
  for (int q = 0; q < 4; ++q) qc.ry(angles[q], q);
  for (int q = 0; q < 4; ++q) qc.cx(q, (q + 1) % 4);
  for (int q = 0; q < 4; ++q) qc.ry(angles[4 + q], q);
  qc.measure_all();
  return qc;
}

QuantumCircuit random_small(Rng& rng) {
  const int n = 3 + pick(rng, 3);
  QuantumCircuit qc(n);
  for (int g = 0; g < 6 * n; ++g) {
    const int a = pick(rng, n);
    switch (pick(rng, 6)) {
      case 0: qc.h(a); break;
      case 1: qc.s(a); break;
      case 2: qc.t(a); break;
      case 3: qc.rz(rng.uniform(-qtc::PI, qtc::PI), a); break;
      case 4: qc.rx(rng.uniform(-qtc::PI, qtc::PI), a); break;
      default: qc.cx(a, other(rng, a, n));
    }
  }
  return measured(qc);
}

QuantumCircuit random_circuit(int n, int gates, Rng& rng) {
  QuantumCircuit qc(n);
  for (int g = 0; g < gates; ++g) {
    const int a = pick(rng, n);
    switch (pick(rng, 4)) {
      case 0: qc.h(a); break;
      case 1: qc.t(a); break;
      case 2: qc.rz(rng.uniform(-qtc::PI, qtc::PI), a); break;
      default: qc.cx(a, other(rng, a, n));
    }
  }
  return measured(qc);
}

QuantumCircuit qft(int n) {
  QuantumCircuit qc(n);
  for (int j = n - 1; j >= 0; --j) {
    qc.h(j);
    for (int k = j - 1; k >= 0; --k) qc.cp(qtc::PI / (1 << (j - k)), k, j);
  }
  for (int q = 0; q < n / 2; ++q) qc.swap(q, n - 1 - q);
  return measured(qc);
}

QuantumCircuit qv(int n, Rng& rng) {
  return measured(qtc::ignis::qv_model_circuit(n, rng));
}

QuantumCircuit ghz(int n) {
  QuantumCircuit qc(n);
  qc.h(0);
  for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  return measured(qc);
}

QuantumCircuit mirrored_clifford(int n, int layers, Rng& rng) {
  QuantumCircuit c(n);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < n; ++q) {
      switch (pick(rng, 4)) {
        case 0: c.h(q); break;
        case 1: c.s(q); break;
        case 2: c.sdg(q); break;
        default: break;  // identity
      }
    }
    // CX from every other qubit to one at most three places on: local
    // enough to route hundreds of qubits, still forcing SWAPs on heavy-hex.
    for (int q = l % 2; q + 1 < n; q += 2) {
      if (pick(rng, 2)) continue;
      const int t = std::min(n - 1, q + 1 + pick(rng, 3));
      if (t != q) c.cx(q, t);
    }
  }
  QuantumCircuit mirrored = c;
  mirrored.compose(c.inverse());
  return measured(mirrored);
}

}  // namespace perfbench
