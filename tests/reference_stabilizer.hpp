#pragma once
// Test-only oracle for the stabilizer engine: the byte-per-bit CHP tableau
// that sim::PackedStabilizerState replaced, plus a per-shot runner over it.
// One byte per x/z bit and a scalar rowsum, so every step is easy to check
// by eye. The packed engine must match it exactly:
//   * after any gate/measure/reset sequence, stabilizer_strings() agree bit
//     for bit (same generator compositions, same row structure);
//   * reference_stabilizer_run (a fresh tableau per shot, coins drawn from
//     the derive_stream_seed streams) reproduces StabilizerSimulator::run's
//     fixed-seed counts, both for its tableau-once sampler and for its
//     conditional per-shot fallback.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/circuit.hpp"
#include "core/rng.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "sim/stabilizer.hpp"

namespace qtc::testing {

/// The CHP tableau over n qubits: n destabilizer rows then n stabilizer
/// rows, each a Pauli string (x/z bit per qubit) with a sign bit.
class StabilizerState {
 public:
  explicit StabilizerState(int num_qubits) : n_(num_qubits) {
    if (num_qubits < 1 || num_qubits > 4096)
      throw std::invalid_argument("stabilizer: unsupported qubit count");
    const int rows = 2 * n_ + 1;  // + scratch row
    x_.assign(rows, std::vector<std::uint8_t>(n_, 0));
    z_.assign(rows, std::vector<std::uint8_t>(n_, 0));
    r_.assign(rows, 0);
    for (int i = 0; i < n_; ++i) {
      x_[i][i] = 1;       // destabilizer X_i
      z_[n_ + i][i] = 1;  // stabilizer Z_i
    }
  }

  int num_qubits() const { return n_; }

  // Generators (exact phase tracking); everything else composes from these.
  void h(int q) {
    for (int i = 0; i < 2 * n_; ++i) {
      r_[i] ^= x_[i][q] & z_[i][q];
      std::swap(x_[i][q], z_[i][q]);
    }
  }
  void s(int q) {
    for (int i = 0; i < 2 * n_; ++i) {
      r_[i] ^= x_[i][q] & z_[i][q];
      z_[i][q] ^= x_[i][q];
    }
  }
  void cx(int control, int target) {
    for (int i = 0; i < 2 * n_; ++i) {
      r_[i] ^= x_[i][control] & z_[i][target] &
               (x_[i][target] ^ z_[i][control] ^ 1);
      x_[i][target] ^= x_[i][control];
      z_[i][control] ^= z_[i][target];
    }
  }

  // Derived Cliffords.
  void sdg(int q) { s(q), s(q), s(q); }
  void z(int q) { s(q), s(q); }
  void x(int q) { h(q), z(q), h(q); }
  void y(int q) { s(q), x(q), sdg(q); }
  void sx(int q) { h(q), s(q), h(q); }      // up to global phase
  void sxdg(int q) { h(q), sdg(q), h(q); }  // up to global phase
  void cz(int control, int target) {
    h(target), cx(control, target), h(target);
  }
  void cy(int control, int target) {
    sdg(target), cx(control, target), s(target);
  }
  void swap(int a, int b) { cx(a, b), cx(b, a), cx(a, b); }
  void ecr(int a, int b) { x(a), sdg(a), sxdg(b), cx(a, b); }

  /// Apply a Clifford operation from the IR; throws on non-Clifford gates.
  void apply(const Operation& op) {
    const auto& q = op.qubits;
    switch (op.kind) {
      case OpKind::I:
      case OpKind::Barrier:
        return;
      case OpKind::X:
        return x(q[0]);
      case OpKind::Y:
        return y(q[0]);
      case OpKind::Z:
        return z(q[0]);
      case OpKind::H:
        return h(q[0]);
      case OpKind::S:
        return s(q[0]);
      case OpKind::Sdg:
        return sdg(q[0]);
      case OpKind::SX:
        return sx(q[0]);
      case OpKind::SXdg:
        return sxdg(q[0]);
      case OpKind::CX:
        return cx(q[0], q[1]);
      case OpKind::CY:
        return cy(q[0], q[1]);
      case OpKind::CZ:
        return cz(q[0], q[1]);
      case OpKind::SWAP:
        return swap(q[0], q[1]);
      case OpKind::ECR:
        return ecr(q[0], q[1]);
      case OpKind::RZ:
        switch (sim::rz_quarter_turns(op.params[0])) {
          case 0:
            return;
          case 1:
            return s(q[0]);
          case 2:
            return z(q[0]);
          case 3:
            return sdg(q[0]);
        }
        [[fallthrough]];
      default:
        throw std::invalid_argument(
            std::string("stabilizer: non-Clifford op ") + op_name(op.kind));
    }
  }

  /// Projective measurement of qubit q in the Z basis.
  int measure(int q, Rng& rng) {
    int p = -1;
    for (int i = n_; i < 2 * n_; ++i)
      if (x_[i][q]) {
        p = i;
        break;
      }
    if (p >= 0) {
      // Random outcome: Z_q anticommutes with stabilizer p.
      for (int i = 0; i < 2 * n_; ++i)
        if (i != p && x_[i][q]) rowsum(i, p);
      x_[p - n_] = x_[p];
      z_[p - n_] = z_[p];
      r_[p - n_] = r_[p];
      std::fill(x_[p].begin(), x_[p].end(), 0);
      std::fill(z_[p].begin(), z_[p].end(), 0);
      z_[p][q] = 1;
      r_[p] = rng.bernoulli(0.5) ? 1 : 0;
      return r_[p];
    }
    // Deterministic outcome: accumulate into the scratch row.
    const int scratch = 2 * n_;
    std::fill(x_[scratch].begin(), x_[scratch].end(), 0);
    std::fill(z_[scratch].begin(), z_[scratch].end(), 0);
    r_[scratch] = 0;
    for (int i = 0; i < n_; ++i)
      if (x_[i][q]) rowsum(scratch, i + n_);
    return r_[scratch];
  }
  /// Measure; if 1, flip back to |0>.
  void reset(int q, Rng& rng) {
    if (measure(q, rng) == 1) x(q);
  }

  /// True if qubit q has a definite value (no stabilizer anticommutes
  /// with Z_q).
  bool is_deterministic(int q) const {
    for (int p = n_; p < 2 * n_; ++p)
      if (x_[p][q]) return false;
    return true;
  }

  /// The stabilizer generators as strings like "+XXI" (highest qubit
  /// leftmost).
  std::vector<std::string> stabilizer_strings() const {
    std::vector<std::string> out;
    for (int i = n_; i < 2 * n_; ++i) {
      std::string s = r_[i] ? "-" : "+";
      for (int q = n_ - 1; q >= 0; --q) {
        if (x_[i][q] && z_[i][q])
          s += 'Y';
        else if (x_[i][q])
          s += 'X';
        else if (z_[i][q])
          s += 'Z';
        else
          s += 'I';
      }
      out.push_back(std::move(s));
    }
    return out;
  }

 private:
  static int g_exponent(int x1, int z1, int x2, int z2) {
    if (!x1 && !z1) return 0;
    if (x1 && z1) return z2 - x2;
    if (x1 && !z1) return z2 * (2 * x2 - 1);
    return x2 * (1 - 2 * z2);
  }

  /// row[h] *= row[i] with phase bookkeeping (the AG "rowsum").
  void rowsum(int h, int i) {
    int sum = 2 * r_[h] + 2 * r_[i];
    for (int j = 0; j < n_; ++j)
      sum += g_exponent(x_[i][j], z_[i][j], x_[h][j], z_[h][j]);
    sum = ((sum % 4) + 4) % 4;
    r_[h] = sum == 2 ? 1 : 0;
    for (int j = 0; j < n_; ++j) {
      x_[h][j] ^= x_[i][j];
      z_[h][j] ^= z_[i][j];
    }
  }

  int n_ = 0;
  // Rows 0..n-1: destabilizers; n..2n-1: stabilizers; row 2n: scratch.
  std::vector<std::vector<std::uint8_t>> x_, z_;
  std::vector<std::uint8_t> r_;
};

/// Shot s replays the whole circuit on a fresh byte tableau with coins from
/// Rng(derive_stream_seed(seed, s)), honouring classical conditions.
inline sim::Counts reference_stabilizer_run(const QuantumCircuit& circuit,
                                            std::uint64_t seed, int shots) {
  sim::Counts counts;
  for (int shot = 0; shot < shots; ++shot) {
    Rng rng(derive_stream_seed(seed, static_cast<std::uint64_t>(shot)));
    StabilizerState state(circuit.num_qubits());
    std::vector<int> clbits(circuit.num_clbits(), 0);
    for (const auto& op : circuit.ops()) {
      if (op.conditioned()) {
        const Register& reg = circuit.cregs()[op.cond_reg];
        if (sim::creg_value(reg, clbits) != op.cond_val) continue;
      }
      switch (op.kind) {
        case OpKind::Measure:
          clbits[op.clbits[0]] = state.measure(op.qubits[0], rng);
          break;
        case OpKind::Reset:
          state.reset(op.qubits[0], rng);
          break;
        default:
          state.apply(op);
      }
    }
    counts.record(sim::bits_key(clbits));
  }
  return counts;
}

}  // namespace qtc::testing
