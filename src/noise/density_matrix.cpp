#include "noise/density_matrix.hpp"
#include <algorithm>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "sim/statevector.hpp"

namespace qtc::noise {

namespace {

/// Row/column blocks below this many vectors run inline: each item is a full
/// O(dim * 2^k) statevector kernel, so forking pays off well before the
/// generic element-count cutoff would trigger.
constexpr std::uint64_t kVectorCutoff = 16;

}  // namespace

DensityMatrix::DensityMatrix(int num_qubits) : n_(num_qubits) {
  if (num_qubits < 0 || num_qubits > 12)
    throw std::invalid_argument("density matrix: unsupported qubit count");
  const std::size_t dim = std::size_t{1} << n_;
  rho_ = Matrix(dim, dim);
  rho_(0, 0) = 1;
}

DensityMatrix::DensityMatrix(const std::vector<cplx>& sv) {
  std::size_t dim = sv.size();
  int n = 0;
  while ((std::size_t{1} << n) < dim) ++n;
  if ((std::size_t{1} << n) != dim)
    throw std::invalid_argument("density matrix: state size not 2^n");
  if (n > 12)
    throw std::invalid_argument("density matrix: unsupported qubit count");
  n_ = n;
  rho_ = Matrix(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j)
      rho_(i, j) = sv[i] * std::conj(sv[j]);
}

void DensityMatrix::left_multiply(const Matrix& m,
                                  const std::vector<int>& qubits) {
  // M acts on the row index: apply the statevector kernel to every column.
  // Columns are independent and write disjoint slots, so the column loop is
  // the parallel axis (the per-column kernel runs inline inside the region);
  // results are bitwise identical whatever the thread count.
  const std::size_t dim = rho_.rows();
  parallel::parallel_for(
      0, dim,
      [&](std::uint64_t c0, std::uint64_t c1) {
        sim::AmpVector column(dim);  // aligned: adopted by the kernel engine
        for (std::uint64_t c = c0; c < c1; ++c) {
          for (std::size_t r = 0; r < dim; ++r) column[r] = rho_(r, c);
          sim::Statevector col(std::move(column));
          col.apply_matrix(m, qubits);
          column = std::move(col.amplitudes());
          for (std::size_t r = 0; r < dim; ++r) rho_(r, c) = column[r];
        }
      },
      kVectorCutoff);
}

void DensityMatrix::right_multiply_dagger(const Matrix& m,
                                          const std::vector<int>& qubits) {
  // (rho M^dag)_{ij} = sum_k rho_{ik} conj(M_{jk}): apply conj(M) to rows,
  // one independent row block per task (see left_multiply).
  const Matrix mc = m.conjugate();
  const std::size_t dim = rho_.rows();
  parallel::parallel_for(
      0, dim,
      [&](std::uint64_t r0, std::uint64_t r1) {
        sim::AmpVector row(dim);  // aligned: adopted by the kernel engine
        for (std::uint64_t r = r0; r < r1; ++r) {
          for (std::size_t c = 0; c < dim; ++c) row[c] = rho_(r, c);
          sim::Statevector rv(std::move(row));
          rv.apply_matrix(mc, qubits);
          row = std::move(rv.amplitudes());
          for (std::size_t c = 0; c < dim; ++c) rho_(r, c) = row[c];
        }
      },
      kVectorCutoff);
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  const std::vector<int>& qubits) {
  left_multiply(u, qubits);
  right_multiply_dagger(u, qubits);
}

void DensityMatrix::apply(const Operation& op) {
  if (op.kind == OpKind::Barrier) return;
  if (!op_is_unitary(op.kind))
    throw std::invalid_argument("density matrix: non-unitary op");
  apply_unitary(op_matrix(op.kind, op.params), op.qubits);
}

void DensityMatrix::apply_channel(const KrausChannel& channel,
                                  const std::vector<int>& qubits) {
  if (static_cast<int>(qubits.size()) != channel.num_qubits)
    throw std::invalid_argument("apply_channel: qubit count mismatch");
  Matrix acc(rho_.rows(), rho_.cols());
  const Matrix original = rho_;
  for (const auto& k : channel.ops) {
    rho_ = original;
    left_multiply(k, qubits);
    right_multiply_dagger(k, qubits);
    acc = acc + rho_;
  }
  rho_ = std::move(acc);
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> p(rho_.rows());
  for (std::size_t i = 0; i < rho_.rows(); ++i) p[i] = rho_(i, i).real();
  return p;
}

double DensityMatrix::probability_of_one(int qubit) const {
  const std::uint64_t mask = std::uint64_t{1} << qubit;
  double p = 0;
  for (std::size_t i = 0; i < rho_.rows(); ++i)
    if (i & mask) p += rho_(i, i).real();
  return p;
}

double DensityMatrix::purity() const { return (rho_ * rho_).trace().real(); }

double DensityMatrix::trace_real() const { return rho_.trace().real(); }

double DensityMatrix::fidelity(std::span<const cplx> sv) const {
  if (sv.size() != rho_.rows())
    throw std::invalid_argument("fidelity: size mismatch");
  cplx f{0, 0};
  for (std::size_t i = 0; i < sv.size(); ++i)
    for (std::size_t j = 0; j < sv.size(); ++j)
      f += std::conj(sv[i]) * rho_(i, j) * sv[j];
  return f.real();
}

double DensityMatrix::expectation_pauli(const std::string& paulis) const {
  if (static_cast<int>(paulis.size()) != n_)
    throw std::invalid_argument("expectation_pauli: wrong string length");
  // Tr(P rho): build P rho by left-multiplying a copy.
  DensityMatrix copy = *this;
  for (int q = 0; q < n_; ++q) {
    const char p = paulis[n_ - 1 - q];
    if (p == 'I') continue;
    OpKind kind;
    switch (p) {
      case 'X':
        kind = OpKind::X;
        break;
      case 'Y':
        kind = OpKind::Y;
        break;
      case 'Z':
        kind = OpKind::Z;
        break;
      default:
        throw std::invalid_argument("expectation_pauli: bad character");
    }
    copy.left_multiply(op_matrix(kind), {q});
  }
  return copy.rho_.trace().real();
}

DensityMatrix DensityMatrix::partial_trace(const std::vector<int>& keep) const {
  for (int q : keep)
    if (q < 0 || q >= n_)
      throw std::out_of_range("partial_trace: qubit out of range");
  const int m = static_cast<int>(keep.size());
  DensityMatrix out(m);
  const std::size_t out_dim = std::size_t{1} << m;
  Matrix reduced(out_dim, out_dim);
  std::vector<int> traced;
  for (int q = 0; q < n_; ++q)
    if (std::find(keep.begin(), keep.end(), q) == keep.end())
      traced.push_back(q);
  const std::size_t env_dim = std::size_t{1} << traced.size();
  auto expand = [&](std::uint64_t kept_bits, std::uint64_t env_bits) {
    std::uint64_t full = 0;
    for (int t = 0; t < m; ++t)
      if ((kept_bits >> t) & 1) full |= std::uint64_t{1} << keep[t];
    for (std::size_t t = 0; t < traced.size(); ++t)
      if ((env_bits >> t) & 1) full |= std::uint64_t{1} << traced[t];
    return full;
  };
  for (std::uint64_t i = 0; i < out_dim; ++i)
    for (std::uint64_t j = 0; j < out_dim; ++j) {
      cplx sum{0, 0};
      for (std::uint64_t e = 0; e < env_dim; ++e)
        sum += rho_(expand(i, e), expand(j, e));
      reduced(i, j) = sum;
    }
  out.rho_ = std::move(reduced);
  return out;
}

std::uint64_t DensityMatrix::sample(Rng& rng) const {
  const auto p = probabilities();
  double r = rng.uniform();
  double acc = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += std::max(0.0, p[i]);
    if (r < acc) return i;
  }
  return p.size() - 1;
}

DensityMatrixSimulator::Result DensityMatrixSimulator::run(
    const QuantumCircuit& circuit, const NoiseModel& noise, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  Result result;
  std::vector<std::pair<int, int>> qubit_to_clbit;
  for (const auto& op : circuit.ops())
    if (op.kind == OpKind::Measure)
      qubit_to_clbit.emplace_back(op.qubits[0], op.clbits[0]);
  result.state = evolve(circuit, noise);
  const int ncl = circuit.num_clbits();
  if (qubit_to_clbit.empty()) {
    result.counts.shots = shots;
    return result;
  }
  // Shots sample the cumulative diagonal by binary search; one search is
  // cheaper than a fork, so up to 256 shots stay serial.
  const std::vector<double> p = result.state.probabilities();
  std::vector<double> cdf(p.size());
  double acc = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += std::max(0.0, p[i]);
    cdf[i] = acc;
  }
  result.counts = sim::sample_shots(
      seed_, shots,
      [&] {
        return [&](std::uint64_t, Rng& rng) {
          const std::uint64_t basis = sim::sample_cdf(cdf, rng.uniform());
          std::string key(ncl, '0');
          for (auto [q, c] : qubit_to_clbit) {
            const int value = noise.apply_readout(
                q, static_cast<int>((basis >> q) & 1), rng);
            if (value) key[ncl - 1 - c] = '1';
          }
          return key;
        };
      },
      /*serial_cutoff=*/256);
  return result;
}

DensityMatrix DensityMatrixSimulator::evolve(const QuantumCircuit& circuit,
                                             const NoiseModel& noise) {
  DensityMatrix rho(circuit.num_qubits());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || op.kind == OpKind::Measure) continue;
    if (op.kind == OpKind::Reset || op.conditioned())
      throw std::invalid_argument(
          "density matrix: reset/conditioned circuits unsupported");
    rho.apply(op);
    if (const KrausChannel* channel = noise.find_error(op))
      rho.apply_channel(*channel, op.qubits);
  }
  return rho;
}

}  // namespace qtc::noise
