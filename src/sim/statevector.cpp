#include "sim/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "sim/simd.hpp"

namespace qtc::sim {

namespace {

bool is_power_of_two(std::size_t x) { return x && (x & (x - 1)) == 0; }

int log2_exact(std::size_t x) {
  int n = 0;
  while ((std::size_t{1} << n) < x) ++n;
  return n;
}

/// Splice a 0 bit into `g` at the position of the set bit in `mask`, shifting
/// the higher bits up. Enumerating g over [0, 2^(n-1)) visits every basis
/// index whose `mask` qubit reads 0 — the canonical pair-loop of array
/// simulators, and the unit of work the parallel kernels chunk over.
inline std::uint64_t insert_zero_bit(std::uint64_t g, std::uint64_t mask) {
  const std::uint64_t low = mask - 1;
  return ((g & ~low) << 1) | (g & low);
}

constexpr int kReduceBlockBits = std::countr_zero(parallel::kReduceBlock);

/// Deterministic sum of f over [0, items) in blocks of 2^block_bits items:
/// every block's partial sum starts from 0 and the partials are added in
/// block order, whatever the thread count. With 14-bit blocks (or one block
/// covering the whole range) this is parallel::parallel_reduce's summation
/// tree exactly. Blocks too small to be worth a fork fold serially.
template <typename F>
double blocked_sum(std::uint64_t items, int block_bits, const F& f) {
  const std::uint64_t block = std::uint64_t{1} << block_bits;
  if (items <= block) return f(0, items);
  const std::uint64_t nblocks = items >> block_bits;
  double total = 0;
  if (block < parallel::kSerialCutoff) {
    for (std::uint64_t b = 0; b < nblocks; ++b)
      total += f(b << block_bits, (b + 1) << block_bits);
    return total;
  }
  std::vector<double> partials(nblocks);
  parallel::parallel_for(
      0, nblocks,
      [&](std::uint64_t b0, std::uint64_t b1) {
        for (std::uint64_t b = b0; b < b1; ++b)
          partials[b] = f(b << block_bits, (b + 1) << block_bits);
      },
      /*serial_cutoff=*/2);
  for (double p : partials) total += p;
  return total;
}

}  // namespace

Statevector::Statevector(int num_qubits) : n_(num_qubits) {
  if (num_qubits < 0 || num_qubits > kMaxStatevectorQubits)
    throw std::invalid_argument("statevector: unsupported qubit count");
  amp_.assign(std::size_t{1} << n_, cplx{0, 0});
  amp_[0] = 1;
}

Statevector::Statevector(AmpVector amplitudes) : amp_(std::move(amplitudes)) {
  if (!is_power_of_two(amp_.size()))
    throw std::invalid_argument("statevector: size must be a power of two");
  n_ = log2_exact(amp_.size());
  if (n_ > kMaxStatevectorQubits)
    throw std::invalid_argument("statevector: unsupported qubit count");
}

Statevector::Statevector(const std::vector<cplx>& amplitudes)
    : Statevector(AmpVector(amplitudes.begin(), amplitudes.end())) {}

void Statevector::apply(const Operation& op) {
  if (op.kind == OpKind::Barrier) return;
  if (!op_is_unitary(op.kind))
    throw std::invalid_argument("statevector: cannot apply non-unitary op");
  // Fast paths for the ubiquitous gates.
  if (op.kind == OpKind::CX) {
    apply_cx(op.qubits[0], op.qubits[1]);
    return;
  }
  if (op.qubits.size() == 1) {
    const Matrix m = op_matrix(op.kind, op.params);
    apply_1q(m(0, 0), m(0, 1), m(1, 0), m(1, 1), op.qubits[0]);
    return;
  }
  apply_matrix(op_matrix(op.kind, op.params), op.qubits);
}

void Statevector::apply_1q(cplx m00, cplx m01, cplx m10, cplx m11, int q) {
  if (q < 0 || q >= n_) throw std::out_of_range("apply_1q: qubit out of range");
  const std::uint64_t half = amp_.size() >> 1;
  const std::uint64_t mask = std::uint64_t{1} << q;
  cplx* amp = amp_.data();
  parallel::parallel_for(0, half, [&](std::uint64_t g0, std::uint64_t g1) {
    simd::apply_1q_range(isa_, amp, g0, g1, mask, m00, m01, m10, m11);
  });
}

void Statevector::apply_cx(int control, int target) {
  if (control < 0 || control >= n_ || target < 0 || target >= n_)
    throw std::out_of_range("apply_cx: qubit out of range");
  const std::uint64_t half = amp_.size() >> 1;
  const std::uint64_t cmask = std::uint64_t{1} << control;
  const std::uint64_t tmask = std::uint64_t{1} << target;
  cplx* amp = amp_.data();
  parallel::parallel_for(0, half, [&](std::uint64_t g0, std::uint64_t g1) {
    simd::apply_cx_range(isa_, amp, g0, g1, cmask, tmask);
  });
}

void Statevector::prepare_gather(const int* qs, int k, std::size_t dim) {
  for (int t = 0; t < k; ++t)
    if (qs[t] < 0 || qs[t] >= n_)
      throw std::out_of_range("statevector kernel: qubit out of range");
  sorted_qubits_.assign(qs, qs + k);
  std::sort(sorted_qubits_.begin(), sorted_qubits_.end());
  gather_offsets_.assign(dim, 0);
  for (std::size_t j = 0; j < dim; ++j)
    for (int t = 0; t < k; ++t)
      if ((j >> t) & 1) gather_offsets_[j] |= std::uint64_t{1} << qs[t];
}

namespace {

/// Largest gate dimension whose gather/scatter scratch lives on the stack:
/// up to 6 gate qubits (fusion's hard cap) run with zero heap traffic in the
/// kernel body; larger gates fall back to per-chunk vectors.
constexpr std::size_t kStackDim = 64;

}  // namespace

void Statevector::apply_matrix(const Matrix& m, std::span<const int> qs) {
  const int k = static_cast<int>(qs.size());
  const std::size_t dim = std::size_t{1} << k;
  if (m.rows() != dim || m.cols() != dim)
    throw std::invalid_argument("apply_matrix: matrix/qubit-count mismatch");
  // Iterate over all base indices with zeros in the gate-qubit positions and
  // apply the small matrix to the 2^k amplitudes addressed by those qubits.
  prepare_gather(qs.data(), k, dim);

  const std::uint64_t groups = amp_.size() >> k;
  // Each group costs ~4^k scalar ops, so scale the serial cutoff down
  // accordingly before forking.
  const std::uint64_t cutoff =
      std::max<std::uint64_t>(2, parallel::kSerialCutoff >> (2 * k));
  // The kernel body: expand g by inserting a 0 bit at each (sorted) gate
  // qubit position, gather, multiply, scatter. Groups go through the matvec
  // two at a time, lane-interleaved, so the AVX2 path sees contiguous loads;
  // each group's rows still accumulate in the scalar column order, and lanes
  // are independent, so results are ISA- and pairing-invariant bit for bit
  // (an odd chunk tail runs the single-group scalar matvec).
  const cplx* md = m.data().data();
  auto expand = [&](std::uint64_t g) {
    for (int t = 0; t < k; ++t)
      g = insert_zero_bit(g, std::uint64_t{1} << sorted_qubits_[t]);
    return g;
  };
  auto run_group = [&](std::uint64_t g, cplx* in, cplx* out) {
    const std::uint64_t base = expand(g);
    for (std::size_t j = 0; j < dim; ++j)
      in[j] = amp_[base | gather_offsets_[j]];
    simd::matvec(isa_, md, in, out, dim);
    for (std::size_t j = 0; j < dim; ++j)
      amp_[base | gather_offsets_[j]] = out[j];
  };
  auto run_pair = [&](std::uint64_t g, cplx* in2, cplx* out2) {
    const std::uint64_t ba = expand(g), bb = expand(g + 1);
    for (std::size_t j = 0; j < dim; ++j) {
      in2[2 * j] = amp_[ba | gather_offsets_[j]];
      in2[2 * j + 1] = amp_[bb | gather_offsets_[j]];
    }
    simd::matvec2(isa_, md, in2, out2, dim);
    for (std::size_t j = 0; j < dim; ++j) {
      amp_[ba | gather_offsets_[j]] = out2[2 * j];
      amp_[bb | gather_offsets_[j]] = out2[2 * j + 1];
    }
  };
  auto sweep = [&](std::uint64_t g_lo, std::uint64_t g_hi, cplx* in2,
                   cplx* out2) {
    std::uint64_t g = g_lo;
    for (; g + 2 <= g_hi; g += 2) run_pair(g, in2, out2);
    if (g < g_hi) run_group(g, in2, out2);
  };
  if (dim <= kStackDim) {
    parallel::parallel_for(
        0, groups,
        [&](std::uint64_t g_lo, std::uint64_t g_hi) {
          cplx in2[2 * kStackDim], out2[2 * kStackDim];  // no heap in the loop
          sweep(g_lo, g_hi, in2, out2);
        },
        cutoff);
  } else {
    parallel::parallel_for(
        0, groups,
        [&](std::uint64_t g_lo, std::uint64_t g_hi) {
          std::vector<cplx> in2(2 * dim), out2(2 * dim);  // large-k fallback
          sweep(g_lo, g_hi, in2.data(), out2.data());
        },
        cutoff);
  }
}

void Statevector::apply_diagonal(const std::vector<cplx>& diag,
                                 std::span<const int> qs) {
  const int k = static_cast<int>(qs.size());
  const std::size_t dim = std::size_t{1} << k;
  if (diag.size() != dim)
    throw std::invalid_argument("apply_diagonal: diag/qubit-count mismatch");
  for (int q : qs)
    if (q < 0 || q >= n_)
      throw std::out_of_range("apply_diagonal: qubit out of range");
  // One linear pass, one multiply per amplitude, no pair gather. Basis
  // indices that differ only below the lowest gate qubit share the same
  // gate-local index, so the diag lookup hoists over contiguous segments of
  // that length and the inner loop is a vectorizable scale of a contiguous
  // stretch. Chunking at segment granularity keeps the pass elementwise, so
  // results stay bitwise invariant under the thread count.
  const int* qp = qs.data();
  const int qmin = *std::min_element(qs.begin(), qs.end());
  const std::uint64_t seg = std::uint64_t{1} << qmin;
  const std::uint64_t cutoff =
      std::max<std::uint64_t>(1, parallel::kSerialCutoff >> qmin);
  cplx* amp = amp_.data();
  parallel::parallel_for(
      0, amp_.size() >> qmin,
      [&](std::uint64_t s_lo, std::uint64_t s_hi) {
        for (std::uint64_t s = s_lo; s < s_hi; ++s) {
          const std::uint64_t i0 = s << qmin;
          std::size_t j = 0;
          for (int t = 0; t < k; ++t) j |= ((i0 >> qp[t]) & 1) << t;
          simd::scale_range(isa_, amp, i0, seg, diag[j]);
        }
      },
      cutoff);
}

void Statevector::apply_permutation(const std::vector<std::uint32_t>& row_of,
                                    const std::vector<cplx>& phases,
                                    std::span<const int> qs) {
  const int k = static_cast<int>(qs.size());
  const std::size_t dim = std::size_t{1} << k;
  if (row_of.size() != dim || (!phases.empty() && phases.size() != dim))
    throw std::invalid_argument("apply_permutation: size mismatch");
  if (dim > kStackDim)
    throw std::invalid_argument("apply_permutation: more than 6 gate qubits");
  prepare_gather(qs.data(), k, dim);
  const std::uint64_t groups = amp_.size() >> k;
  const std::uint64_t cutoff =
      std::max<std::uint64_t>(2, parallel::kSerialCutoff >> k);
  parallel::parallel_for(
      0, groups,
      [&](std::uint64_t g_lo, std::uint64_t g_hi) {
        cplx in[kStackDim], scaled[kStackDim];
        for (std::uint64_t g = g_lo; g < g_hi; ++g) {
          std::uint64_t base = g;
          for (int t = 0; t < k; ++t)
            base = insert_zero_bit(base, std::uint64_t{1} << sorted_qubits_[t]);
          for (std::size_t j = 0; j < dim; ++j)
            in[j] = amp_[base | gather_offsets_[j]];
          if (phases.empty()) {  // pure index remap, no arithmetic
            for (std::size_t j = 0; j < dim; ++j)
              amp_[base | gather_offsets_[row_of[j]]] = in[j];
          } else {
            simd::cmul(isa_, phases.data(), in, scaled, dim);
            for (std::size_t j = 0; j < dim; ++j)
              amp_[base | gather_offsets_[row_of[j]]] = scaled[j];
          }
        }
      },
      cutoff);
}

void Statevector::apply_controlled_matrix(const Matrix& u,
                                          std::span<const int> controls,
                                          std::span<const int> targets) {
  std::vector<int> packed(controls.begin(), controls.end());
  packed.insert(packed.end(), targets.begin(), targets.end());
  apply_controlled_matrix(u, packed, static_cast<int>(controls.size()));
}

void Statevector::apply_controlled_matrix(const Matrix& u,
                                          std::span<const int> qs,
                                          int num_controls) {
  const int k = static_cast<int>(qs.size());
  const int nt = k - num_controls;
  if (num_controls < 0 || nt < 0)
    throw std::invalid_argument("apply_controlled_matrix: bad control count");
  const std::size_t tdim = std::size_t{1} << nt;
  if (u.rows() != tdim || u.cols() != tdim)
    throw std::invalid_argument(
        "apply_controlled_matrix: matrix/target-count mismatch");
  if (tdim > kStackDim)
    throw std::invalid_argument(
        "apply_controlled_matrix: more than 6 target qubits");
  for (int q : qs)
    if (q < 0 || q >= n_)
      throw std::out_of_range("apply_controlled_matrix: qubit out of range");
  // Gather offsets over the *targets*; the group expansion skips all gate
  // qubits (controls included) and then pins every control bit to 1, so only
  // the control-active 2^(n - #controls) slice of the state is touched.
  expand_qubits_.assign(qs.begin(), qs.end());
  std::sort(expand_qubits_.begin(), expand_qubits_.end());
  std::uint64_t cmask = 0;
  for (int t = 0; t < num_controls; ++t) cmask |= std::uint64_t{1} << qs[t];
  prepare_gather(qs.data() + num_controls, nt, tdim);
  const int* all = expand_qubits_.data();
  const std::uint64_t groups = amp_.size() >> k;
  const std::uint64_t cutoff =
      std::max<std::uint64_t>(2, parallel::kSerialCutoff >> (2 * nt));
  const cplx* ud = u.data().data();
  // Same two-groups-per-matvec layout as apply_matrix (see the comment
  // there); the control mask pins every group to the control-active slice.
  auto expand = [&](std::uint64_t g) {
    for (int t = 0; t < k; ++t)
      g = insert_zero_bit(g, std::uint64_t{1} << all[t]);
    return g | cmask;
  };
  parallel::parallel_for(
      0, groups,
      [&](std::uint64_t g_lo, std::uint64_t g_hi) {
        cplx in2[2 * kStackDim], out2[2 * kStackDim];
        std::uint64_t g = g_lo;
        for (; g + 2 <= g_hi; g += 2) {
          const std::uint64_t ba = expand(g), bb = expand(g + 1);
          for (std::size_t j = 0; j < tdim; ++j) {
            in2[2 * j] = amp_[ba | gather_offsets_[j]];
            in2[2 * j + 1] = amp_[bb | gather_offsets_[j]];
          }
          simd::matvec2(isa_, ud, in2, out2, tdim);
          for (std::size_t j = 0; j < tdim; ++j) {
            amp_[ba | gather_offsets_[j]] = out2[2 * j];
            amp_[bb | gather_offsets_[j]] = out2[2 * j + 1];
          }
        }
        if (g < g_hi) {
          const std::uint64_t base = expand(g);
          for (std::size_t j = 0; j < tdim; ++j)
            in2[j] = amp_[base | gather_offsets_[j]];
          simd::matvec(isa_, ud, in2, out2, tdim);
          for (std::size_t j = 0; j < tdim; ++j)
            amp_[base | gather_offsets_[j]] = out2[j];
        }
      },
      cutoff);
}

void Statevector::apply_circuit(const QuantumCircuit& circuit) {
  if (circuit.num_qubits() != n_)
    throw std::invalid_argument("apply_circuit: qubit count mismatch");
  for (const auto& op : circuit.ops()) apply(op);
}

void Statevector::set_register_layout(std::vector<int> positions,
                                      int register_width) {
  if (static_cast<int>(positions.size()) != n_)
    throw std::invalid_argument("set_register_layout: bad layout size");
  for (int i = 0; i < n_; ++i)
    if (positions[i] < (i > 0 ? positions[i - 1] + 1 : 0) ||
        positions[i] >= register_width)
      throw std::invalid_argument(
          "set_register_layout: positions must increase within the register");
  positions_ = std::move(positions);
  register_width_ = register_width;
}

int Statevector::reduction_block_bits(int skip) const {
  // The register sums over its index space (minus the skipped qubit's bit)
  // in kReduceBlock-item blocks, or in one block when the space fits. Our
  // qubits sit at increasing register positions, so those below the block
  // boundary are a prefix of our index bits and every register block is a
  // contiguous run of our indices.
  const int width = positions_.empty() ? n_ : register_width_;
  const int dropped = skip >= 0 ? 1 : 0;
  if (width - dropped <= kReduceBlockBits) return n_ - dropped;
  const auto position = [&](int i) {
    return positions_.empty() ? i : positions_[i];
  };
  const int skip_pos = skip >= 0 ? position(skip) : width;
  int bits = 0;
  for (int i = 0; i < n_; ++i) {
    if (i == skip) continue;
    const int p = position(i);
    if ((p < skip_pos ? p : p - 1) < kReduceBlockBits) ++bits;
  }
  return bits;
}

double Statevector::probability_of_one(int q) const {
  if (q < 0 || q >= n_)
    throw std::out_of_range("probability_of_one: qubit out of range");
  const std::uint64_t mask = std::uint64_t{1} << q;
  return blocked_sum(amp_.size() >> 1, reduction_block_bits(q),
                     [&](std::uint64_t g0, std::uint64_t g1) {
                       double s = 0;
                       for (std::uint64_t g = g0; g < g1; ++g)
                         s += std::norm(amp_[insert_zero_bit(g, mask) | mask]);
                       return s;
                     });
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> p(amp_.size());
  parallel::parallel_for(0, amp_.size(),
                         [&](std::uint64_t lo, std::uint64_t hi) {
                           for (std::uint64_t i = lo; i < hi; ++i)
                             p[i] = std::norm(amp_[i]);
                         });
  return p;
}

int Statevector::measure(int q, Rng& rng) {
  const double p1 = probability_of_one(q);
  const int outcome = rng.bernoulli(p1) ? 1 : 0;
  const std::uint64_t mask = std::uint64_t{1} << q;
  const double keep = outcome ? p1 : 1 - p1;
  const double scale = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;
  parallel::parallel_for(0, amp_.size(),
                         [&](std::uint64_t lo, std::uint64_t hi) {
                           for (std::uint64_t i = lo; i < hi; ++i) {
                             const bool one = (i & mask) != 0;
                             if (one == (outcome == 1))
                               amp_[i] *= scale;
                             else
                               amp_[i] = 0;
                           }
                         });
  return outcome;
}

void Statevector::reset(int q, Rng& rng) {
  if (measure(q, rng) == 1) {
    Operation op;
    op.kind = OpKind::X;
    op.qubits = {q};
    apply(op);
  }
}

std::uint64_t Statevector::sample(Rng& rng) const {
  // Single-draw variant; shot loops should precompute
  // cumulative_probabilities() once and call sample_cdf per shot instead.
  double r = rng.uniform();
  double acc = 0;
  for (std::uint64_t i = 0; i < amp_.size(); ++i) {
    acc += std::norm(amp_[i]);
    if (r < acc) return i;
  }
  return amp_.size() - 1;
}

std::vector<double> Statevector::cumulative_probabilities() const {
  const std::uint64_t n = amp_.size();
  std::vector<double> cdf(n);
  const std::uint64_t block = parallel::kReduceBlock;
  if (n <= block) {
    double acc = 0;
    for (std::uint64_t i = 0; i < n; ++i) cdf[i] = (acc += std::norm(amp_[i]));
    return cdf;
  }
  // Two-pass blocked prefix sum. Blocks are fixed-size, so the result is
  // identical whatever the thread count (same determinism contract as
  // parallel_reduce).
  const std::uint64_t nblocks = (n + block - 1) / block;
  std::vector<double> totals(nblocks);
  parallel::parallel_for(
      0, nblocks,
      [&](std::uint64_t b0, std::uint64_t b1) {
        for (std::uint64_t b = b0; b < b1; ++b) {
          const std::uint64_t lo = b * block, hi = std::min(n, lo + block);
          double acc = 0;
          for (std::uint64_t i = lo; i < hi; ++i)
            cdf[i] = (acc += std::norm(amp_[i]));
          totals[b] = acc;
        }
      },
      /*serial_cutoff=*/2);
  std::vector<double> offsets(nblocks);
  double acc = 0;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    offsets[b] = acc;
    acc += totals[b];
  }
  parallel::parallel_for(
      1, nblocks,
      [&](std::uint64_t b0, std::uint64_t b1) {
        for (std::uint64_t b = b0; b < b1; ++b) {
          const std::uint64_t lo = b * block, hi = std::min(n, lo + block);
          for (std::uint64_t i = lo; i < hi; ++i) cdf[i] += offsets[b];
        }
      },
      /*serial_cutoff=*/2);
  return cdf;
}

std::uint64_t sample_cdf(const std::vector<double>& cdf, double r) {
  if (cdf.empty()) throw std::invalid_argument("sample_cdf: empty cdf");
  // Scale into the (possibly not exactly 1.0) total mass so rounding in the
  // prefix sum can never push a draw past the last bucket.
  const double target = r * cdf.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
  const std::uint64_t i =
      static_cast<std::uint64_t>(std::distance(cdf.begin(), it));
  return std::min<std::uint64_t>(i, cdf.size() - 1);
}

double Statevector::expectation_pauli(const std::string& paulis) const {
  if (static_cast<int>(paulis.size()) != n_)
    throw std::invalid_argument("expectation_pauli: wrong string length");
  // P|i> = i^{#Y} (-1)^{popcount(i & yz)} |i ^ x>, so the expectation is a
  // single pass over the amplitudes instead of a copy-and-apply.
  std::uint64_t xmask = 0, yzmask = 0;
  int num_y = 0;
  for (int q = 0; q < n_; ++q) {
    const std::uint64_t bit = std::uint64_t{1} << q;
    switch (paulis[n_ - 1 - q]) {  // leftmost char = highest qubit
      case 'I':
        break;
      case 'X':
        xmask |= bit;
        break;
      case 'Y':
        xmask |= bit;
        yzmask |= bit;
        ++num_y;
        break;
      case 'Z':
        yzmask |= bit;
        break;
      default:
        throw std::invalid_argument("expectation_pauli: bad character");
    }
  }
  static const cplx kIPow[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  const cplx y_phase = kIPow[num_y & 3];
  return parallel::parallel_reduce(
      0, amp_.size(), [&](std::uint64_t lo, std::uint64_t hi) {
        double s = 0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const double sign = (std::popcount(i & yzmask) & 1) ? -1.0 : 1.0;
          s += (std::conj(amp_[i ^ xmask]) * amp_[i] * (y_phase * sign))
                   .real();
        }
        return s;
      });
}

double Statevector::fidelity(const Statevector& other) const {
  if (amp_.size() != other.amp_.size())
    throw std::invalid_argument("fidelity: size mismatch");
  const cplx ip = parallel::parallel_reduce_cplx(
      0, amp_.size(), [&](std::uint64_t lo, std::uint64_t hi) {
        cplx s{0, 0};
        for (std::uint64_t i = lo; i < hi; ++i)
          s += std::conj(amp_[i]) * other.amp_[i];
        return s;
      });
  return std::norm(ip);
}

double Statevector::norm() const {
  // Same semantics as vec_norm(amp_) but with the parallel blocked sum.
  const double sum_sq = blocked_sum(
      amp_.size(), reduction_block_bits(-1),
      [&](std::uint64_t lo, std::uint64_t hi) {
        double s = 0;
        for (std::uint64_t i = lo; i < hi; ++i) s += std::norm(amp_[i]);
        return s;
      });
  return std::sqrt(sum_sq);
}

void Statevector::normalize() {
  const double n = norm();
  if (n <= 0) throw std::runtime_error("normalize: zero state");
  parallel::parallel_for(0, amp_.size(),
                         [&](std::uint64_t lo, std::uint64_t hi) {
                           for (std::uint64_t i = lo; i < hi; ++i)
                             amp_[i] /= n;
                         });
}

std::string format_bits(std::uint64_t value, int width) {
  std::string s(width, '0');
  for (int i = 0; i < width; ++i)
    if ((value >> i) & 1) s[width - 1 - i] = '1';
  return s;
}

}  // namespace qtc::sim
