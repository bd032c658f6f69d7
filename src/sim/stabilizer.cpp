#include "sim/stabilizer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"

namespace qtc::sim {

bool is_clifford_kind(OpKind kind) {
  switch (kind) {
    case OpKind::I:
    case OpKind::X:
    case OpKind::Y:
    case OpKind::Z:
    case OpKind::H:
    case OpKind::S:
    case OpKind::Sdg:
    case OpKind::SX:
    case OpKind::SXdg:
    case OpKind::CX:
    case OpKind::CY:
    case OpKind::CZ:
    case OpKind::SWAP:
      return true;
    default:
      return false;
  }
}

bool is_clifford_circuit(const QuantumCircuit& circuit) {
  for (const auto& op : circuit.ops()) {
    if (!op_is_unitary(op.kind)) continue;
    if (!is_clifford_kind(op.kind)) return false;
  }
  return true;
}

// --- bit-packed word-parallel tableau ----------------------------------------

PackedStabilizerState::PackedStabilizerState(int num_qubits) : n_(num_qubits) {
  if (num_qubits < 1 || num_qubits > kMaxQubits)
    throw std::invalid_argument("stabilizer: unsupported qubit count");
  words_ = (n_ + 63) / 64;
  rows_ = 2 * n_ + 1;  // + scratch row
  x_.assign(std::size_t(rows_) * words_, 0);
  z_.assign(std::size_t(rows_) * words_, 0);
  ph_.assign(std::size_t(rows_) * pw_, 0);
  for (int i = 0; i < n_; ++i) {
    xrow(i)[i >> 6] |= std::uint64_t{1} << (i & 63);        // destabilizer X_i
    zrow(n_ + i)[i >> 6] |= std::uint64_t{1} << (i & 63);   // stabilizer Z_i
  }
}

void PackedStabilizerState::h(int q) {
  const int w = q >> 6, sh = q & 63;
  const std::uint64_t bit = std::uint64_t{1} << sh;
  for (int i = 0; i < 2 * n_; ++i) {
    std::uint64_t& xw = xrow(i)[w];
    std::uint64_t& zw = zrow(i)[w];
    phrow(i)[0] ^= ((xw & zw) >> sh) & 1;
    const std::uint64_t diff = (xw ^ zw) & bit;
    xw ^= diff;
    zw ^= diff;
  }
}

void PackedStabilizerState::s(int q) {
  const int w = q >> 6, sh = q & 63;
  const std::uint64_t bit = std::uint64_t{1} << sh;
  for (int i = 0; i < 2 * n_; ++i) {
    std::uint64_t& xw = xrow(i)[w];
    std::uint64_t& zw = zrow(i)[w];
    phrow(i)[0] ^= ((xw & zw) >> sh) & 1;
    zw ^= xw & bit;
  }
}

void PackedStabilizerState::cx(int control, int target) {
  const int wc = control >> 6, sc = control & 63;
  const int wt = target >> 6, st = target & 63;
  for (int i = 0; i < 2 * n_; ++i) {
    std::uint64_t* xr = xrow(i);
    std::uint64_t* zr = zrow(i);
    const std::uint64_t xc = (xr[wc] >> sc) & 1;
    const std::uint64_t zc = (zr[wc] >> sc) & 1;
    const std::uint64_t xt = (xr[wt] >> st) & 1;
    const std::uint64_t zt = (zr[wt] >> st) & 1;
    phrow(i)[0] ^= xc & zt & (xt ^ zc ^ 1);
    xr[wt] ^= xc << st;
    zr[wc] ^= zt << sc;
  }
}

void PackedStabilizerState::apply(const Operation& op) {
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
    default:
      throw std::invalid_argument(std::string("stabilizer: non-Clifford op ") +
                                  op_name(op.kind));
  }
}

void PackedStabilizerState::rowsum(int into, int from) {
  // Word-wide phase-exponent sum (mod 4) + x/z row XOR in one sweep. The
  // resulting sign is r_into ^ r_from ^ (g_sum/2): the Aaronson-Gottesman
  // invariant guarantees 2*r_into + 2*r_from + g_sum is 0 or 2 mod 4, and
  // that identity holds for every concrete assignment of the symbolic coin
  // phases, so the full affine phase rows simply XOR.
  const int g = simd::stab_rowsum(simd::select(), xrow(from), zrow(from),
                                  xrow(into), zrow(into),
                                  static_cast<std::size_t>(words_));
  std::uint64_t* pi = phrow(into);
  const std::uint64_t* pf = phrow(from);
  for (int wnd = 0; wnd < pw_; ++wnd) pi[wnd] ^= pf[wnd];
  pi[0] ^= static_cast<std::uint64_t>((g >> 1) & 1);
}

int PackedStabilizerState::find_anticommuting(int q) const {
  const int w = q >> 6, sh = q & 63;
  for (int i = n_; i < 2 * n_; ++i)
    if ((xrow(i)[w] >> sh) & 1) return i;
  return -1;
}

bool PackedStabilizerState::is_deterministic(int q) const {
  return find_anticommuting(q) < 0;
}

void PackedStabilizerState::collapse(int p, int q) {
  const int w = q >> 6, sh = q & 63;
  for (int i = 0; i < 2 * n_; ++i)
    if (i != p && ((xrow(i)[w] >> sh) & 1)) rowsum(i, p);
  std::copy(xrow(p), xrow(p) + words_, xrow(p - n_));
  std::copy(zrow(p), zrow(p) + words_, zrow(p - n_));
  std::copy(phrow(p), phrow(p) + pw_, phrow(p - n_));
  std::fill(xrow(p), xrow(p) + words_, 0);
  std::fill(zrow(p), zrow(p) + words_, 0);
  std::fill(phrow(p), phrow(p) + pw_, 0);
  zrow(p)[w] |= std::uint64_t{1} << sh;
}

void PackedStabilizerState::accumulate_deterministic(int q) {
  const int scratch = 2 * n_;
  const int w = q >> 6, sh = q & 63;
  std::fill(xrow(scratch), xrow(scratch) + words_, 0);
  std::fill(zrow(scratch), zrow(scratch) + words_, 0);
  std::fill(phrow(scratch), phrow(scratch) + pw_, 0);
  for (int i = 0; i < n_; ++i)
    if ((xrow(i)[w] >> sh) & 1) rowsum(scratch, i + n_);
}

int PackedStabilizerState::measure(int q, Rng& rng) {
  const int p = find_anticommuting(q);
  if (p >= 0) {
    collapse(p, q);
    const int coin = rng.bernoulli(0.5) ? 1 : 0;
    phrow(p)[0] = static_cast<std::uint64_t>(coin);
    return coin;
  }
  accumulate_deterministic(q);
  return static_cast<int>(phrow(2 * n_)[0] & 1);
}

void PackedStabilizerState::reset(int q, Rng& rng) {
  if (measure(q, rng) == 1) x(q);
}

void PackedStabilizerState::grow_phase_words(int new_pw) {
  aligned_vector<std::uint64_t> np(std::size_t(rows_) * new_pw, 0);
  for (int i = 0; i < rows_; ++i)
    std::copy(ph_.begin() + std::size_t(i) * pw_,
              ph_.begin() + std::size_t(i) * pw_ + pw_,
              np.begin() + std::size_t(i) * new_pw);
  ph_ = std::move(np);
  pw_ = new_pw;
}

PackedStabilizerState::Outcome PackedStabilizerState::measure_symbolic(int q) {
  const int p = find_anticommuting(q);
  if (p < 0) {
    accumulate_deterministic(q);
    Outcome out;
    const std::uint64_t* ph = phrow(2 * n_);
    out.base = (ph[0] & 1) != 0;
    out.mask.assign(ph + 1, ph + pw_);
    return out;
  }
  collapse(p, q);
  const int k = num_coins_++;
  const int needed = 2 + (k >> 6);  // constant word + coin words through k
  if (needed > pw_) grow_phase_words(std::max(needed, 2 * pw_));
  phrow(p)[1 + (k >> 6)] = std::uint64_t{1} << (k & 63);
  Outcome out;
  out.random = true;
  out.coin = k;
  return out;
}

void PackedStabilizerState::reset_symbolic(int q) {
  const Outcome o = measure_symbolic(q);
  // Conditional Pauli-X frame: X_q flips the sign of every row whose z bit
  // at q is set (the exact effect of the concrete h,z,h composition), and
  // conditioning on the affine outcome `o` just XORs o's phase vector in —
  // the x/z bits never change, so the one-pass tableau stays valid.
  std::vector<std::uint64_t> cond(static_cast<std::size_t>(pw_), 0);
  if (o.random) {
    cond[1 + (o.coin >> 6)] = std::uint64_t{1} << (o.coin & 63);
  } else {
    cond[0] = o.base ? 1 : 0;
    std::copy(o.mask.begin(), o.mask.end(), cond.begin() + 1);
  }
  const int w = q >> 6, sh = q & 63;
  for (int i = 0; i < 2 * n_; ++i)
    if ((zrow(i)[w] >> sh) & 1) {
      std::uint64_t* ph = phrow(i);
      for (int j = 0; j < pw_; ++j) ph[j] ^= cond[j];
    }
}

int PackedStabilizerState::Outcome::value(const std::uint64_t* coins,
                                          std::size_t coin_words) const {
  if (random) return static_cast<int>((coins[coin >> 6] >> (coin & 63)) & 1);
  std::uint64_t acc = 0;
  const std::size_t nw = std::min(mask.size(), coin_words);
  for (std::size_t j = 0; j < nw; ++j) acc ^= mask[j] & coins[j];
  return (base ? 1 : 0) ^ (std::popcount(acc) & 1);
}

std::vector<std::string> PackedStabilizerState::stabilizer_strings() const {
  std::vector<std::string> out;
  for (int i = n_; i < 2 * n_; ++i) {
    std::string s = (phrow(i)[0] & 1) ? "-" : "+";
    for (int q = n_ - 1; q >= 0; --q) {
      const int xb = static_cast<int>((xrow(i)[q >> 6] >> (q & 63)) & 1);
      const int zb = static_cast<int>((zrow(i)[q >> 6] >> (q & 63)) & 1);
      if (xb && zb)
        s += 'Y';
      else if (xb)
        s += 'X';
      else if (zb)
        s += 'Z';
      else
        s += 'I';
    }
    out.push_back(std::move(s));
  }
  return out;
}

// --- shot executor -----------------------------------------------------------

namespace {

/// One full tableau replay of the circuit: the per-shot body of the
/// conditional fallback.
std::string run_one_shot(const QuantumCircuit& circuit, Rng& rng) {
  PackedStabilizerState state(circuit.num_qubits());
  std::vector<int> clbits(circuit.num_clbits(), 0);
  for (const auto& op : circuit.ops()) {
    if (op.conditioned()) {
      const Register& reg = circuit.cregs()[op.cond_reg];
      if (creg_value(reg, clbits) != op.cond_val) continue;
    }
    switch (op.kind) {
      case OpKind::Measure:
        clbits[op.clbits[0]] = state.measure(op.qubits[0], rng);
        break;
      case OpKind::Reset:
        state.reset(op.qubits[0], rng);
        break;
      case OpKind::Barrier:
        break;
      default:
        state.apply(op);
    }
  }
  return bits_key(clbits);
}

Counts run_per_shot(const QuantumCircuit& circuit, std::uint64_t seed,
                    int shots) {
  std::vector<std::string> outcomes(static_cast<std::size_t>(shots));
  parallel::parallel_for(
      0, static_cast<std::uint64_t>(shots),
      [&](std::uint64_t s0, std::uint64_t s1) {
        for (std::uint64_t s = s0; s < s1; ++s) {
          Rng rng(derive_stream_seed(seed, s));
          outcomes[s] = run_one_shot(circuit, rng);
        }
      },
      /*serial_cutoff=*/2);
  Counts counts;
  for (const auto& o : outcomes) counts.record(o);
  return counts;
}

/// Tableau-once path: one symbolic pass records the measurement skeleton,
/// then every shot just flips its seed-derived coins and replays the
/// skeleton — no gates are re-simulated. Coins are consumed in the same
/// program order (one bernoulli(0.5) per random collapse, resets included)
/// as the per-shot path, so counts are bitwise identical to it.
Counts run_tableau_once(const QuantumCircuit& circuit, std::uint64_t seed,
                        int shots) {
  PackedStabilizerState state(circuit.num_qubits());
  struct Event {
    int clbit;
    PackedStabilizerState::Outcome out;
  };
  std::vector<Event> events;
  for (const auto& op : circuit.ops()) {
    switch (op.kind) {
      case OpKind::Measure:
        events.push_back({op.clbits[0], state.measure_symbolic(op.qubits[0])});
        break;
      case OpKind::Reset:
        state.reset_symbolic(op.qubits[0]);
        break;
      case OpKind::Barrier:
        break;
      default:
        state.apply(op);
    }
  }
  const int ncl = circuit.num_clbits();
  const int coins = state.num_coins();
  const std::size_t coin_words = (static_cast<std::size_t>(coins) + 63) / 64;
  std::vector<std::string> outcomes(static_cast<std::size_t>(shots));
  parallel::parallel_for(
      0, static_cast<std::uint64_t>(shots),
      [&](std::uint64_t s0, std::uint64_t s1) {
        std::vector<std::uint64_t> flips(std::max<std::size_t>(coin_words, 1));
        std::vector<int> clbits(static_cast<std::size_t>(ncl));
        for (std::uint64_t s = s0; s < s1; ++s) {
          Rng rng(derive_stream_seed(seed, s));
          std::fill(flips.begin(), flips.end(), 0);
          for (int k = 0; k < coins; ++k)
            if (rng.bernoulli(0.5))
              flips[k >> 6] |= std::uint64_t{1} << (k & 63);
          std::fill(clbits.begin(), clbits.end(), 0);
          for (const Event& e : events)
            clbits[e.clbit] = e.out.value(flips.data(), coin_words);
          outcomes[s] = bits_key(clbits);
        }
      },
      /*serial_cutoff=*/2);
  Counts counts;
  for (const auto& o : outcomes) counts.record(o);
  return counts;
}

}  // namespace

Counts StabilizerSimulator::run(const QuantumCircuit& circuit, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  if (!is_clifford_circuit(circuit))
    throw std::invalid_argument("stabilizer: circuit is not Clifford");
  for (const auto& op : circuit.ops())
    if (op.conditioned())
      // Conditions read per-shot clbits, so which gates run varies by shot;
      // replay the tableau per shot instead of sampling a skeleton.
      return run_per_shot(circuit, seed_, shots);
  return run_tableau_once(circuit, seed_, shots);
}

}  // namespace qtc::sim
