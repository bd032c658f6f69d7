#include "sim/stabilizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/types.hpp"
#include "sim/simulator.hpp"

namespace qtc::sim {

int rz_quarter_turns(double theta) {
  const double turns = theta / (PI / 2);
  const double k = std::nearbyint(turns);
  if (!(std::abs(theta - k * (PI / 2)) <= kCliffordAngleTolerance)) return -1;
  return static_cast<int>(std::fmod(k, 4.0) + 4.0) & 3;
}

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
    case OpKind::ECR:
      return true;
    default:
      return false;
  }
}

bool is_clifford_op(const Operation& op) {
  if (op.kind == OpKind::RZ) return rz_quarter_turns(op.params[0]) >= 0;
  return is_clifford_kind(op.kind);
}

bool is_clifford_circuit(const QuantumCircuit& circuit) {
  for (const auto& op : circuit.ops()) {
    if (!op_is_unitary(op.kind)) continue;
    if (!is_clifford_op(op)) return false;
  }
  return true;
}

// --- in-place 64x64 block transpose -----------------------------------------

namespace {

/// One round of the 64x64 block transpose: swaps the off-diagonal J x J
/// sub-blocks of every 2J x 2J diagonal block (mask m selects the low J
/// bits of each 2J-bit lane).
template <int J>
inline void transpose_round(std::uint64_t* a, std::uint64_t m) {
  for (int base = 0; base < 64; base += 2 * J)
    for (int k = base; k < base + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & m;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
}

/// Transposes a 64x64 bit block held as 64 words (bit c of word r is entry
/// (r, c)): six rounds of masked swaps, halving the swapped square each
/// round (Hacker's Delight 7-3, least significant bit first).
void transpose64(std::uint64_t* a) {
  transpose_round<32>(a, 0x00000000FFFFFFFFull);
  transpose_round<16>(a, 0x0000FFFF0000FFFFull);
  transpose_round<8>(a, 0x00FF00FF00FF00FFull);
  transpose_round<4>(a, 0x0F0F0F0F0F0F0F0Full);
  transpose_round<2>(a, 0x3333333333333333ull);
  transpose_round<1>(a, 0x5555555555555555ull);
}

}  // namespace

namespace detail {

void transpose_bit_matrix(std::uint64_t* m, int blocks) {
  // Blocks of zeros (padding, and the untouched qubits of a routed circuit)
  // skip the transpose itself.
  const std::size_t stride = static_cast<std::size_t>(blocks);
  std::uint64_t a[64], b[64];
  for (int r = 0; r < blocks; ++r) {
    for (int c = r; c < blocks; ++c) {
      std::uint64_t* pa = m + std::size_t(64) * r * stride + c;
      std::uint64_t* pb = m + std::size_t(64) * c * stride + r;
      std::uint64_t any_a = 0, any_b = 0;
      for (int i = 0; i < 64; ++i) any_a |= a[i] = pa[i * stride];
      if (c == r) {
        if (!any_a) continue;
        transpose64(a);
        for (int i = 0; i < 64; ++i) pa[i * stride] = a[i];
        continue;
      }
      for (int i = 0; i < 64; ++i) any_b |= b[i] = pb[i * stride];
      if (!any_a && !any_b) continue;
      if (any_a) transpose64(a);
      if (any_b) transpose64(b);
      for (int i = 0; i < 64; ++i) {
        pa[i * stride] = b[i];
        pb[i * stride] = a[i];
      }
    }
  }
}

}  // namespace detail

// --- bit-packed tableau: layout ---------------------------------------------

PackedStabilizerState::PackedStabilizerState(int num_qubits) : n_(num_qubits) {
  if (num_qubits < 1 || num_qubits > kMaxQubits)
    throw std::invalid_argument("stabilizer: unsupported qubit count");
  qw_ = (n_ + 63) / 64;
  k_ = 2 * qw_;
  cw_ = (2 * n_ + 63) / 64;
  tab_.assign(std::size_t(64) * k_ * k_, 0);
  sign_.assign(std::size_t(cw_), 0);
  scratch_.assign(std::size_t(k_), 0);
  ph_.assign(std::size_t(2 * n_ + 1) * pw_, 0);
  // Columns layout: destabilizer row i is X_i, stabilizer row n+i is Z_i.
  for (int i = 0; i < n_; ++i) {
    xcol(i)[i >> 6] |= std::uint64_t{1} << (i & 63);
    zcol(i)[(n_ + i) >> 6] |= std::uint64_t{1} << ((n_ + i) & 63);
  }
}

void PackedStabilizerState::to_rows() {
  if (layout_ == Layout::Rows) return;
  detail::transpose_bit_matrix(tab_.data(), k_);
  for (int i = 0; i < 2 * n_; ++i)
    phrow(i)[0] = (sign_[i >> 6] >> (i & 63)) & 1;
  layout_ = Layout::Rows;
}

void PackedStabilizerState::to_columns() {
  if (layout_ == Layout::Columns) return;
  detail::transpose_bit_matrix(tab_.data(), k_);
  std::fill(sign_.begin(), sign_.end(), 0);
  for (int i = 0; i < 2 * n_; ++i)
    sign_[i >> 6] |= (phrow(i)[0] & 1) << (i & 63);
  layout_ = Layout::Columns;
}

bool PackedStabilizerState::xbit(int i, int q) const {
  if (layout_ == Layout::Rows) return (xrow(i)[q >> 6] >> (q & 63)) & 1;
  return (tab_[std::size_t(q) * k_ + (i >> 6)] >> (i & 63)) & 1;
}

bool PackedStabilizerState::zbit(int i, int q) const {
  if (layout_ == Layout::Rows) return (zrow(i)[q >> 6] >> (q & 63)) & 1;
  return (tab_[(std::size_t(64) * qw_ + q) * k_ + (i >> 6)] >> (i & 63)) & 1;
}

// --- gates: per-word update rules -------------------------------------------
//
// Each gate is the CHP update of one row, written on words: r is the sign,
// x/z the gate qubits' bits. In Columns layout a word carries 64 rows; rows
// past 2n are zero and stay zero (every sign term is a product of x/z bits).
// In Rows layout update() feeds one row at a time with the bits in bit 0,
// where the same rules hold.

namespace {

using Word = std::uint64_t;

// Rules other than h, s and cx equal the generator compositions noted
// beside them (the conjugation action is unique up to global phase).
constexpr auto h_rule = [](Word& r, Word& x, Word& z) {
  r ^= x & z;
  std::swap(x, z);
};
constexpr auto s_rule = [](Word& r, Word& x, Word& z) {
  r ^= x & z;
  z ^= x;
};
constexpr auto sdg_rule = [](Word& r, Word& x, Word& z) {  // s, s, s
  r ^= x & ~z;
  z ^= x;
};
constexpr auto sx_rule = [](Word& r, Word& x, Word& z) {  // h, s, h
  r ^= z & ~x;
  x ^= z;
};
constexpr auto sxdg_rule = [](Word& r, Word& x, Word& z) {  // h, sdg, h
  r ^= x & z;
  x ^= z;
};
// Paulis only flip signs: X anticommutes with Z and Y, Z with X and Y.
constexpr auto x_rule = [](Word& r, Word&, Word& z) { r ^= z; };
constexpr auto y_rule = [](Word& r, Word& x, Word& z) { r ^= x ^ z; };
constexpr auto z_rule = [](Word& r, Word& x, Word&) { r ^= x; };
constexpr auto cx_rule = [](Word& r, Word& xc, Word& zc, Word& xt, Word& zt) {
  r ^= xc & zt & ~(xt ^ zc);
  xt ^= xc;
  zc ^= zt;
};
// cz(a, b) = h(b), cx(a, b), h(b)
constexpr auto cz_rule = [](Word& r, Word& xa, Word& za, Word& xb, Word& zb) {
  r ^= xa & xb & (za ^ zb);
  za ^= xb;
  zb ^= xa;
};
// cy(c, t) = sdg(t), cx(c, t), s(t); ecr(a, b) = x(a), sdg(a), sxdg(b),
// cx(a, b).
constexpr auto cy_rule = [](Word& r, Word& xc, Word& zc, Word& xt, Word& zt) {
  sdg_rule(r, xt, zt);
  cx_rule(r, xc, zc, xt, zt);
  s_rule(r, xt, zt);
};
constexpr auto swap_rule = [](Word&, Word& xa, Word& za, Word& xb, Word& zb) {
  std::swap(xa, xb);
  std::swap(za, zb);
};
constexpr auto ecr_rule = [](Word& r, Word& xa, Word& za, Word& xb, Word& zb) {
  x_rule(r, xa, za);
  sdg_rule(r, xa, za);
  sxdg_rule(r, xb, zb);
  cx_rule(r, xa, za, xb, zb);
};

}  // namespace

template <typename Rule>
void PackedStabilizerState::update(int q, Rule rule) {
  if (layout_ == Layout::Columns) {
    Word* __restrict r = sign_.data();
    Word* __restrict x = xcol(q);
    Word* __restrict z = zcol(q);
    for (int w = 0; w < cw_; ++w) rule(r[w], x[w], z[w]);
    return;
  }
  // Rows: rule on bit 0 copies, then XOR the changes back in place.
  const int wq = q >> 6, sq = q & 63;
  Word* xr = tab_.data() + wq;
  Word* ph = ph_.data();
  for (int i = 0; i < 2 * n_; ++i, xr += k_, ph += pw_) {
    const Word x0 = (xr[0] >> sq) & 1, z0 = (xr[qw_] >> sq) & 1;
    Word r = 0, x = x0, z = z0;
    rule(r, x, z);
    ph[0] ^= r;
    xr[0] ^= (x ^ x0) << sq;
    xr[qw_] ^= (z ^ z0) << sq;
  }
}

template <typename Rule>
void PackedStabilizerState::update(int a, int b, Rule rule) {
  if (layout_ == Layout::Columns) {
    Word* __restrict r = sign_.data();
    Word* __restrict xa = xcol(a);
    Word* __restrict za = zcol(a);
    Word* __restrict xb = xcol(b);
    Word* __restrict zb = zcol(b);
    for (int w = 0; w < cw_; ++w) rule(r[w], xa[w], za[w], xb[w], zb[w]);
    return;
  }
  const int wa = a >> 6, sa = a & 63, wb = b >> 6, sb = b & 63;
  Word* xr = tab_.data();
  Word* ph = ph_.data();
  for (int i = 0; i < 2 * n_; ++i, xr += k_, ph += pw_) {
    Word* zr = xr + qw_;
    const Word xa0 = (xr[wa] >> sa) & 1, za0 = (zr[wa] >> sa) & 1;
    const Word xb0 = (xr[wb] >> sb) & 1, zb0 = (zr[wb] >> sb) & 1;
    Word r = 0, xa = xa0, za = za0, xb = xb0, zb = zb0;
    rule(r, xa, za, xb, zb);
    ph[0] ^= r;
    xr[wa] ^= (xa ^ xa0) << sa;
    zr[wa] ^= (za ^ za0) << sa;
    xr[wb] ^= (xb ^ xb0) << sb;
    zr[wb] ^= (zb ^ zb0) << sb;
  }
}

void PackedStabilizerState::gate(OpKind kind, int a, int b) {
  switch (kind) {
    case OpKind::I:
      return;
    case OpKind::X:
      return update(a, x_rule);
    case OpKind::Y:
      return update(a, y_rule);
    case OpKind::Z:
      return update(a, z_rule);
    case OpKind::H:
      return update(a, h_rule);
    case OpKind::S:
      return update(a, s_rule);
    case OpKind::Sdg:
      return update(a, sdg_rule);
    case OpKind::SX:
      return update(a, sx_rule);
    case OpKind::SXdg:
      return update(a, sxdg_rule);
    case OpKind::CX:
      return update(a, b, cx_rule);
    case OpKind::CY:
      return update(a, b, cy_rule);
    case OpKind::CZ:
      return update(a, b, cz_rule);
    case OpKind::SWAP:
      return update(a, b, swap_rule);
    case OpKind::ECR:
      return update(a, b, ecr_rule);
    default:
      throw std::invalid_argument(std::string("stabilizer: non-Clifford op ") +
                                  op_name(kind));
  }
}

void PackedStabilizerState::apply_run(std::span<const Operation* const> ops) {
  // From Rows, a run of g gates costs ~2n row steps each in place, against
  // two transposes of k^2 blocks if it switches to Columns and back; a
  // block transpose costs about kRowStepsPerBlock row steps (~200 ns with
  // its strided gather and scatter, against ~3.5 ns for a CX row step, on
  // a 4-vCPU AVX2 Xeon).
  constexpr std::size_t kRowStepsPerBlock = 56;
  if (layout_ == Layout::Columns ||
      ops.size() * 2 * std::size_t(n_) >
          2 * std::size_t(k_) * std::size_t(k_) * kRowStepsPerBlock)
    to_columns();
  static constexpr OpKind kPowersOfS[] = {OpKind::I, OpKind::S, OpKind::Z,
                                          OpKind::Sdg};
  for (const Operation* op : ops) {
    if (op->kind == OpKind::Barrier) continue;
    if (!is_clifford_op(*op))
      throw std::invalid_argument(std::string("stabilizer: non-Clifford op ") +
                                  op_name(op->kind));
    const OpKind kind = op->kind == OpKind::RZ
                            ? kPowersOfS[rz_quarter_turns(op->params[0])]
                            : op->kind;
    gate(kind, op->qubits[0], op->qubits.size() > 1 ? op->qubits[1] : -1);
  }
}

// --- measurement and reset: row-major ---------------------------------------

void PackedStabilizerState::rowsum(int into, int from, simd::Isa isa) {
  // Word-wide phase-exponent sum (mod 4) + x/z row XOR in one sweep. The
  // resulting sign is r_into ^ r_from ^ (g_sum/2): the Aaronson-Gottesman
  // invariant guarantees 2*r_into + 2*r_from + g_sum is 0 or 2 mod 4, and
  // that identity holds for every concrete assignment of the symbolic coin
  // phases, so the full affine phase rows simply XOR.
  const int g = simd::stab_rowsum(isa, xrow(from), zrow(from), xrow(into),
                                  zrow(into), static_cast<std::size_t>(qw_));
  std::uint64_t* pi = phrow(into);
  const std::uint64_t* pf = phrow(from);
  for (int wnd = 0; wnd < pw_; ++wnd) pi[wnd] ^= pf[wnd];
  pi[0] ^= static_cast<std::uint64_t>((g >> 1) & 1);
}

int PackedStabilizerState::find_anticommuting(int q) const {
  if (layout_ == Layout::Rows) {
    const int w = q >> 6, sh = q & 63;
    for (int i = n_; i < 2 * n_; ++i)
      if ((xrow(i)[w] >> sh) & 1) return i;
    return -1;
  }
  // First stabilizer row (n..2n-1) set in x column q; rows past 2n are 0.
  const std::uint64_t* col = tab_.data() + std::size_t(q) * k_;
  for (int w = n_ >> 6; w < cw_; ++w) {
    std::uint64_t bits = col[w];
    if (w == (n_ >> 6)) bits &= ~std::uint64_t{0} << (n_ & 63);
    if (bits) return 64 * w + std::countr_zero(bits);
  }
  return -1;
}

bool PackedStabilizerState::is_deterministic(int q) const {
  return find_anticommuting(q) < 0;
}

void PackedStabilizerState::collapse(int p, int q) {
  // One ISA for the whole sweep: the SIMD choice never flips mid-collapse.
  const simd::Isa isa = simd::select();
  const int w = q >> 6, sh = q & 63;
  for (int i = 0; i < 2 * n_; ++i)
    if (i != p && ((xrow(i)[w] >> sh) & 1)) rowsum(i, p, isa);
  std::copy(row(p), row(p) + k_, row(p - n_));
  std::copy(phrow(p), phrow(p) + pw_, phrow(p - n_));
  std::fill(row(p), row(p) + k_, 0);
  std::fill(phrow(p), phrow(p) + pw_, 0);
  zrow(p)[w] |= std::uint64_t{1} << sh;
}

void PackedStabilizerState::accumulate_deterministic(int q) {
  const simd::Isa isa = simd::select();
  const int scratch = 2 * n_;
  const int w = q >> 6, sh = q & 63;
  std::fill(scratch_.begin(), scratch_.end(), 0);
  std::fill(phrow(scratch), phrow(scratch) + pw_, 0);
  for (int i = 0; i < n_; ++i)
    if ((xrow(i)[w] >> sh) & 1) rowsum(scratch, i + n_, isa);
}

void PackedStabilizerState::x_frame(int q, const std::uint64_t* cond) {
  const int w = q >> 6, sh = q & 63;
  for (int i = 0; i < 2 * n_; ++i)
    if ((zrow(i)[w] >> sh) & 1) {
      std::uint64_t* ph = phrow(i);
      for (int j = 0; j < pw_; ++j) ph[j] ^= cond[j];
    }
}

int PackedStabilizerState::measure(int q, Rng& rng) {
  to_rows();
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
  if (measure(q, rng) == 0) return;
  // X on q, applied in the row layout: flip every sign its z bit flips.
  std::vector<std::uint64_t> flip(static_cast<std::size_t>(pw_), 0);
  flip[0] = 1;
  x_frame(q, flip.data());
}

void PackedStabilizerState::grow_phase_words(int new_pw) {
  aligned_vector<std::uint64_t> np(ph_.size() / pw_ * new_pw, 0);
  for (std::size_t i = 0; i < ph_.size() / pw_; ++i)
    std::copy(ph_.begin() + i * pw_, ph_.begin() + i * pw_ + pw_,
              np.begin() + i * new_pw);
  ph_ = std::move(np);
  pw_ = new_pw;
}

PackedStabilizerState::Outcome PackedStabilizerState::measure_symbolic(int q) {
  to_rows();
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
  // at q is set, and conditioning on the affine outcome `o` just XORs o's
  // phase vector in — the x/z bits never change, so the one-pass tableau
  // stays valid.
  std::vector<std::uint64_t> cond(static_cast<std::size_t>(pw_), 0);
  if (o.random) {
    cond[1 + (o.coin >> 6)] = std::uint64_t{1} << (o.coin & 63);
  } else {
    cond[0] = o.base ? 1 : 0;
    std::copy(o.mask.begin(), o.mask.end(), cond.begin() + 1);
  }
  x_frame(q, cond.data());
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
    const bool negative = layout_ == Layout::Rows
                              ? (phrow(i)[0] & 1) != 0
                              : ((sign_[i >> 6] >> (i & 63)) & 1) != 0;
    std::string s = negative ? "-" : "+";
    for (int q = n_ - 1; q >= 0; --q) {
      const bool xb = xbit(i, q), zb = zbit(i, q);
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
/// conditional fallback. The gates between two measurements or resets whose
/// conditions hold on this shot's clbits go to the state as one run
/// (apply_run picks the run's layout).
std::string run_one_shot(const QuantumCircuit& circuit, Rng& rng) {
  PackedStabilizerState state(circuit.num_qubits());
  std::vector<int> clbits(circuit.num_clbits(), 0);
  std::vector<const Operation*> run;
  const auto flush = [&] {
    state.apply_run(run);
    run.clear();
  };
  for (const auto& op : circuit.ops()) {
    if (op.conditioned()) {
      const Register& reg = circuit.cregs()[op.cond_reg];
      if (creg_value(reg, clbits) != op.cond_val) continue;
    }
    switch (op.kind) {
      case OpKind::Measure:
        flush();
        clbits[op.clbits[0]] = state.measure(op.qubits[0], rng);
        break;
      case OpKind::Reset:
        flush();
        state.reset(op.qubits[0], rng);
        break;
      default:
        run.push_back(&op);
    }
  }
  flush();
  return bits_key(clbits);
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
  // A measurement whose qubit no later gate or reset touches commutes with
  // every gate after it, so it waits until the next measurement or reset
  // that cannot wait, or the end: the gates around it then form one run
  // (routed circuits measure each qubit as soon as its last gate is placed,
  // which would otherwise split the gates into a run per measurement).
  // Measurements keep their program order, so coins are allocated in the
  // same order and every outcome is the same affine function of them.
  const std::vector<Operation>& ops = circuit.ops();
  std::vector<bool> can_wait(ops.size(), false);
  std::vector<bool> touched(static_cast<std::size_t>(circuit.num_qubits()),
                            false);
  for (std::size_t i = ops.size(); i-- > 0;) {
    const Operation& op = ops[i];
    if (op.kind == OpKind::Measure)
      can_wait[i] = !touched[static_cast<std::size_t>(op.qubits[0])];
    else if (op.kind != OpKind::Barrier)
      for (Qubit q : op.qubits) touched[static_cast<std::size_t>(q)] = true;
  }
  std::vector<Event> events;
  std::vector<const Operation*> run, waiting;
  const auto flush = [&] {
    state.apply_run(run);
    run.clear();
    for (const Operation* m : waiting)
      events.push_back({m->clbits[0], state.measure_symbolic(m->qubits[0])});
    waiting.clear();
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (op.kind == OpKind::Measure && can_wait[i]) {
      waiting.push_back(&op);
    } else if (op.kind == OpKind::Measure) {
      flush();
      events.push_back({op.clbits[0], state.measure_symbolic(op.qubits[0])});
    } else if (op.kind == OpKind::Reset) {
      flush();
      state.reset_symbolic(op.qubits[0]);
    } else {
      run.push_back(&op);
    }
  }
  flush();
  const int ncl = circuit.num_clbits();
  const int coins = state.num_coins();
  const std::size_t coin_words = (static_cast<std::size_t>(coins) + 63) / 64;
  // The coin words and clbits are per-chunk scratch.
  return sample_shots(seed, shots, [&] {
    return [&, flips = std::vector<std::uint64_t>(
                   std::max<std::size_t>(coin_words, 1)),
            clbits = std::vector<int>(static_cast<std::size_t>(ncl))](
               std::uint64_t, Rng& rng) mutable {
      std::fill(flips.begin(), flips.end(), 0);
      for (int k = 0; k < coins; ++k)
        if (rng.bernoulli(0.5)) flips[k >> 6] |= std::uint64_t{1} << (k & 63);
      std::fill(clbits.begin(), clbits.end(), 0);
      for (const Event& e : events)
        clbits[e.clbit] = e.out.value(flips.data(), coin_words);
      return bits_key(clbits);
    };
  });
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
      return sample_shots(seed_, shots, [&] {
        return [&](std::uint64_t, Rng& rng) {
          return run_one_shot(circuit, rng);
        };
      });
  return run_tableau_once(circuit, seed_, shots);
}

}  // namespace qtc::sim
