#pragma once
// Stabilizer (Clifford) simulator in the Aaronson-Gottesman tableau
// formalism: polynomial-time simulation of Clifford circuits with
// measurement, the third simulator flavour of an Aer-style portfolio
// (alongside the array and decision-diagram engines). Scales to thousands of
// qubits where the other engines cannot go, but only for the Clifford set.
//
// PackedStabilizerState bit-packs the tableau 64 bits per uint64_t word and
// keeps it in one of two layouts. Gates see it qubit-major: every qubit's x
// and z bits are one column of words over the rows, and the constant signs
// one more such column, so H, S and CX are bit-sliced column updates over 64
// rows per word instead of one strided word per row. Measurement, reset and
// the rowsum behind them see it row-major: every row's x/z Pauli string is
// contiguous, so the rowsum phase accumulation runs as word-wide XOR/AND
// sweeps with a bit-sliced mod-4 popcount (sim/simd.hpp::stab_rowsum, AVX2
// behind QTC_SIMD). The state switches layout lazily, by an in-place
// transpose of 64x64 bit blocks, when a gate follows a measurement or a
// measurement follows a gate. Memory is 64x smaller than a byte-per-bit
// tableau. The byte-per-bit CHP tableau it replaced lives on as a test-only
// oracle (tests/reference_stabilizer.hpp): after any gate sequence the two
// must agree on stabilizer_strings() bit for bit, and per-shot replay on it
// must reproduce this engine's fixed-seed counts exactly.
//
// Shot sampling is tableau-once: StabilizerSimulator::run simulates the
// circuit a single time, recording a measurement skeleton — which
// measurements are deterministic and which are coin flips, and how every
// deterministic outcome depends (mod 2) on earlier coins. All shots are then
// sampled by flipping seed-derived per-shot coins and replaying the
// skeleton, so shots are nearly free: O(gates x n/64 + shots x
// measurements) instead of O(shots x gates x n). Classically-conditioned
// circuits fall back to per-shot tableau replay (the condition changes which
// gates run, which the one-pass skeleton cannot capture). Both paths consume
// one coin per random measurement in program order from the same per-shot
// streams of sim::sample_shots, so their counts agree bit for bit.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/aligned.hpp"
#include "core/circuit.hpp"
#include "core/rng.hpp"
#include "sim/result.hpp"
#include "sim/simd.hpp"

namespace qtc::sim {

/// Distance from a multiple of pi/2 within which an RZ angle counts as that
/// multiple: compiled circuits carry RZ(k*pi/2) with last-bit rounding from
/// Euler-angle sums, and a 1e-9 rad slack changes no amplitude that a
/// 64-bit count could show.
inline constexpr double kCliffordAngleTolerance = 1e-9;

/// k in {0,1,2,3} when `theta` is within kCliffordAngleTolerance of
/// k*pi/2 (mod 2*pi), so that RZ(theta) = S^k up to global phase; -1
/// otherwise.
int rz_quarter_turns(double theta);

/// True when `kind` is Clifford at every parameter value: the tableau
/// engines' fixed gate set {I,X,Y,Z,H,S,Sdg,SX,SXdg,CX,CY,CZ,SWAP,ECR}.
bool is_clifford_kind(OpKind kind);

/// True when `op` is a Clifford gate: is_clifford_kind, or RZ at a multiple
/// of pi/2 (rz_quarter_turns). The single source of truth shared by
/// is_clifford_circuit, PackedStabilizerState::apply and the engine
/// dispatcher's circuit profile, so a new Clifford gate lands everywhere by
/// extending this one predicate.
bool is_clifford_op(const Operation& op);

/// True when every unitary gate in the circuit satisfies is_clifford_op.
bool is_clifford_circuit(const QuantumCircuit& circuit);

namespace detail {
/// Transposes, in place, the square bit matrix of side 64*blocks stored
/// row-major with `blocks` words per row (bit b of word w of row i is
/// column 64*w + b): block (r, c) of 64x64 bits swaps with block (c, r),
/// each transposed on the way. Its own inverse.
void transpose_bit_matrix(std::uint64_t* m, int blocks);
}  // namespace detail

/// Bit-packed CHP tableau: n destabilizer rows then n stabilizer rows (plus
/// a scratch row), each a Pauli string with a sign bit. The 2n x 2n bit
/// matrix [x | z] is stored padded to a square of side 64*k (k = 2 words
/// per 64 qubits), in one of two layouts: Columns (qubit-major; word w of
/// x column q holds rows 64w..64w+63, and the signs form one extra column),
/// which the gates update, or Rows (row-major; x then z words of each row
/// contiguous), which measurement and reset use. A layout switch transposes
/// the square in place; it happens only when the next operation needs the
/// other layout, so a circuit that measures only at its end switches once.
///
/// Beyond the concrete measure/reset API it offers a *symbolic* mode where
/// each random measurement allocates a fresh coin variable and every row
/// phase is tracked as an affine GF(2) function of the coins — the
/// substrate of tableau-once shot sampling: Clifford gates only XOR phases,
/// so outcome dependence on coins stays linear, and a single symbolic pass
/// yields the exact outcome distribution of every shot. Gates touch only
/// the constant sign; the coin coefficients stay row-major throughout.
class PackedStabilizerState {
 public:
  /// Memory is n^2/2 bits per tableau half; 32768 qubits caps the state at
  /// ~512 MiB (a byte-per-bit tableau's 4096-qubit cap held ~67 MiB — 64x
  /// denser rows buy an 8x taller cap at equal memory).
  static constexpr int kMaxQubits = 32768;

  enum class Layout { Rows, Columns };

  explicit PackedStabilizerState(int num_qubits);

  int num_qubits() const { return n_; }
  /// The layout the bits sit in now (see the class comment). Observable so
  /// that tests can check that switches happen; results never depend on it.
  Layout layout() const { return layout_; }

  // Clifford gates with exact phase tracking. A tableau update is the
  // gate's conjugation action, which is unique up to global phase, so each
  // gate is one direct update rule rather than a generator composition; the
  // generator sets (not just the stabilizer groups) equal the compositions'
  // bit for bit. Each call switches to the Columns layout.
  void h(int q) { column_gate(OpKind::H, q); }
  void s(int q) { column_gate(OpKind::S, q); }
  void sdg(int q) { column_gate(OpKind::Sdg, q); }
  void x(int q) { column_gate(OpKind::X, q); }
  void y(int q) { column_gate(OpKind::Y, q); }
  void z(int q) { column_gate(OpKind::Z, q); }
  void sx(int q) { column_gate(OpKind::SX, q); }      // up to global phase
  void sxdg(int q) { column_gate(OpKind::SXdg, q); }  // up to global phase
  void cx(int control, int target) {
    column_gate(OpKind::CX, control, target);
  }
  void cz(int a, int b) { column_gate(OpKind::CZ, a, b); }
  void cy(int control, int target) {
    column_gate(OpKind::CY, control, target);
  }
  void swap(int a, int b) { column_gate(OpKind::SWAP, a, b); }
  /// Echoed cross-resonance (core/gates.hpp: 1/sqrt(2) (IX - XY), first
  /// qubit least significant) = CX(a,b) SXdg(b) Sdg(a) X(a) up to phase.
  void ecr(int a, int b) { column_gate(OpKind::ECR, a, b); }

  /// Apply a Clifford operation from the IR, as a run of one (apply_run);
  /// throws unless is_clifford_op.
  void apply(const Operation& op) {
    const Operation* one = &op;
    apply_run({&one, 1});
  }
  /// Apply a run of Clifford operations with no measurement or reset among
  /// them. Knowing the run's length is what picks its layout: from Rows, a
  /// run too short to pay for the transpose to Columns and the one back at
  /// the next measurement is applied row by row in place (the same update
  /// rules, one row per step); otherwise the state switches to Columns.
  void apply_run(std::span<const Operation* const> ops);

  /// Projective Z-basis measurement with a concrete coin from `rng`.
  int measure(int q, Rng& rng);
  /// Measure; if 1, flip back to |0>.
  void reset(int q, Rng& rng);

  bool is_deterministic(int q) const;
  std::vector<std::string> stabilizer_strings() const;

  // --- symbolic mode (tableau-once sampling) --------------------------------

  /// A measurement outcome as an affine GF(2) function of the coin flips
  /// drawn so far: either a fresh fair coin (random collapse) or
  /// base XOR parity(mask AND coins) (deterministic given earlier coins).
  struct Outcome {
    bool random = false;
    int coin = -1;                     // random: index of the fresh coin
    bool base = false;                 // deterministic: constant term
    std::vector<std::uint64_t> mask;   // deterministic: coin k -> bit k

    /// Evaluate under a concrete coin assignment (bit k of `coins` = coin k).
    int value(const std::uint64_t* coins, std::size_t coin_words) const;
  };

  /// Measure qubit q symbolically: collapses the tableau exactly as
  /// measure() would, but a random outcome allocates coin `num_coins()`
  /// instead of consuming an RNG draw. Coins are allocated in program
  /// order — the same order the concrete engines draw them.
  Outcome measure_symbolic(int q);
  /// Symbolic reset: measure_symbolic, then a conditional Pauli-X frame
  /// (phases absorb the coin-dependent flip; x/z bits are untouched).
  void reset_symbolic(int q);

  int num_coins() const { return num_coins_; }

 private:
  void to_rows();
  void to_columns();
  void column_gate(OpKind kind, int a, int b = -1) {
    to_columns();
    gate(kind, a, b);
  }
  /// Applies one Clifford gate in the current layout.
  void gate(OpKind kind, int a, int b);
  /// Applies a per-word update rule to qubit q's (sign, x, z) bits, or
  /// qubits a and b's (sign, xa, za, xb, zb): 64 rows per word in Columns,
  /// one row per step (bits in bit 0) in Rows.
  template <typename Rule>
  void update(int q, Rule rule);
  template <typename Rule>
  void update(int a, int b, Rule rule);

  int find_anticommuting(int q) const;
  /// row[into] *= row[from]: word-wide x/z XOR plus the bit-sliced mod-4
  /// phase sum (simd::stab_rowsum on `isa`); symbolic phase rows XOR
  /// alongside. Rows layout.
  void rowsum(int into, int from, simd::Isa isa);
  /// Shared random-collapse plumbing: rowsum all anticommuting rows into p,
  /// demote p to its destabilizer slot, re-point row p at Z_q with zero
  /// phase. The caller then writes the coin (concrete bit or symbolic var).
  void collapse(int p, int q);
  /// Accumulate the deterministic outcome into the scratch row's phase.
  void accumulate_deterministic(int q);
  /// Flips the sign (all phase words, XOR `cond`) of every row whose z bit
  /// at q is set: a Pauli X on q, conditioned on an affine outcome. Rows.
  void x_frame(int q, const std::uint64_t* cond);
  void grow_phase_words(int new_pw);

  // Rows layout: row i < 2n is k_ words of tab_ (x words, then z words);
  // row 2n, the scratch row, lives apart in scratch_.
  std::uint64_t* row(int i) {
    return i < 2 * n_ ? tab_.data() + std::size_t(i) * k_ : scratch_.data();
  }
  const std::uint64_t* row(int i) const {
    return i < 2 * n_ ? tab_.data() + std::size_t(i) * k_ : scratch_.data();
  }
  std::uint64_t* xrow(int i) { return row(i); }
  std::uint64_t* zrow(int i) { return row(i) + qw_; }
  const std::uint64_t* xrow(int i) const { return row(i); }
  const std::uint64_t* zrow(int i) const { return row(i) + qw_; }
  // Columns layout: x column q is column q of the square, z column q is
  // column 64*qw_ + q; each is k_ words of which the first cw_ hold rows.
  std::uint64_t* xcol(int q) { return tab_.data() + std::size_t(q) * k_; }
  std::uint64_t* zcol(int q) {
    return tab_.data() + (std::size_t(64) * qw_ + q) * k_;
  }
  /// Bit (row i, qubit q) of x or z in either layout.
  bool xbit(int i, int q) const;
  bool zbit(int i, int q) const;

  std::uint64_t* phrow(int i) { return ph_.data() + std::size_t(i) * pw_; }
  const std::uint64_t* phrow(int i) const {
    return ph_.data() + std::size_t(i) * pw_;
  }

  int n_ = 0;
  int qw_ = 0;   // 64-qubit words per x (or z) half of a row
  int k_ = 0;    // 2 * qw_: words per row and per column of the square
  int cw_ = 0;   // words of a column that hold rows: ceil(2n / 64)
  int pw_ = 1;   // phase words per row: word 0 = constant sign (bit 0; in
                 // Columns layout sign_ holds it instead), words 1.. = coin
                 // coefficients (coin k at word 1 + k/64, bit k%64)
  int num_coins_ = 0;
  Layout layout_ = Layout::Columns;
  // (64*k_)^2 bits, 64-byte aligned, in layout_.
  aligned_vector<std::uint64_t> tab_;
  // Columns layout: the constant sign of row i at bit i (cw_ words).
  aligned_vector<std::uint64_t> sign_;
  aligned_vector<std::uint64_t> scratch_;  // k_ words
  aligned_vector<std::uint64_t> ph_;       // (2n + 1) rows of pw_ words
};

/// Shot-based executor with full measure/reset/conditional support. Both
/// paths sample through sim::sample_shots (sim/result.hpp), the seeded shot
/// loop every engine shares, so repeated run() calls and fresh simulators
/// with the same seed are bitwise reproducible at any thread count.
/// Unconditioned circuits sample all shots from one symbolic tableau pass
/// (see file header); conditioned circuits replay the tableau per shot.
class StabilizerSimulator {
 public:
  explicit StabilizerSimulator(std::uint64_t seed = 0xC0FFEE) : seed_(seed) {}
  Counts run(const QuantumCircuit& circuit, int shots = 1024);

 private:
  std::uint64_t seed_;
};

}  // namespace qtc::sim
