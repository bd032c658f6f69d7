#pragma once
// Stabilizer (Clifford) simulator in the Aaronson-Gottesman tableau
// formalism: polynomial-time simulation of Clifford circuits with
// measurement, the third simulator flavour of an Aer-style portfolio
// (alongside the array and decision-diagram engines). Scales to thousands of
// qubits where the other engines cannot go, but only for the Clifford set.
//
// PackedStabilizerState bit-packs each row's x/z Pauli strings into uint64_t
// words (64 qubits per word, flat row-major storage, 64-byte aligned), so
// the rowsum phase accumulation runs as word-wide XOR/AND sweeps with a
// bit-sliced mod-4 popcount (sim/simd.hpp::stab_rowsum, AVX2 behind
// QTC_SIMD). Memory is 64x smaller than a byte-per-bit tableau. The
// byte-per-bit CHP tableau it replaced lives on as a test-only oracle
// (tests/reference_stabilizer.hpp): after any gate sequence the two must
// agree on stabilizer_strings() bit for bit, and per-shot replay on it must
// reproduce this engine's fixed-seed counts exactly.
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
// one coin per random measurement in program order from the same
// seed-derived per-shot streams, so their counts agree bit for bit.

#include <cstdint>
#include <string>
#include <vector>

#include "core/aligned.hpp"
#include "core/circuit.hpp"
#include "core/rng.hpp"
#include "sim/result.hpp"

namespace qtc::sim {

/// True when `kind` is in the tableau engines' Clifford gate set
/// {I,X,Y,Z,H,S,Sdg,SX,SXdg,CX,CY,CZ,SWAP}. The single source of truth
/// shared by is_clifford_circuit, PackedStabilizerState::apply and the engine
/// dispatcher's circuit profile — a new Clifford opcode lands everywhere by
/// extending this one predicate.
bool is_clifford_kind(OpKind kind);

/// True when every unitary gate in the circuit satisfies is_clifford_kind.
bool is_clifford_circuit(const QuantumCircuit& circuit);

/// Bit-packed word-parallel CHP tableau: n destabilizer rows then n
/// stabilizer rows (plus a scratch row), each a Pauli string with a sign
/// bit, packed 64 qubits per uint64_t word; the rowsum phase sum runs
/// word-wide. Beyond the concrete measure/reset API it offers a
/// *symbolic* mode where each random measurement allocates a fresh coin
/// variable and every row phase is tracked as an affine GF(2) function of
/// the coins — the substrate of tableau-once shot sampling: Clifford gates
/// only XOR phases, so outcome dependence on coins stays linear, and a
/// single symbolic pass yields the exact outcome distribution of every shot.
class PackedStabilizerState {
 public:
  /// Memory is n^2/2 bits per tableau half; 32768 qubits caps the state at
  /// ~512 MiB (a byte-per-bit tableau's 4096-qubit cap held ~67 MiB — 64x
  /// denser rows buy an 8x taller cap at equal memory).
  static constexpr int kMaxQubits = 32768;

  explicit PackedStabilizerState(int num_qubits);

  int num_qubits() const { return n_; }

  // Generators (exact phase tracking); everything else composes from these,
  // in fixed compositions so generator sets (not just stabilizer groups)
  // are reproducible.
  void h(int q);
  void s(int q);
  void cx(int control, int target);

  void sdg(int q) { s(q), s(q), s(q); }
  void z(int q) { s(q), s(q); }
  void x(int q) { h(q), z(q), h(q); }
  void y(int q) { s(q), x(q), sdg(q); }
  void sx(int q) { h(q), s(q), h(q); }       // up to global phase
  void sxdg(int q) { h(q), sdg(q), h(q); }   // up to global phase
  void cz(int control, int target) { h(target), cx(control, target), h(target); }
  void cy(int control, int target) { sdg(target), cx(control, target), s(target); }
  void swap(int a, int b) { cx(a, b), cx(b, a), cx(a, b); }

  /// Apply a Clifford operation from the IR; throws on non-Clifford gates.
  void apply(const Operation& op);

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
  int find_anticommuting(int q) const;
  /// row[into] *= row[from]: word-wide x/z XOR plus the bit-sliced mod-4
  /// phase sum (simd::stab_rowsum); symbolic phase rows XOR alongside.
  void rowsum(int into, int from);
  /// Shared random-collapse plumbing: rowsum all anticommuting rows into p,
  /// demote p to its destabilizer slot, re-point row p at Z_q with zero
  /// phase. The caller then writes the coin (concrete bit or symbolic var).
  void collapse(int p, int q);
  /// Accumulate the deterministic outcome into the scratch row's phase.
  void accumulate_deterministic(int q);
  void grow_phase_words(int new_pw);

  std::uint64_t* xrow(int i) { return x_.data() + std::size_t(i) * words_; }
  std::uint64_t* zrow(int i) { return z_.data() + std::size_t(i) * words_; }
  std::uint64_t* phrow(int i) { return ph_.data() + std::size_t(i) * pw_; }
  const std::uint64_t* xrow(int i) const {
    return x_.data() + std::size_t(i) * words_;
  }
  const std::uint64_t* zrow(int i) const {
    return z_.data() + std::size_t(i) * words_;
  }
  const std::uint64_t* phrow(int i) const {
    return ph_.data() + std::size_t(i) * pw_;
  }

  int n_ = 0;
  int words_ = 0;      // 64-qubit words per x/z row
  int rows_ = 0;       // 2n + 1 (scratch row last)
  int pw_ = 1;         // phase words per row: word 0 = constant sign (bit 0),
                       // words 1.. = coin coefficients (coin k at word
                       // 1 + k/64, bit k%64)
  int num_coins_ = 0;
  // Flat row-major, 64-byte aligned: row i occupies [i*words_, (i+1)*words_).
  aligned_vector<std::uint64_t> x_, z_;
  aligned_vector<std::uint64_t> ph_;
};

/// Shot-based executor with full measure/reset/conditional support. Shots
/// run on seed-derived per-shot RNG streams (core/rng.hpp::
/// derive_stream_seed) like every other engine, so repeated run() calls and
/// fresh simulators with the same seed are bitwise reproducible; the shot
/// loop parallelizes on core/parallel.hpp. Unconditioned circuits sample
/// all shots from one symbolic tableau pass (see file header); conditioned
/// circuits replay the tableau per shot.
class StabilizerSimulator {
 public:
  explicit StabilizerSimulator(std::uint64_t seed = 0xC0FFEE) : seed_(seed) {}
  Counts run(const QuantumCircuit& circuit, int shots = 1024);

 private:
  std::uint64_t seed_;
};

}  // namespace qtc::sim
