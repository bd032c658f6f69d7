#pragma once
// SIMD kernel layer for the fused statevector pipeline: vectorized complex
// arithmetic for the hot per-amplitude loops (1q pair sweep, CX swap,
// diagonal scale, dense k-qubit matvec, permutation phase multiply), with
// runtime CPU dispatch. The library is compiled for the baseline ISA; the
// AVX2 (x86-64) and NEON (AArch64) paths are per-function target-attributed
// and only entered when core::cpu_features() reports support.
//
// Determinism contract (load-bearing — the repo's thread-invariance tests
// depend on it): every vector path performs the same IEEE-754 operations in
// the same per-element order as the scalar reference loop — complex
// multiplies expand to the textbook mul/mul/sub + mul/mul/add with NO
// fused-multiply-add contraction — so a range is free to be cut anywhere by
// the parallel scheduler and partially executed scalar (head/tail elements)
// without changing a single bit of the result. The scalar loops themselves
// are the pre-SIMD statevector kernels, verbatim.
//
// Knobs (mirroring QTC_FUSION):
//   QTC_SIMD  on by default when the CPU supports a vector path;
//             "0"/"off"/"false"/"no" forces the scalar reference loops
// set_simd_enabled overrides the environment programmatically (tests and
// benchmarks compare scalar and vector kernels in one process). Building
// with -DQTC_DISABLE_SIMD compiles the vector paths out entirely.

#include <cstddef>
#include <cstdint>

#include "core/types.hpp"

namespace qtc::sim::simd {

/// Instruction set a kernel call runs with. Scalar is always valid.
enum class Isa { Scalar, Avx2, Neon };

const char* isa_name(Isa isa);

/// True when this build contains a vector path the host CPU can execute.
bool vector_available();

/// Effective on/off: programmatic override wins over QTC_SIMD, which wins
/// over the default (on). An enabled knob still yields Isa::Scalar when no
/// vector path is available.
bool simd_enabled();
/// Force SIMD on (1) / off (0); -1 restores the env/default behavior.
/// A Statevector built earlier keeps the ISA it resolved when it was built.
void set_simd_enabled(int enabled);

/// The path kernel calls take right now: the best available vector ISA when
/// simd_enabled(), Isa::Scalar otherwise. Reads the knob, so callers
/// resolve it once and pass it down: a Statevector when it is built, the
/// stabilizer tableau once per measurement.
Isa select();

// --- kernel entry points -----------------------------------------------------
// Each call processes a sub-range of the canonical kernel loop; callers
// chunk via parallel_for and pass disjoint ranges.

/// 2x2 gate on qubit `mask`'s position over pair-groups [g0, g1): the
/// canonical pair loop amp[i], amp[i|mask] for i = insert_zero_bit(g, mask).
void apply_1q_range(Isa isa, cplx* amp, std::uint64_t g0, std::uint64_t g1,
                    std::uint64_t mask, cplx m00, cplx m01, cplx m10,
                    cplx m11);

/// CX over pair-groups [g0, g1): swap amp[i] <-> amp[i|tmask] where the
/// control bit of i reads 1.
void apply_cx_range(Isa isa, cplx* amp, std::uint64_t g0, std::uint64_t g1,
                    std::uint64_t cmask, std::uint64_t tmask);

/// amp[i] *= d over the contiguous stretch [i0, i0+len) — the diagonal
/// kernel's segment body.
void scale_range(Isa isa, cplx* amp, std::uint64_t i0, std::uint64_t len,
                 cplx d);

/// Dense complex matrix-vector product out[r] = sum_c m[r*dim+c] * in[c]
/// (row-major m) — the gather/scatter kernels' arithmetic core. Rows
/// accumulate in column order exactly like the scalar loop.
void matvec(Isa isa, const cplx* m, const cplx* in, cplx* out,
            std::size_t dim);

/// Two independent matvecs with the same matrix, inputs interleaved lanewise:
/// in2[2c] / in2[2c+1] are column c of vector A / B, out2[2r] / out2[2r+1]
/// row r of the results. This is the vector-friendly layout for the
/// gather/scatter kernels — each AVX2 lane carries one group, the matrix
/// element broadcasts, and all loads are contiguous (the strided
/// one-group-at-a-time row gather measured slower than scalar). Each lane's
/// accumulation runs in column order like the scalar loop.
void matvec2(Isa isa, const cplx* m, const cplx* in2, cplx* out2,
             std::size_t dim);

/// out[j] = a[j] * b[j] elementwise — the permutation kernel's phase
/// multiply.
void cmul(Isa isa, const cplx* a, const cplx* b, cplx* out, std::size_t n);

/// Stabilizer-tableau rowsum sweep over bit-packed Pauli rows (64 qubits per
/// word): XORs the source row into the destination row (x_dst ^= x_src,
/// z_dst ^= z_src) and returns the Aaronson-Gottesman phase-exponent sum
/// sum_j g(x_src_j, z_src_j, x_dst_j, z_dst_j) mod 4, evaluated on the
/// destination bits BEFORE the XOR. The mod-4 sum is accumulated with the
/// bit-sliced two-bit-counter trick — per-lane (ones, twos) planes updated
/// by carry/borrow logic, folded with popcount at the end — so the result
/// is exact integer arithmetic and the scalar and AVX2 paths agree
/// bit for bit by construction.
int stab_rowsum(Isa isa, const std::uint64_t* x_src,
                const std::uint64_t* z_src, std::uint64_t* x_dst,
                std::uint64_t* z_dst, std::size_t words);

}  // namespace qtc::sim::simd
