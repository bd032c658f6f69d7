#include "sim/simd.hpp"

#include <bit>

#include "core/cpu_features.hpp"
#include "core/knobs.hpp"

// Build-time gate: -DQTC_DISABLE_SIMD strips every vector path (the CI
// simd-off matrix job builds this way and runs the full suite against the
// scalar reference loops).
#if !defined(QTC_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define QTC_SIMD_AVX2 1
#include <immintrin.h>
#endif
#if !defined(QTC_DISABLE_SIMD) && defined(__aarch64__)
#define QTC_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace qtc::sim::simd {

namespace {

/// Splice a 0 bit into `g` at the position of the set bit in `mask` (the
/// canonical pair-loop index expansion; mirrors statevector.cpp).
inline std::uint64_t insert_zero_bit(std::uint64_t g, std::uint64_t mask) {
  const std::uint64_t low = mask - 1;
  return ((g & ~low) << 1) | (g & low);
}

// std::complex<double> is array-compatible with double[2] by the standard
// ([complex.numbers.general]): a cplx* may be reinterpreted as a double*
// addressing {re, im} pairs. This is the one blessed way to hand complex
// storage to vector loads — no type-punning UB.
inline double* flat(cplx* p) { return reinterpret_cast<double*>(p); }
inline const double* flat(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}

// --- scalar reference loops --------------------------------------------------
// Bit-for-bit the pre-SIMD statevector kernels. The vector paths below must
// agree with these per element (see the header contract).

void apply_1q_scalar(cplx* amp, std::uint64_t g0, std::uint64_t g1,
                     std::uint64_t mask, cplx m00, cplx m01, cplx m10,
                     cplx m11) {
  for (std::uint64_t g = g0; g < g1; ++g) {
    const std::uint64_t i = insert_zero_bit(g, mask);
    const cplx a0 = amp[i], a1 = amp[i | mask];
    amp[i] = m00 * a0 + m01 * a1;
    amp[i | mask] = m10 * a0 + m11 * a1;
  }
}

void apply_cx_scalar(cplx* amp, std::uint64_t g0, std::uint64_t g1,
                     std::uint64_t cmask, std::uint64_t tmask) {
  for (std::uint64_t g = g0; g < g1; ++g) {
    const std::uint64_t i = insert_zero_bit(g, tmask);
    if (i & cmask) std::swap(amp[i], amp[i | tmask]);
  }
}

void scale_scalar(cplx* amp, std::uint64_t i0, std::uint64_t len, cplx d) {
  for (std::uint64_t i = i0; i < i0 + len; ++i) amp[i] *= d;
}

void matvec_scalar(const cplx* m, const cplx* in, cplx* out, std::size_t dim) {
  for (std::size_t r = 0; r < dim; ++r) {
    cplx acc{0, 0};
    for (std::size_t c = 0; c < dim; ++c) acc += m[r * dim + c] * in[c];
    out[r] = acc;
  }
}

void matvec2_scalar(const cplx* m, const cplx* in2, cplx* out2,
                    std::size_t dim) {
  for (std::size_t r = 0; r < dim; ++r) {
    cplx acc_a{0, 0}, acc_b{0, 0};
    for (std::size_t c = 0; c < dim; ++c) {
      const cplx mv = m[r * dim + c];
      acc_a += mv * in2[2 * c];
      acc_b += mv * in2[2 * c + 1];
    }
    out2[2 * r] = acc_a;
    out2[2 * r + 1] = acc_b;
  }
}

void cmul_scalar(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] * b[j];
}

// Stabilizer rowsum: per qubit j the Aaronson-Gottesman g exponent of
// multiplying source Pauli (x1,z1) onto destination Pauli (x2,z2) is
// +1/0/-1; boolean planes `pos`/`neg` mark the +1/-1 lanes of a whole word
// and feed a bit-sliced mod-4 counter: per-lane (ones, twos) planes where
// adding 1 is carry = ones&pos; ones ^= pos; twos ^= carry and subtracting 1
// is borrow = ~ones&neg; ones ^= neg; twos ^= borrow. The final sum mod 4 is
// popcount(ones) + 2*popcount(twos). Exact integer arithmetic — every path
// is bitwise identical by construction.

void stab_rowsum_tail(const std::uint64_t* x1, const std::uint64_t* z1,
                      std::uint64_t* x2, std::uint64_t* z2, std::size_t w0,
                      std::size_t words, std::uint64_t& ones,
                      std::uint64_t& twos) {
  for (std::size_t w = w0; w < words; ++w) {
    const std::uint64_t a = x1[w], b = z1[w], c = x2[w], d = z2[w];
    const std::uint64_t pos =
        (a & b & d & ~c) | (a & ~b & c & d) | (~a & b & c & ~d);
    const std::uint64_t neg =
        (a & b & c & ~d) | (a & ~b & d & ~c) | (~a & b & c & d);
    const std::uint64_t carry = ones & pos;
    ones ^= pos;
    twos ^= carry;
    const std::uint64_t borrow = ~ones & neg;
    ones ^= neg;
    twos ^= borrow;
    x2[w] = c ^ a;
    z2[w] = d ^ b;
  }
}

int stab_rowsum_scalar(const std::uint64_t* x1, const std::uint64_t* z1,
                       std::uint64_t* x2, std::uint64_t* z2,
                       std::size_t words) {
  std::uint64_t ones = 0, twos = 0;
  stab_rowsum_tail(x1, z1, x2, z2, 0, words, ones, twos);
  return static_cast<int>(
      (static_cast<unsigned>(std::popcount(ones)) +
       2u * static_cast<unsigned>(std::popcount(twos))) &
      3u);
}

#if defined(QTC_SIMD_AVX2)

// --- AVX2 path ---------------------------------------------------------------
// Two complex doubles per __m256d. Complex multiply expands to
// mul/mul/addsub — the same three IEEE roundings, on the same values, as the
// scalar (a.re*b.re - a.im*b.im, a.im*b.re + a.re*b.im); deliberately no
// FMA, which would contract two roundings into one and break the bitwise
// scalar/vector agreement the thread-invariance contract rests on.

#define QTC_AVX2 __attribute__((target("avx2")))

QTC_AVX2 inline __m256d cmul2(__m256d a, __m256d b) {
  const __m256d b_re = _mm256_movedup_pd(b);       // [b.re, b.re] per lane
  const __m256d b_im = _mm256_permute_pd(b, 0xF);  // [b.im, b.im] per lane
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // [a.im, a.re] per lane
  // even: a.re*b.re - a.im*b.im   odd: a.im*b.re + a.re*b.im
  return _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(a_sw, b_im));
}

QTC_AVX2 inline __m256d bcast(const cplx& v) {
  // Reference, not by-value: broadcasting an in-memory matrix element must
  // compile to one vbroadcastf128 from its home address. A by-value copy
  // makes GCC spill it with two scalar stores and reload 16 bytes — a
  // store-forwarding stall per element that erased the whole matvec win.
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&v));
}

/// One vector step of the pair loop: two groups whose a0 (resp. a1)
/// amplitudes sit at consecutive addresses p0 (resp. p1).
QTC_AVX2 inline void pair_step2(double* p0, double* p1, __m256d m00,
                                __m256d m01, __m256d m10, __m256d m11) {
  const __m256d a0 = _mm256_loadu_pd(p0);
  const __m256d a1 = _mm256_loadu_pd(p1);
  _mm256_storeu_pd(
      p0, _mm256_add_pd(cmul2(a0, m00), cmul2(a1, m01)));
  _mm256_storeu_pd(
      p1, _mm256_add_pd(cmul2(a0, m10), cmul2(a1, m11)));
}

QTC_AVX2 void apply_1q_avx2(cplx* amp, std::uint64_t g0, std::uint64_t g1,
                            std::uint64_t mask, cplx cm00, cplx cm01,
                            cplx cm10, cplx cm11) {
  const __m256d m00 = bcast(cm00), m01 = bcast(cm01);
  const __m256d m10 = bcast(cm10), m11 = bcast(cm11);
  double* a = flat(amp);
  if (mask == 1) {
    // Gate on qubit 0: each group's (a0, a1) pair is interleaved in memory.
    // Load two groups (4 complex), split them into an a0 vector and an a1
    // vector with 128-bit lane shuffles, compute, and re-interleave.
    std::uint64_t g = g0;
    for (; g + 1 < g1; g += 2) {
      double* p = a + 4 * g;
      const __m256d v0 = _mm256_loadu_pd(p);      // [a0, a1] of group g
      const __m256d v1 = _mm256_loadu_pd(p + 4);  // [a0, a1] of group g+1
      const __m256d a0 = _mm256_permute2f128_pd(v0, v1, 0x20);
      const __m256d a1 = _mm256_permute2f128_pd(v0, v1, 0x31);
      const __m256d r0 = _mm256_add_pd(cmul2(a0, m00), cmul2(a1, m01));
      const __m256d r1 = _mm256_add_pd(cmul2(a0, m10), cmul2(a1, m11));
      _mm256_storeu_pd(p, _mm256_permute2f128_pd(r0, r1, 0x20));
      _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(r0, r1, 0x31));
    }
    if (g < g1) apply_1q_scalar(amp, g, g1, mask, cm00, cm01, cm10, cm11);
    return;
  }
  // Gate on a higher qubit: consecutive groups within a stretch of `mask`
  // address consecutive amplitudes in both halves of the pair.
  std::uint64_t g = g0;
  while (g < g1) {
    const std::uint64_t stretch_end =
        std::min(g1, (g & ~(mask - 1)) + mask);
    std::uint64_t i = insert_zero_bit(g, mask);
    for (; g + 1 < stretch_end; g += 2, i += 2)
      pair_step2(a + 2 * i, a + 2 * (i | mask), m00, m01, m10, m11);
    if (g < stretch_end) {
      apply_1q_scalar(amp, g, stretch_end, mask, cm00, cm01, cm10, cm11);
      g = stretch_end;
    }
  }
}

QTC_AVX2 inline void swap_block_avx2(double* x, double* y, std::uint64_t len) {
  // len complex values; pure moves, so any width decomposition is exact.
  std::uint64_t j = 0;
  for (; j + 2 <= len; j += 2) {
    const __m256d vx = _mm256_loadu_pd(x + 2 * j);
    const __m256d vy = _mm256_loadu_pd(y + 2 * j);
    _mm256_storeu_pd(x + 2 * j, vy);
    _mm256_storeu_pd(y + 2 * j, vx);
  }
  for (; j < len; ++j) {
    const double r = x[2 * j], im = x[2 * j + 1];
    x[2 * j] = y[2 * j];
    x[2 * j + 1] = y[2 * j + 1];
    y[2 * j] = r;
    y[2 * j + 1] = im;
  }
}

QTC_AVX2 void apply_cx_avx2(cplx* amp, std::uint64_t g0, std::uint64_t g1,
                            std::uint64_t cmask, std::uint64_t tmask) {
  if (tmask == 1) {  // target is qubit 0: swapped pairs are adjacent; the
    apply_cx_scalar(amp, g0, g1, cmask, tmask);  // scalar moves are already
    return;                                      // as fast as it gets
  }
  double* a = flat(amp);
  std::uint64_t g = g0;
  while (g < g1) {
    const std::uint64_t stretch_end =
        std::min(g1, (g & ~(tmask - 1)) + tmask);
    const std::uint64_t i0 = insert_zero_bit(g, tmask);
    const std::uint64_t count = stretch_end - g;
    if (cmask > tmask) {
      // Control bit is above the varying low bits: constant on the stretch.
      if (i0 & cmask)
        swap_block_avx2(a + 2 * i0, a + 2 * (i0 | tmask), count);
    } else {
      // Control bit varies inside the stretch: swap the aligned sub-runs on
      // which it reads 1.
      std::uint64_t i = i0;
      const std::uint64_t end = i0 + count;
      while (i < end) {
        const std::uint64_t run =
            std::min(end - i, cmask - (i & (cmask - 1)));
        if (i & cmask) swap_block_avx2(a + 2 * i, a + 2 * (i + tmask), run);
        i += run;
      }
    }
    g = stretch_end;
  }
}

QTC_AVX2 void scale_avx2(cplx* amp, std::uint64_t i0, std::uint64_t len,
                         cplx d) {
  const __m256d dv = bcast(d);
  double* a = flat(amp) + 2 * i0;
  std::uint64_t j = 0;
  for (; j + 2 <= len; j += 2) {
    const __m256d v = _mm256_loadu_pd(a + 2 * j);
    _mm256_storeu_pd(a + 2 * j, cmul2(v, dv));
  }
  if (j < len) scale_scalar(amp, i0 + j, len - j, d);
}

QTC_AVX2 void matvec2_avx2(const cplx* m, const cplx* in2, cplx* out2,
                           std::size_t dim) {
  // One group per 128-bit lane: the matrix element broadcasts across lanes
  // and the interleaved input/output loads are contiguous, so the only
  // per-element work is the broadcast + cmul2 + add. Two rows in flight to
  // keep two accumulator dependency chains going. Each lane accumulates its
  // group's row in column order, matching the scalar loop bit for bit.
  const double* id = flat(in2);
  std::size_t r = 0;
  for (; r + 2 <= dim; r += 2) {
    const cplx* row0 = m + r * dim;
    const cplx* row1 = row0 + dim;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t c = 0; c < dim; ++c) {
      const __m256d av = _mm256_loadu_pd(id + 4 * c);  // [A_c, B_c]
      acc0 = _mm256_add_pd(acc0, cmul2(av, bcast(row0[c])));
      acc1 = _mm256_add_pd(acc1, cmul2(av, bcast(row1[c])));
    }
    _mm256_storeu_pd(flat(out2) + 4 * r, acc0);
    _mm256_storeu_pd(flat(out2) + 4 * (r + 1), acc1);
  }
  if (r < dim) {
    const cplx* row = m + r * dim;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t c = 0; c < dim; ++c)
      acc = _mm256_add_pd(acc, cmul2(_mm256_loadu_pd(id + 4 * c),
                                     bcast(row[c])));
    _mm256_storeu_pd(flat(out2) + 4 * r, acc);
  }
}

QTC_AVX2 void cmul_avx2(const cplx* a, const cplx* b, cplx* out,
                        std::size_t n) {
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const __m256d va = _mm256_loadu_pd(flat(a) + 2 * j);
    const __m256d vb = _mm256_loadu_pd(flat(b) + 2 * j);
    _mm256_storeu_pd(flat(out) + 2 * j, cmul2(va, vb));
  }
  for (; j < n; ++j) out[j] = a[j] * b[j];
}

QTC_AVX2 int stab_rowsum_avx2(const std::uint64_t* x1, const std::uint64_t* z1,
                              std::uint64_t* x2, std::uint64_t* z2,
                              std::size_t words) {
  // Same two-bit-counter planes as the scalar loop, four words per vector.
  // Lane columns are independent mod-4 accumulators, so vector and scalar
  // tallies combine by plain addition before the final & 3.
  __m256i vones = _mm256_setzero_si256(), vtwos = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z1 + w));
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x2 + w));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z2 + w));
    const __m256i ab = _mm256_and_si256(a, b);
    const __m256i a_nb = _mm256_andnot_si256(b, a);   // a & ~b
    const __m256i na_b = _mm256_andnot_si256(a, b);   // ~a & b
    const __m256i cd = _mm256_and_si256(c, d);
    const __m256i c_nd = _mm256_andnot_si256(d, c);   // c & ~d
    const __m256i d_nc = _mm256_andnot_si256(c, d);   // d & ~c
    const __m256i pos = _mm256_or_si256(
        _mm256_or_si256(_mm256_and_si256(ab, d_nc),
                        _mm256_and_si256(a_nb, cd)),
        _mm256_and_si256(na_b, c_nd));
    const __m256i neg = _mm256_or_si256(
        _mm256_or_si256(_mm256_and_si256(ab, c_nd),
                        _mm256_and_si256(a_nb, d_nc)),
        _mm256_and_si256(na_b, cd));
    const __m256i carry = _mm256_and_si256(vones, pos);
    vones = _mm256_xor_si256(vones, pos);
    vtwos = _mm256_xor_si256(vtwos, carry);
    const __m256i borrow = _mm256_andnot_si256(vones, neg);
    vones = _mm256_xor_si256(vones, neg);
    vtwos = _mm256_xor_si256(vtwos, borrow);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x2 + w),
                        _mm256_xor_si256(c, a));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(z2 + w),
                        _mm256_xor_si256(d, b));
  }
  alignas(32) std::uint64_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vones);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), vtwos);
  unsigned total = 0;
  for (int k = 0; k < 4; ++k)
    total += static_cast<unsigned>(std::popcount(lanes[k]));
  for (int k = 4; k < 8; ++k)
    total += 2u * static_cast<unsigned>(std::popcount(lanes[k]));
  std::uint64_t ones = 0, twos = 0;
  stab_rowsum_tail(x1, z1, x2, z2, w, words, ones, twos);
  total += static_cast<unsigned>(std::popcount(ones)) +
           2u * static_cast<unsigned>(std::popcount(twos));
  return static_cast<int>(total & 3u);
}

#endif  // QTC_SIMD_AVX2

#if defined(QTC_SIMD_NEON)

// --- NEON path ---------------------------------------------------------------
// One complex double per float64x2_t {re, im}. Same no-FMA operation order
// as the scalar reference (x + (-y) is IEEE-identical to x - y, and
// multiplying by ±1 is exact, so the sign-mask trick below adds no
// rounding).

inline float64x2_t cmul1(float64x2_t a, float64x2_t b) {
  const float64x2_t sign = {-1.0, 1.0};
  const float64x2_t t1 = vmulq_f64(a, vdupq_laneq_f64(b, 0));
  const float64x2_t t2 = vmulq_f64(vextq_f64(a, a, 1), vdupq_laneq_f64(b, 1));
  // even: a.re*b.re - a.im*b.im   odd: a.im*b.re + a.re*b.im
  return vaddq_f64(t1, vmulq_f64(t2, sign));
}

void apply_1q_neon(cplx* amp, std::uint64_t g0, std::uint64_t g1,
                   std::uint64_t mask, cplx cm00, cplx cm01, cplx cm10,
                   cplx cm11) {
  double* a = flat(amp);
  const float64x2_t m00 = vld1q_f64(flat(&cm00)), m01 = vld1q_f64(flat(&cm01));
  const float64x2_t m10 = vld1q_f64(flat(&cm10)), m11 = vld1q_f64(flat(&cm11));
  for (std::uint64_t g = g0; g < g1; ++g) {
    const std::uint64_t i = insert_zero_bit(g, mask);
    const float64x2_t a0 = vld1q_f64(a + 2 * i);
    const float64x2_t a1 = vld1q_f64(a + 2 * (i | mask));
    vst1q_f64(a + 2 * i, vaddq_f64(cmul1(a0, m00), cmul1(a1, m01)));
    vst1q_f64(a + 2 * (i | mask), vaddq_f64(cmul1(a0, m10), cmul1(a1, m11)));
  }
}

void scale_neon(cplx* amp, std::uint64_t i0, std::uint64_t len, cplx d) {
  double* a = flat(amp);
  const float64x2_t dv = vld1q_f64(flat(&d));
  for (std::uint64_t i = i0; i < i0 + len; ++i)
    vst1q_f64(a + 2 * i, cmul1(vld1q_f64(a + 2 * i), dv));
}

void matvec_neon(const cplx* m, const cplx* in, cplx* out, std::size_t dim) {
  const double* md = flat(m);
  const double* ind = flat(in);
  for (std::size_t r = 0; r < dim; ++r) {
    float64x2_t acc = vdupq_n_f64(0.0);
    for (std::size_t c = 0; c < dim; ++c)
      acc = vaddq_f64(acc, cmul1(vld1q_f64(ind + 2 * c),
                                 vld1q_f64(md + 2 * (r * dim + c))));
    vst1q_f64(flat(out) + 2 * r, acc);
  }
}

void matvec2_neon(const cplx* m, const cplx* in2, cplx* out2,
                  std::size_t dim) {
  const double* md = flat(m);
  const double* id = flat(in2);
  for (std::size_t r = 0; r < dim; ++r) {
    float64x2_t acc_a = vdupq_n_f64(0.0);
    float64x2_t acc_b = vdupq_n_f64(0.0);
    for (std::size_t c = 0; c < dim; ++c) {
      const float64x2_t mv = vld1q_f64(md + 2 * (r * dim + c));
      acc_a = vaddq_f64(acc_a, cmul1(vld1q_f64(id + 4 * c), mv));
      acc_b = vaddq_f64(acc_b, cmul1(vld1q_f64(id + 4 * c + 2), mv));
    }
    vst1q_f64(flat(out2) + 4 * r, acc_a);
    vst1q_f64(flat(out2) + 4 * r + 2, acc_b);
  }
}

void cmul_neon(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j)
    vst1q_f64(flat(out) + 2 * j,
              cmul1(vld1q_f64(flat(a) + 2 * j), vld1q_f64(flat(b) + 2 * j)));
}

#endif  // QTC_SIMD_NEON

Isa best_isa() {
#if defined(QTC_SIMD_AVX2)
  if (core::cpu_features().avx2) return Isa::Avx2;
#endif
#if defined(QTC_SIMD_NEON)
  if (core::cpu_features().neon) return Isa::Neon;
#endif
  return Isa::Scalar;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Avx2:
      return "avx2";
    case Isa::Neon:
      return "neon";
    case Isa::Scalar:
      return "scalar";
  }
  return "scalar";
}

bool vector_available() { return best_isa() != Isa::Scalar; }

bool simd_enabled() { return knobs::flag(knobs::Knob::Simd); }

void set_simd_enabled(int enabled) {
  if (enabled < 0)
    knobs::clear(knobs::Knob::Simd);
  else
    knobs::set(knobs::Knob::Simd, enabled);
}

Isa select() { return simd_enabled() ? best_isa() : Isa::Scalar; }

void apply_1q_range(Isa isa, cplx* amp, std::uint64_t g0, std::uint64_t g1,
                    std::uint64_t mask, cplx m00, cplx m01, cplx m10,
                    cplx m11) {
  switch (isa) {
#if defined(QTC_SIMD_AVX2)
    case Isa::Avx2:
      apply_1q_avx2(amp, g0, g1, mask, m00, m01, m10, m11);
      return;
#endif
#if defined(QTC_SIMD_NEON)
    case Isa::Neon:
      apply_1q_neon(amp, g0, g1, mask, m00, m01, m10, m11);
      return;
#endif
    default:
      apply_1q_scalar(amp, g0, g1, mask, m00, m01, m10, m11);
  }
}

void apply_cx_range(Isa isa, cplx* amp, std::uint64_t g0, std::uint64_t g1,
                    std::uint64_t cmask, std::uint64_t tmask) {
  switch (isa) {
#if defined(QTC_SIMD_AVX2)
    case Isa::Avx2:
      apply_cx_avx2(amp, g0, g1, cmask, tmask);
      return;
#endif
    default:
      apply_cx_scalar(amp, g0, g1, cmask, tmask);
  }
}

void scale_range(Isa isa, cplx* amp, std::uint64_t i0, std::uint64_t len,
                 cplx d) {
  switch (isa) {
#if defined(QTC_SIMD_AVX2)
    case Isa::Avx2:
      scale_avx2(amp, i0, len, d);
      return;
#endif
#if defined(QTC_SIMD_NEON)
    case Isa::Neon:
      scale_neon(amp, i0, len, d);
      return;
#endif
    default:
      scale_scalar(amp, i0, len, d);
  }
}

void matvec(Isa isa, const cplx* m, const cplx* in, cplx* out,
            std::size_t dim) {
  // No AVX2 case: a single matvec needs [m(r,c), m(r+1,c)] row pairs, and
  // those strided gathers measured ~2x SLOWER than the -O3 scalar loop on
  // AVX2 hardware. The vector win for the dense kernels comes from matvec2's
  // two-group interleaved layout; a lone (tail) group runs scalar.
  switch (isa) {
#if defined(QTC_SIMD_NEON)
    case Isa::Neon:
      if (dim >= 2) {
        matvec_neon(m, in, out, dim);
        return;
      }
      [[fallthrough]];
#endif
    default:
      matvec_scalar(m, in, out, dim);
  }
}

void matvec2(Isa isa, const cplx* m, const cplx* in2, cplx* out2,
             std::size_t dim) {
  switch (isa) {
#if defined(QTC_SIMD_AVX2)
    case Isa::Avx2:
      matvec2_avx2(m, in2, out2, dim);
      return;
#endif
#if defined(QTC_SIMD_NEON)
    case Isa::Neon:
      matvec2_neon(m, in2, out2, dim);
      return;
#endif
    default:
      matvec2_scalar(m, in2, out2, dim);
  }
}

void cmul(Isa isa, const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  switch (isa) {
#if defined(QTC_SIMD_AVX2)
    case Isa::Avx2:
      cmul_avx2(a, b, out, n);
      return;
#endif
#if defined(QTC_SIMD_NEON)
    case Isa::Neon:
      cmul_neon(a, b, out, n);
      return;
#endif
    default:
      cmul_scalar(a, b, out, n);
  }
}

int stab_rowsum(Isa isa, const std::uint64_t* x_src,
                const std::uint64_t* z_src, std::uint64_t* x_dst,
                std::uint64_t* z_dst, std::size_t words) {
  switch (isa) {
#if defined(QTC_SIMD_AVX2)
    case Isa::Avx2:
      return stab_rowsum_avx2(x_src, z_src, x_dst, z_dst, words);
#endif
    default:
      // No NEON variant: the boolean planes compile to tight scalar
      // word ops already, and exactness (not rounding) is the contract.
      return stab_rowsum_scalar(x_src, z_src, x_dst, z_dst, words);
  }
}

}  // namespace qtc::sim::simd
