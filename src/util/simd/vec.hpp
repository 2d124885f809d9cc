#pragma once
// Width-agnostic vector abstraction for the SIMD kernel layer
// (DESIGN.md §17).  Each policy class exposes the same static-op surface
// over one register width:
//
//   ScalarPolicy  W=1  plain double        (the reference lane, always built)
//   Sse2Policy    W=2  __m128d             (x86-64 baseline)
//   Avx2Policy    W=4  __m256d             (gated TU, -mavx2)
//   Avx512Policy  W=8  __m512d             (gated TU, -mavx512f -mavx512dq)
//
// Bit-identity contract: every op here is either an IEEE-754
// correctly-rounded operation (add/sub/mul/div/sqrt), an exact conversion /
// bit manipulation, or has explicitly pinned tie semantics:
//
//   max(a, b) == (a > b) ? a : b      min(a, b) == (a < b) ? a : b
//
// which is exactly the x86 MAXPD/MINPD definition with a as SRC1 — and also
// exactly std::max(b, a) — so the same kernel template instantiated at any
// width produces per-lane identical bits.  trunc_nonneg is exact for
// inputs in [0, 2^31); gather_rows and transpose only move values.
// Nothing here may introduce FMA contraction: the per-ISA TUs compile
// with -ffp-contract=off and never -mfma.
//
// The guarded policies only exist when the TU is compiled with the matching
// -m flags, so this header is safe to include from any TU.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace vipvt::simd {

namespace detail {
inline std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}
inline double double_of(std::uint64_t u) {
  double x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}
}  // namespace detail

// Shared bit-manipulation constants (see exp_bits / mant_half below).
inline constexpr std::uint64_t kMantMask = 0x000FFFFFFFFFFFFFull;
inline constexpr std::uint64_t kHalfExp = 0x3FE0000000000000ull;   // 0.5 bits
inline constexpr std::uint64_t kMagic52 = 0x4330000000000000ull;   // 2^52 bits
inline constexpr std::uint64_t kSignBit = 0x8000000000000000ull;

// ---------------------------------------------------------------------------
// Scalar reference lane.  The other policies must match this lane bit-for-
// bit; it is also used for the width % W remainder inside every kernel.
// ---------------------------------------------------------------------------
struct ScalarPolicy {
  static constexpr std::size_t W = 1;
  using D = double;
  using M = bool;

  static D bcast(double v) { return v; }
  static D load(const double* p) { return *p; }
  static void store(double* p, D v) { *p = v; }
  static D add(D a, D b) { return a + b; }
  static D sub(D a, D b) { return a - b; }
  static D mul(D a, D b) { return a * b; }
  static D div(D a, D b) { return a / b; }
  static D sqrt(D a) { return __builtin_sqrt(a); }
  static D max(D a, D b) { return a > b ? a : b; }
  static D min(D a, D b) { return a < b ? a : b; }
  static M lt(D a, D b) { return a < b; }
  static M eq(D a, D b) { return a == b; }
  static M mor(M a, M b) { return a || b; }
  static D select(M m, D a, D b) { return m ? a : b; }
  static D flipsign_if(D x, M m) {
    return m ? detail::double_of(detail::bits_of(x) ^ kSignBit) : x;
  }
  /// double(int32(x)) — truncation toward zero, exact for x in [0, 2^31).
  static D trunc_nonneg(D x) {
    return static_cast<double>(static_cast<std::int32_t>(x));
  }
  /// double(bits(x) >> 52): the biased exponent (x positive normal).
  static D exp_bits(D x) {
    return static_cast<double>(detail::bits_of(x) >> 52);
  }
  /// x's mantissa re-biased into [0.5, 1) (frexp's fraction, x > 0 normal).
  static D mant_half(D x) {
    return detail::double_of((detail::bits_of(x) & kMantMask) | kHalfExp);
  }
  /// coef[off[k] + 2j] and coef[off[k] + 2j + 1] for lane k, with the
  /// lane-wise integral j held in jd and off[0, W) per-lane row offsets.
  static void gather_rows(const double* coef, const std::int32_t* off, D jd,
                          D& c0, D& c1) {
    const std::int32_t k = off[0] + 2 * static_cast<std::int32_t>(jd);
    c0 = coef[k];
    c1 = coef[k + 1];
  }
  /// In-register W x W transpose: afterwards r[k] holds element k of
  /// every input vector, in input order.
  static void transpose(D (&)[W]) {}
};

#if defined(__SSE2__)
struct Sse2Policy {
  static constexpr std::size_t W = 2;
  using D = __m128d;
  using M = __m128d;  // all-ones / all-zeros per lane

  static D bcast(double v) { return _mm_set1_pd(v); }
  static D load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, D v) { _mm_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm_add_pd(a, b); }
  static D sub(D a, D b) { return _mm_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm_mul_pd(a, b); }
  static D div(D a, D b) { return _mm_div_pd(a, b); }
  static D sqrt(D a) { return _mm_sqrt_pd(a); }
  static D max(D a, D b) { return _mm_max_pd(a, b); }
  static D min(D a, D b) { return _mm_min_pd(a, b); }
  static M lt(D a, D b) { return _mm_cmplt_pd(a, b); }
  static M eq(D a, D b) { return _mm_cmpeq_pd(a, b); }
  static M mor(M a, M b) { return _mm_or_pd(a, b); }
  static D select(M m, D a, D b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  static D flipsign_if(D x, M m) {
    const D sign = _mm_castsi128_pd(_mm_set1_epi64x(
        static_cast<long long>(kSignBit)));
    return _mm_xor_pd(x, _mm_and_pd(m, sign));
  }
  static D trunc_nonneg(D x) {
    return _mm_cvtepi32_pd(_mm_cvttpd_epi32(x));
  }
  static D exp_bits(D x) {
    __m128i u = _mm_srli_epi64(_mm_castpd_si128(x), 52);
    // int->double via the 2^52 magic constant: OR the small integer into
    // the mantissa of 2^52, subtract 2^52 — exact for u < 2^52.
    u = _mm_or_si128(u, _mm_set1_epi64x(static_cast<long long>(kMagic52)));
    return _mm_sub_pd(_mm_castsi128_pd(u),
                      _mm_set1_pd(4503599627370496.0));  // 2^52
  }
  static D mant_half(D x) {
    __m128i u = _mm_castpd_si128(x);
    u = _mm_and_si128(u, _mm_set1_epi64x(static_cast<long long>(kMantMask)));
    u = _mm_or_si128(u, _mm_set1_epi64x(static_cast<long long>(kHalfExp)));
    return _mm_castsi128_pd(u);
  }
  static void gather_rows(const double* coef, const std::int32_t* off, D jd,
                          D& c0, D& c1) {
    const __m128i ji = _mm_cvttpd_epi32(jd);
    const std::int32_t k0 = off[0] + 2 * _mm_cvtsi128_si32(ji);
    const std::int32_t k1 =
        off[1] + 2 * _mm_cvtsi128_si32(_mm_shuffle_epi32(ji, 0x55));
    c0 = _mm_set_pd(coef[k1], coef[k0]);
    c1 = _mm_set_pd(coef[k1 + 1], coef[k0 + 1]);
  }
  static void transpose(D (&r)[W]) {
    const D t = _mm_unpacklo_pd(r[0], r[1]);
    r[1] = _mm_unpackhi_pd(r[0], r[1]);
    r[0] = t;
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
struct Avx2Policy {
  static constexpr std::size_t W = 4;
  using D = __m256d;
  using M = __m256d;

  static D bcast(double v) { return _mm256_set1_pd(v); }
  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm256_add_pd(a, b); }
  static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D div(D a, D b) { return _mm256_div_pd(a, b); }
  static D sqrt(D a) { return _mm256_sqrt_pd(a); }
  static D max(D a, D b) { return _mm256_max_pd(a, b); }
  static D min(D a, D b) { return _mm256_min_pd(a, b); }
  static M lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static M mor(M a, M b) { return _mm256_or_pd(a, b); }
  static D select(M m, D a, D b) { return _mm256_blendv_pd(b, a, m); }
  static D flipsign_if(D x, M m) {
    const D sign = _mm256_castsi256_pd(_mm256_set1_epi64x(
        static_cast<long long>(kSignBit)));
    return _mm256_xor_pd(x, _mm256_and_pd(m, sign));
  }
  static D trunc_nonneg(D x) {
    return _mm256_cvtepi32_pd(_mm256_cvttpd_epi32(x));
  }
  static D exp_bits(D x) {
    __m256i u = _mm256_srli_epi64(_mm256_castpd_si256(x), 52);
    u = _mm256_or_si256(u,
                        _mm256_set1_epi64x(static_cast<long long>(kMagic52)));
    return _mm256_sub_pd(_mm256_castsi256_pd(u),
                         _mm256_set1_pd(4503599627370496.0));
  }
  static D mant_half(D x) {
    __m256i u = _mm256_castpd_si256(x);
    u = _mm256_and_si256(u,
                         _mm256_set1_epi64x(static_cast<long long>(kMantMask)));
    u = _mm256_or_si256(u,
                        _mm256_set1_epi64x(static_cast<long long>(kHalfExp)));
    return _mm256_castsi256_pd(u);
  }
  static void gather_rows(const double* coef, const std::int32_t* off, D jd,
                          D& c0, D& c1) {
    const __m128i ji = _mm256_cvttpd_epi32(jd);
    const __m128i k = _mm_add_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(off)),
        _mm_add_epi32(ji, ji));
    c0 = _mm256_i32gather_pd(coef, k, 8);
    c1 = _mm256_i32gather_pd(coef + 1, k, 8);
  }
  static void transpose(D (&r)[W]) {
    const D t0 = _mm256_unpacklo_pd(r[0], r[1]);  // r0_0 r1_0 r0_2 r1_2
    const D t1 = _mm256_unpackhi_pd(r[0], r[1]);  // r0_1 r1_1 r0_3 r1_3
    const D t2 = _mm256_unpacklo_pd(r[2], r[3]);
    const D t3 = _mm256_unpackhi_pd(r[2], r[3]);
    r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)
struct Avx512Policy {
  static constexpr std::size_t W = 8;
  using D = __m512d;
  using M = __mmask8;

  static D bcast(double v) { return _mm512_set1_pd(v); }
  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm512_add_pd(a, b); }
  static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D div(D a, D b) { return _mm512_div_pd(a, b); }
  static D sqrt(D a) { return _mm512_sqrt_pd(a); }
  // VMAXPD/VMINPD keep the x86 SRC1/SRC2 tie rules: (a>b)?a:b, (a<b)?a:b.
  static D max(D a, D b) { return _mm512_max_pd(a, b); }
  static D min(D a, D b) { return _mm512_min_pd(a, b); }
  static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static M mor(M a, M b) { return static_cast<M>(a | b); }
  static D select(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }
  static D flipsign_if(D x, M m) {
    const __m512i sign = _mm512_set1_epi64(static_cast<long long>(kSignBit));
    const __m512i xi = _mm512_castpd_si512(x);
    return _mm512_castsi512_pd(_mm512_mask_xor_epi64(xi, m, xi, sign));
  }
  static D trunc_nonneg(D x) {
    return _mm512_cvtepi32_pd(_mm512_cvttpd_epi32(x));
  }
  static D exp_bits(D x) {
    __m512i u = _mm512_srli_epi64(_mm512_castpd_si512(x), 52);
    u = _mm512_or_si512(u,
                        _mm512_set1_epi64(static_cast<long long>(kMagic52)));
    return _mm512_sub_pd(_mm512_castsi512_pd(u),
                         _mm512_set1_pd(4503599627370496.0));
  }
  static D mant_half(D x) {
    __m512i u = _mm512_castpd_si512(x);
    u = _mm512_and_si512(u,
                         _mm512_set1_epi64(static_cast<long long>(kMantMask)));
    u = _mm512_or_si512(u,
                        _mm512_set1_epi64(static_cast<long long>(kHalfExp)));
    return _mm512_castsi512_pd(u);
  }
  static void gather_rows(const double* coef, const std::int32_t* off, D jd,
                          D& c0, D& c1) {
    const __m256i ji = _mm512_cvttpd_epi32(jd);
    const __m256i k = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(off)),
        _mm256_add_epi32(ji, ji));
    c0 = _mm512_i32gather_pd(k, coef, 8);
    c1 = _mm512_i32gather_pd(k, coef + 1, 8);
  }
  static void transpose(D (&r)[W]) {
    // Pairs of rows interleave within 128-bit blocks, then two rounds of
    // 128-bit block shuffles (imm 0x88: blocks 0,2 of a then b; 0xdd:
    // blocks 1,3) gather each column.
    D t[8];
    for (int k = 0; k < 8; k += 2) {
      t[k] = _mm512_unpacklo_pd(r[k], r[k + 1]);
      t[k + 1] = _mm512_unpackhi_pd(r[k], r[k + 1]);
    }
    const D u0 = _mm512_shuffle_f64x2(t[0], t[2], 0x88);
    const D u1 = _mm512_shuffle_f64x2(t[0], t[2], 0xdd);
    const D u2 = _mm512_shuffle_f64x2(t[1], t[3], 0x88);
    const D u3 = _mm512_shuffle_f64x2(t[1], t[3], 0xdd);
    const D u4 = _mm512_shuffle_f64x2(t[4], t[6], 0x88);
    const D u5 = _mm512_shuffle_f64x2(t[4], t[6], 0xdd);
    const D u6 = _mm512_shuffle_f64x2(t[5], t[7], 0x88);
    const D u7 = _mm512_shuffle_f64x2(t[5], t[7], 0xdd);
    r[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
    r[4] = _mm512_shuffle_f64x2(u0, u4, 0xdd);
    r[2] = _mm512_shuffle_f64x2(u1, u5, 0x88);
    r[6] = _mm512_shuffle_f64x2(u1, u5, 0xdd);
    r[1] = _mm512_shuffle_f64x2(u2, u6, 0x88);
    r[5] = _mm512_shuffle_f64x2(u2, u6, 0xdd);
    r[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
    r[7] = _mm512_shuffle_f64x2(u3, u7, 0xdd);
  }
};
#endif  // __AVX512F__ && __AVX512DQ__

}  // namespace vipvt::simd
