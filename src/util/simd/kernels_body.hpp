#pragma once
// Width-agnostic kernel bodies for the SIMD dispatch layer (DESIGN.md §17).
//
// Every kernel is a template over a vec.hpp policy class; the per-ISA TUs
// (kernels_scalar.cpp / _sse2.cpp / _avx2.cpp / _avx512.cpp) instantiate
// these SAME bodies at their width, so the operation sequence — and with
// contraction disabled, the per-lane result bits — is defined once, here.
// Lanes beyond the last full vector chunk run the identical sequence
// through ScalarPolicy, which is also the W=1 reference instantiation.
//
// The relax/transform kernels mirror pre-existing scalar code exactly
// (StaEngine::relax_edges, DelayFactorTables::eval_row) and are therefore
// transparently dispatchable: swapping ISA never changes result bits.
// normals_fill_body is a NEW numeric path (own vector log/sincos instead of
// libm/libmvec) and is only reachable through DrawProfile::BatchedSimd.
//
// The vector log/sincos are double-precision Cephes evaluations
// (Moshier, netlib cephes/cmath: log.c, sin.c).  Their domains here are
// narrow — log on [2^-53, 1], sincos on [0, 2pi) — so the argument
// reduction needs no inf/nan/denormal handling and the quadrant logic can
// run entirely in doubles (no per-ISA 64-bit integer multiplies).

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"
#include "util/simd/kernels.hpp"
#include "util/simd/vec.hpp"

namespace vipvt::simd {

namespace cephes {
// log(1+x) rational P/Q on [sqrt(1/2)-1, sqrt(2)-1].
inline constexpr double kLogP[6] = {
    1.01875663804580931796e-4, 4.97494994976747001425e-1,
    4.70579119878881725854e0,  1.44989225341610930846e1,
    1.79368678507819816313e1,  7.70838733755885391666e0,
};
inline constexpr double kLogQ[5] = {
    // leading coefficient 1.0 implicit
    1.12873587189167450590e1, 4.52279145837532221105e1,
    8.29875266912776603211e1, 7.11544750618563894466e1,
    2.31251620126765340583e1,
};
inline constexpr double kSqrtHalf = 0.70710678118654752440;
// ln(2) split hi/lo with ln2 = kLn2Hi - kLn2Lo (note the subtraction).
inline constexpr double kLn2Hi = 0.693359375;
inline constexpr double kLn2Lo = 2.121944400546905827679e-4;

// sin/cos polynomials on [-pi/4, pi/4].
inline constexpr double kSinC[6] = {
    1.58962301576546568060e-10, -2.50507477628578072866e-8,
    2.75573136213857245213e-6,  -1.98412698295895385996e-4,
    8.33333333332211858878e-3,  -1.66666666666666307295e-1,
};
inline constexpr double kCosC[6] = {
    -1.13585365213876817300e-11, 2.08757008419747316778e-9,
    -2.75573141792967388112e-7,  2.48015872888517179954e-5,
    -1.38888888888730564116e-3,  4.16666666666665929218e-2,
};
// pi/4 split into three parts for extended-precision reduction.
inline constexpr double kDp1 = 7.85398125648498535156e-1;
inline constexpr double kDp2 = 3.77489470793079817668e-8;
inline constexpr double kDp3 = 2.69515142907905952645e-15;
inline constexpr double kFourOverPi = 1.27323954473516268615;
}  // namespace cephes

/// Natural log for x in [2^-53, 1] (no zero/negative/denormal/inf inputs).
/// Bit-identical across policies: frexp is done by bit surgery, the rest is
/// correctly-rounded arithmetic in a fixed order.
template <class P>
inline typename P::D v_log(typename P::D x) {
  using cephes::kLogP;
  using cephes::kLogQ;
  typename P::D e = P::sub(P::exp_bits(x), P::bcast(1022.0));
  typename P::D m = P::mant_half(x);  // in [0.5, 1)
  const typename P::M lo = P::lt(m, P::bcast(cephes::kSqrtHalf));
  e = P::sub(e, P::select(lo, P::bcast(1.0), P::bcast(0.0)));
  // m < sqrt(1/2): x = 2m - 1, else x = m - 1  (both exact)
  m = P::select(lo, P::sub(P::add(m, m), P::bcast(1.0)),
                P::sub(m, P::bcast(1.0)));
  const typename P::D z = P::mul(m, m);
  typename P::D p = P::bcast(kLogP[0]);
  for (int i = 1; i < 6; ++i) p = P::add(P::mul(p, m), P::bcast(kLogP[i]));
  typename P::D q = P::add(m, P::bcast(kLogQ[0]));
  for (int i = 1; i < 5; ++i) q = P::add(P::mul(q, m), P::bcast(kLogQ[i]));
  typename P::D y = P::mul(m, P::div(P::mul(z, p), q));
  y = P::sub(y, P::mul(e, P::bcast(cephes::kLn2Lo)));
  y = P::sub(y, P::mul(z, P::bcast(0.5)));
  typename P::D r = P::add(m, y);
  return P::add(r, P::mul(e, P::bcast(cephes::kLn2Hi)));
}

/// Simultaneous sin/cos for a in [0, 2pi).  Quadrant selection runs in
/// doubles: j = trunc(a*4/pi) rounded up to even, m = (j/2) mod 4 with the
/// j==8 wrap folding to m==0.
template <class P>
inline void v_sincos(typename P::D a, typename P::D& s, typename P::D& c) {
  using cephes::kCosC;
  using cephes::kSinC;
  typename P::D y = P::trunc_nonneg(P::mul(a, P::bcast(cephes::kFourOverPi)));
  // y += y & 1  (fold odd j to j+1): parity = y - 2*trunc(y/2)
  const typename P::D half = P::trunc_nonneg(P::mul(y, P::bcast(0.5)));
  y = P::add(y, P::sub(y, P::add(half, half)));
  // extended-precision x = a - y*pi/4
  typename P::D x = P::sub(a, P::mul(y, P::bcast(cephes::kDp1)));
  x = P::sub(x, P::mul(y, P::bcast(cephes::kDp2)));
  x = P::sub(x, P::mul(y, P::bcast(cephes::kDp3)));
  // quadrant m = (y/2) mod 4, exact small integers throughout
  const typename P::D kd = P::mul(y, P::bcast(0.5));
  const typename P::D m = P::sub(
      kd, P::mul(P::bcast(4.0), P::trunc_nonneg(P::mul(kd, P::bcast(0.25)))));
  const typename P::M m1 = P::eq(m, P::bcast(1.0));
  const typename P::M m2 = P::eq(m, P::bcast(2.0));
  const typename P::M m3 = P::eq(m, P::bcast(3.0));
  const typename P::D z = P::mul(x, x);
  typename P::D ps = P::bcast(kSinC[0]);
  for (int i = 1; i < 6; ++i) ps = P::add(P::mul(ps, z), P::bcast(kSinC[i]));
  ps = P::add(P::mul(P::mul(ps, z), x), x);  // sin(x) on [-pi/4, pi/4]
  typename P::D pc = P::bcast(kCosC[0]);
  for (int i = 1; i < 6; ++i) pc = P::add(P::mul(pc, z), P::bcast(kCosC[i]));
  pc = P::mul(P::mul(pc, z), z);
  pc = P::sub(pc, P::mul(z, P::bcast(0.5)));
  pc = P::add(pc, P::bcast(1.0));  // cos(x) on [-pi/4, pi/4]
  // sin(a): m=0 -> sin x, 1 -> cos x, 2 -> -sin x, 3 -> -cos x
  // cos(a): m=0 -> cos x, 1 -> -sin x, 2 -> -cos x, 3 -> sin x
  const typename P::M swap = P::mor(m1, m3);
  s = P::flipsign_if(P::select(swap, pc, ps), P::mor(m2, m3));
  c = P::flipsign_if(P::select(swap, ps, pc), P::mor(m1, m2));
}

/// Batched edge relaxation (StaEngine::analyze_batch_core hot loop):
/// reproduces `to[b] = std::max(to[b], from[b] + base [* f[b]])` — policy
/// max(cand, to) has exactly std::max(to, cand) semantics.
template <class P>
inline void relax_edges_body(const RelaxEdge* edges, std::size_t num_edges,
                             const double* factor_soa, double* arrival_soa,
                             std::size_t width) {
  using S = ScalarPolicy;
  for (std::size_t ei = 0; ei < num_edges; ++ei) {
    const RelaxEdge& e = edges[ei];
    const double base = static_cast<double>(e.base_delay);
    const double* __restrict from =
        arrival_soa + static_cast<std::size_t>(e.from) * width;
    double* __restrict to =
        arrival_soa + static_cast<std::size_t>(e.to) * width;
    std::size_t b = 0;
    if (e.inst == kInvalidRelaxInst) {
      const typename P::D vb = P::bcast(base);
      for (; b + P::W <= width; b += P::W)
        P::store(to + b, P::max(P::add(P::load(from + b), vb), P::load(to + b)));
      for (; b < width; ++b)
        to[b] = S::max(S::add(from[b], base), to[b]);
    } else {
      const double* __restrict f =
          factor_soa + static_cast<std::size_t>(e.inst) * width;
      const typename P::D vb = P::bcast(base);
      for (; b + P::W <= width; b += P::W)
        P::store(to + b, P::max(P::add(P::load(from + b),
                                       P::mul(vb, P::load(f + b))),
                                P::load(to + b)));
      for (; b < width; ++b)
        to[b] = S::max(S::add(from[b], S::mul(base, f[b])), to[b]);
    }
  }
}

/// Relaxation against per-edge precomputed delays (the multi-base
/// escalation batch, StaEngine::analyze_batch_bases):
/// `to[b] = max(to[b], from[b] + d[b])`.
template <class P>
inline void relax_edges_delays_body(const RelaxEdge* edges,
                                    std::size_t num_edges,
                                    const double* delay_soa,
                                    double* arrival_soa, std::size_t width) {
  using S = ScalarPolicy;
  for (std::size_t ei = 0; ei < num_edges; ++ei) {
    const RelaxEdge& e = edges[ei];
    const double* __restrict from =
        arrival_soa + static_cast<std::size_t>(e.from) * width;
    double* __restrict to =
        arrival_soa + static_cast<std::size_t>(e.to) * width;
    const double* __restrict d = delay_soa + ei * width;
    std::size_t b = 0;
    for (; b + P::W <= width; b += P::W)
      P::store(to + b,
               P::max(P::add(P::load(from + b), P::load(d + b)),
                      P::load(to + b)));
    for (; b < width; ++b)
      to[b] = S::max(S::add(from[b], d[b]), to[b]);
  }
}

/// One draw tile through the DelayFactorTables rows: reproduces
/// DelayFactorTables::eval_row (tables.hpp) for every (instance, lane):
///   x = (lg - lo) * inv_step; clamp below at 0; j = trunc; clamp above;
///   t = lg - (lo + j*step); out = c[2j] + c[2j+1]*t,  c = coef + row_off[i]
/// Vectors run along W instances of one lane, so eps and sys load
/// contiguously; W lanes' vectors are transposed in registers into W
/// instance rows of out (instance-major [m x width]).  Lanes beyond the
/// last full W-group keep the instance vector and store element-wise;
/// instances beyond the last full W-group run through ScalarPolicy.
template <class P>
inline void draw_transform_body(const double* coef,
                                const std::int32_t* row_off, double lo,
                                double step, double inv_step,
                                std::int32_t intervals, const double* sys,
                                const double* eps, std::size_t eps_stride,
                                double* out, std::size_t m,
                                std::size_t width) {
  using S = ScalarPolicy;
  using D = typename P::D;
  constexpr std::size_t W = P::W;
  const D vlo = P::bcast(lo);
  const D vstep = P::bcast(step);
  const D vinv = P::bcast(inv_step);
  const D vzero = P::bcast(0.0);
  const D vimax = P::bcast(static_cast<double>(intervals - 1));
  const double imax = static_cast<double>(intervals - 1);
  // Factors of instances [i, i + W) in lane l.
  const auto eval = [&](std::size_t i, std::size_t l) {
    const D lg = P::add(P::load(sys + i), P::load(eps + l * eps_stride + i));
    D x = P::mul(P::sub(lg, vlo), vinv);
    x = P::max(x, vzero);
    D jd = P::trunc_nonneg(x);
    jd = P::min(jd, vimax);
    const D t = P::sub(lg, P::add(vlo, P::mul(jd, vstep)));
    D c0, c1;
    P::gather_rows(coef, row_off + i, jd, c0, c1);
    return P::add(c0, P::mul(c1, t));
  };
  std::size_t i = 0;
  for (; i + W <= m; i += W) {
    std::size_t l = 0;
    for (; l + W <= width; l += W) {
      D r[W];
      for (std::size_t q = 0; q < W; ++q) r[q] = eval(i, l + q);
      P::transpose(r);
      for (std::size_t k = 0; k < W; ++k) {
        P::store(out + (i + k) * width + l, r[k]);
      }
    }
    for (; l < width; ++l) {
      alignas(64) double v[W];
      P::store(v, eval(i, l));
      for (std::size_t k = 0; k < W; ++k) out[(i + k) * width + l] = v[k];
    }
  }
  for (; i < m; ++i) {
    for (std::size_t l = 0; l < width; ++l) {
      const double lg = S::add(sys[i], eps[l * eps_stride + i]);
      double x = S::mul(S::sub(lg, lo), inv_step);
      x = S::max(x, 0.0);
      double jd = S::trunc_nonneg(x);
      jd = S::min(jd, imax);
      const double t = S::sub(lg, S::add(lo, S::mul(jd, step)));
      double c0, c1;
      S::gather_rows(coef, row_off + i, jd, c0, c1);
      out[i * width + l] = S::add(c0, S::mul(c1, t));
    }
  }
}

/// Box–Muller pairs [p_lo, p_hi) of block `blk` (pairs blk*128 + j) of
/// the counter stream keyed by (key_r, key_t): radius and (cos, sin) into
/// rad/zc/zs[j].  The range widens to whole W-vectors; every op is
/// lane-wise, so a pair's bits never depend on which range computed it.
/// Counter generation stays scalar (splitmix64 is cheap); the
/// log/sqrt/sincos run through the policy, and 128 % W == 0 for every
/// policy so a block never needs a remainder lane.
template <class P>
inline void box_muller_pairs(std::uint64_t key_r, std::uint64_t key_t,
                             std::size_t blk, std::size_t p_lo,
                             std::size_t p_hi, double* rad, double* zc,
                             double* zs) {
  constexpr std::size_t kPairs = kNormalsBlock / 2;
  static_assert(kPairs % P::W == 0);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  alignas(64) double u1[kPairs], ang[kPairs];
  const std::size_t lo = p_lo / P::W * P::W;
  const std::size_t hi = (p_hi + P::W - 1) / P::W * P::W;
  for (std::size_t j = lo; j < hi; ++j) {
    const auto i = static_cast<std::uint64_t>(blk * kPairs + j);
    // u1 in (0, 1]: 53-bit mantissa + 1, scaled by 2^-53
    u1[j] = (static_cast<double>(Rng::counter_bits(key_r, i) >> 11) + 1.0) *
            0x1.0p-53;
    ang[j] = kTwoPi * (static_cast<double>(Rng::counter_bits(key_t, i) >> 11) *
                       0x1.0p-53);
  }
  for (std::size_t j = lo; j < hi; j += P::W) {
    P::store(rad + j,
             P::sqrt(P::mul(P::bcast(-2.0), v_log<P>(P::load(u1 + j)))));
    typename P::D s, c;
    v_sincos<P>(P::load(ang + j), s, c);
    P::store(zc + j, c);
    P::store(zs + j, s);
  }
}

/// Counter-driven bulk Box–Muller fill (Rng::normals_simd engine):
/// elements [begin, end) of the stream into out[0, end - begin).  Element
/// 2p is pair p's cosine deviate and 2p + 1 its sine deviate, so every
/// element is a function of (keys, index) alone: any range is the same
/// slice of a full fill, and an odd-length fill drops the last pair's
/// sine deviate.  Ranges are walked in 128-pair blocks.
template <class P>
inline void normals_fill_body(std::uint64_t key_r, std::uint64_t key_t,
                              double* out, std::size_t begin,
                              std::size_t end) {
  constexpr std::size_t kPairs = kNormalsBlock / 2;
  alignas(64) double rad[kPairs], zc[kPairs], zs[kPairs];
  for (std::size_t blk = begin / kNormalsBlock; blk * kNormalsBlock < end;
       ++blk) {
    const std::size_t b0 = blk * kNormalsBlock;
    const std::size_t hi = end < b0 + kNormalsBlock ? end : b0 + kNormalsBlock;
    std::size_t i = begin > b0 ? begin : b0;
    box_muller_pairs<P>(key_r, key_t, blk, (i - b0) / 2, (hi - b0 + 1) / 2,
                        rad, zc, zs);
    if ((i & 1u) != 0 && i < hi) {  // a range starting on a sine deviate
      out[i - begin] = rad[(i - b0) / 2] * zs[(i - b0) / 2];
      ++i;
    }
    for (; i + 1 < hi; i += 2) {
      const std::size_t p = (i - b0) / 2;
      out[i - begin] = rad[p] * zc[p];
      out[i + 1 - begin] = rad[p] * zs[p];
    }
    if (i < hi) out[i - begin] = rad[(i - b0) / 2] * zc[(i - b0) / 2];
  }
}

}  // namespace vipvt::simd
