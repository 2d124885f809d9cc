// SIMD dispatch layer tests (DESIGN.md §17).  The layer's contract is
// per-lane bit-identity: every compiled dispatch target (scalar / sse2 /
// avx2 / avx512) must reproduce the ScalarPolicy reference lane
// bit-for-bit — for the edge-relaxation kernels, for the
// DelayFactorTables row transform (including the ±clamp_sigma table
// edges and exact interval boundaries), and for the arch-invariant
// normal stream behind DrawProfile::BatchedSimd.  Tests that pin the
// dispatcher restore it through an RAII guard so a failing assertion
// cannot leak the pin into later tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "util/aligned.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd/dispatch.hpp"
#include "util/simd/kernels.hpp"
#include "variation/mc_ssta.hpp"
#include "variation/model.hpp"

namespace vipvt {
namespace {

struct ArchGuard {
  ~ArchGuard() { simd::reset_arch(); }
};

TEST(SimdDispatch, AvailableArchsSaneAndSettable) {
  const std::vector<simd::Arch> archs = simd::available_archs();
  ASSERT_FALSE(archs.empty());
  // Narrowest first, scalar always compiled and always supported.
  EXPECT_EQ(archs.front(), simd::Arch::Scalar);
  ArchGuard guard;
  for (const simd::Arch a : archs) {
    EXPECT_TRUE(simd::arch_available(a)) << simd::arch_name(a);
    ASSERT_TRUE(simd::set_arch(a)) << simd::arch_name(a);
    EXPECT_EQ(simd::active_arch(), a);
    ASSERT_NE(simd::kernels_for(a), nullptr);
    EXPECT_EQ(&simd::active_kernels(), simd::kernels_for(a));
  }
  simd::reset_arch();
  // The autodetected default is itself one of the available targets, and
  // the cached table follows the reset.
  EXPECT_TRUE(simd::arch_available(simd::active_arch()));
  EXPECT_EQ(&simd::active_kernels(), simd::kernels_for(simd::active_arch()));
  EXPECT_FALSE(simd::cpu_features().empty());
  EXPECT_STREQ(simd::arch_name(simd::Arch::Scalar), "scalar");
}

TEST(SimdDispatch, UnavailableArchRejectedWithoutStateChange) {
  ArchGuard guard;
  const simd::Arch before = simd::active_arch();
  for (const simd::Arch a : {simd::Arch::Sse2, simd::Arch::Avx2,
                             simd::Arch::Avx512}) {
    if (simd::arch_available(a)) continue;
    EXPECT_EQ(simd::kernels_for(a), nullptr);
    EXPECT_FALSE(simd::set_arch(a));
    EXPECT_EQ(simd::active_arch(), before);
    EXPECT_EQ(&simd::active_kernels(), simd::kernels_for(before));
  }
}

// Randomized relax kernels: every target must produce the scalar
// target's exact bytes for widths that exercise full vector chunks,
// remainder lanes (width % W != 0) and the width-1 degenerate case.
TEST(SimdKernels, RelaxEdgesBitIdenticalAcrossTargets) {
  const std::vector<simd::Arch> archs = simd::available_archs();
  const simd::Kernels* scalar = simd::kernels_for(simd::Arch::Scalar);
  ASSERT_NE(scalar, nullptr);

  constexpr std::size_t kNodes = 48;
  constexpr std::size_t kInsts = 40;
  Rng rng(0xfeedULL);
  std::vector<simd::RelaxEdge> edges;
  for (std::size_t i = 0; i < 400; ++i) {
    simd::RelaxEdge e;
    e.from = static_cast<std::uint32_t>(rng.next() % kNodes);
    e.to = static_cast<std::uint32_t>(rng.next() % kNodes);
    // ~1 in 4 edges fixed (net edges carry no instance factor).
    e.inst = (rng.next() % 4 == 0)
                 ? simd::kInvalidRelaxInst
                 : static_cast<std::uint32_t>(rng.next() % kInsts);
    e.base_delay = static_cast<float>(0.01 + rng.uniform() * 0.2);
    edges.push_back(e);
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{7},
                                  std::size_t{8}, std::size_t{16},
                                  std::size_t{17}, std::size_t{32}}) {
    AlignedVec<double> factors(kInsts * width);
    for (auto& f : factors) f = 0.8 + 0.4 * rng.uniform();
    AlignedVec<double> init(kNodes * width);
    for (auto& a : init) a = rng.uniform();
    AlignedVec<double> delays(edges.size() * width);
    for (auto& d : delays) d = rng.uniform() * 0.3;

    AlignedVec<double> ref = init;
    scalar->relax_edges(edges.data(), edges.size(), factors.data(),
                        ref.data(), width);
    AlignedVec<double> ref_d = init;
    scalar->relax_edges_delays(edges.data(), edges.size(), delays.data(),
                               ref_d.data(), width);
    for (const simd::Arch a : archs) {
      const simd::Kernels* k = simd::kernels_for(a);
      ASSERT_NE(k, nullptr);
      AlignedVec<double> got = init;
      k->relax_edges(edges.data(), edges.size(), factors.data(), got.data(),
                     width);
      EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                            ref.size() * sizeof(double)),
                0)
          << "relax_edges " << simd::arch_name(a) << " width " << width;
      got = init;
      k->relax_edges_delays(edges.data(), edges.size(), delays.data(),
                            got.data(), width);
      EXPECT_EQ(std::memcmp(ref_d.data(), got.data(),
                            ref_d.size() * sizeof(double)),
                0)
          << "relax_edges_delays " << simd::arch_name(a) << " width "
          << width;
    }
  }
}

// The table transform at the hard spots: the ±clamp_sigma table edges
// (everything a clamped draw can reach), points clamped below/above the
// range, and exact interval boundaries — bit-equal to eval_row on every
// compiled dispatch target, for every (corner, Vth) row.
TEST(SimdKernels, DrawTransformMatchesEvalRowAtEdges) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  const VariationModel model(cp, field);
  const DelayFactorTables& tbl = model.delay_factor_tables();
  ASSERT_TRUE(tbl.built());
  const double lo = tbl.lo_nm();
  const double hi = tbl.hi_nm();
  const double range = hi - lo;
  const int intervals = tbl.intervals();

  // Clamp edges, out-of-range points, interval boundaries, interior.
  std::vector<double> points = {lo,
                                hi,
                                lo - 3.0,
                                hi + 3.0,
                                lo - 1e-9,
                                hi + 1e-9,
                                lo + 0.5 * range / intervals};
  for (const int k : {1, 2, intervals / 2, intervals - 1, intervals}) {
    points.push_back(lo + range * k / intervals);
  }
  Rng rng(0xab1eULL);
  for (int i = 0; i < 16; ++i) points.push_back(lo + range * rng.uniform());

  // eval_row_slope: value bitwise equal to eval_row everywhere; in the
  // clamped region below lo the segment is pinned to j = 0, so value and
  // slope are exactly row_coef[0] + row_coef[1] * (lg - lo) and
  // row_coef[1]; above hi the slope matches any other point of the last
  // segment.
  for (int r = 0; r < DelayFactorTables::kRows; ++r) {
    const double* rd = tbl.row_data(r);
    for (const double lg : points) {
      double slope = 0.0;
      const double v = tbl.eval_row(rd, lg);
      EXPECT_EQ(v, tbl.eval_row_slope(rd, lg, &slope));
      if (lg < lo) {
        EXPECT_EQ(v, rd[0] + rd[1] * (lg - lo));
        EXPECT_EQ(slope, rd[1]);
      }
    }
    double slope_above = 0.0, slope_last = 0.0;
    (void)tbl.eval_row_slope(rd, hi + 3.0, &slope_above);
    (void)tbl.eval_row_slope(rd, hi - 1e-6 * range, &slope_last);
    EXPECT_EQ(slope_above, slope_last);
  }

  // The tile kernel: instances cycle rows x points; lane eps spread
  // around zero plus a lane pinned at exactly zero so the boundary points
  // stay on their boundaries in at least one lane.  Tile sizes cover a
  // single instance, odd and one-short tails and a full tile; the eps
  // stride differs from m; the output gets a guard band that must stay
  // untouched.
  for (int r = 0; r < DelayFactorTables::kRows; ++r) {
    EXPECT_EQ(tbl.row_data(r), tbl.row_data(0) + r * 2 * intervals);
  }
  EXPECT_EQ(tbl.row_offset(kVddLow, VthClass::Svt),
            DelayFactorTables::row(kVddLow, VthClass::Svt) * 2 * intervals);
  EXPECT_EQ(tbl.row_offset(kVddHigh, VthClass::Hvt),
            DelayFactorTables::row(kVddHigh, VthClass::Hvt) * 2 * intervals);
  ArchGuard guard;
  constexpr double kGuard = -12345.0;
  constexpr std::size_t kGuardLen = 16;
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{255},
                              std::size_t{256}}) {
    std::vector<std::int32_t> row_off(m);
    std::vector<double> sys(m);
    for (std::size_t i = 0; i < m; ++i) {
      const auto r = static_cast<int>(i % DelayFactorTables::kRows);
      row_off[i] = r * 2 * intervals;
      sys[i] = points[(i / DelayFactorTables::kRows) % points.size()];
    }
    const std::size_t stride = m + 3;
    for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, std::size_t{9}}) {
      std::vector<double> eps(width * stride, 1e300);  // gaps never read
      for (std::size_t l = 0; l < width; ++l) {
        for (std::size_t i = 0; i < m; ++i) {
          eps[l * stride + i] = l == 0 ? 0.0 : (rng.uniform() - 0.5) * range;
        }
      }
      for (const simd::Arch a : simd::available_archs()) {
        ASSERT_TRUE(simd::set_arch(a));
        std::vector<double> out(m * width + kGuardLen, kGuard);
        tbl.eval_tile(row_off.data(), sys.data(), eps.data(), stride, m, width,
                      out.data());
        for (std::size_t i = 0; i < m; ++i) {
          const double* rd = tbl.row_data(0) + row_off[i];
          for (std::size_t l = 0; l < width; ++l) {
            EXPECT_EQ(out[i * width + l],
                      tbl.eval_row(rd, sys[i] + eps[l * stride + i]))
                << simd::arch_name(a) << " m " << m << " width " << width
                << " inst " << i << " lane " << l;
          }
        }
        for (std::size_t g = m * width; g < out.size(); ++g) {
          EXPECT_EQ(out[g], kGuard) << simd::arch_name(a) << " m " << m
                                    << " width " << width << " overrun";
        }
      }
    }
  }
}

// The BatchedSimd normal stream: bit-identical across every dispatch
// target, prefix-stable, correct odd-tail and empty-span RNG
// consumption, and numerically faithful to the libm reference.
TEST(SimdKernels, NormalsSimdArchInvariant) {
  ArchGuard guard;
  const std::vector<simd::Arch> archs = simd::available_archs();
  std::vector<double> ref;
  for (const simd::Arch a : archs) {
    ASSERT_TRUE(simd::set_arch(a));
    Rng rng(0x5eedULL);
    std::vector<double> v(1001);  // odd: exercises the cos-only tail
    rng.normals_simd(v);
    if (ref.empty()) {
      ref = v;
    } else {
      EXPECT_EQ(std::memcmp(ref.data(), v.data(), v.size() * sizeof(double)),
                0)
          << simd::arch_name(a);
    }
    // Exactly two parent draws consumed regardless of length.
    Rng twin(0x5eedULL);
    twin.next();
    twin.next();
    EXPECT_EQ(rng.next(), twin.next()) << simd::arch_name(a);
  }
}

// normals_fill over a range [begin, end) writes exactly that slice of the
// full stream on every target: ranges that start or end on a sine
// deviate, single elements, block-straddling and block-aligned ranges,
// and the odd tail of an odd-length fill.
TEST(SimdKernels, NormalsFillRangeMatchesFullFillSlice) {
  constexpr std::size_t kN = 1001;
  Rng rng(0x4a17ULL);
  std::vector<double> full(kN);
  Rng(0x4a17ULL).normals_simd(full);
  const Rng::NormalKeys keys = rng.normal_keys();
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 1},     {0, 2},     {1, 2},     {1, 4},     {3, 4},
      {5, 10},    {127, 129}, {255, 256}, {255, 257}, {256, 512},
      {256, 511}, {257, 768}, {3, 1000},  {0, kN},    {999, kN},
      {1000, kN}, {512, 513}, {7, 7}};
  for (const simd::Arch a : simd::available_archs()) {
    const simd::Kernels& k = *simd::kernels_for(a);
    for (const auto& [begin, end] : ranges) {
      std::vector<double> out(end - begin + 1, -1.0);
      k.normals_fill(keys.r, keys.t, out.data(), begin, end);
      for (std::size_t i = begin; i < end; ++i) {
        EXPECT_EQ(out[i - begin], full[i])
            << simd::arch_name(a) << " [" << begin << ", " << end << ") at "
            << i;
      }
      EXPECT_EQ(out.back(), -1.0) << simd::arch_name(a) << " overrun";
    }
  }
}

TEST(SimdKernels, NormalsSimdPrefixStableAndEmptyConsumes) {
  Rng a(0x11ULL), b(0x11ULL);
  std::vector<double> big(1001), small(257);
  a.normals_simd(big);
  b.normals_simd(small);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], big[i]) << i;
  }
  // An empty span still advances the two parent draws (so surrounding
  // draws stay aligned whatever the fill length).
  Rng c(0x22ULL), d(0x22ULL);
  std::vector<double> none;
  c.normals_simd(none);
  d.next();
  d.next();
  EXPECT_EQ(c.next(), d.next());
}

TEST(SimdKernels, NormalsSimdMatchesLibmReferenceAndMoments) {
  Rng rng(0x77aaULL);
  const std::uint64_t key_r = Rng(0x77aaULL).next();
  const std::uint64_t key_t = [&] {
    Rng t(0x77aaULL);
    t.next();
    return t.next();
  }();
  constexpr std::size_t kN = 100000;
  std::vector<double> v(kN);
  rng.normals_simd(v);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  double sum = 0.0, sum2 = 0.0, max_err = 0.0;
  for (std::size_t p = 0; p < kN / 2; ++p) {
    const double u1 =
        (static_cast<double>(Rng::counter_bits(key_r, p) >> 11) + 1.0) *
        0x1.0p-53;
    const double ang =
        kTwoPi *
        (static_cast<double>(Rng::counter_bits(key_t, p) >> 11) * 0x1.0p-53);
    const double rad = std::sqrt(-2.0 * std::log(u1));
    max_err = std::max(max_err, std::abs(v[2 * p] - rad * std::cos(ang)));
    max_err = std::max(max_err, std::abs(v[2 * p + 1] - rad * std::sin(ang)));
  }
  // Own vector log/sincos vs libm: a few ulps at |z| <= ~6.
  EXPECT_LT(max_err, 1e-11);
  for (const double z : v) {
    sum += z;
    sum2 += z * z;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// End-to-end: the BatchedSimd profile is invariant across dispatch
// targets, batch widths and thread counts, and on every pinned target a
// Scalar-profile batch-8 run (analyze_batch through the dispatched relax
// kernel) is bit-identical to the batch-1 analyze() reference.
TEST(SimdMc, BatchedSimdProfileInvariance) {
  Library lib = make_st65lp_like();
  Design design = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(design, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(design, fp, PlacerConfig{}, db);
  StaEngine sta(design, StaOptions{});
  sta.set_clock_period(sta.min_period() * 1.01);
  const ExposureField field = ExposureField::scaled_65nm(lib.char_params());
  const VariationModel model(lib.char_params(), field);
  const MonteCarloSsta mc(design, sta, model);
  const DieLocation loc = DieLocation::point('B');

  McConfig cfg;
  cfg.samples = 48;
  cfg.seed = 0xc0ffeeULL;
  cfg.profile = DrawProfile::BatchedSimd;
  cfg.batch = 8;

  const auto same = [](const McResult& r, const McResult& ref) {
    ASSERT_EQ(r.min_period_samples, ref.min_period_samples);
    ASSERT_EQ(r.endpoint_crit_prob, ref.endpoint_crit_prob);
    ASSERT_EQ(r.endpoint_stage_crit, ref.endpoint_stage_crit);
    for (std::size_t s = 0; s < ref.stages.size(); ++s) {
      ASSERT_EQ(r.stages[s].samples, ref.stages[s].samples) << s;
    }
  };
  const McResult ref = mc.run(loc, cfg);

  McConfig wide = cfg;
  wide.batch = 16;
  same(mc.run(loc, wide), ref);
  ThreadPool pool(2);
  same(mc.run(loc, cfg, &pool), ref);

  McConfig scalar = cfg;
  scalar.profile = DrawProfile::Scalar;
  scalar.batch = 1;
  const McResult scalar_ref = mc.run(loc, scalar);
  scalar.batch = 8;

  ArchGuard guard;
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    SCOPED_TRACE(simd::arch_name(a));
    same(mc.run(loc, cfg), ref);
    same(mc.run(loc, scalar), scalar_ref);
  }
}

}  // namespace
}  // namespace vipvt
