// Cross-commit pin of the BatchedSimd stream.  Every other BatchedSimd
// test compares the code with itself (thread, width or dispatch-target
// invariance), so a kernel rewrite that changed the stream everywhere at
// once would pass them all.  These fixtures were generated once and are
// compared on every available dispatch target:
//
//   * batched_simd_draw.txt — an FNV-1a digest (plus the first and last
//     factor in hex-float) of VariationModel::draw_factors_batch on the
//     tiny core, for correlated fraction 0 and > 0, widths 1/3/8/9, at a
//     nonzero first sample;
//   * batched_simd_yield.csv — the write_yield_csv bytes of a small
//     flat-tier BatchedSimd wafer.
//
// A change to either is a change of the BatchedSimd stream, which
// DrawProfile's contract forbids (mc_ssta.hpp): it needs a new profile,
// not a regenerated fixture.  Regeneration (only when adding a case):
//   VIPVT_UPDATE_GOLDEN=1 ./build/tests/test_golden_draw

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/yield_writers.hpp"
#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "util/simd/dispatch.hpp"
#include "vi/flow.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {
namespace {

struct ArchGuard {
  ~ArchGuard() { simd::reset_arch(); }
};

std::string golden_path(const std::string& name) {
  return std::string(VIPVT_GOLDEN_DIR) + "/" + name;
}

bool updating() { return std::getenv("VIPVT_UPDATE_GOLDEN") != nullptr; }

std::string read_golden(const std::string& name) {
  std::ifstream is(golden_path(name), std::ios::binary);
  std::ostringstream want;
  want << is.rdbuf();
  return want.str();
}

void write_golden(const std::string& name, const std::string& got) {
  std::ofstream os(golden_path(name), std::ios::binary);
  ASSERT_TRUE(os) << "cannot rewrite " << golden_path(name);
  os << got;
}

/// FNV-1a over the bytes of a double array (little-endian hosts).
std::uint64_t fnv1a(const double* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

class GoldenDraw : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(make_st65lp_like());
    design_ = new Design(make_vex_design(*lib_, VexConfig::tiny()));
    fp_ = new Floorplan(Floorplan::for_design(*design_, FloorplanConfig{}));
    db_ = new PlacementDb(*fp_);
    place_design(*design_, *fp_, PlacerConfig{}, *db_);
    sta_ = new StaEngine(*design_, StaOptions{});
    field_ = new ExposureField(ExposureField::scaled_65nm(lib_->char_params()));
  }
  static void TearDownTestSuite() {
    delete field_;
    delete sta_;
    delete db_;
    delete fp_;
    delete design_;
    delete lib_;
  }

  /// The fixture text for the active dispatch target.
  static std::string draw_digests() {
    std::string text;
    for (const double corr : {0.0, 0.5}) {
      VariationConfig vc;
      vc.correlated_fraction = corr;
      const VariationModel model(lib_->char_params(), *field_, vc);
      const std::vector<double> sys =
          model.systematic_lgates(*design_, DieLocation::point('B'));
      const std::vector<CorrelatedField::Stencil> stencils =
          model.field_stencils(*design_);
      McScratch scratch;
      model.table_row_offsets(*design_, *sta_, scratch.row_offsets);
      const std::size_t n = design_->num_instances();
      for (const std::size_t width : {1, 3, 8, 9}) {
        const std::uint64_t first = 1000003;
        std::vector<double> soa(n * width);
        model.draw_factors_batch(sys, stencils, scratch.row_offsets,
                                 0xd1ce5eedULL, first, width, soa,
                                 scratch.draw);
        char line[256];
        std::snprintf(line, sizeof line,
                      "corr=%.2f width=%zu first=%" PRIu64
                      " fnv1a=%016" PRIx64 " head=%a tail=%a\n",
                      corr, width, first, fnv1a(soa.data(), soa.size()),
                      soa.front(), soa.back());
        text += line;
      }
    }
    return text;
  }

  static Library* lib_;
  static Design* design_;
  static Floorplan* fp_;
  static PlacementDb* db_;
  static StaEngine* sta_;
  static ExposureField* field_;
};

Library* GoldenDraw::lib_ = nullptr;
Design* GoldenDraw::design_ = nullptr;
Floorplan* GoldenDraw::fp_ = nullptr;
PlacementDb* GoldenDraw::db_ = nullptr;
StaEngine* GoldenDraw::sta_ = nullptr;
ExposureField* GoldenDraw::field_ = nullptr;

TEST_F(GoldenDraw, DrawFactorsBatchMatchesGoldenOnEveryArch) {
  const std::string name = "batched_simd_draw.txt";
  ArchGuard guard;
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    const std::string got = draw_digests();
    if (updating() && a == simd::Arch::Scalar) write_golden(name, got);
    EXPECT_EQ(got, read_golden(name))
        << simd::arch_name(a) << ": the BatchedSimd draw stream changed";
  }
}

TEST(GoldenWafer, FlatBatchedSimdYieldCsvMatchesGoldenOnEveryArch) {
  FlowConfig fc;
  fc.vex = VexConfig::tiny();
  fc.floorplan.target_utilization = 0.55;
  fc.scenario.sweep_points = 6;
  fc.scenario.mc.samples = 100;
  fc.islands.mc_samples = 80;
  fc.sim_cycles = 150;
  Flow flow(fc);
  flow.simulate_activity();
  WaferConfig wc;
  wc.wafer_diameter_mm = 100.0;
  const WaferModel wafer(wc);
  YieldConfig yc;
  yc.mc.samples = 12;  // one full batch of 8 plus a 4-lane tail
  yc.mc.profile = DrawProfile::BatchedSimd;
  yc.tier = EvalTier::Flat;
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(flow);

  const std::string name = "batched_simd_yield.csv";
  ArchGuard guard;
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    std::ostringstream os;
    write_yield_csv(os, wafer, analyzer.analyze(wafer, yc, nullptr));
    if (updating() && a == simd::Arch::Scalar) write_golden(name, os.str());
    EXPECT_EQ(os.str(), read_golden(name))
        << simd::arch_name(a) << ": the BatchedSimd wafer report changed";
  }
}

}  // namespace
}  // namespace vipvt
