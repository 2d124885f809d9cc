// Wafer-scale yield subsystem tests: wafer geometry invariants, report
// consistency, and — the load-bearing contract — BIT-IDENTICAL reports
// for serial, 1-thread and N-thread runs over a >= 100-die wafer.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numbers>
#include <set>
#include <sstream>
#include <utility>

#include "io/yield_writers.hpp"
#include "vi/flow.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {
namespace {

WaferConfig test_wafer_config() {
  WaferConfig wc;
  wc.wafer_diameter_mm = 200.0;  // 120 dies with the 28 mm / 14 mm geometry
  return wc;
}

YieldConfig test_yield_config() {
  YieldConfig yc;
  yc.mc.samples = 12;  // population stats only need a coarse sketch here
  yc.seed = 0xd1e5;
  return yc;
}

// ---- wafer geometry (no flow needed) --------------------------------------

TEST(WaferModel, StampsAtLeastOneHundredDies) {
  const WaferModel wafer(test_wafer_config());
  EXPECT_GE(wafer.num_dies(), 100u);
  EXPECT_EQ(wafer.dies_per_field_side(), 2);
}

TEST(WaferModel, DieIdsAreDenseRowMajor) {
  const WaferModel wafer(test_wafer_config());
  int prev_row = -1, prev_col = -1;
  for (std::size_t i = 0; i < wafer.num_dies(); ++i) {
    const WaferDie& d = wafer.dies()[i];
    EXPECT_EQ(d.id, static_cast<int>(i));
    const int row = wafer.grid_row(d), col = wafer.grid_col(d);
    EXPECT_TRUE(row > prev_row || (row == prev_row && col > prev_col));
    prev_row = row;
    prev_col = col;
  }
}

TEST(WaferModel, DiesFitInsideUsableRadius) {
  const WaferConfig wc = test_wafer_config();
  const WaferModel wafer(wc);
  const double radius = 0.5 * wc.wafer_diameter_mm - wc.edge_exclusion_mm;
  const double half_diag = wc.die_mm * std::numbers::sqrt2 * 0.5;
  for (const WaferDie& d : wafer.dies()) {
    EXPECT_LE(std::hypot(d.center_mm.x, d.center_mm.y) + half_diag,
              radius + 1e-9);
  }
}

TEST(WaferModel, DieLocationsTileTheExposureField) {
  const WaferConfig wc = test_wafer_config();
  const WaferModel wafer(wc);
  std::set<std::pair<double, double>> field_positions;
  for (const WaferDie& d : wafer.dies()) {
    const Point o = d.location.chip_origin_mm;
    EXPECT_GE(o.x, 0.0);
    EXPECT_GE(o.y, 0.0);
    EXPECT_LE(o.x + wc.die_mm, wc.field_mm + 1e-9);
    EXPECT_LE(o.y + wc.die_mm, wc.field_mm + 1e-9);
    field_positions.insert({o.x, o.y});
  }
  // Every die-grid slot of the reticle occurs somewhere on the wafer.
  EXPECT_EQ(field_positions.size(),
            static_cast<std::size_t>(wafer.dies_per_field_side() *
                                     wafer.dies_per_field_side()));
}

TEST(WaferModel, AsciiMapRendersEveryDie) {
  const WaferModel wafer(test_wafer_config());
  const std::string map = wafer.ascii_map();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(map.begin(), map.end(), '#')),
            wafer.num_dies());
}

TEST(WaferModel, RejectsDegenerateConfigs) {
  WaferConfig wc;
  wc.die_mm = 0.0;
  EXPECT_THROW(WaferModel{wc}, std::invalid_argument);
  wc = WaferConfig{};
  wc.die_mm = 30.0;  // die larger than the exposure field
  EXPECT_THROW(WaferModel{wc}, std::invalid_argument);
}

// ---- yield analysis over the tiny-core flow -------------------------------

FlowConfig tiny_flow_config() {
  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  return cfg;
}

class YieldFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    flow_ = new Flow(tiny_flow_config());
    flow_->simulate_activity();
    wafer_ = new WaferModel(test_wafer_config());
    const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
    ThreadPool pool(4);
    report_ = new YieldReport(
        analyzer.analyze(*wafer_, test_yield_config(), &pool));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete wafer_;
    delete flow_;
    report_ = nullptr;
    wafer_ = nullptr;
    flow_ = nullptr;
  }
  static Flow* flow_;
  static WaferModel* wafer_;
  static YieldReport* report_;
};

Flow* YieldFixture::flow_ = nullptr;
WaferModel* YieldFixture::wafer_ = nullptr;
YieldReport* YieldFixture::report_ = nullptr;

std::string serialize(const WaferModel& wafer, const YieldReport& report) {
  std::ostringstream os;
  write_yield_csv(os, wafer, report);
  write_yield_json(os, report);
  return os.str();
}

TEST_F(YieldFixture, ReportCoversEveryDieConsistently) {
  ASSERT_EQ(report_->dies.size(), wafer_->num_dies());
  std::size_t policy_sum = 0;
  for (const auto c : report_->policy_count) policy_sum += c;
  EXPECT_EQ(policy_sum, report_->total_dies());
  EXPECT_GE(report_->parametric_yield(), 0.0);
  EXPECT_LE(report_->parametric_yield(), 1.0);
  for (std::size_t i = 0; i < report_->dies.size(); ++i) {
    const DieOutcome& d = report_->dies[i];
    EXPECT_EQ(d.die_id, static_cast<int>(i));
    EXPECT_GT(d.total_mw, 0.0);
    EXPECT_GT(d.fmax_ghz, 0.0);
    if (d.policy != TuningPolicy::Discard) EXPECT_TRUE(d.timing_met);
  }
}

TEST_F(YieldFixture, WaferReproducesThePaperGradient) {
  // Dies at the slow field corner (point-A position, field origin) must
  // demand at least as much compensation as dies at the fast corner
  // (point-D position) — the wafer-scale restatement of Fig. 3/4.
  RunningStats slow_islands, fast_islands;
  const double die = report_->wafer.die_mm;
  for (const DieOutcome& d : report_->dies) {
    const WaferDie& g = wafer_->dies()[static_cast<std::size_t>(d.die_id)];
    const int raised = d.policy == TuningPolicy::ChipWideHigh
                           ? flow_->island_plan().num_islands() + 1
                           : d.islands_raised;
    if (g.location.chip_origin_mm.x < die * 0.5 &&
        g.location.chip_origin_mm.y < die * 0.5) {
      slow_islands.add(raised);
    } else if (g.location.chip_origin_mm.x > die * 0.5 &&
               g.location.chip_origin_mm.y > die * 0.5) {
      fast_islands.add(raised);
    }
  }
  ASSERT_GT(slow_islands.count(), 0u);
  ASSERT_GT(fast_islands.count(), 0u);
  EXPECT_GE(slow_islands.mean(), fast_islands.mean());
}

TEST_F(YieldFixture, IslandActivationMatchesPolicyCounts) {
  std::size_t activation_sum = 0;
  for (const auto c : report_->island_activation) activation_sum += c;
  EXPECT_EQ(activation_sum, report_->count(TuningPolicy::AllLow) +
                                report_->count(TuningPolicy::NestedIslands));
  EXPECT_EQ(report_->island_activation.size(),
            static_cast<std::size_t>(flow_->island_plan().num_islands()) + 1);
}

TEST_F(YieldFixture, SpeedBinsPartitionShippedDies) {
  std::size_t binned = 0;
  for (const auto c : report_->speed_bin_count) binned += c;
  EXPECT_EQ(binned, report_->fmax_ghz.count());
  EXPECT_EQ(report_->fmax_ghz.count(), report_->shipped_dies());
}

TEST_F(YieldFixture, PolicyGlyphsMatchAsciiMap) {
  const std::string glyphs = report_->policy_glyphs();
  ASSERT_EQ(glyphs.size(), wafer_->num_dies());
  const std::string map = wafer_->ascii_map(glyphs);
  for (char g : glyphs) {
    EXPECT_NE(map.find(g), std::string::npos);
  }
}

// The acceptance contract: report is bit-identical for 1-thread and
// N-thread runs (and for the no-pool serial path).  Compared through the
// deterministic writers, so formatting ties the whole chain down.
TEST_F(YieldFixture, ReportBitIdenticalAcrossThreadCounts) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  ThreadPool one(1);
  const YieldReport serial =
      analyzer.analyze(*wafer_, test_yield_config(), nullptr);
  const YieldReport one_thread =
      analyzer.analyze(*wafer_, test_yield_config(), &one);
  const std::string parallel_txt = serialize(*wafer_, *report_);  // 4 threads
  EXPECT_EQ(serialize(*wafer_, serial), parallel_txt);
  EXPECT_EQ(serialize(*wafer_, one_thread), parallel_txt);
}

// ---- adaptive per-die sampling (DESIGN.md §14) -----------------------------

/// Fixed-budget runs read as the degenerate adaptive case: every die
/// draws exactly the budget, nothing converges early, savings are zero.
TEST_F(YieldFixture, FixedBudgetAccountingIsDegenerate) {
  const YieldConfig cfg = test_yield_config();
  EXPECT_EQ(report_->mc_samples_budget,
            wafer_->num_dies() * static_cast<std::size_t>(cfg.mc.samples));
  EXPECT_EQ(report_->mc_samples_drawn, report_->mc_samples_budget);
  EXPECT_EQ(report_->mc_converged_dies, 0u);
  EXPECT_DOUBLE_EQ(report_->mc_sample_savings(), 0.0);
  for (const DieOutcome& d : report_->dies) {
    EXPECT_EQ(d.mc_samples, cfg.mc.samples);
    EXPECT_EQ(d.mc_stop, McStop::FixedBudget);
  }
}

/// Adaptive wafer accounting: per-die budgets land inside
/// [min_samples, max_samples], the wafer budget is dies x max_samples,
/// and the savings figure follows from drawn/budget.  The loose-target
/// run converges every die at the first checkpoint; the zero-target run
/// caps every die at max_samples with zero savings.
TEST_F(YieldFixture, AdaptiveAccountingIsConsistent) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig yc = test_yield_config();
  yc.mc.adaptive.enabled = true;
  yc.mc.adaptive.min_samples = 8;
  yc.mc.adaptive.max_samples = 48;
  yc.mc.adaptive.check_every_batches = 1;
  yc.mc.adaptive.mean_half_width_ns = 1e9;
  yc.mc.adaptive.sigma_half_width_ns = 1e9;
  const std::size_t dies = wafer_->num_dies();

  const YieldReport loose = analyzer.analyze(*wafer_, yc, nullptr);
  EXPECT_EQ(loose.mc_samples_budget, dies * 48u);
  EXPECT_GE(loose.mc_samples_drawn, dies * 8u);
  EXPECT_LT(loose.mc_samples_drawn, loose.mc_samples_budget);
  EXPECT_EQ(loose.mc_converged_dies, dies);
  EXPECT_GT(loose.mc_sample_savings(), 0.0);
  EXPECT_LT(loose.mc_sample_savings(), 1.0);
  std::size_t drawn = 0;
  for (const DieOutcome& d : loose.dies) {
    EXPECT_GE(d.mc_samples, 8);
    EXPECT_LE(d.mc_samples, 48);
    EXPECT_EQ(d.mc_stop, McStop::Converged);
    drawn += static_cast<std::size_t>(d.mc_samples);
  }
  EXPECT_EQ(drawn, loose.mc_samples_drawn);

  yc.mc.adaptive.mean_half_width_ns = 0.0;
  yc.mc.adaptive.sigma_half_width_ns = 0.0;
  const YieldReport capped = analyzer.analyze(*wafer_, yc, nullptr);
  EXPECT_EQ(capped.mc_samples_drawn, capped.mc_samples_budget);
  EXPECT_EQ(capped.mc_converged_dies, 0u);
  EXPECT_DOUBLE_EQ(capped.mc_sample_savings(), 0.0);
  for (const DieOutcome& d : capped.dies) {
    EXPECT_EQ(d.mc_samples, 48);
    EXPECT_EQ(d.mc_stop, McStop::MaxSamples);
  }
}

/// Per-die adaptive stopping is part of the wafer determinism contract:
/// serialized reports (CSV + JSON, mc_samples/mc_stop columns included)
/// must be byte-identical for serial and pooled runs.
TEST_F(YieldFixture, AdaptiveReportBitIdenticalAcrossThreadCounts) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig yc = test_yield_config();
  yc.mc.adaptive.enabled = true;
  yc.mc.adaptive.min_samples = 8;
  yc.mc.adaptive.max_samples = 48;
  yc.mc.adaptive.check_every_batches = 1;
  yc.mc.adaptive.mean_half_width_ns = 1e9;
  yc.mc.adaptive.sigma_half_width_ns = 1e9;
  const YieldReport serial = analyzer.analyze(*wafer_, yc, nullptr);
  ThreadPool pool(3);
  const YieldReport pooled = analyzer.analyze(*wafer_, yc, &pool);
  EXPECT_EQ(serialize(*wafer_, serial), serialize(*wafer_, pooled));
}

/// Every evaluation tier — flat MC, analytic triage (§16), adaptive MC
/// (§14) — consumes the identical per-die RNG
/// positions, so the silicon-side outputs (fabrication, compensation,
/// power) are bit-identical whichever tier screened the die.
TEST_F(YieldFixture, AllTiersKeepIdenticalRngPositionsForSiliconBits) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const auto silicon_bits = [](const YieldReport& r) {
    std::ostringstream os;
    for (const DieOutcome& d : r.dies) {
      os << d.die_id << ' ' << d.detected_severity << ' ' << d.islands_raised
         << ' ' << static_cast<int>(d.policy) << ' ' << d.timing_met << ' '
         << d.escalated << ' ' << d.missed_violation << ' '
         << std::hexfloat << d.wns_all_low_ns << ' ' << d.wns_final_ns << ' '
         << d.total_mw << ' ' << d.leakage_mw << std::defaultfloat << '\n';
    }
    return os.str();
  };
  const YieldReport flat = analyzer.analyze(*wafer_, test_yield_config());

  YieldConfig triage_cfg = test_yield_config();
  triage_cfg.tier = EvalTier::Triage;
  const YieldReport triage = analyzer.analyze(*wafer_, triage_cfg);
  EXPECT_GT(triage.triage_analytical, 0u);

  YieldConfig adaptive_cfg = test_yield_config();
  adaptive_cfg.mc.adaptive.enabled = true;
  adaptive_cfg.mc.adaptive.min_samples = 8;
  adaptive_cfg.mc.adaptive.max_samples = 48;
  adaptive_cfg.mc.adaptive.check_every_batches = 1;
  adaptive_cfg.mc.adaptive.mean_half_width_ns = 1e9;
  adaptive_cfg.mc.adaptive.sigma_half_width_ns = 1e9;
  const YieldReport adaptive = analyzer.analyze(*wafer_, adaptive_cfg);
  EXPECT_GT(adaptive.mc_converged_dies, 0u);

  const std::string want = silicon_bits(flat);
  EXPECT_EQ(silicon_bits(triage), want);
  EXPECT_EQ(silicon_bits(adaptive), want);
}

TEST_F(YieldFixture, CsvHasOneRowPerDie) {
  std::ostringstream os;
  write_yield_csv(os, *wafer_, *report_);
  const std::string csv = os.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            wafer_->num_dies() + 1);  // header + rows
}

TEST_F(YieldFixture, JsonIsWellFormedEnoughToGrep) {
  std::ostringstream os;
  write_yield_json(os, *report_);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"parametric_yield\""), std::string::npos);
  EXPECT_NE(json.find("\"island_activation\""), std::string::npos);
  EXPECT_NE(json.find("\"speed_bins\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// A die's location within the exposure field depends only on its
// (die_ix, die_iy) reticle slot, so the wafer loop computes ONE
// systematic Lgate map per slot and shares it.  The cached map must be
// exactly what a fresh per-die evaluation would produce.
TEST_F(YieldFixture, ReticleSlotSystematicMapsMatchPerDieEvaluation) {
  const VariationModel& model = flow_->variation();
  const int side = wafer_->dies_per_field_side();
  std::vector<std::vector<double>> slot_maps(
      static_cast<std::size_t>(side) * static_cast<std::size_t>(side));
  std::size_t evaluations = 0;
  for (const WaferDie& d : wafer_->dies()) {
    const std::size_t slot =
        static_cast<std::size_t>(d.die_iy) * static_cast<std::size_t>(side) +
        static_cast<std::size_t>(d.die_ix);
    ASSERT_LT(slot, slot_maps.size());
    auto& map = slot_maps[slot];
    if (map.empty()) {
      map = model.systematic_lgates(flow_->design(), d.location);
      ++evaluations;
    }
    // The shared map is bit-identical to this die's own evaluation.
    const std::vector<double> own =
        model.systematic_lgates(flow_->design(), d.location);
    ASSERT_EQ(own.size(), map.size());
    for (std::size_t i = 0; i < own.size(); ++i) {
      ASSERT_EQ(own[i], map[i]) << "die " << d.id << " instance " << i;
    }
  }
  // The cache actually collapses the wafer to one evaluation per slot.
  EXPECT_EQ(evaluations, static_cast<std::size_t>(side) *
                             static_cast<std::size_t>(side));
  EXPECT_LT(evaluations, wafer_->num_dies());
}

// analyze_die_with (persistent controller + shared systematic map — the
// wafer loop's worker path) must be bit-identical to the fresh-state
// analyze_die, including when one controller carries its level-snapshot
// cache across many dies.
TEST_F(YieldFixture, AnalyzeDieWithMatchesAnalyzeDie) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldConfig cfg = test_yield_config();
  const VariationModel& model = flow_->variation();

  StaEngine fresh_engine(flow_->sta());
  StaEngine worker_engine(flow_->sta());
  CompensationController worker_ctrl(flow_->design(), worker_engine, model,
                                     flow_->island_plan(),
                                     flow_->razor_plan());

  // A handful of dies spread across the wafer, processed back-to-back on
  // the same worker state (the cache-reuse case the contract covers).
  const std::vector<WaferDie>& dies = wafer_->dies();
  for (std::size_t i = 0; i < dies.size(); i += 17) {
    const WaferDie& die = dies[i];
    const DieOutcome a = analyzer.analyze_die(fresh_engine, die, cfg);
    const std::vector<double> systematic =
        model.systematic_lgates(flow_->design(), die.location);
    const DieOutcome b =
        analyzer.analyze_die_with(worker_engine, worker_ctrl, die, cfg,
                                  systematic);
    EXPECT_EQ(a.die_id, b.die_id);
    EXPECT_EQ(a.mc_severity, b.mc_severity);
    EXPECT_EQ(a.detected_severity, b.detected_severity);
    EXPECT_EQ(a.islands_raised, b.islands_raised);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.timing_met, b.timing_met);
    EXPECT_EQ(a.escalated, b.escalated);
    EXPECT_EQ(a.missed_violation, b.missed_violation);
    EXPECT_EQ(a.wns_all_low_ns, b.wns_all_low_ns) << "die " << die.id;
    EXPECT_EQ(a.wns_final_ns, b.wns_final_ns) << "die " << die.id;
    EXPECT_EQ(a.fmax_ghz, b.fmax_ghz) << "die " << die.id;
    EXPECT_EQ(a.total_mw, b.total_mw) << "die " << die.id;
    EXPECT_EQ(a.leakage_mw, b.leakage_mw) << "die " << die.id;
  }
}

// The BatchedSimd draw profile (the one perfbench runs) carries the same
// determinism-under-parallelism contract as Scalar: identical wafer
// reports for serial, 1-, 2- and 4-thread runs (within the profile).
TEST_F(YieldFixture, BatchedProfileReportBitIdenticalAcrossThreadCounts) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig cfg = test_yield_config();
  cfg.mc.profile = DrawProfile::BatchedSimd;
  const std::string reference =
      serialize(*wafer_, analyzer.analyze(*wafer_, cfg, nullptr));
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(serialize(*wafer_, analyzer.analyze(*wafer_, cfg, &pool)),
              reference)
        << threads << " threads";
  }
  // Distinct stream from the Scalar profile by design (compared
  // statistically in McFixture.BatchedProfileAgreesWithScalarStatistically,
  // not bit-wise here).
  EXPECT_NE(reference, serialize(*wafer_, *report_));
}

// A flat-tier die restores the level-0 bases once, before its MC run:
// compensate() finds them still installed (same base generation) and
// skips the restore it used to repeat.  The die's own sequence is replayed
// by hand (set_level(0), MC seed, fabricate, compensate) to count it
// against the old one, where compensate() restored level 0 again; a
// re-base between the two still forces the restore, with the same bits.
TEST_F(YieldFixture, FlatDieRestoresLevelZeroOnce) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const Design& design = flow_->design();
  const VariationModel& model = flow_->variation();
  StaEngine engine(flow_->sta());
  CompensationController ctrl(design, engine, model, flow_->island_plan(),
                              flow_->razor_plan());
  const YieldConfig cfg = test_yield_config();
  ASSERT_EQ(cfg.effective_tier(), EvalTier::Flat);
  const WaferDie& warm = wafer_->dies()[0];
  const WaferDie& die = wafer_->dies()[1];
  const std::vector<double> warm_map =
      model.systematic_lgates(design, warm.location);
  const std::vector<double> map = model.systematic_lgates(design, die.location);
  (void)analyzer.analyze_die_with(engine, ctrl, warm, cfg, warm_map);
  const int chip_wide = flow_->island_plan().num_islands() + 1;
  ASSERT_NE(ctrl.canonical_level(chip_wide), ctrl.canonical_level(0));

  // Each run starts from the chip-wide bases, so level 0 must be restored.
  ctrl.set_chip_wide();
  std::uint64_t g = engine.base_generation();
  const DieOutcome truth =
      analyzer.analyze_die_with(engine, ctrl, die, cfg, map);
  const std::uint64_t die_rebases = engine.base_generation() - g;

  Rng die_rng(substream_seed(cfg.seed, static_cast<std::uint64_t>(die.id)));
  (void)die_rng.next();  // the MC seed
  Rng fab_rng = die_rng.fork();
  const VirtualChip chip =
      fabricate_chip(design, model, die.location, map, fab_rng);
  const auto replay = [&](const std::function<void()>& between) {
    ctrl.set_chip_wide();
    g = engine.base_generation();
    ctrl.set_level(0);
    between();
    const CompensationOutcome out =
        ctrl.compensate(chip, cfg.allow_escalation,
                        cfg.allow_chip_wide_fallback);
    EXPECT_EQ(out.wns_before, truth.wns_all_low_ns);
    EXPECT_EQ(out.wns_after, truth.wns_final_ns);
    EXPECT_EQ(out.islands_raised, truth.islands_raised);
    EXPECT_EQ(out.detected_severity, truth.detected_severity);
    return engine.base_generation() - g;
  };
  EXPECT_EQ(replay([] {}), die_rebases);
  // The old sequence: compensate() restored level 0 a second time.
  // Doing that restore by hand re-bases the engine, so compensate()
  // restores once more: two rebases over the die, one over the old walk.
  const StaEngine::BaseSnapshot level0 = engine.snapshot_bases();
  EXPECT_EQ(replay([&] { engine.restore_bases(level0); }), die_rebases + 2);
  // Installing other bases behind the controller's back must not leak
  // into the die's verdict.
  EXPECT_EQ(replay([&] {
              engine.compute_base(std::vector<int>(
                  static_cast<std::size_t>(chip_wide), kVddHigh));
            }),
            die_rebases + 2);
  // Assigning an engine over it advances the generation too.
  g = engine.base_generation();
  engine = StaEngine(flow_->sta());
  EXPECT_GT(engine.base_generation(), g);
}

// ---- per-worker die scratch (DESIGN.md §20) --------------------------------

/// A wafer near the yield cliff: tight clock, 3x random sigma, no
/// escalation.  Every TuningPolicy occurs and part of the wafer falls
/// back to MC, so the power memo sees every level (Discard included) and
/// the MC lease runs.
class CliffWaferFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FlowConfig fc = tiny_flow_config();
    fc.clock_margin = -0.02;
    flow_ = new Flow(fc);
    flow_->simulate_activity();
    VariationConfig vc = flow_->variation().config();
    vc.three_sigma_random_frac *= 3.0;
    model_ = new VariationModel(flow_->variation().char_params(),
                                flow_->variation().field(), vc);
    wafer_ = new WaferModel(test_wafer_config());
  }
  static void TearDownTestSuite() {
    delete wafer_;
    delete model_;
    delete flow_;
    wafer_ = nullptr;
    model_ = nullptr;
    flow_ = nullptr;
  }
  static YieldConfig cliff_config() {
    YieldConfig yc = test_yield_config();
    yc.tier = EvalTier::Triage;
    yc.allow_escalation = false;
    return yc;
  }
  static double clock_ghz() { return 1.0 / flow_->post_shifter_clock_ns(); }
  static YieldAnalyzer analyzer(const VariationModel& model) {
    return YieldAnalyzer(flow_->design(), flow_->sta(), model,
                         flow_->island_plan(), flow_->razor_plan(),
                         flow_->activity(), clock_ghz());
  }
  /// A die's power computed directly, one PowerEngine::compute per die,
  /// under the supply assignment its policy selects.
  static PowerBreakdown direct_power(const VariationModel& model,
                                     const DieOutcome& d) {
    const IslandPlan& plan = flow_->island_plan();
    std::vector<int> corners;
    if (d.policy == TuningPolicy::ChipWideHigh) {
      corners.assign(static_cast<std::size_t>(plan.num_islands()) + 1,
                     kVddHigh);
    } else if (d.policy != TuningPolicy::Discard) {
      corners = plan.corners_for_severity(d.islands_raised);
    }
    const WaferDie& die = wafer_->dies()[static_cast<std::size_t>(d.die_id)];
    const std::vector<double> systematic =
        model.systematic_lgates(flow_->design(), die.location);
    PowerConfig pc;
    pc.clock_freq_ghz = clock_ghz();
    pc.variation = &model;
    pc.location = &die.location;
    pc.systematic = systematic;
    return PowerEngine(flow_->design(), flow_->activity()).compute(corners, pc);
  }
  static Flow* flow_;
  static VariationModel* model_;
  static WaferModel* wafer_;
};

Flow* CliffWaferFixture::flow_ = nullptr;
VariationModel* CliffWaferFixture::model_ = nullptr;
WaferModel* CliffWaferFixture::wafer_ = nullptr;

/// The power memo replays one compute per (reticle slot, level): every
/// die's reported power must equal a direct per-die compute bit for bit,
/// serially, on a 2-thread pool, and through analyze_shard over an
/// uneven partition on one reused worker.
TEST_F(CliffWaferFixture, MemoizedPowerMatchesDirectCompute) {
  const YieldAnalyzer an = analyzer(*model_);
  const YieldConfig yc = cliff_config();
  const YieldReport serial = an.analyze(*wafer_, yc, nullptr);
  for (const TuningPolicy p :
       {TuningPolicy::AllLow, TuningPolicy::NestedIslands,
        TuningPolicy::ChipWideHigh, TuningPolicy::Discard}) {
    EXPECT_GT(serial.count(p), 0u) << tuning_policy_name(p);
  }
  EXPECT_GT(serial.triage_mc_fallback, 0u);

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<DieOutcome> direct = serial.dies;
  for (DieOutcome& d : direct) {
    const PowerBreakdown p = direct_power(*model_, d);
    d.total_mw = p.total_mw();
    d.leakage_mw = p.leakage_mw;
  }
  ThreadPool two(2);
  const YieldReport pooled = an.analyze(*wafer_, yc, &two);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(bits(serial.dies[i].total_mw), bits(direct[i].total_mw))
        << "die " << i;
    EXPECT_EQ(bits(serial.dies[i].leakage_mw), bits(direct[i].leakage_mw))
        << "die " << i;
    EXPECT_EQ(bits(pooled.dies[i].total_mw), bits(direct[i].total_mw))
        << "die " << i;
    EXPECT_EQ(bits(pooled.dies[i].leakage_mw), bits(direct[i].leakage_mw))
        << "die " << i;
  }

  const int budget = per_die_mc_budget(yc.mc);
  const int islands = flow_->island_plan().num_islands();
  YieldWorker worker(an);
  YieldAggregate sharded, want;
  const std::size_t n = wafer_->num_dies();
  const std::vector<std::size_t> cuts = {0, 5, 6, 47, n - 1, n};
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    sharded.merge(an.analyze_shard(worker, *wafer_, yc, cuts[c], cuts[c + 1]));
  }
  for (const DieOutcome& d : direct) want.add(d, islands, budget);
  EXPECT_EQ(sharded.dies, want.dies);
  EXPECT_EQ(sharded.policy_count, want.policy_count);
  for (std::size_t p = 0; p < want.power_mw.size(); ++p) {
    EXPECT_TRUE(sharded.power_mw[p] == want.power_mw[p]) << "policy " << p;
    EXPECT_TRUE(sharded.leakage_mw[p] == want.leakage_mw[p]) << "policy " << p;
  }
}

/// One worker serves every analyzer over its netlist — the campaign
/// shares it across sigma scales — and refuses any other netlist.
TEST_F(CliffWaferFixture, WorkerSharedAcrossModelsOfOneNetlist) {
  const YieldAnalyzer wide = analyzer(*model_);
  const YieldAnalyzer nominal = analyzer(flow_->variation());
  const YieldConfig yc = cliff_config();
  const int budget = per_die_mc_budget(yc.mc);
  const int islands = flow_->island_plan().num_islands();
  const auto aggregate_of = [&](const YieldReport& r) {
    YieldAggregate agg;
    for (const DieOutcome& d : r.dies) agg.add(d, islands, budget);
    return agg;
  };
  const YieldAggregate want_wide = aggregate_of(wide.analyze(*wafer_, yc));
  const YieldAggregate want_nominal =
      aggregate_of(nominal.analyze(*wafer_, yc));

  YieldWorker shared(nominal);
  const std::size_t n = wafer_->num_dies();
  YieldAggregate got_wide, got_nominal;
  for (std::size_t b = 0; b < n; b += 29) {
    const std::size_t e = std::min(n, b + 29);
    got_wide.merge(wide.analyze_shard(shared, *wafer_, yc, b, e));
    got_nominal.merge(nominal.analyze_shard(shared, *wafer_, yc, b, e));
  }
  EXPECT_EQ(got_wide.policy_count, want_wide.policy_count);
  EXPECT_EQ(got_nominal.policy_count, want_nominal.policy_count);
  for (std::size_t p = 0; p < kNumTuningPolicies; ++p) {
    EXPECT_TRUE(got_wide.power_mw[p] == want_wide.power_mw[p]);
    EXPECT_TRUE(got_nominal.power_mw[p] == want_nominal.power_mw[p]);
  }
  EXPECT_TRUE(got_wide.wns_final_ns == want_wide.wns_final_ns);
  EXPECT_TRUE(got_nominal.wns_final_ns == want_nominal.wns_final_ns);
  EXPECT_TRUE(got_wide.fmax_ghz == want_wide.fmax_ghz);

  const StaEngine other_engine(flow_->sta());
  const YieldAnalyzer other(flow_->design(), other_engine, *model_,
                            flow_->island_plan(), flow_->razor_plan(),
                            flow_->activity(), clock_ghz());
  EXPECT_THROW(other.analyze_shard(shared, *wafer_, yc, 0, 1),
               std::invalid_argument);
}

TEST(YieldGuards, FromFlowRequiresSensorsAndActivity) {
  Flow flow(tiny_flow_config());
  EXPECT_FALSE(flow.characterized());
  EXPECT_FALSE(flow.sensors_planned());
  EXPECT_FALSE(flow.activity_simulated());
  EXPECT_THROW(YieldAnalyzer::from_flow(flow), std::logic_error);
  flow.characterize();
  EXPECT_TRUE(flow.characterized());
  EXPECT_FALSE(flow.islands_generated());
  EXPECT_THROW(YieldAnalyzer::from_flow(flow), std::logic_error);
}

}  // namespace
}  // namespace vipvt
