// Razor sensor planning + post-silicon compensation tests: sensor
// coverage, cell-swap bookkeeping, scenario detection on virtual silicon,
// island raising, escalation, and the chip-wide baseline sanity.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "timing/recovery.hpp"
#include "vi/compensate.hpp"
#include "vi/flow.hpp"
#include "vi/islands.hpp"
#include "vi/razor.hpp"
#include "vi/scenario.hpp"

namespace vipvt {
namespace {

class CompensateFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(make_st65lp_like());
    design_ = new Design(make_vex_design(*lib_, VexConfig::tiny()));
    fp_ = new Floorplan(Floorplan::for_design(*design_, FloorplanConfig{}));
    db_ = new PlacementDb(*fp_);
    place_design(*design_, *fp_, PlacerConfig{}, *db_);
    sta_ = new StaEngine(*design_, StaOptions{});
    sta_->set_clock_period(sta_->min_period() * 1.04);
    recover_power(*design_, *sta_, RecoveryConfig{});
    field_ = new ExposureField(ExposureField::scaled_65nm(lib_->char_params()));
    model_ = new VariationModel(lib_->char_params(), *field_);

    ScenarioConfig sc;
    sc.sweep_points = 6;
    sc.mc.samples = 100;
    auto scen = characterize_scenarios(*design_, *sta_, *model_, sc);
    std::vector<DieLocation> locs;
    std::optional<DieLocation> fb;
    for (std::size_t k = scen.by_severity.size(); k-- > 0;) {
      if (scen.by_severity[k].has_value()) fb = scen.by_severity[k]->location;
    }
    for (const auto& sp : scen.by_severity) {
      if (sp.has_value()) {
        locs.push_back(sp->location);
        fb = sp->location;
      } else if (fb.has_value()) {
        locs.push_back(*fb);
      }
    }
    worst_loc_ = locs.empty() ? DieLocation::point('A') : locs.back();

    IslandConfig icfg;
    icfg.dir = SliceDir::Vertical;
    icfg.mc_samples = 80;
    IslandGenerator gen(*design_, *fp_, *sta_, *model_, icfg);
    plan_ = new IslandPlan(gen.generate(locs));

    MonteCarloSsta mc(*design_, *sta_, *model_);
    McConfig mcc;
    mcc.samples = 150;
    worst_mc_ = new McResult(mc.run(worst_loc_, mcc));
    razor_ = new RazorPlan(plan_razor_sensors(*sta_, *worst_mc_));
    apply_razor_plan(*design_, *sta_, *razor_);
    // Cell swap preserves graph topology: refresh base delays.
    sta_->compute_base_all_low();
  }

  static void TearDownTestSuite() {
    delete razor_;
    delete worst_mc_;
    delete plan_;
    delete model_;
    delete field_;
    delete sta_;
    delete db_;
    delete fp_;
    delete design_;
    delete lib_;
  }

  static Library* lib_;
  static Design* design_;
  static Floorplan* fp_;
  static PlacementDb* db_;
  static StaEngine* sta_;
  static ExposureField* field_;
  static VariationModel* model_;
  static IslandPlan* plan_;
  static McResult* worst_mc_;
  static RazorPlan* razor_;
  static DieLocation worst_loc_;
};

Library* CompensateFixture::lib_ = nullptr;
Design* CompensateFixture::design_ = nullptr;
Floorplan* CompensateFixture::fp_ = nullptr;
PlacementDb* CompensateFixture::db_ = nullptr;
StaEngine* CompensateFixture::sta_ = nullptr;
ExposureField* CompensateFixture::field_ = nullptr;
VariationModel* CompensateFixture::model_ = nullptr;
IslandPlan* CompensateFixture::plan_ = nullptr;
McResult* CompensateFixture::worst_mc_ = nullptr;
RazorPlan* CompensateFixture::razor_ = nullptr;
DieLocation CompensateFixture::worst_loc_;

TEST_F(CompensateFixture, SensorsAreSparse) {
  // The headline saving of §4.4: only endpoints that can become critical
  // get a Razor flop — a small fraction of all flops.
  const std::size_t flops = design_->num_flops();
  EXPECT_GT(razor_->total(), 0u);
  EXPECT_LT(razor_->total(), flops / 2) << "sensor plan not selective";
  // EX has sensors (the paper's 12-path example).
  EXPECT_GT(razor_->per_stage[static_cast<std::size_t>(PipeStage::Execute)],
            0u);
}

TEST_F(CompensateFixture, RazorCellsApplied) {
  std::size_t razor_cells = 0;
  for (InstId i = 0; i < design_->num_instances(); ++i) {
    if (design_->cell_of(i).is_razor()) ++razor_cells;
  }
  EXPECT_EQ(razor_cells, razor_->total());
}

TEST_F(CompensateFixture, WorstChipDetectedAndCompensated) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(777);
  int compensated = 0, violating = 0;
  const int kChips = 12;
  for (int c = 0; c < kChips; ++c) {
    const VirtualChip chip =
        fabricate_chip(*design_, *model_, worst_loc_, rng);
    const CompensationOutcome out = ctrl.compensate(chip);
    if (out.wns_before < 0.0) {
      // Ground-truth violation: sensors must have seen it.
      ++violating;
      EXPECT_GT(out.detected_severity, 0) << "chip " << c;
    }
    if (out.timing_met) ++compensated;
    EXPECT_FALSE(out.missed_violation) << "chip " << c;
  }
  // At the worst location some chips genuinely violate, every violation
  // is detected, and all chips end up timing-clean after compensation.
  EXPECT_GT(violating, 0);
  EXPECT_EQ(compensated, kChips);
}

TEST_F(CompensateFixture, GoodChipNeedsNoIslands) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(31);
  DieLocation best = DieLocation::point('D');
  int zero_island_chips = 0;
  for (int c = 0; c < 8; ++c) {
    const VirtualChip chip = fabricate_chip(*design_, *model_, best, rng);
    const CompensationOutcome out = ctrl.compensate(chip);
    if (out.islands_raised == 0) ++zero_island_chips;
    EXPECT_TRUE(out.timing_met);
  }
  EXPECT_GE(zero_island_chips, 6);
}

TEST_F(CompensateFixture, SeverityMonotoneInLocation) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(99);
  double avg_a = 0.0, avg_d = 0.0;
  for (int c = 0; c < 6; ++c) {
    avg_a += ctrl.compensate(
                   fabricate_chip(*design_, *model_, worst_loc_, rng))
                 .islands_raised;
    avg_d += ctrl.compensate(fabricate_chip(*design_, *model_,
                                            DieLocation::point('D'), rng))
                 .islands_raised;
  }
  EXPECT_GT(avg_a, avg_d);
}

TEST_F(CompensateFixture, EscalationIsRare) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(5150);
  int escalated = 0;
  for (int c = 0; c < 10; ++c) {
    const VirtualChip chip =
        fabricate_chip(*design_, *model_, worst_loc_, rng);
    escalated += ctrl.compensate(chip).escalated;
  }
  // Islands are sized against the 3-sigma scenario; individual chips in
  // the far tail may need one extra island, but not routinely.
  EXPECT_LE(escalated, 6);
}

TEST_F(CompensateFixture, CompensateMatchesSequentialReferenceWalk) {
  // compensate() evaluates the escalation tail as one multi-base
  // analyze_batch_bases pass and caches compute_base outputs per level;
  // both are pure execution-layout choices.  Reference: the historical
  // one-level-at-a-time walk, recomputed from scratch on an engine copy.
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(40490);
  for (int c = 0; c < 8; ++c) {
    const VirtualChip chip =
        fabricate_chip(*design_, *model_, worst_loc_, rng);
    const CompensationOutcome out = ctrl.compensate(chip);

    StaEngine eng(*sta_);
    const auto factors_now = [&] {
      std::vector<double> f(chip.lgate_nm.size());
      for (InstId i = 0; i < f.size(); ++i) {
        f[i] = model_->delay_factor(chip.lgate_nm[i], eng.inst_corner(i),
                                    design_->cell_of(i).vth);
      }
      return f;
    };
    eng.compute_base(plan_->corners_for_severity(0));
    const StaResult truth0 = eng.analyze(factors_now());
    const auto flags = sensor_flags(eng, *razor_, truth0);
    int detected = 0;
    for (PipeStage s :
         {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
      detected += flags[static_cast<std::size_t>(s)];
    }
    int k = detected;
    StaResult truth{};
    for (;; ++k) {
      eng.compute_base(plan_->corners_for_severity(k));
      truth = eng.analyze(factors_now());
      if (truth.wns >= 0.0 || k >= plan_->num_islands()) break;
    }

    EXPECT_EQ(out.detected_severity, detected) << "chip " << c;
    EXPECT_EQ(out.wns_before, truth0.wns) << "chip " << c;
    EXPECT_EQ(out.islands_raised, k) << "chip " << c;
    EXPECT_EQ(out.wns_after, truth.wns) << "chip " << c;  // bit-identical
    EXPECT_EQ(out.timing_met, truth.wns >= 0.0) << "chip " << c;
    EXPECT_EQ(out.escalated, k > detected) << "chip " << c;
  }
}

// The chip-wide verdict compensate() returns under allow_chip_wide is the
// public fallback: set_chip_wide + chip_factors + analyze.  This flow's
// chip-wide state differs from its last island level, so the verdict
// cannot be a copy of that level's.  A tightened clock makes every die
// fail its islands.
TEST_F(CompensateFixture, ChipWideVerdictMatchesPublicFallback) {
  const int max_k = plan_->num_islands();
  const double period = sta_->options().clock_period_ns * 0.9;
  StaEngine eng(*sta_), ref_eng(*sta_);
  eng.set_clock_period(period);
  ref_eng.set_clock_period(period);
  CompensationController ctrl(*design_, eng, *model_, *plan_, *razor_);
  CompensationController ref(*design_, ref_eng, *model_, *plan_, *razor_);
  EXPECT_NE(ctrl.canonical_level(max_k), ctrl.canonical_level(max_k + 1));
  Rng rng(0xfa11);
  int evaluated = 0;
  for (int c = 0; c < 12; ++c) {
    const VirtualChip chip =
        fabricate_chip(*design_, *model_, DieLocation::point("ABCD"[c % 4]),
                       rng);
    const bool allow_escalation = c % 3 != 2;
    const CompensationOutcome out =
        ctrl.compensate(chip, allow_escalation, true);
    if (out.timing_met) {
      EXPECT_FALSE(out.chip_wide_wns.has_value()) << "chip " << c;
      continue;
    }
    ++evaluated;
    ref.set_chip_wide();
    const StaResult truth = ref_eng.analyze(ref.chip_factors(chip));
    ASSERT_TRUE(out.chip_wide_wns.has_value()) << "chip " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*out.chip_wide_wns),
              std::bit_cast<std::uint64_t>(truth.wns))
        << "chip " << c;
    EXPECT_EQ(eng.snapshot_bases().edge_base,
              ref_eng.snapshot_bases().edge_base)
        << "chip " << c;
    // Without the flag the controller leaves the fallback to the caller.
    EXPECT_FALSE(ctrl.compensate(chip, allow_escalation).chip_wide_wns)
        << "chip " << c;
  }
  EXPECT_GT(evaluated, 0);
}

TEST_F(CompensateFixture, SetLevelBitIdenticalToComputeBase) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  StaEngine eng(*sta_);
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
    for (int k = plan_->num_islands(); k >= 0; --k) {
      ctrl.set_level(k);
      eng.compute_base(plan_->corners_for_severity(k));
      const StaResult a = sta_->analyze();
      const StaResult b = eng.analyze();
      EXPECT_EQ(a.wns, b.wns) << "level " << k << " pass " << pass;
      EXPECT_EQ(a.min_period_ns, b.min_period_ns)
          << "level " << k << " pass " << pass;
      for (InstId i = 0; i < design_->num_instances(); ++i) {
        ASSERT_EQ(sta_->inst_corner(i), eng.inst_corner(i))
            << "level " << k << " inst " << i;
      }
    }
  }
  ctrl.set_level(0);
  sta_->compute_base_all_low();  // leave the shared engine as found
  EXPECT_THROW(ctrl.set_level(-1), std::invalid_argument);
  EXPECT_THROW(ctrl.set_level(plan_->num_islands() + 1),
               std::invalid_argument);
}

TEST_F(CompensateFixture, LevelSnapshotsBitIdenticalInAnyBuildOrder) {
  // Each order fills a fresh controller's cache; every snapshot it hands
  // back must equal a fresh compute_base of that level's corners.
  // kChipWide visits set_chip_wide() (all domains high) in between.
  constexpr int kChipWide = -1;
  const int max_k = plan_->num_islands();
  std::vector<std::vector<int>> orders(3);
  for (int k = 0; k <= max_k; ++k) orders[0].push_back(k);  // ascending
  for (int k = max_k; k >= 0; --k) orders[1].push_back(k);  // descending
  orders[2].push_back(kChipWide);  // interleaved, second pass all hits
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k <= max_k; ++k) {
      orders[2].push_back(k);
      orders[2].push_back(kChipWide);
    }
  }
  for (std::size_t o = 0; o < orders.size(); ++o) {
    StaEngine eng(*sta_);
    CompensationController ctrl(*design_, eng, *model_, *plan_, *razor_);
    StaEngine ref_eng(*sta_);
    for (const int k : orders[o]) {
      if (k == kChipWide) {
        ctrl.set_chip_wide();
        ref_eng.compute_base(
            std::vector<int>(static_cast<std::size_t>(max_k) + 1, kVddHigh));
      } else {
        ctrl.set_level(k);
        ref_eng.compute_base(plan_->corners_for_severity(k));
      }
      const auto got = eng.snapshot_bases();
      const auto want = ref_eng.snapshot_bases();
      EXPECT_EQ(got.edge_base, want.edge_base)
          << "order " << o << " level " << k;
      EXPECT_EQ(got.launch_base, want.launch_base)
          << "order " << o << " level " << k;
      EXPECT_EQ(got.inst_corner, want.inst_corner)
          << "order " << o << " level " << k;
    }
  }
}

TEST_F(CompensateFixture, ChipSizeMismatchRejected) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  VirtualChip bad;
  bad.lgate_nm.assign(3, 65.0);
  EXPECT_THROW(ctrl.compensate(bad), std::invalid_argument);
}

TEST_F(CompensateFixture, SlotMapFabricationMatchesLocationOverload) {
  // The wafer path fabricates against its reticle slot's systematic map;
  // the location overload evaluates the exposure polynomial per gate.
  // Same RNG stream, same gate lengths, bit for bit — with and without a
  // correlated within-die field (which draws its own grid first).  Both
  // also match a per-gate walk of the public location-keyed draw.
  VariationConfig corr;
  corr.correlated_fraction = 0.5;
  const VariationModel corr_model(lib_->char_params(), *field_, corr);
  const VariationModel* const models[] = {model_, &corr_model};
  for (const VariationModel* m : models) {
    for (const DieLocation& loc :
         {worst_loc_, DieLocation::point('A'), DieLocation::point('D')}) {
      const std::vector<double> systematic =
          m->systematic_lgates(*design_, loc);
      for (const std::uint64_t seed : {1ULL, 0xfab5ULL, 0x5107ULL}) {
        Rng by_loc(seed), by_map(seed), by_gate(seed);
        const VirtualChip a = fabricate_chip(*design_, *m, loc, by_loc);
        const VirtualChip b =
            fabricate_chip(*design_, *m, loc, systematic, by_map);
        const CorrelatedField field = m->draw_field(by_gate);
        ASSERT_EQ(a.lgate_nm.size(), design_->num_instances());
        ASSERT_EQ(b.lgate_nm.size(), design_->num_instances());
        for (InstId i = 0; i < design_->num_instances(); ++i) {
          const double want = m->sample_lgate(
              design_->instance(i).pos, loc, by_gate,
              field.active() ? &field : nullptr);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a.lgate_nm[i]),
                    std::bit_cast<std::uint64_t>(b.lgate_nm[i]))
              << "correlated " << m->config().correlated_fraction
              << " seed " << seed << " inst " << i;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(b.lgate_nm[i]),
                    std::bit_cast<std::uint64_t>(want))
              << "correlated " << m->config().correlated_fraction
              << " seed " << seed << " inst " << i;
        }
        EXPECT_EQ(a.loc.chip_origin_mm.x, b.loc.chip_origin_mm.x);
        EXPECT_EQ(a.loc.chip_origin_mm.y, b.loc.chip_origin_mm.y);
        const std::uint64_t next = by_gate.next();
        EXPECT_EQ(by_loc.next(), next) << "RNG stream diverged";
        EXPECT_EQ(by_map.next(), next) << "RNG stream diverged";
      }
    }
  }
  Rng rng(3);
  const std::vector<double> short_map(design_->num_instances() - 1, 65.0);
  EXPECT_THROW(fabricate_chip(*design_, *model_, worst_loc_, short_map, rng),
               std::invalid_argument);
}

// compensate() derives every level's delay factors from the die's
// level-0 factors, re-evaluating only the instances the level flips to
// another corner, and runs the escalation tail as multi-base lanes
// without restoring each level.  Reference: a walk through the public
// per-level calls only — set_level, chip_factors, analyze, then
// set_chip_wide for the fallback — on a second controller.  The flow's
// clock is tight enough that every sensor-covered detection level,
// escalation up to the last island and the chip-wide leg occur.
TEST(CompensateReferenceWalk, TightClockMatchesPublicLevelWalk) {
  FlowConfig fc;
  fc.vex = VexConfig::tiny();
  fc.floorplan.target_utilization = 0.55;
  fc.scenario.sweep_points = 6;
  fc.scenario.mc.samples = 100;
  fc.islands.mc_samples = 80;
  fc.sim_cycles = 150;
  fc.clock_margin = -0.05;
  Flow flow(fc);
  flow.plan_sensors();
  const IslandPlan& plan = flow.island_plan();
  const int max_k = plan.num_islands();
  ASSERT_GE(max_k, 2);
  int covered_stages = 0;
  for (PipeStage s :
       {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
    if (flow.razor_plan().per_stage[static_cast<std::size_t>(s)] > 0) {
      ++covered_stages;
    }
  }
  ASSERT_GE(covered_stages, 2);

  const double period = flow.sta().options().clock_period_ns * 0.97;
  StaEngine eng(flow.sta()), ref_eng(flow.sta());
  eng.set_clock_period(period);
  ref_eng.set_clock_period(period);
  CompensationController ctrl(flow.design(), eng, flow.variation(), plan,
                              flow.razor_plan());
  CompensationController ref(flow.design(), ref_eng, flow.variation(), plan,
                             flow.razor_plan());

  std::set<int> detected_seen, raised_seen;
  int escalated = 0, chip_wide_evaluated = 0;
  Rng rng(0xc0a5);
  for (int c = 0; c < 48; ++c) {
    const DieLocation loc = DieLocation::point("ABCD"[c % 4]);
    const VirtualChip chip =
        fabricate_chip(flow.design(), flow.variation(), loc, rng);
    const bool allow_escalation = c % 6 != 5;
    const bool allow_chip_wide = c % 4 != 3;
    const CompensationOutcome out =
        ctrl.compensate(chip, allow_escalation, allow_chip_wide);

    ref.set_level(0);
    const StaResult truth0 = ref_eng.analyze(ref.chip_factors(chip));
    const auto flags = sensor_flags(ref_eng, flow.razor_plan(), truth0);
    int detected = 0;
    for (PipeStage s :
         {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
      detected += flags[static_cast<std::size_t>(s)] ? 1 : 0;
    }
    bool missed = false;
    for (std::size_t k = 0; k < ref_eng.endpoints().size(); ++k) {
      const double slack = truth0.endpoint_slack[k];
      missed = missed ||
               (std::isfinite(slack) && slack < 0.0 &&
                !flags[static_cast<std::size_t>(ref_eng.endpoints()[k].stage)]);
    }
    int k = detected;
    StaResult truth = truth0;
    for (;; ++k) {
      ref.set_level(k);
      truth = ref_eng.analyze(ref.chip_factors(chip));
      if (truth.wns >= 0.0 || !allow_escalation || k >= max_k) break;
    }
    std::optional<double> chip_wide_wns;
    if (truth.wns < 0.0 && allow_chip_wide) {
      ref.set_chip_wide();
      chip_wide_wns = ref_eng.analyze(ref.chip_factors(chip)).wns;
      ++chip_wide_evaluated;
    }

    EXPECT_EQ(out.sensor_stage_flags, flags) << "chip " << c;
    EXPECT_EQ(out.detected_severity, detected) << "chip " << c;
    EXPECT_EQ(out.missed_violation, missed) << "chip " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.wns_before),
              std::bit_cast<std::uint64_t>(truth0.wns))
        << "chip " << c;
    EXPECT_EQ(out.islands_raised, k) << "chip " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.wns_after),
              std::bit_cast<std::uint64_t>(truth.wns))
        << "chip " << c;
    EXPECT_EQ(out.timing_met, truth.wns >= 0.0) << "chip " << c;
    EXPECT_EQ(out.escalated, k > detected) << "chip " << c;
    ASSERT_EQ(out.chip_wide_wns.has_value(), chip_wide_wns.has_value())
        << "chip " << c;
    if (chip_wide_wns.has_value()) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*out.chip_wide_wns),
                std::bit_cast<std::uint64_t>(*chip_wide_wns))
          << "chip " << c;
    }
    // Postcondition: the engine holds the last evaluated assignment's
    // bases.
    const auto got = eng.snapshot_bases();
    const auto want = ref_eng.snapshot_bases();
    EXPECT_EQ(got.edge_base, want.edge_base) << "chip " << c;
    EXPECT_EQ(got.inst_corner, want.inst_corner) << "chip " << c;

    detected_seen.insert(detected);
    raised_seen.insert(k);
    escalated += out.escalated ? 1 : 0;
  }
  for (int d = 1; d <= covered_stages; ++d) {
    EXPECT_TRUE(detected_seen.count(d)) << "detected level " << d << " unseen";
  }
  EXPECT_GT(escalated, 0);
  EXPECT_TRUE(raised_seen.count(max_k)) << "never escalated to the last island";
  EXPECT_GT(chip_wide_evaluated, 0);
}

// The benchmark's near-cliff flow (clock margin -0.035) at sigma scales
// 1-4.  There every instance is at the high corner at level 2, level 3
// and chip-wide alike, so those three supply states share one canonical
// snapshot, and dies escalate, fall back to chip-wide and fail both.
class CliffCompensateFixture : public ::testing::Test {
 protected:
  static FlowConfig flow_config(double clock_margin) {
    FlowConfig fc;
    fc.vex = VexConfig::tiny();
    fc.floorplan.target_utilization = 0.55;
    fc.scenario.sweep_points = 6;
    fc.scenario.mc.samples = 100;
    fc.islands.mc_samples = 80;
    fc.sim_cycles = 150;
    fc.clock_margin = clock_margin;
    return fc;
  }
  static void SetUpTestSuite() {
    flow_ = new Flow(flow_config(-0.035));
    flow_->plan_sensors();
    for (int s = 1; s <= 4; ++s) {
      VariationConfig vc = flow_->variation().config();
      vc.three_sigma_random_frac *= s;
      models_.push_back(new VariationModel(flow_->variation().char_params(),
                                           flow_->variation().field(), vc));
    }
  }
  static void TearDownTestSuite() {
    for (VariationModel* m : models_) delete m;
    models_.clear();
    delete flow_;
    flow_ = nullptr;
  }
  static CompensationController controller(StaEngine& eng,
                                           const VariationModel& model) {
    return CompensationController(flow_->design(), eng, model,
                                  flow_->island_plan(), flow_->razor_plan());
  }
  static VirtualChip chip(const VariationModel& model, int c, Rng& rng) {
    return fabricate_chip(flow_->design(), model,
                          DieLocation::point("ABCD"[c % 4]), rng);
  }

  static Flow* flow_;
  static std::vector<VariationModel*> models_;
};

Flow* CliffCompensateFixture::flow_ = nullptr;
std::vector<VariationModel*> CliffCompensateFixture::models_;

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_outcome(const CompensationOutcome& a,
                         const CompensationOutcome& b, const std::string& at) {
  EXPECT_EQ(a.sensor_stage_flags, b.sensor_stage_flags) << at;
  EXPECT_EQ(a.detected_severity, b.detected_severity) << at;
  EXPECT_EQ(a.islands_raised, b.islands_raised) << at;
  EXPECT_EQ(a.timing_met, b.timing_met) << at;
  EXPECT_EQ(a.escalated, b.escalated) << at;
  EXPECT_EQ(a.missed_violation, b.missed_violation) << at;
  EXPECT_EQ(bits_of(a.wns_before), bits_of(b.wns_before)) << at;
  EXPECT_EQ(bits_of(a.wns_after), bits_of(b.wns_after)) << at;
  ASSERT_EQ(a.chip_wide_wns.has_value(), b.chip_wide_wns.has_value()) << at;
  if (a.chip_wide_wns.has_value()) {
    EXPECT_EQ(bits_of(*a.chip_wide_wns), bits_of(*b.chip_wide_wns)) << at;
  }
}

// Every outcome field, chip_wide_wns included, against a walk through the
// public per-level calls on a second controller: set_level(k) +
// chip_factors + analyze per level, then set_chip_wide + chip_factors +
// analyze.  The engine must end at the walk's last bases.
TEST_F(CliffCompensateFixture, MatchesPublicWalkForEveryFlagCombination) {
  const IslandPlan& plan = flow_->island_plan();
  const int max_k = plan.num_islands();
  int escalated = 0, chip_wide_met = 0, chip_wide_failed = 0, memo_hits = 0;
  for (const VariationModel* model : models_) {
    StaEngine eng(flow_->sta()), ref_eng(flow_->sta());
    CompensationController ctrl = controller(eng, *model);
    CompensationController ref = controller(ref_eng, *model);
    Rng rng(0xc11f);
    for (int c = 0; c < 16; ++c) {
      const VirtualChip die = chip(*model, c, rng);
      for (const bool allow_escalation : {true, false}) {
        for (const bool allow_chip_wide : {true, false}) {
          const std::string at =
              "sigma " + std::to_string(model->config().three_sigma_random_frac) +
              " chip " + std::to_string(c) + " esc " +
              std::to_string(allow_escalation) + " cw " +
              std::to_string(allow_chip_wide);
          const CompensationOutcome out =
              ctrl.compensate(die, allow_escalation, allow_chip_wide);

          CompensationOutcome want;
          ref.set_level(0);
          const StaResult truth0 = ref_eng.analyze(ref.chip_factors(die));
          want.wns_before = truth0.wns;
          want.sensor_stage_flags =
              sensor_flags(ref_eng, flow_->razor_plan(), truth0);
          for (PipeStage s :
               {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
            want.detected_severity +=
                want.sensor_stage_flags[static_cast<std::size_t>(s)] ? 1 : 0;
          }
          for (std::size_t k = 0; k < ref_eng.endpoints().size(); ++k) {
            const double slack = truth0.endpoint_slack[k];
            want.missed_violation =
                want.missed_violation ||
                (std::isfinite(slack) && slack < 0.0 &&
                 !want.sensor_stage_flags[static_cast<std::size_t>(
                     ref_eng.endpoints()[k].stage)]);
          }
          int k = want.detected_severity;
          for (;; ++k) {
            ref.set_level(k);
            want.wns_after = ref_eng.analyze(ref.chip_factors(die)).wns;
            if (want.wns_after >= 0.0 || !allow_escalation || k >= max_k) {
              break;
            }
          }
          want.islands_raised = k;
          want.timing_met = want.wns_after >= 0.0;
          want.escalated = k > want.detected_severity;
          if (!want.timing_met && allow_chip_wide) {
            ref.set_chip_wide();
            want.chip_wide_wns = ref_eng.analyze(ref.chip_factors(die)).wns;
          }
          expect_same_outcome(out, want, at);
          const auto got = eng.snapshot_bases();
          const auto ref_bases = ref_eng.snapshot_bases();
          EXPECT_EQ(got.edge_base, ref_bases.edge_base) << at;
          EXPECT_EQ(got.launch_base, ref_bases.launch_base) << at;
          EXPECT_EQ(got.inst_corner, ref_bases.inst_corner) << at;

          escalated += out.escalated ? 1 : 0;
          if (out.chip_wide_wns.has_value()) {
            (*out.chip_wide_wns >= 0.0 ? chip_wide_met : chip_wide_failed) += 1;
            // Escalated to the last island: chip-wide is the same supply
            // state here, so its verdict came from the memo.
            memo_hits += out.islands_raised == max_k ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(escalated, 0);
  EXPECT_GT(chip_wide_met, 0);
  EXPECT_GT(chip_wide_failed, 0);
  EXPECT_GT(memo_hits, 0);
}

// The per-die memos are scoped to one compensate() call: one controller
// reused across dies and re-pointed across models must give the bits of
// a fresh controller per die.  Each die is evaluated under every model
// in turn, so a factor or WNS carried over from the previous call (same
// gate lengths, other model) would show.
TEST_F(CliffCompensateFixture, ReusedControllerMatchesFreshPerDie) {
  StaEngine eng(flow_->sta());
  CompensationController reused = controller(eng, *models_.front());
  Rng rng(0x5eed);
  for (int c = 0; c < 8; ++c) {
    const VirtualChip die = chip(*models_.back(), c, rng);
    for (const VariationModel* model : models_) {
      reused.set_model(*model);
      const CompensationOutcome got = reused.compensate(die, true, true);
      StaEngine fresh_eng(flow_->sta());
      CompensationController fresh = controller(fresh_eng, *model);
      expect_same_outcome(
          got, fresh.compensate(die, true, true),
          "chip " + std::to_string(c) + " sigma " +
              std::to_string(model->config().three_sigma_random_frac));
    }
  }
}

// Interning: two levels share a canonical slot exactly when their
// snapshots are bitwise identical.  On the cliff flow that is levels 2,
// 3 and chip-wide; on the default flow every state is distinct.  Shared
// storage still restores each level's own compute_base bits, in a
// visiting order that interns the chip-wide fill first.
TEST_F(CliffCompensateFixture, InternsIdenticalLevelsOnly) {
  const int max_k = flow_->island_plan().num_islands();
  ASSERT_EQ(max_k, 3);
  StaEngine eng(flow_->sta()), ref_eng(flow_->sta());
  CompensationController ctrl = controller(eng, *models_.front());
  for (int k = max_k + 1; k >= 0; --k) {
    if (k == max_k + 1) {
      ctrl.set_chip_wide();
      ref_eng.compute_base(
          std::vector<int>(static_cast<std::size_t>(max_k) + 1, kVddHigh));
    } else {
      ctrl.set_level(k);
      ref_eng.compute_base(flow_->island_plan().corners_for_severity(k));
    }
    const auto got = eng.snapshot_bases();
    const auto want = ref_eng.snapshot_bases();
    EXPECT_EQ(got.edge_base, want.edge_base) << "level " << k;
    EXPECT_EQ(got.launch_base, want.launch_base) << "level " << k;
    EXPECT_EQ(got.inst_corner, want.inst_corner) << "level " << k;
  }
  EXPECT_EQ(ctrl.canonical_level(2), ctrl.canonical_level(3));
  EXPECT_EQ(ctrl.canonical_level(3), ctrl.canonical_level(max_k + 1));
  const std::set<int> cliff_slots = {ctrl.canonical_level(0),
                                     ctrl.canonical_level(1),
                                     ctrl.canonical_level(2)};
  EXPECT_EQ(cliff_slots.size(), 3u);

  Flow nominal(flow_config(FlowConfig{}.clock_margin));
  nominal.plan_sensors();
  StaEngine nominal_eng(nominal.sta());
  CompensationController nominal_ctrl(nominal.design(), nominal_eng,
                                      nominal.variation(), nominal.island_plan(),
                                      nominal.razor_plan());
  const int nominal_k = nominal.island_plan().num_islands();
  std::set<int> slots;
  for (int k = 0; k <= nominal_k + 1; ++k) {
    slots.insert(nominal_ctrl.canonical_level(k));
  }
  EXPECT_EQ(slots.size(), static_cast<std::size_t>(nominal_k) + 2);
}

TEST(RazorUnit, ThresholdFiltersSensors) {
  // A fake MC result with known probabilities.
  Library lib = make_st65lp_like();
  Design d("razor_unit", lib);
  NetlistBuilder b(d);
  b.clock_input("clk");
  const NetId a = b.input("a");
  b.set_stage(PipeStage::Execute);
  const NetId q1 = b.dff(a);
  b.set_stage(PipeStage::Decode);
  const NetId q2 = b.dff(q1);
  b.output(q2);
  for (InstId i = 0; i < d.num_instances(); ++i) {
    d.instance(i).pos = {1.0, 1.0};
    d.instance(i).placed = true;
  }
  StaEngine sta(d, StaOptions{});
  McResult fake;
  fake.endpoint_crit_prob.assign(sta.endpoints().size(), 0.0);
  // Give only the first flop endpoint a violation probability.
  for (std::size_t k = 0; k < sta.endpoints().size(); ++k) {
    if (sta.endpoints()[k].flop != kInvalidInst) {
      fake.endpoint_crit_prob[k] = 0.4;
      break;
    }
  }
  RazorConfig cfg;
  cfg.crit_prob_threshold = 0.5;
  EXPECT_EQ(plan_razor_sensors(sta, fake, cfg).total(), 0u);
  cfg.crit_prob_threshold = 0.3;
  EXPECT_EQ(plan_razor_sensors(sta, fake, cfg).total(), 1u);
  const double added =
      apply_razor_plan(d, sta, plan_razor_sensors(sta, fake, cfg));
  EXPECT_GT(added, 0.0);
}

}  // namespace
}  // namespace vipvt
