#include "vi/compensate.hpp"

#include <cmath>
#include <stdexcept>

namespace vipvt {

VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc, Rng& rng) {
  return fabricate_chip(design, model, loc,
                        model.systematic_lgates(design, loc), rng);
}

VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc,
                           std::span<const double> systematic, Rng& rng) {
  if (systematic.size() != design.num_instances()) {
    throw std::invalid_argument("fabricate_chip: systematic map size mismatch");
  }
  VirtualChip chip;
  chip.loc = loc;
  chip.lgate_nm.resize(design.num_instances());
  const CorrelatedField field = model.draw_field(rng);
  const CorrelatedField* fp = field.active() ? &field : nullptr;
  for (InstId i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(i);
    if (!inst.placed) {
      throw std::logic_error("fabricate_chip: unplaced instance");
    }
    chip.lgate_nm[i] = model.sample_lgate(systematic[i], inst.pos, rng, fp);
  }
  return chip;
}

CompensationController::CompensationController(const Design& design,
                                               StaEngine& sta,
                                               const VariationModel& model,
                                               const IslandPlan& plan,
                                               const RazorPlan& sensors)
    : design_(&design), sta_(&sta), model_(&model), plan_(&plan),
      sensors_(&sensors) {}

std::vector<double> CompensationController::chip_factors(
    const VirtualChip& chip) const {
  std::vector<double> factors;
  fill_factors(chip, factors);
  return factors;
}

void CompensationController::fill_factors(const VirtualChip& chip,
                                          std::vector<double>& out) const {
  out.resize(chip.lgate_nm.size());
  for (InstId i = 0; i < out.size(); ++i) {
    out[i] = model_->delay_factor(chip.lgate_nm[i], sta_->inst_corner(i),
                                  design_->cell_of(i).vth);
  }
}

const CompensationController::Level& CompensationController::level(int k) {
  const int chip_wide = plan_->num_islands() + 1;
  if (k < 0 || k > chip_wide) {
    throw std::invalid_argument("CompensationController: level out of range");
  }
  if (levels_.empty()) {
    levels_.resize(static_cast<std::size_t>(chip_wide) + 1);
  }
  auto& slot = levels_[static_cast<std::size_t>(k)];
  if (slot == nullptr) {
    const Level* base = k == 0 ? nullptr : &level(0);
    sta_->compute_base(
        k == chip_wide
            ? std::vector<int>(static_cast<std::size_t>(chip_wide), kVddHigh)
            : plan_->corners_for_severity(k));
    auto lv = std::make_unique<Level>();
    lv->snap = sta_->snapshot_bases();
    if (base != nullptr) {
      for (InstId i = 0; i < lv->snap.inst_corner.size(); ++i) {
        if (lv->snap.inst_corner[i] != base->snap.inst_corner[i]) {
          lv->flipped.push_back(i);
        }
      }
    }
    slot = std::move(lv);
  }
  return *slot;
}

void CompensationController::level_factors(const VirtualChip& chip, int k,
                                           std::vector<double>& out) {
  const Level& lv = level(k);
  out = f0_;
  for (const InstId i : lv.flipped) {
    out[i] = model_->delay_factor(chip.lgate_nm[i], lv.snap.inst_corner[i],
                                  design_->cell_of(i).vth);
  }
}

void CompensationController::set_level(int k) {
  if (k > plan_->num_islands()) {
    throw std::invalid_argument("set_level: level out of range");
  }
  sta_->restore_bases(level(k).snap);
}

void CompensationController::set_chip_wide() {
  sta_->restore_bases(level(plan_->num_islands() + 1).snap);
}

CompensationOutcome CompensationController::compensate(const VirtualChip& chip,
                                                       bool allow_escalation) {
  if (chip.lgate_nm.size() != design_->num_instances()) {
    throw std::invalid_argument("compensate: chip/design size mismatch");
  }
  CompensationOutcome out;

  // --- post-silicon test at the nominal supply ----------------------------
  set_level(0);
  fill_factors(chip, f0_);
  const StaResult truth0 = sta_->analyze(f0_);
  out.wns_before = truth0.wns;
  out.sensor_stage_flags = sensor_flags(*sta_, *sensors_, truth0);
  for (PipeStage s :
       {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
    if (out.sensor_stage_flags[static_cast<std::size_t>(s)]) {
      ++out.detected_severity;
    }
  }
  // Coverage check: did any endpoint violate in a stage no sensor flagged?
  for (std::size_t k = 0; k < sta_->endpoints().size(); ++k) {
    const double slack = truth0.endpoint_slack[k];
    if (std::isfinite(slack) && slack < 0.0 &&
        !out.sensor_stage_flags[static_cast<std::size_t>(
            sta_->endpoints()[k].stage)]) {
      out.missed_violation = true;
      break;
    }
  }

  // --- raise islands per the detected scenario ------------------------------
  // Common case first, scalar: the detected level usually closes timing.
  const int detected = out.detected_severity;
  const int max_k = plan_->num_islands();
  if (detected == 0) {
    // The engine already sits at level 0 and truth0 IS that level's
    // analysis: chip_factors/analyze are pure functions of (bases,
    // corners, chip), so re-running them here would reproduce f0/truth0
    // bitwise.  Clean dies — the bulk of a healthy wafer — skip a second
    // exact-factor fill and full propagation this way.
    out.wns_after = truth0.wns;
    out.islands_raised = 0;
    out.timing_met = truth0.wns >= 0.0;
  } else {
    if (lane_factors_.empty()) lane_factors_.resize(1);
    level_factors(chip, detected, lane_factors_[0]);
    set_level(detected);
    const StaResult truth = sta_->analyze(lane_factors_[0]);
    out.wns_after = truth.wns;
    out.islands_raised = detected;
    out.timing_met = truth.wns >= 0.0;
  }
  if (out.timing_met || !allow_escalation || detected >= max_k) return out;

  // Escalation: evaluate ALL remaining levels as one multi-base batch —
  // lane j carries level detected+1+j's own base-delay snapshot — and
  // pick the lowest level that closes timing, exactly the level the
  // historical one-at-a-time walk would stop at.  Per-lane results are
  // bit-identical to restore_bases + analyze, so every reported number
  // matches the sequential loop bit-for-bit.
  out.escalated = true;
  const int first_level = detected + 1;
  const auto lanes = static_cast<std::size_t>(max_k - detected);
  std::vector<const StaEngine::BaseSnapshot*> bases(lanes);
  if (lane_factors_.size() < lanes) lane_factors_.resize(lanes);
  for (std::size_t j = 0; j < lanes; ++j) {
    const int k = first_level + static_cast<int>(j);
    level_factors(chip, k, lane_factors_[j]);
    bases[j] = &level(k).snap;
  }
  std::vector<StaResult> results(lanes);
  sta_->analyze_batch_bases(
      bases, std::span<const std::vector<double>>(lane_factors_).first(lanes),
      results);
  std::size_t chosen = lanes - 1;  // none passing => stop at max_k
  for (std::size_t j = 0; j < lanes; ++j) {
    if (results[j].wns >= 0.0) {
      chosen = j;
      break;
    }
  }
  out.islands_raised = first_level + static_cast<int>(chosen);
  out.wns_after = results[chosen].wns;
  out.timing_met = results[chosen].wns >= 0.0;
  // Sequential postcondition: the engine holds the final level's bases.
  set_level(out.islands_raised);
  return out;
}

}  // namespace vipvt
