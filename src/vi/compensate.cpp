#include "vi/compensate.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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
  std::vector<double> out(chip.lgate_nm.size());
  for (InstId i = 0; i < out.size(); ++i) {
    out[i] = model_->delay_factor(chip.lgate_nm[i], sta_->inst_corner(i),
                                  design_->cell_of(i).vth);
  }
  return out;
}

namespace {

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bits(const StaEngine::BaseSnapshot& a,
               const StaEngine::BaseSnapshot& b) {
  return same_bits(a.edge_base, b.edge_base) &&
         same_bits(a.launch_base, b.launch_base) &&
         same_bits(a.inst_corner, b.inst_corner);
}

}  // namespace

const CompensationController::Level& CompensationController::level(int k) {
  const int chip_wide = plan_->num_islands() + 1;
  if (k < 0 || k > chip_wide) {
    throw std::invalid_argument("CompensationController: level out of range");
  }
  if (canon_.empty()) {
    const auto slots = static_cast<std::size_t>(chip_wide) + 1;
    canon_.assign(slots, -1);
    levels_.resize(slots);
    wns_.resize(slots);
    wns_stamp_.assign(slots, 0);
  }
  const auto slot = static_cast<std::size_t>(k);
  if (canon_[slot] < 0) {
    const Level* base = k == 0 ? nullptr : &level(0);
    sta_->compute_base(
        k == chip_wide
            ? std::vector<int>(static_cast<std::size_t>(chip_wide), kVddHigh)
            : plan_->corners_for_severity(k));
    StaEngine::BaseSnapshot snap = sta_->snapshot_bases();
    for (std::size_t c = 0; c < levels_.size() && canon_[slot] < 0; ++c) {
      if (levels_[c] != nullptr && same_bits(levels_[c]->snap, snap)) {
        canon_[slot] = static_cast<int>(c);
      }
    }
    if (canon_[slot] < 0) {
      auto lv = std::make_unique<Level>();
      lv->snap = std::move(snap);
      if (base != nullptr) {
        for (InstId i = 0; i < lv->snap.inst_corner.size(); ++i) {
          if (lv->snap.inst_corner[i] != base->snap.inst_corner[i]) {
            lv->flipped.push_back(i);
          }
        }
      }
      levels_[slot] = std::move(lv);
      canon_[slot] = k;
    }
    held_ = canon_[slot];
    held_gen_ = sta_->base_generation();
  }
  return *levels_[static_cast<std::size_t>(canon_[slot])];
}

int CompensationController::canonical_level(int k) {
  level(k);
  return canon_[static_cast<std::size_t>(k)];
}

void CompensationController::hold(int c) {
  if (held_ == c && held_gen_ == sta_->base_generation()) return;
  sta_->restore_bases(levels_[static_cast<std::size_t>(c)]->snap);
  held_ = c;
  held_gen_ = sta_->base_generation();
}

void CompensationController::level_factors(int c, std::vector<double>& out) {
  const Level& lv = *levels_[static_cast<std::size_t>(c)];
  out = f0_;
  // Two corners: a flipped instance sits at its other corner at every
  // level, so its factor is computed once per die and replayed.
  for (const InstId i : lv.flipped) {
    if (other_stamp_[i] != epoch_) {
      other_stamp_[i] = epoch_;
      other_[i] = model_->delay_factor_terms(lgate_15_[i], dibl_[i],
                                             lv.snap.inst_corner[i],
                                             design_->cell_of(i).vth);
    }
    out[i] = other_[i];
  }
}

double CompensationController::level_wns(int k) {
  const int c = canonical_level(k);
  if (!wns_known(c)) {
    if (lane_factors_.empty()) lane_factors_.resize(1);
    level_factors(c, lane_factors_[0]);
    hold(c);
    remember_wns(c, sta_->analyze(lane_factors_[0]).wns);
  }
  return wns_[static_cast<std::size_t>(c)];
}

void CompensationController::set_level(int k) {
  if (k > plan_->num_islands()) {
    throw std::invalid_argument("set_level: level out of range");
  }
  hold(canonical_level(k));
}

void CompensationController::set_chip_wide() {
  hold(canonical_level(plan_->num_islands() + 1));
}

CompensationOutcome CompensationController::compensate(const VirtualChip& chip,
                                                       bool allow_escalation,
                                                       bool allow_chip_wide) {
  const std::size_t n = design_->num_instances();
  if (chip.lgate_nm.size() != n) {
    throw std::invalid_argument("compensate: chip/design size mismatch");
  }
  CompensationOutcome out;
  ++epoch_;  // a new die: every memo stamp of the previous one is stale

  // --- post-silicon test at the nominal supply ----------------------------
  set_level(0);
  const int c0 = held_;
  const std::vector<int>& corner0 =
      levels_[static_cast<std::size_t>(c0)]->snap.inst_corner;
  const CharParams& cp = model_->char_params();
  f0_.resize(n);
  lgate_15_.resize(n);
  dibl_.resize(n);
  other_.resize(n);
  other_stamp_.resize(n, 0);
  for (InstId i = 0; i < n; ++i) {
    const CharParams::LgateTerms t = cp.lgate_terms(chip.lgate_nm[i]);
    lgate_15_[i] = t.lgate_15;
    dibl_[i] = t.dibl;
    f0_[i] = model_->delay_factor_terms(t.lgate_15, t.dibl, corner0[i],
                                        design_->cell_of(i).vth);
  }
  const StaResult truth0 = sta_->analyze(f0_);
  remember_wns(c0, truth0.wns);
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
  // Level 0 (a clean die, the bulk of a healthy wafer) and any level
  // bit-identical to an analyzed one are answered by the WNS memo.
  const int detected = out.detected_severity;
  const int max_k = plan_->num_islands();
  out.islands_raised = detected;
  out.wns_after = level_wns(detected);
  out.timing_met = out.wns_after >= 0.0;

  if (!out.timing_met && allow_escalation && detected < max_k) {
    // Escalation: evaluate every remaining level whose supply state is
    // not yet known as one multi-base batch — lane j carries its own
    // base-delay snapshot — and pick the lowest level that closes
    // timing, exactly the level the one-at-a-time walk would stop at.
    // Per-lane results are bit-identical to restore_bases + analyze.
    out.escalated = true;
    lane_slots_.clear();
    lane_bases_.clear();
    for (int k = detected + 1; k <= max_k; ++k) {
      const int c = canonical_level(k);
      if (wns_known(c) || std::find(lane_slots_.begin(), lane_slots_.end(),
                                    c) != lane_slots_.end()) {
        continue;
      }
      const std::size_t j = lane_slots_.size();
      if (lane_factors_.size() <= j) lane_factors_.resize(j + 1);
      level_factors(c, lane_factors_[j]);
      lane_slots_.push_back(c);
      lane_bases_.push_back(&levels_[static_cast<std::size_t>(c)]->snap);
    }
    const std::size_t lanes = lane_slots_.size();
    if (lane_results_.size() < lanes) lane_results_.resize(lanes);
    sta_->analyze_batch_bases(
        lane_bases_,
        std::span<const std::vector<double>>(lane_factors_).first(lanes),
        std::span<StaResult>(lane_results_).first(lanes));
    for (std::size_t j = 0; j < lanes; ++j) {
      remember_wns(lane_slots_[j], lane_results_[j].wns);
    }
    out.islands_raised = max_k;  // none passing => stop at max_k
    for (int k = detected + 1; k < max_k; ++k) {
      if (level_wns(k) >= 0.0) {
        out.islands_raised = k;
        break;
      }
    }
    out.wns_after = level_wns(out.islands_raised);
    out.timing_met = out.wns_after >= 0.0;
  }

  int final_level = out.islands_raised;
  if (!out.timing_met && allow_chip_wide) {
    final_level = max_k + 1;
    out.chip_wide_wns = level_wns(final_level);
  }
  // Sequential postcondition: the engine holds the final assignment's
  // bases.
  hold(canon_[static_cast<std::size_t>(final_level)]);
  return out;
}

}  // namespace vipvt
