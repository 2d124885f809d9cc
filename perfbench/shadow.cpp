#include "shadow.hpp"

#include <bit>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "variation/mc_ssta.hpp"

namespace vipvt::perfbench {

DieOutcome shadow_die(const ShadowContext& ctx, StaEngine& engine,
                      CompensationController& ctrl, const WaferDie& die,
                      const YieldConfig& cfg, std::span<const double> systematic,
                      const SlotTriage* triage, Ledger& led) {
  DieOutcome out;
  out.die_id = die.id;
  Rng die_rng(substream_seed(cfg.seed, static_cast<std::uint64_t>(die.id)));
  ++led.dies;

  auto t = Clock::now();
  ctrl.set_level(0);
  led.set_level_s += seconds_since(t);

  t = Clock::now();
  const EvalTier tier = cfg.effective_tier();
  if (tier != EvalTier::Flat && triage != nullptr && triage->decided) {
    (void)die_rng.next();
    out.triage_tier = tier == EvalTier::Macro ? TriageTier::Macro
                                              : TriageTier::Analytical;
    out.triage_margin_ns = triage->margin_ns;
    out.triage_band_ns = triage->band_ns;
    out.mc_severity = triage->severity;
    out.mc_samples = 0;
    out.mc_stop = McStop::FixedBudget;
    out.fmax_ghz = triage->fmax_ghz;
    ++led.decided_dies;
  } else {
    McConfig mcc = cfg.mc;
    mcc.seed = die_rng.next();
    const McResult mc = MonteCarloSsta(*ctx.design, engine, *ctx.model)
                            .run_with_systematic(systematic, mcc);
    out.mc_severity = mc.num_violating_stages();
    out.mc_samples = mc.samples;
    out.mc_stop = mc.stopping_reason;
    if (!mc.min_period_samples.empty()) {
      const double period_ns =
          percentile(mc.min_period_samples, cfg.speed_percentile);
      if (period_ns > 0.0) out.fmax_ghz = 1.0 / period_ns;
    }
    if (tier != EvalTier::Flat) {
      out.triage_tier = TriageTier::McFallback;
      if (triage != nullptr) {
        out.triage_margin_ns = triage->margin_ns;
        out.triage_band_ns = triage->band_ns;
      }
    }
    ++led.mc_dies;
    led.mc_samples += static_cast<std::uint64_t>(mc.samples);
  }
  led.mc_s += seconds_since(t);

  t = Clock::now();
  Rng fab_rng = die_rng.fork();
  const VirtualChip chip =
      fabricate_chip(*ctx.design, *ctx.model, die.location, fab_rng);
  led.fabricate_s += seconds_since(t);

  t = Clock::now();
  const CompensationOutcome comp = ctrl.compensate(chip, cfg.allow_escalation);
  led.compensate_s += seconds_since(t);
  out.detected_severity = comp.detected_severity;
  out.islands_raised = comp.islands_raised;
  out.escalated = comp.escalated;
  out.missed_violation = comp.missed_violation;
  out.wns_all_low_ns = comp.wns_before;
  out.wns_final_ns = comp.wns_after;
  out.timing_met = comp.timing_met;
  if (comp.escalated) ++led.escalated_dies;

  std::vector<int> corners;
  if (comp.timing_met) {
    out.policy = comp.islands_raised == 0 ? TuningPolicy::AllLow
                                          : TuningPolicy::NestedIslands;
    corners = ctx.plan->corners_for_severity(comp.islands_raised);
  } else if (cfg.allow_chip_wide_fallback) {
    corners.assign(static_cast<std::size_t>(ctx.plan->num_islands()) + 1,
                   kVddHigh);
    t = Clock::now();
    ctrl.set_chip_wide();
    const StaResult truth = engine.analyze(ctrl.chip_factors(chip));
    led.chipwide_s += seconds_since(t);
    ++led.chipwide_dies;
    out.wns_final_ns = truth.wns;
    if (truth.wns >= 0.0) {
      out.policy = TuningPolicy::ChipWideHigh;
      out.timing_met = true;
    } else {
      out.policy = TuningPolicy::Discard;
    }
  } else {
    out.policy = TuningPolicy::Discard;
  }
  if (out.policy == TuningPolicy::Discard) corners.clear();

  t = Clock::now();
  PowerConfig pc;
  pc.clock_freq_ghz = ctx.clock_freq_ghz;
  pc.variation = ctx.model;
  pc.location = &die.location;
  pc.systematic = systematic;
  const PowerBreakdown p = ctx.power->compute(corners, pc);
  led.power_s += seconds_since(t);
  ++led.power_calls;
  out.total_mw = p.total_mw();
  out.leakage_mw = p.leakage_mw;
  return out;
}

bool same_outcome(const DieOutcome& a, const DieOutcome& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.die_id == b.die_id && a.mc_severity == b.mc_severity &&
         a.mc_samples == b.mc_samples && a.mc_stop == b.mc_stop &&
         a.detected_severity == b.detected_severity &&
         a.islands_raised == b.islands_raised && a.policy == b.policy &&
         a.timing_met == b.timing_met && a.escalated == b.escalated &&
         a.missed_violation == b.missed_violation &&
         bits(a.wns_all_low_ns) == bits(b.wns_all_low_ns) &&
         bits(a.wns_final_ns) == bits(b.wns_final_ns) &&
         bits(a.fmax_ghz) == bits(b.fmax_ghz) &&
         bits(a.total_mw) == bits(b.total_mw) &&
         bits(a.leakage_mw) == bits(b.leakage_mw) &&
         a.triage_tier == b.triage_tier &&
         bits(a.triage_margin_ns) == bits(b.triage_margin_ns) &&
         bits(a.triage_band_ns) == bits(b.triage_band_ns);
}

}  // namespace vipvt::perfbench
