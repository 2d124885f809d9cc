#include "timing/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace vipvt {

namespace {

double total_leakage_low(const Design& d) {
  double mw = 0.0;
  for (const auto& inst : d.instances()) {
    mw += d.lib().cell(inst.cell).leakage_mw[kVddLow];
  }
  return mw;
}

bool swappable(const Cell& cell) {
  return !cell.is_sequential() && !cell.is_tie() && !cell.is_level_shifter();
}

std::optional<VthClass> next_faster(VthClass v) {
  switch (v) {
    case VthClass::Uhvt: return VthClass::Hvt;
    case VthClass::Hvt: return VthClass::Svt;
    case VthClass::Svt: return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

RecoveryReport recover_power(Design& design, StaEngine& sta,
                             const RecoveryConfig& cfg) {
  const Library& lib = design.lib();
  const CharParams& cp = lib.char_params();
  RecoveryReport report;

  sta.compute_base_all_low();
  report.wns_before_ns = sta.analyze().wns;
  report.leakage_before_mw = total_leakage_low(design);

  const double clock = sta.options().clock_period_ns;
  auto target_of = [&](PipeStage stage) {
    if (cfg.target_ns >= 0.0) return cfg.target_ns;
    return cfg.stage_slack_target[static_cast<std::size_t>(stage)] * clock;
  };
  // Fractional delay gain of downgrading one Vth step at the low supply.
  auto step_gain = [&](VthClass from) {
    const auto to = next_faster(from);
    if (!to.has_value()) return 0.0;
    return 1.0 - cp.vth_class_delay_ratio(*to, cp.vdd_low) /
                     cp.vth_class_delay_ratio(from, cp.vdd_low);
  };

  // ---- phase 1: leakage-first mapping (everything to the slowest Vth) -----
  for (InstId i = 0; i < design.num_instances(); ++i) {
    Instance& inst = design.instance(i);
    const Cell& cell = lib.cell(inst.cell);
    if (!swappable(cell)) continue;
    const auto variant = lib.variant(inst.cell, VthClass::Uhvt);
    if (variant.has_value()) inst.cell = *variant;
  }
  sta.compute_base_all_low();

  // ---- phase 2: timing-driven downgrades along violating paths -------------
  // Endpoints whose target proved unreachable (their whole worst path is
  // already SVT) are blacklisted so they don't monopolize the batches.
  std::vector<char> stuck(sta.endpoints().size(), 0);
  for (int round = 0; round < cfg.max_rounds; ++round) {
    report.passes = round + 1;
    const StaResult res = sta.analyze();
    const auto& endpoints = sta.endpoints();

    // Endpoints below their stage target, worst gap first.
    std::vector<std::pair<double, std::size_t>> pending;
    for (std::size_t k = 0; k < endpoints.size(); ++k) {
      if (stuck[k]) continue;
      const double slack = res.endpoint_slack[k];
      if (!std::isfinite(slack)) continue;
      const double gap = target_of(endpoints[k].stage) - slack;
      if (gap > 1e-9) pending.push_back({gap, k});
    }
    if (pending.empty()) break;
    std::sort(pending.begin(), pending.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (static_cast<int>(pending.size()) > cfg.batch_size) {
      pending.resize(static_cast<std::size_t>(cfg.batch_size));
    }

    std::size_t changed = 0;
    std::size_t new_stuck = 0;
    // Traces read the round-start scratchpad; once any swap happened the
    // scratch is stale, and an "all-SVT path" may just reflect swaps made
    // for earlier endpoints in this batch — not unreachability.
    bool scratch_dirty = false;
    for (const auto& [gap, k] : pending) {
      // Walk the worst path, downgrading cells (largest contributors
      // first) until the estimated accumulated gain covers the gap.
      const auto path = sta.trace_from_last_analysis(k);
      std::vector<std::pair<double, InstId>> contributions;
      // Side-input slew feeders: a slow driver anywhere in the transitive
      // fanin of a path gate degrades slews on the path (graph-based STA
      // keeps the max over arcs), so path-only repair can stall.  Offer
      // the fanin cone up to fanin_depth levels at discounted weight.
      auto offer_fanin = [&](InstId root, double weight) {
        std::vector<std::pair<InstId, int>> frontier{{root, 0}};
        for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
          const auto [cur, level] = frontier[fi];
          if (level >= cfg.fanin_depth) continue;
          const Instance& inst = design.instance(cur);
          const Cell& cell = lib.cell(inst.cell);
          for (std::size_t p = 0; p < inst.conns.size(); ++p) {
            if (!cell.pins[p].is_input || cell.pins[p].is_clock) continue;
            const Net& in_net = design.net(inst.conns[p]);
            if (!in_net.has_cell_driver()) continue;
            const InstId drv = in_net.driver.inst;
            const Cell& drv_cell = lib.cell(design.instance(drv).cell);
            if (swappable(drv_cell) && drv_cell.vth != VthClass::Svt) {
              contributions.push_back(
                  {weight * std::pow(cfg.fanin_discount, level + 1), drv});
            }
            // Slews restart at flops: no need to cross them.
            if (!drv_cell.is_sequential()) frontier.push_back({drv, level + 1});
          }
        }
      };
      for (const auto& step : path) {
        if (step.inst == kInvalidInst) continue;
        const Cell& cell = lib.cell(design.instance(step.inst).cell);
        if (swappable(cell) && cell.vth != VthClass::Svt) {
          contributions.push_back({step.incr_ns, step.inst});
        }
        offer_fanin(step.inst, step.incr_ns);
      }
      std::sort(contributions.begin(), contributions.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      if (contributions.empty()) {
        if (!scratch_dirty) {
          // Fresh trace, path and fanin fully SVT: genuinely unreachable.
          stuck[k] = 1;
          ++new_stuck;
        }
        continue;  // stale trace: retry next round
      }
      double need = gap * cfg.gain_safety;
      for (const auto& [incr, inst_id] : contributions) {
        if (need <= 0.0) break;
        Instance& inst = design.instance(inst_id);
        const Cell& cell = lib.cell(inst.cell);
        const double gain = incr * step_gain(cell.vth);
        const auto faster = next_faster(cell.vth);
        if (!faster.has_value()) continue;
        const auto variant = lib.variant(inst.cell, *faster);
        if (!variant.has_value()) continue;
        inst.cell = *variant;
        ++report.reverted;
        ++changed;
        scratch_dirty = true;
        need -= gain;
      }
    }
    if (changed == 0 && new_stuck == 0) break;  // no progress possible
    if (changed != 0) sta.compute_base_all_low();
  }

  for (InstId i = 0; i < design.num_instances(); ++i) {
    switch (lib.cell(design.instance(i).cell).vth) {
      case VthClass::Hvt: ++report.swapped_to_hvt; break;
      case VthClass::Uhvt: ++report.swapped_to_uhvt; break;
      case VthClass::Svt: break;
    }
  }

  sta.compute_base_all_low();
  report.wns_after_ns = sta.analyze().wns;
  report.leakage_after_mw = total_leakage_low(design);
  return report;
}

}  // namespace vipvt
