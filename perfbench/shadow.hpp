#pragma once
// Outside-in per-layer ledger for the per-die pipeline.
//
// The shadow replay re-runs YieldAnalyzer::analyze_die_with from the
// benchmark's own code, through the same public calls in the same
// order, and wraps a steady-clock span around each one:
//
//   vi.set_level        CompensationController::set_level(0)
//   variation.mc        MonteCarloSsta::run_with_systematic, or taking
//                       the slot screen's analytic verdict
//   vi.fabricate        fabricate_chip
//   vi.compensate       CompensationController::compensate
//   vi.chipwide         set_chip_wide + StaEngine::analyze (fallback dies)
//   power.compute       PowerEngine::compute
//
// Every shadow outcome is compared bit-for-bit against analyze_die_with
// on the same slot map and screen entry (same_outcome), so the ledger
// never times a different program than the one the end-to-end metrics
// measure.  Spans live only here; the library is not instrumented.

#include <chrono>
#include <cstdint>
#include <span>

#include "power/power.hpp"
#include "timing/sta.hpp"
#include "variation/model.hpp"
#include "vi/compensate.hpp"
#include "vi/islands.hpp"
#include "yield/yield.hpp"

namespace vipvt::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Busy seconds per span and the counts measured at the same boundaries.
struct Ledger {
  double slot_maps_s = 0.0;
  double screen_s = 0.0;
  double set_level_s = 0.0;
  double mc_s = 0.0;
  double fabricate_s = 0.0;
  double compensate_s = 0.0;
  double chipwide_s = 0.0;
  double power_s = 0.0;
  /// Wall of the traced ops that produced the spans above.
  double wall_s = 0.0;

  std::uint64_t wafers = 0;
  std::uint64_t dies = 0;
  std::uint64_t decided_dies = 0;  ///< screen verdict taken, MC skipped
  std::uint64_t mc_dies = 0;       ///< ran MonteCarloSsta
  std::uint64_t mc_samples = 0;
  std::uint64_t escalated_dies = 0;
  std::uint64_t chipwide_dies = 0;  ///< took the chip-wide fallback STA
  std::uint64_t power_calls = 0;

  double span_sum_s() const {
    return slot_maps_s + screen_s + set_level_s + mc_s + fabricate_s +
           compensate_s + chipwide_s + power_s;
  }
};

/// What the shadow needs from the analyzer it mirrors: the same design,
/// model, island plan, power engine and clock the analyzer was built on.
struct ShadowContext {
  const Design* design;
  const VariationModel* model;
  const IslandPlan* plan;
  const PowerEngine* power;
  double clock_freq_ghz;
};

/// analyze_die_with, step by step, with each public call timed into `led`.
DieOutcome shadow_die(const ShadowContext& ctx, StaEngine& engine,
                      CompensationController& ctrl, const WaferDie& die,
                      const YieldConfig& cfg, std::span<const double> systematic,
                      const SlotTriage* triage, Ledger& led);

/// Bit-for-bit equality of every DieOutcome field (doubles compared by
/// their bit patterns).
bool same_outcome(const DieOutcome& a, const DieOutcome& b);

}  // namespace vipvt::perfbench
