#pragma once
// Post-silicon compensation (paper §3/§5): the virtual-silicon test bench.
//
// A VirtualChip is one fabricated die — a concrete per-gate Lgate map
// drawn from the variation model at a die location.  The controller
// reproduces the post-silicon test flow: read the Razor sensors at the
// nominal (all-low) supply, map the flagged stages to a violation
// scenario, raise the pre-planned number of voltage islands, and verify
// the result.  The chip-wide adaptive-supply baseline (raise everything
// to high Vdd) is the comparison point for the power results in Fig. 5.
//
// The controller is the POST-SILICON member of the compensation-policy
// portfolio (DESIGN.md §18): VI escalation works per fabricated die.
// The design-side members — statistical gate upsizing and MC-criticality
// buffer insertion — are compiled upstream into the netlist itself by
// vi/policy (compile_policy_mix); the controller then runs unchanged on
// the transformed design.

#include <array>
#include <memory>
#include <vector>

#include "variation/model.hpp"
#include "vi/islands.hpp"
#include "vi/razor.hpp"

namespace vipvt {

struct VirtualChip {
  DieLocation loc;
  std::vector<double> lgate_nm;  ///< per instance, fabricated gate lengths
};

/// Draw one fabricated die.
VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc, Rng& rng);

struct CompensationOutcome {
  std::array<bool, kNumPipeStages> sensor_stage_flags{};
  int detected_severity = 0;   ///< stages flagged among DC/EX/WB
  int islands_raised = 0;      ///< after any escalation
  bool timing_met = false;     ///< all endpoints meet Tclk post-compensation
  bool escalated = false;      ///< needed more islands than detected
  bool missed_violation = false;  ///< a violating endpoint had no sensor
  double wns_before = 0.0;
  double wns_after = 0.0;
};

class CompensationController {
 public:
  /// `sta` must be built over the final netlist (islands assigned, level
  /// shifters inserted, Razor flops applied).
  CompensationController(const Design& design, StaEngine& sta,
                         const VariationModel& model, const IslandPlan& plan,
                         const RazorPlan& sensors);

  /// Runs detection + island raising (+ optional escalation) on one die.
  /// Escalation evaluates every remaining level as one multi-base
  /// analyze_batch_bases() batch (lane = level); the outcome is
  /// bit-identical to the historical one-level-at-a-time walk.
  CompensationOutcome compensate(const VirtualChip& chip,
                                 bool allow_escalation = true);

  /// Per-instance delay factors of a chip under the engine's current
  /// corner assignment (exposed for power/analysis code).
  std::vector<double> chip_factors(const VirtualChip& chip) const;

  /// Restore the engine's base delays for severity level k — bit-
  /// identical to sta.compute_base(plan.corners_for_severity(k)).  The
  /// first request for a level runs that compute_base() and caches its
  /// snapshot for the controller's lifetime, so a wafer worker reusing
  /// one controller across dies pays each level once, not once per die
  /// (DESIGN.md §12).
  void set_level(int k);

  /// Same, for the chip-wide all-high fallback assignment (the yield
  /// analyzer's last resort before discarding a die).
  void set_chip_wide();

  const IslandPlan& plan() const { return *plan_; }

 private:
  /// Cached snapshot for slot k: severity level k for k <= num_islands,
  /// the chip-wide all-high assignment for k == num_islands + 1.  Filled
  /// on first use by compute_base() at that slot's corner vector.
  const StaEngine::BaseSnapshot& level_snapshot(int k);

  const Design* design_;
  StaEngine* sta_;
  const VariationModel* model_;
  const IslandPlan* plan_;
  const RazorPlan* sensors_;
  /// Lazily filled level_snapshot() cache, num_islands + 2 slots.
  std::vector<std::unique_ptr<StaEngine::BaseSnapshot>> level_snaps_;
};

}  // namespace vipvt
