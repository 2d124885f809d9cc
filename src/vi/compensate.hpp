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
#include <span>
#include <vector>

#include "variation/model.hpp"
#include "vi/islands.hpp"
#include "vi/razor.hpp"

namespace vipvt {

struct VirtualChip {
  DieLocation loc;
  std::vector<double> lgate_nm;  ///< per instance, fabricated gate lengths
};

/// Draw one fabricated die.  Evaluates the exposure polynomial at every
/// gate (VariationModel::systematic_lgates) and delegates to the
/// slot-map overload below.
VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc, Rng& rng);

/// Draw one fabricated die around a precomputed systematic Lgate map
/// (VariationModel::systematic_lgates at `loc`, one entry per instance):
/// the wafer path, where every die of a reticle slot shares the map.
/// Consumes the identical RNG stream and yields bit-identical gate
/// lengths to the location overload.
VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc,
                           std::span<const double> systematic, Rng& rng);

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
  /// bit-identical to the historical one-level-at-a-time walk.  Level-k
  /// factors are derived from the die's level-0 factors by recomputing
  /// only the instances level k flips to another corner (DESIGN.md §20),
  /// bit-identical to chip_factors() after set_level(k).  Leaves the
  /// engine at the final level's bases.
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

  /// Re-point the controller at another variation model of the same
  /// process (a sigma-scaled copy, say).  Keeps the level cache: base
  /// delays and corners never depend on the model, only the per-die
  /// delay factors do.
  void set_model(const VariationModel& model) { model_ = &model; }

  const IslandPlan& plan() const { return *plan_; }

 private:
  /// One cached level: slot k is severity level k for k <= num_islands,
  /// the chip-wide all-high assignment for k == num_islands + 1.
  struct Level {
    StaEngine::BaseSnapshot snap;
    /// Instances whose corner differs from level 0's, ascending.
    std::vector<InstId> flipped;
  };
  /// Level k, filled on first use by compute_base() at its corner vector
  /// (level 0 first, which the flipped list is taken against).  May
  /// leave the engine at any level's bases.
  const Level& level(int k);

  /// chip_factors() into a reused buffer.
  void fill_factors(const VirtualChip& chip, std::vector<double>& out) const;

  /// out = level k's factors of `chip`, given its level-0 factors in
  /// f0_: f0_ with level k's flipped instances re-evaluated at their
  /// corner.
  void level_factors(const VirtualChip& chip, int k, std::vector<double>& out);

  const Design* design_;
  StaEngine* sta_;
  const VariationModel* model_;
  const IslandPlan* plan_;
  const RazorPlan* sensors_;
  /// Lazily filled level() cache, num_islands + 2 slots.
  std::vector<std::unique_ptr<Level>> levels_;
  /// Per-die factor buffers, reused across compensate() calls: the
  /// level-0 fill and one lane per escalation level.
  std::vector<double> f0_;
  std::vector<std::vector<double>> lane_factors_;
};

}  // namespace vipvt
