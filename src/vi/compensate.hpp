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
#include <cstdint>
#include <memory>
#include <optional>
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
  /// WNS with every domain at high Vdd; set only when compensate() was
  /// allowed the chip-wide fallback and the islands left timing unmet.
  std::optional<double> chip_wide_wns;
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
  /// bit-identical to the historical one-level-at-a-time walk.  When the
  /// islands leave timing unmet and `allow_chip_wide` is set, the
  /// chip-wide assignment is evaluated too (chip_wide_wns), bit-identical
  /// to set_chip_wide() + analyze(chip_factors()).  Each distinct supply
  /// state is analyzed at most once per die (DESIGN.md §12), and level
  /// factors are derived from the die's level-0 factors plus one cached
  /// other-corner factor per flipped instance (DESIGN.md §20),
  /// bit-identical to chip_factors() at that level.  Leaves the engine at
  /// the bases of the last assignment the walk decides on: chip-wide
  /// when evaluated, the final island level otherwise.
  CompensationOutcome compensate(const VirtualChip& chip,
                                 bool allow_escalation = true,
                                 bool allow_chip_wide = false);

  /// Per-instance delay factors of a chip under the engine's current
  /// corner assignment (exposed for power/analysis code).
  std::vector<double> chip_factors(const VirtualChip& chip) const;

  /// Restore the engine's base delays for severity level k — bit-
  /// identical to sta.compute_base(plan.corners_for_severity(k)).  The
  /// first request for a level runs that compute_base() and caches its
  /// snapshot for the controller's lifetime, so a wafer worker reusing
  /// one controller across dies pays each level once, not once per die
  /// (DESIGN.md §12).  No restore runs when the engine still holds the
  /// level's bases (same StaEngine::base_generation as when the
  /// controller installed them).
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

  /// Canonical slot of level k (num_islands + 1 = chip-wide): two levels
  /// share a canonical slot exactly when their snapshots are bitwise
  /// identical.  Fills level k on first use, which leaves the engine at
  /// its bases.
  int canonical_level(int k);

 private:
  /// One cached supply state: slot k is severity level k for
  /// k <= num_islands, the chip-wide all-high assignment for
  /// k == num_islands + 1.
  struct Level {
    StaEngine::BaseSnapshot snap;
    /// Instances whose corner differs from level 0's, ascending.
    std::vector<InstId> flipped;
  };
  /// Level k, filled on first use by compute_base() at its corner vector
  /// (level 0 first, which the flipped list is taken against).  A fill
  /// that reproduces an earlier level bit for bit is dropped and points
  /// at that level's storage instead.  A fill leaves the engine at level
  /// k's bases.
  const Level& level(int k);

  /// Restore canonical slot c's bases unless the engine holds them.
  void hold(int c);

  /// out = the die's factors at canonical slot c: its level-0 factors
  /// f0_ with c's flipped instances at their other corner, each computed
  /// at most once per die from the stored Lgate terms.
  void level_factors(int c, std::vector<double>& out);

  /// The die's WNS at level k: the per-die memo, or one scalar analyze
  /// at its bases (recorded in the memo).
  double level_wns(int k);
  bool wns_known(int c) const { return wns_stamp_[c] == epoch_; }
  void remember_wns(int c, double wns) {
    wns_stamp_[c] = epoch_;
    wns_[c] = wns;
  }

  const Design* design_;
  StaEngine* sta_;
  const VariationModel* model_;
  const IslandPlan* plan_;
  const RazorPlan* sensors_;
  /// Lazily filled level() cache, num_islands + 2 slots.  canon_[k] is
  /// level k's canonical slot (-1 before its fill); only canonical slots
  /// own a Level.
  std::vector<int> canon_;
  std::vector<std::unique_ptr<Level>> levels_;
  /// Canonical slot whose bases the engine holds, valid while the
  /// engine's base generation equals held_gen_: a caller that re-bases
  /// the engine between calls advances the generation and so forces the
  /// next hold() to restore.
  int held_ = -1;
  std::uint64_t held_gen_ = 0;

  /// Per-die state, reused across compensate() calls.  epoch_ numbers
  /// the dies; a stamp equal to it marks an entry as this die's.
  std::uint64_t epoch_ = 0;
  std::vector<double> wns_;               ///< per canonical slot
  std::vector<std::uint64_t> wns_stamp_;  ///< per canonical slot
  std::vector<double> f0_;                ///< level-0 factors
  std::vector<double> lgate_15_, dibl_;   ///< CharParams::lgate_terms
  std::vector<double> other_;  ///< per instance, other-corner factor
  std::vector<std::uint64_t> other_stamp_;
  /// Escalation lanes, one per not-yet-analyzed canonical slot: its
  /// slot, factors, bases and results.
  std::vector<int> lane_slots_;
  std::vector<std::vector<double>> lane_factors_;
  std::vector<const StaEngine::BaseSnapshot*> lane_bases_;
  std::vector<StaResult> lane_results_;
};

}  // namespace vipvt
