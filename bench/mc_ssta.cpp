// Adaptive sequential sampling vs the fixed budget (DESIGN.md §14,
// EXPERIMENTS.md E11).  The CI target is fixed a priori off a Scalar
// reference run's stage fits: pin every stage's sigma to +/-15 % and its
// mean to +/-40 % of the worst stage sigma, at 95 % — a precision the
// fixed budget comfortably overshoots, so a correct sequential rule
// stops well short of it.  Prints the fixed-vs-adaptive table and the
// convergence history.  The prefix-equivalence contract (the adaptive
// run stopping at N is bit-identical to a fixed run with samples = N,
// serial and pooled) is gated in tests/test_variation.cpp.
//
// Options: --samples N (reference-run budget, default 1536).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "util/table.hpp"
#include "variation/mc_ssta.hpp"
#include "variation/model.hpp"

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace vipvt;
  using clock = std::chrono::steady_clock;
  bench::print_header("MC SSTA", "adaptive sequential sampling vs the fixed "
                                 "budget");

  const int samples = bench::arg_int(argc, argv, "--samples", 1536);

  // Tiny core: the workload SHAPE (per-sample factor draw + full-graph
  // propagation) matches the full VEX; only the graph is smaller.
  Library lib = make_st65lp_like();
  Design design = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(design, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(design, fp, PlacerConfig{}, db);
  StaEngine sta(design, StaOptions{});
  sta.set_clock_period(sta.min_period() * 1.01);
  const ExposureField field = ExposureField::scaled_65nm(lib.char_params());
  const VariationModel model(lib.char_params(), field);
  const MonteCarloSsta mc(design, sta, model);
  const DieLocation loc = DieLocation::point('A');
  std::printf("# design: %zu instances, %zu timing edges, %d reference "
              "samples\n\n",
              design.num_instances(), sta.num_edges(), samples);

  McConfig base;
  base.samples = samples;
  base.seed = 0x5ca1ab1eULL;
  const McResult scalar_ref = mc.run(loc, base);
  double sigma_max = 0.0;
  for (const auto& sd : scalar_ref.stages) {
    if (sd.present) sigma_max = std::max(sigma_max, sd.fit.stddev);
  }

  const int fixed_budget = std::min(samples, 500);
  McConfig acfg = base;
  acfg.adaptive.enabled = true;
  acfg.adaptive.min_samples = 32;
  acfg.adaptive.max_samples = fixed_budget;
  acfg.adaptive.check_every_batches = 2;
  acfg.adaptive.sigma_half_width_ns = 0.15 * sigma_max;
  acfg.adaptive.mean_half_width_ns = 0.40 * sigma_max;

  auto t0 = clock::now();
  const McResult adaptive = mc.run(loc, acfg);
  const std::chrono::duration<double> adaptive_s = clock::now() - t0;

  McConfig fcfg = base;
  fcfg.samples = fixed_budget;
  t0 = clock::now();
  (void)mc.run(loc, fcfg);
  const std::chrono::duration<double> fixed_s = clock::now() - t0;

  const double savings =
      1.0 - static_cast<double>(adaptive.samples) / fixed_budget;
  Table at({"run", "samples", "wall [s]", "stop"});
  at.add_row({"fixed budget", std::to_string(fixed_budget),
              Table::num(fixed_s.count(), 3), "fixed-budget"});
  at.add_row({"adaptive", std::to_string(adaptive.samples),
              Table::num(adaptive_s.count(), 3),
              mc_stop_name(adaptive.stopping_reason)});
  std::printf("adaptive sampling (sigma hw <= %.4g ns, mean hw <= %.4g ns "
              "at 95 %%):\n%s",
              acfg.adaptive.sigma_half_width_ns,
              acfg.adaptive.mean_half_width_ns, at.render().c_str());
  std::printf("convergence:");
  for (const McRound& r : adaptive.convergence) {
    std::printf(" %d:%.4f/%.4f", r.samples, r.worst_mean_half_width_ns,
                r.worst_sigma_half_width_ns);
  }
  std::printf("  -> %s after %zu rounds, %.1f%% of the fixed budget never "
              "drawn (%.1fx wall clock)\n",
              mc_stop_name(adaptive.stopping_reason),
              adaptive.convergence.size(), 100.0 * savings,
              fixed_s.count() / adaptive_s.count());
  return 0;
}
