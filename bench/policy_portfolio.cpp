// Compensation-policy portfolio Pareto (DESIGN.md §18, EXPERIMENTS.md
// E13): one wafer run per policy mix — VI escalation only, statistical
// sizing + VI, criticality buffering + VI, and all three — reporting the
// power/area/yield point each mix buys.  Transforming mixes compile the
// netlist once (compile_policy_mix) and fabricate every die on the
// transformed design; the per-level base snapshots (DESIGN.md §12) serve
// the compiled netlists exactly as they serve the baseline.  The
// determinism and bit-identity contracts of the mixes (thread counts,
// shard sizes, portfolio-off and zero-strength identity) are gated in
// tests/test_policy_portfolio.cpp.
//
// Knobs: --samples N (per-die MC budget, default 12), --dies N (use the
// smallest wafer with at least N dies instead of the 300 mm default).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/table.hpp"
#include "vi/policy.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace vipvt;
  using clock = std::chrono::steady_clock;
  bench::print_header("Policy portfolio",
                      "power/area/yield Pareto per compensation-policy mix");

  // Tiny core: the workload SHAPE (per-die MC + compensation on a shared
  // read-only design) is the full VEX's.
  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  Flow flow(cfg);
  flow.simulate_activity();
  std::printf("# design: %zu instances, clock %.3f ns\n",
              flow.design().num_instances(), flow.nominal_clock_ns());

  WaferConfig wc;  // 300 mm, 28 mm field, 14 mm die
  const int want_dies = bench::arg_int(argc, argv, "--dies", 0);
  if (want_dies > 0) {
    for (double diameter = 50.0; diameter <= 450.0; diameter += 10.0) {
      wc.wafer_diameter_mm = diameter;
      if (WaferModel(wc).num_dies() >= static_cast<std::size_t>(want_dies)) {
        break;
      }
    }
  }
  const WaferModel wafer{wc};
  YieldConfig yc;
  yc.mc.samples = bench::arg_int(argc, argv, "--samples", 12);
  yc.mc.profile = DrawProfile::BatchedSimd;
  std::printf("# wafer: %zu dies (%.0f mm), %d MC samples/die\n\n",
              wafer.num_dies(), wc.wafer_diameter_mm, yc.mc.samples);

  // The acceptance-criteria portfolio: >= 4 mixes spanning the three
  // levers.  Knob choices: a low criticality threshold so the tiny
  // core's statistically-critical gates actually select (crit is the
  // per-instance failing-path probability at the worst-corner die), a
  // 64-gate / 16-net area guard.
  const auto make_mix = [](const char* name, bool sizing, bool buffering) {
    PolicyMix m;
    m.name = name;
    m.sizing.enabled = sizing;
    m.sizing.min_crit_prob = 0.02;
    m.sizing.max_upsized = 64;
    m.buffering.enabled = buffering;
    m.buffering.min_crit_prob = 0.02;
    m.buffering.max_nets = 16;
    return m;
  };
  struct MixRun {
    PolicyMix mix;
    CompiledPolicy compiled;
    std::unique_ptr<YieldAnalyzer> analyzer;
  };
  std::vector<MixRun> mixes;
  mixes.push_back({make_mix("vi-only", false, false), {}, {}});
  mixes.push_back({make_mix("sizing+vi", true, false), {}, {}});
  mixes.push_back({make_mix("buffering+vi", false, true), {}, {}});
  mixes.push_back({make_mix("sizing+buffering+vi", true, true), {}, {}});

  for (MixRun& m : mixes) {
    m.compiled = compile_policy_mix(m.mix, flow.design(), flow.sta(),
                                    flow.variation(), flow.activity());
    m.analyzer = std::make_unique<YieldAnalyzer>(
        m.compiled.design_or(flow.design()), m.compiled.sta_or(flow.sta()),
        flow.variation(), flow.island_plan(), flow.razor_plan(),
        m.compiled.activity_or(flow.activity()),
        1.0 / flow.post_shifter_clock_ns());
    m.analyzer->set_portfolio(m.compiled.stats);
    std::printf("# mix %-20s: %llu gates upsized, %llu buffers on %llu "
                "nets, area %+.1f um^2\n",
                m.mix.name.c_str(),
                static_cast<unsigned long long>(m.compiled.stats.gates_upsized),
                static_cast<unsigned long long>(
                    m.compiled.stats.buffers_inserted),
                static_cast<unsigned long long>(m.compiled.stats.nets_buffered),
                m.compiled.stats.area_delta_um2);
  }
  std::printf("\n");

  Table pt({"mix", "yield %", "ship power [mW]", "area [um^2]", "d-area",
            "upsized", "buffers", "dies/s"});
  for (const MixRun& m : mixes) {
    const auto t0 = clock::now();
    const YieldReport r = m.analyzer->analyze(wafer, yc, nullptr);
    const std::chrono::duration<double> dt = clock::now() - t0;
    double power = 0.0;
    std::size_t shipped = 0;
    for (const DieOutcome& d : r.dies) {
      if (d.policy == TuningPolicy::Discard) continue;
      power += d.total_mw;
      ++shipped;
    }
    const double ship_power = shipped == 0 ? 0.0
                                           : power / static_cast<double>(shipped);
    const double dies_per_s =
        static_cast<double>(wafer.num_dies()) / dt.count();
    pt.add_row({m.mix.name, Table::num(r.parametric_yield() * 100.0, 1),
                Table::num(ship_power, 3),
                Table::num(m.compiled.stats.area_um2, 1),
                Table::num(m.compiled.stats.area_delta_um2, 1),
                std::to_string(m.compiled.stats.gates_upsized),
                std::to_string(m.compiled.stats.buffers_inserted),
                Table::num(dies_per_s, 1)});
  }
  std::printf("%s\n", pt.render().c_str());
  return 0;
}
