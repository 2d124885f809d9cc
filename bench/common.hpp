#pragma once
// Shared configuration for the paper-reproduction benches: every table
// and figure is regenerated on the same full-size 4-way VEX flow the
// paper evaluates (64x32 register file, 4 slots, 65 nm-class dual-Vdd
// library), differing only in the voltage-island slicing direction.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "util/simd/dispatch.hpp"
#include "vi/flow.hpp"

namespace vipvt::bench {

inline FlowConfig paper_flow_config(SliceDir dir = SliceDir::Vertical) {
  FlowConfig cfg;
  cfg.vex = VexConfig{};  // full 4-way, 32-bit, 64-reg core
  cfg.scenario.sweep_points = 12;
  cfg.scenario.mc.samples = 300;
  cfg.islands.dir = dir;
  cfg.islands.mc_samples = 100;
  cfg.sim_cycles = 400;
  return cfg;
}

/// Builds the flow through the requested stage, printing progress.
inline std::unique_ptr<Flow> make_flow(SliceDir dir = SliceDir::Vertical,
                                       bool through_activity = true) {
  auto flow = std::make_unique<Flow>(paper_flow_config(dir));
  std::printf("# design: %zu instances, %zu nets, clock %.3f ns (%.1f MHz)\n",
              flow->design().num_instances(), flow->design().num_nets(),
              flow->nominal_clock_ns(), 1e3 / flow->nominal_clock_ns());
  if (through_activity) {
    flow->simulate_activity();  // runs the whole pipeline
  }
  return flow;
}

/// Integer argv option of the form `--name N` (e.g. `--samples 12`).
/// Returns `fallback` when absent.
inline int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

inline void print_header(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
  // CPU capability provenance: timings a bench prints are only comparable
  // across machines when the ISA context is recorded alongside
  // (DESIGN.md §17).
  std::printf("# cpu: %s | dispatch: %s\n", simd::cpu_features().c_str(),
              simd::arch_name(simd::active_arch()));
}

}  // namespace vipvt::bench
