// Per-die pipeline benchmark on the tiny VEX core.
//
// One op is one YieldAnalyzer::analyze wafer (wafer_triage, wafer_mc) or
// one whole CampaignRunner::run including plan building
// (campaign_cliff).  Every op's output is checked; a failed check counts
// the op as failed.  --trace 0 measures the end-to-end metrics; --trace 1
// re-runs the same inputs through the shadow replay (shadow.hpp) and
// reports the per-layer ledger.  See README.md for the metric map.
//
//   diebench --workload wafer_triage --seed 7 --seconds 10 --trace 0
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "io/campaign_writers.hpp"
#include "io/yield_writers.hpp"
#include "shadow.hpp"
#include "util/simd/dispatch.hpp"
#include "util/stats.hpp"
#include "vi/flow.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace {

using namespace vipvt;
using namespace vipvt::perfbench;

// ---- workload definitions ---------------------------------------------------

enum class Kind { WaferTriage, WaferMc, CampaignCliff };

/// Setup repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Wafer ops cycle over this many wafer seeds, so every seed repeats and
/// each repeat must reproduce the first occurrence's report bytes.
constexpr std::uint64_t kWaferSeeds = 4;
constexpr unsigned kCampaignThreads = 2;
/// Tight clock of the campaign variant: nominal min period * (1 - 3.5 %),
/// which puts every cell below 100 % yield and sends part of the wafer to
/// MC fallback at the larger sigma scales.
constexpr double kCliffClockMargin = -0.035;
/// Tolerance of the trace gate: spans must cover the traced wall up to
/// this share (the rest is loop and bookkeeping overhead).
constexpr double kUnattributedTolerance = 0.05;

Kind parse_kind(const std::string& name) {
  if (name == "wafer_triage") return Kind::WaferTriage;
  if (name == "wafer_mc") return Kind::WaferMc;
  if (name == "campaign_cliff") return Kind::CampaignCliff;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

FlowConfig tiny_flow(double clock_margin) {
  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  cfg.clock_margin = clock_margin;
  return cfg;
}

YieldConfig wafer_config(Kind kind) {
  YieldConfig yc;  // default budget: 48 MC samples per die
  yc.mc.profile = DrawProfile::BatchedSimd;
  yc.tier = kind == Kind::WaferTriage ? EvalTier::Triage : EvalTier::Flat;
  return yc;
}

CampaignSpec cliff_spec(std::uint64_t campaign_seed) {
  CampaignSpec spec;
  WaferConfig wc;
  wc.wafer_diameter_mm = 150.0;  // 68 dies
  spec.wafer_grids = {wc};
  spec.sigma_scales = {1.0, 2.0, 3.0, 4.0};
  spec.policies = {PolicyMix{"full", true, true},
                   PolicyMix{"no-escalation", false, true}};
  spec.mc_samples = {48};
  spec.wafers_per_cell = 2;
  spec.shard_dies = 16;
  spec.seed = campaign_seed;
  spec.base.mc.profile = DrawProfile::BatchedSimd;
  spec.base.tier = EvalTier::Triage;
  return spec;
}

// ---- small helpers ----------------------------------------------------------

struct Args {
  std::string workload = "wafer_triage";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_fault = false;
  std::string scratch = ".bench_build/scratch";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--inject-fault") {
      a.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val != "0";
    else if (key == "--scratch") a.scratch = val;
    else throw std::invalid_argument("unknown option " + key);
  }
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process image.  VmHWM, not ru_maxrss: the
/// latter survives execve, so it would report the launcher's peak too.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double quantile(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : percentile(v, p);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---- set-up -----------------------------------------------------------------

/// Seconds spent in each Flow step of one set-up.
struct FlowSteps {
  double build = 0, characterize = 0, islands = 0, shifters = 0, sensors = 0,
         activity = 0;
};

std::unique_ptr<Flow> build_flow(const FlowConfig& cfg, FlowSteps& steps) {
  auto t = Clock::now();
  auto flow = std::make_unique<Flow>(cfg);
  steps.build = seconds_since(t);
  t = Clock::now();
  flow->characterize();
  steps.characterize = seconds_since(t);
  t = Clock::now();
  flow->generate_islands();
  steps.islands = seconds_since(t);
  t = Clock::now();
  flow->insert_shifters();
  steps.shifters = seconds_since(t);
  t = Clock::now();
  flow->plan_sensors();
  steps.sensors = seconds_since(t);
  t = Clock::now();
  flow->simulate_activity();
  steps.activity = seconds_since(t);
  return flow;
}

/// Everything a run measures against, rebuilt kSetupReps times.
struct Bench {
  Kind kind = Kind::WaferTriage;
  Args args;
  std::unique_ptr<Flow> flow;
  std::unique_ptr<PowerEngine> power;  ///< the shadow replay's engine
  // Wafer workloads.
  std::unique_ptr<YieldAnalyzer> analyzer;
  std::optional<WaferModel> wafer;
  YieldConfig wafer_cfg;
  std::vector<std::uint64_t> wafer_seeds;
  // Campaign workload.
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<CampaignRunner> runner;
  CampaignSpec spec;
  std::string stream_path;

  bool is_campaign() const { return kind == Kind::CampaignCliff; }
  double clock_freq_ghz() const { return 1.0 / flow->post_shifter_clock_ns(); }
  std::uint64_t dies_per_op() const {
    if (!is_campaign()) return wafer->num_dies();
    return runner->expand(spec).size() *
           static_cast<std::uint64_t>(spec.wafers_per_cell) *
           WaferModel(spec.wafer_grids.front()).num_dies();
  }
};

// ---- ops --------------------------------------------------------------------

struct OpSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double first_record_s = 0.0;
  double report_write_s = 0.0;
  bool ok = true;
  // Campaign only.
  std::vector<double> record_gaps_s;
  std::size_t peak_pending_shards = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t jobs = 0;
};

/// Reference bytes of each input's first occurrence.
struct Fingerprints {
  std::vector<std::string> wafer = std::vector<std::string>(kWaferSeeds);
  std::string campaign;
};

bool tallies_consistent(const YieldReport& r, const YieldConfig& cfg) {
  std::size_t policies = 0;
  for (std::size_t c : r.policy_count) policies += c;
  const std::size_t n = r.dies.size();
  const auto budget = static_cast<std::size_t>(per_die_mc_budget(cfg.mc));
  if (policies != n || r.mc_samples_budget != n * budget) return false;
  if (cfg.effective_tier() == EvalTier::Flat) {
    return r.triage_analytical + r.triage_mc_fallback + r.triage_macro == 0 &&
           r.mc_samples_drawn == n * budget;
  }
  return r.triage_analytical + r.triage_mc_fallback + r.triage_macro == n &&
         r.mc_samples_drawn == r.triage_mc_fallback * budget;
}

OpSample wafer_op(Bench& b, std::uint64_t op, Fingerprints& fp, bool corrupt,
                  YieldReport* report_out = nullptr) {
  YieldConfig cfg = b.wafer_cfg;
  const std::uint64_t input = op % kWaferSeeds;
  cfg.seed = b.wafer_seeds[input];
  OpSample s;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  YieldReport rep = b.analyzer->analyze(*b.wafer, cfg);
  s.wall_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - c0;
  s.first_record_s = s.wall_s;  // the report is the op's only record
  s.jobs = 1;

  const std::size_t d = static_cast<std::size_t>(
      (op * 97 + b.args.seed) % rep.dies.size());
  if (corrupt) {
    rep.dies[d].total_mw = std::nextafter(rep.dies[d].total_mw, 1e300);
  }
  const auto tw = Clock::now();
  std::ostringstream os;
  write_yield_csv(os, *b.wafer, rep);
  write_yield_json(os, rep);
  s.report_write_s = seconds_since(tw);
  std::string bytes = os.str();
  if (fp.wafer[input].empty()) {
    fp.wafer[input] = std::move(bytes);
  } else if (fp.wafer[input] != bytes) {
    s.ok = false;
  }
  if (!tallies_consistent(rep, cfg)) s.ok = false;
  StaEngine fresh(b.flow->sta());
  const DieOutcome again =
      b.analyzer->analyze_die(fresh, b.wafer->dies()[d], cfg);
  if (!same_outcome(again, rep.dies[d])) s.ok = false;
  if (report_out != nullptr) *report_out = std::move(rep);
  return s;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>(), '\n'));
}

OpSample campaign_op(Bench& b, ThreadPool* pool, Fingerprints& fp,
                     bool corrupt, CampaignReport* report_out = nullptr) {
  OpSample s;
  std::uint64_t records = 0;
  Clock::time_point t0, last;
  CampaignRunStats stats;
  CampaignRunOptions opts;
  opts.pool = pool;
  opts.stream_path = b.stream_path;
  opts.stats = &stats;
  opts.on_record = [&](const std::string&) {
    const auto now = Clock::now();
    if (records == 0) {
      s.first_record_s = std::chrono::duration<double>(now - t0).count();
    } else {
      s.record_gaps_s.push_back(std::chrono::duration<double>(now - last).count());
    }
    last = now;
    ++records;
  };
  const double c0 = cpu_seconds();
  t0 = Clock::now();
  CampaignReport rep = b.runner->run(b.spec, opts);
  s.wall_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - c0;
  s.peak_pending_shards = stats.peak_pending_shards;
  s.jobs = rep.jobs_total;
  s.stream_bytes = std::filesystem::file_size(b.stream_path);
  if (corrupt) ++records;

  const auto tw = Clock::now();
  std::ostringstream os;
  write_campaign_json(os, rep);
  s.report_write_s = seconds_since(tw);
  std::string bytes = os.str();
  if (fp.campaign.empty()) {
    fp.campaign = std::move(bytes);
  } else if (fp.campaign != bytes) {
    s.ok = false;
  }
  // Header + one line per shard record + trailer.
  if (!rep.complete() || records != rep.jobs_total ||
      count_lines(b.stream_path) != rep.jobs_total + 2) {
    s.ok = false;
  }
  if (report_out != nullptr) *report_out = std::move(rep);
  return s;
}

void setup(Bench& b, std::vector<double>& setup_s, std::vector<FlowSteps>& steps) {
  const FlowConfig fc =
      tiny_flow(b.is_campaign() ? kCliffClockMargin : FlowConfig{}.clock_margin);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Tear the previous set-up down outside the timed region.
    b.runner.reset();
    b.pool.reset();
    b.analyzer.reset();
    b.power.reset();
    b.flow.reset();
    FlowSteps st;
    const auto t0 = Clock::now();
    b.flow = build_flow(fc, st);
    Fingerprints warm;
    if (b.is_campaign()) {
      b.runner = std::make_unique<CampaignRunner>();
      b.runner->add_variant("tiny-cliff", *b.flow);
      b.pool = std::make_unique<ThreadPool>(kCampaignThreads);
      (void)campaign_op(b, b.pool.get(), warm, false);
    } else {
      // YieldAnalyzer is immovable (it owns a mutex); new elides the copy.
      b.analyzer.reset(new YieldAnalyzer(YieldAnalyzer::from_flow(*b.flow)));
      (void)wafer_op(b, 0, warm, false);
    }
    setup_s.push_back(seconds_since(t0));
    steps.push_back(st);
  }
  b.power = std::make_unique<PowerEngine>(b.flow->design(), b.flow->activity());
}

// ---- traced ops (shadow replay) --------------------------------------------

/// One engine clone plus a persistent controller — the analyzer's worker.
struct Worker {
  Worker(const Flow& f, const VariationModel& model)
      : engine(f.sta()),
        ctrl(f.design(), engine, model, f.island_plan(), f.razor_plan()) {}
  StaEngine engine;
  CompensationController ctrl;
};

/// Mirrors YieldAnalyzer::analyze serially for wafer op `op`, timing into
/// `led`; every die is then checked against analyze_die_with and against
/// the untraced report.  Returns the number of mismatching dies.
std::uint64_t shadow_wafer_op(Bench& b, std::uint64_t op, Worker& ref,
                              const YieldReport& untraced, Ledger& led) {
  YieldConfig cfg = b.wafer_cfg;
  cfg.seed = b.wafer_seeds[op % kWaferSeeds];
  const WaferModel& wafer = *b.wafer;
  const ShadowContext ctx{&b.flow->design(), &b.flow->variation(),
                          &b.flow->island_plan(), b.power.get(),
                          b.clock_freq_ghz()};
  std::vector<DieOutcome> outs(wafer.num_dies());
  const auto t0 = Clock::now();
  Worker w(*b.flow, b.flow->variation());
  auto t = Clock::now();
  const auto maps = b.analyzer->reticle_slot_maps(wafer);
  led.slot_maps_s += seconds_since(t);
  t = Clock::now();
  const auto screen = b.analyzer->tier_screen(wafer, cfg, maps);
  led.screen_s += seconds_since(t);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const WaferDie& die = wafer.dies()[i];
    const std::size_t slot = YieldAnalyzer::reticle_slot(wafer, die);
    outs[i] = shadow_die(ctx, w.engine, w.ctrl, die, cfg, maps[slot],
                         screen.empty() ? nullptr : &screen[slot], led);
  }
  led.wall_s += seconds_since(t0);
  ++led.wafers;

  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const WaferDie& die = wafer.dies()[i];
    const std::size_t slot = YieldAnalyzer::reticle_slot(wafer, die);
    const DieOutcome truth = b.analyzer->analyze_die_with(
        ref.engine, ref.ctrl, die, cfg, maps[slot],
        screen.empty() ? nullptr : &screen[slot]);
    if (!same_outcome(outs[i], truth) ||
        !same_outcome(outs[i], untraced.dies[i])) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Mirrors CampaignRunner::run serially: the same sigma-scaled model
/// copies, per-cell screens and campaign_wafer_seed streams, one worker
/// per sigma, timing into `led`.  Every die is checked against
/// analyze_die_with, and each cell's tallies against the untraced campaign
/// report.  Returns the number of mismatching dies and cells.
std::uint64_t shadow_campaign_op(Bench& b, const CampaignReport& untraced,
                                 Ledger& led) {
  const Flow& f = *b.flow;
  const CampaignSpec& spec = b.spec;
  const WaferModel wafer(spec.wafer_grids.front());
  const std::vector<CampaignCell> cells = b.runner->expand(spec);
  const std::size_t nsig = spec.sigma_scales.size();
  std::vector<std::vector<DieOutcome>> outs(cells.size());

  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<VariationModel>> models;
  std::vector<std::unique_ptr<YieldAnalyzer>> analyzers;
  std::vector<std::unique_ptr<Worker>> workers(nsig);
  for (const double scale : spec.sigma_scales) {
    VariationConfig vc = f.variation().config();
    vc.three_sigma_random_frac *= scale;
    models.push_back(std::make_unique<VariationModel>(
        f.variation().char_params(), f.variation().field(), vc));
    analyzers.push_back(std::make_unique<YieldAnalyzer>(
        f.design(), f.sta(), *models.back(), f.island_plan(), f.razor_plan(),
        f.activity(), b.clock_freq_ghz()));
  }
  auto t = Clock::now();
  const auto maps = analyzers.front()->reticle_slot_maps(wafer);
  led.slot_maps_s += seconds_since(t);
  std::vector<std::vector<SlotTriage>> screens(cells.size());
  for (const CampaignCell& cell : cells) {
    t = Clock::now();
    screens[cell.index] =
        analyzers[cell.sigma]->tier_screen(wafer, cell.config, maps);
    led.screen_s += seconds_since(t);
  }
  for (const CampaignCell& cell : cells) {
    auto& w = workers[cell.sigma];
    if (!w) w = std::make_unique<Worker>(f, *models[cell.sigma]);
    const ShadowContext ctx{&f.design(), models[cell.sigma].get(),
                            &f.island_plan(), b.power.get(),
                            b.clock_freq_ghz()};
    const auto& screen = screens[cell.index];
    for (int wi = 0; wi < spec.wafers_per_cell; ++wi) {
      YieldConfig cfg = cell.config;
      cfg.seed = campaign_wafer_seed(spec.seed, cell.index,
                                     static_cast<std::uint64_t>(wi));
      for (const WaferDie& die : wafer.dies()) {
        const std::size_t slot = YieldAnalyzer::reticle_slot(wafer, die);
        outs[cell.index].push_back(shadow_die(
            ctx, w->engine, w->ctrl, die, cfg, maps[slot],
            screen.empty() ? nullptr : &screen[slot], led));
      }
      ++led.wafers;
    }
  }
  led.wall_s += seconds_since(t0);

  std::uint64_t mismatches = 0;
  std::vector<std::unique_ptr<Worker>> refs(nsig);
  for (const CampaignCell& cell : cells) {
    auto& r = refs[cell.sigma];
    if (!r) r = std::make_unique<Worker>(f, *models[cell.sigma]);
    const auto& screen = screens[cell.index];
    YieldAggregate agg;
    std::size_t k = 0;
    for (int wi = 0; wi < spec.wafers_per_cell; ++wi) {
      YieldConfig cfg = cell.config;
      cfg.seed = campaign_wafer_seed(spec.seed, cell.index,
                                     static_cast<std::uint64_t>(wi));
      for (const WaferDie& die : wafer.dies()) {
        const std::size_t slot = YieldAnalyzer::reticle_slot(wafer, die);
        const DieOutcome& mine = outs[cell.index][k++];
        const DieOutcome truth = analyzers[cell.sigma]->analyze_die_with(
            r->engine, r->ctrl, die, cfg, maps[slot],
            screen.empty() ? nullptr : &screen[slot]);
        if (!same_outcome(mine, truth)) ++mismatches;
        agg.add(mine, f.island_plan().num_islands(),
                per_die_mc_budget(cfg.mc));
      }
    }
    const YieldAggregate& theirs = untraced.cells[cell.index].agg;
    if (agg.dies != theirs.dies || agg.policy_count != theirs.policy_count ||
        agg.escalated != theirs.escalated ||
        agg.triage_mc_fallback != theirs.triage_mc_fallback) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---- reporting --------------------------------------------------------------

void print_provenance(const Bench& b) {
  std::printf("# provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %u, \"cpu_features\": \"%s\", \"dispatch\": \"%s\", "
              "\"pool\": %u, \"instances\": %zu}\n",
              b.args.workload.c_str(),
              static_cast<unsigned long long>(b.args.seed),
              std::max(1u, std::thread::hardware_concurrency()),
              simd::cpu_features().c_str(),
              simd::arch_name(simd::active_arch()),
              b.is_campaign() ? kCampaignThreads : 1u,
              b.flow->design().num_instances());
}

double sum_of(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

struct Summary {
  std::vector<double> wall_s, cpu_s, first_s, write_s, gaps_s;
  std::size_t peak_pending = 0;
  std::uint64_t stream_bytes = 0, jobs = 0, ops = 0, failed = 0;

  void add(const OpSample& s) {
    wall_s.push_back(s.wall_s);
    cpu_s.push_back(s.cpu_s);
    first_s.push_back(s.first_record_s);
    write_s.push_back(s.report_write_s);
    gaps_s.insert(gaps_s.end(), s.record_gaps_s.begin(), s.record_gaps_s.end());
    peak_pending = std::max(peak_pending, s.peak_pending_shards);
    stream_bytes += s.stream_bytes;
    jobs += s.jobs;
    ++ops;
    failed += s.ok ? 0 : 1;
  }
  /// Process CPU seconds per wall second of each op: min / median / max.
  void print_cpu_per_wall() const {
    std::vector<double> r;
    for (std::size_t i = 0; i < wall_s.size(); ++i) {
      r.push_back(ratio(cpu_s[i], wall_s[i]));
    }
    std::printf("# parallel.cpu_per_wall per op: min %.3f median %.3f max %.3f "
                "(%zu ops)\n",
                *std::min_element(r.begin(), r.end()), quantile(r, 0.5),
                *std::max_element(r.begin(), r.end()), r.size());
  }
};

int run_timed(Bench& b, const std::vector<double>& setup_s) {
  Fingerprints fp;
  Summary sum;
  const auto start = Clock::now();
  for (std::uint64_t op = 0; op == 0 || seconds_since(start) < b.args.seconds;
       ++op) {
    const bool corrupt = b.args.inject_fault && op == 0;
    sum.add(b.is_campaign() ? campaign_op(b, b.pool.get(), fp, corrupt)
                            : wafer_op(b, op, fp, corrupt));
  }
  const double dies = static_cast<double>(b.dies_per_op() * sum.ops);
  const double wall = sum_of(sum.wall_s);
  const double op_p50 = quantile(sum.wall_s, 0.5);
  std::printf("# %llu ops, %.0f dies, %.3f s timed (mean %.1f dies/s); "
              "failed_frac %.6f\n",
              static_cast<unsigned long long>(sum.ops), dies, wall, dies / wall,
              ratio(static_cast<double>(sum.failed), static_cast<double>(sum.ops)));
  sum.print_cpu_per_wall();
  // Throughput at the median op: on a shared host the mean is dominated
  // by the slow tail of contended ops, the median is not.
  const std::vector<Metric> m = {
      {"dies_per_s", static_cast<double>(b.dies_per_op()) / op_p50, "dies/s"},
      {"op_ms_p50", 1e3 * op_p50, "ms"},
      {"op_ms_p90", 1e3 * quantile(sum.wall_s, 0.9), "ms"},
      {"first_record_ms_p50", 1e3 * quantile(sum.first_s, 0.5), "ms"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const Metric& x : m) {
    std::printf("#   %-22s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  print_result(sum.failed == 0, sum.ops, sum.failed, m);
  return 0;
}

int run_traced(Bench& b, const std::vector<FlowSteps>& steps) {
  Fingerprints fp;
  Summary pooled;  // untraced ops as the timed run makes them
  Ledger led;
  double untraced_serial_s = 0.0;  // the same inputs, untraced, serial
  std::uint64_t attempted = 0, failed = 0, identity_failures = 0;
  Worker ref(*b.flow, b.flow->variation());
  bool cells_below_one = true, every_policy = true;
  const auto start = Clock::now();
  for (std::uint64_t op = 0; op == 0 || seconds_since(start) < b.args.seconds;
       ++op) {
    std::uint64_t mismatches = 0;
    if (b.is_campaign()) {
      pooled.add(campaign_op(b, b.pool.get(), fp, false));
      CampaignReport serial;
      const OpSample s = campaign_op(b, nullptr, fp, false, &serial);
      untraced_serial_s += s.wall_s;
      attempted += 1;
      failed += s.ok ? 0 : 1;
      mismatches = shadow_campaign_op(b, serial, led);
      std::array<std::uint64_t, kNumTuningPolicies> seen{};
      for (const CellResult& c : serial.cells) {
        cells_below_one &= c.agg.parametric_yield() < 1.0;
        for (int p = 0; p < kNumTuningPolicies; ++p) seen[p] += c.agg.policy_count[p];
      }
      for (std::uint64_t n : seen) every_policy &= n > 0;
    } else {
      YieldReport rep;
      const OpSample s = wafer_op(b, op, fp, false, &rep);
      pooled.add(s);
      untraced_serial_s += s.wall_s;
      mismatches = shadow_wafer_op(b, op, ref, rep, led);
    }
    attempted += 1;  // the shadow op
    failed += mismatches == 0 ? 0 : 1;
    identity_failures += mismatches == 0 ? 0 : 1;
  }
  attempted += pooled.ops;
  failed += pooled.failed;

  const double dies = static_cast<double>(led.dies);
  const double us = 1e6 / dies;
  const double unattributed_frac = (led.wall_s - led.span_sum_s()) / led.wall_s;
  const bool gate_ok = unattributed_frac >= 0.0 &&
                       unattributed_frac <= kUnattributedTolerance;
  std::printf("# shadow identity: %llu dies, %llu mismatching ops\n",
              static_cast<unsigned long long>(led.dies),
              static_cast<unsigned long long>(identity_failures));
  std::printf("# span sum %.6f s + unattributed %.6f s = traced wall %.6f s "
              "(gate: unattributed within [0, %.2f] of wall: %s)\n",
              led.span_sum_s(), led.wall_s - led.span_sum_s(), led.wall_s,
              kUnattributedTolerance, gate_ok ? "ok" : "FAILED");
  if (b.is_campaign()) {
    std::printf("# properties: yield<1 in every cell: %s, every policy: %s, "
                "decided_frac<1: %s\n",
                cells_below_one ? "yes" : "NO", every_policy ? "yes" : "NO",
                led.decided_dies < led.dies ? "yes" : "NO");
  }
  pooled.print_cpu_per_wall();

  const auto med_step = [&](double FlowSteps::*field) {
    std::vector<double> v;
    for (const FlowSteps& s : steps) v.push_back(s.*field);
    return quantile(v, 0.5);
  };
  const std::vector<Metric> m = {
      {"flow.build_s", med_step(&FlowSteps::build), "s"},
      {"flow.characterize_s", med_step(&FlowSteps::characterize), "s"},
      {"flow.islands_s", med_step(&FlowSteps::islands), "s"},
      {"flow.shifters_s", med_step(&FlowSteps::shifters), "s"},
      {"flow.sensors_s", med_step(&FlowSteps::sensors), "s"},
      {"flow.activity_s", med_step(&FlowSteps::activity), "s"},
      {"yield.slot_maps_us_per_wafer",
       1e6 * led.slot_maps_s / static_cast<double>(led.wafers), "us"},
      {"yield.unattributed_us_per_die",
       (untraced_serial_s - led.span_sum_s()) * us, "us"},
      {"ssta.screen_us_per_wafer",
       1e6 * led.screen_s / static_cast<double>(led.wafers), "us"},
      {"ssta.decided_frac", ratio(static_cast<double>(led.decided_dies), dies),
       "ratio"},
      {"variation.mc_us_per_die", led.mc_s * us, "us"},
      {"variation.mc_dies_frac", ratio(static_cast<double>(led.mc_dies), dies),
       "ratio"},
      {"variation.mc_samples_per_die",
       ratio(static_cast<double>(led.mc_samples), static_cast<double>(led.mc_dies)),
       "count"},
      {"vi.set_level_us_per_die", led.set_level_s * us, "us"},
      {"vi.fabricate_us_per_die", led.fabricate_s * us, "us"},
      {"vi.compensate_us_per_die", led.compensate_s * us, "us"},
      {"vi.escalated_frac", ratio(static_cast<double>(led.escalated_dies), dies),
       "ratio"},
      {"vi.chipwide_frac", ratio(static_cast<double>(led.chipwide_dies), dies),
       "ratio"},
      {"vi.chipwide_us_per_fallback",
       1e6 * ratio(led.chipwide_s, static_cast<double>(led.chipwide_dies)), "us"},
      {"power.compute_us_per_die", led.power_s * us, "us"},
      {"power.calls_per_die", ratio(static_cast<double>(led.power_calls), dies),
       "count"},
      {"campaign.jobs",
       ratio(static_cast<double>(pooled.jobs), static_cast<double>(pooled.ops)),
       "count"},
      {"campaign.record_gap_ms_p50",
       1e3 * quantile(b.is_campaign() ? pooled.gaps_s : pooled.wall_s, 0.5),
       "ms"},
      {"campaign.peak_pending_shards", static_cast<double>(pooled.peak_pending),
       "count"},
      {"parallel.cpu_per_wall",
       ratio(sum_of(pooled.cpu_s), sum_of(pooled.wall_s)), "ratio"},
      {"io.stream_bytes_per_die",
       ratio(static_cast<double>(pooled.stream_bytes),
             static_cast<double>(b.dies_per_op() * pooled.ops)),
       "B"},
      {"io.report_write_ms", 1e3 * quantile(pooled.write_s, 0.5), "ms"},
      {"trace.overhead_frac",
       (led.wall_s - untraced_serial_s) / untraced_serial_s, "ratio"},
      {"trace.unattributed_frac", unattributed_frac, "ratio"},
  };
  for (const Metric& x : m) {
    std::printf("#   %-30s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  print_result(failed == 0 && gate_ok, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Bench b;
    b.args = parse_args(argc, argv);
    b.kind = parse_kind(b.args.workload);
    if (!(b.args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    // Inputs derive from the workload seed alone.
    if (b.is_campaign()) {
      b.spec = cliff_spec(substream_seed(b.args.seed, 0xca4f));
      std::filesystem::create_directories(b.args.scratch);
      b.stream_path = (std::filesystem::path(b.args.scratch) /
                       ("campaign-" + std::to_string(b.args.seed) + ".ndjson"))
                          .string();
    } else {
      b.wafer.emplace(WaferConfig{});  // 300 mm: 308 dies
      b.wafer_cfg = wafer_config(b.kind);
      for (std::uint64_t k = 0; k < kWaferSeeds; ++k) {
        b.wafer_seeds.push_back(substream_seed(b.args.seed, k));
      }
    }
    std::vector<double> setup_s;
    std::vector<FlowSteps> steps;
    setup(b, setup_s, steps);
    print_provenance(b);
    const int rc = b.args.trace ? run_traced(b, steps) : run_timed(b, setup_s);
    if (b.is_campaign()) std::filesystem::remove(b.stream_path);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "diebench: %s\n", e.what());
    return 2;
  }
}
