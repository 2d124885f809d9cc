// Campaign sweep: the wafer-campaign layer as a batch workload, plus its
// TWO hard determinism gates (DESIGN.md §15), both of which exit
// non-zero on any byte difference:
//
//   1. Shard/thread invariance: the same sweep run at shard sizes
//      {1, 3} x thread counts {1, 2} must serialize to a byte-identical
//      campaign report — the partition-invariant reducer contract.
//   2. Kill-and-resume: a campaign checkpointed at the halfway job and
//      resumed must reproduce BOTH the uninterrupted report bytes AND
//      the uninterrupted NDJSON stream bytes.
//   3. Both of the above again with the analytical triage tier enabled
//      (DESIGN.md §16), covering the schema-v2 checkpoint's triage
//      tallies across a kill/resume boundary.
//
// Also measures campaign throughput (dies/sec through the full per-die
// MC + compensation pipeline) and records the streaming layer's O(1)
// evidence: the reorder buffer's high-water mark (peak_pending_shards),
// which is bounded by the pool size, never by die count.
//
// Knobs: --samples N (per-die MC budget), --wafers W (wafers per cell),
// --shard N (throughput-run shard size), --out PATH.  Emits
// BENCH_campaign.json.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/campaign.hpp"
#include "io/campaign_writers.hpp"
#include "util/table.hpp"
#include "vi/flow.hpp"

#include "common.hpp"

namespace {

std::string report_bytes(const vipvt::CampaignReport& report) {
  std::ostringstream os;
  vipvt::write_campaign_json(os, report);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vipvt;
  using clock = std::chrono::steady_clock;
  bench::print_header("Campaign sweep",
                      "multi-cell wafer campaigns, determinism + resume gates");

  const int mc_samples = bench::arg_int(argc, argv, "--samples", 8);
  const int wafers_per_cell = bench::arg_int(argc, argv, "--wafers", 2);
  const int shard_dies = bench::arg_int(argc, argv, "--shard", 3);

  // Tiny core, small wafer: the campaign multiplies dies by cells and
  // wafers, so each unit stays small while the ORCHESTRATION — the part
  // this bench gates — runs at full fidelity.
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

  CampaignRunner runner;
  runner.add_variant("tiny", flow);

  WaferConfig wc;
  wc.wafer_diameter_mm = 70.0;
  CampaignSpec spec;
  spec.wafer_grids = {wc};
  spec.sigma_scales = {1.0, 1.15};
  spec.policies = {PolicyMix{"full", true, true},
                   PolicyMix{"no-escalation", false, true}};
  spec.mc_samples = {mc_samples};
  spec.wafers_per_cell = wafers_per_cell;
  spec.shard_dies = shard_dies;
  spec.seed = 0xca4fa167;
  spec.base.mc.samples = mc_samples;

  const std::size_t wafer_dies = WaferModel(wc).num_dies();
  const std::size_t cells = runner.expand(spec).size();
  const auto total_dies = static_cast<double>(
      wafer_dies * cells * static_cast<std::size_t>(wafers_per_cell));
  std::printf("# campaign: %zu cells x %d wafers x %zu dies = %.0f die "
              "analyses, %d MC samples/die\n\n",
              cells, wafers_per_cell, wafer_dies, total_dies, mc_samples);

  bench::BenchJson out("campaign_sweep");
  out.set("cells", static_cast<double>(cells));
  out.set("wafers_per_cell", wafers_per_cell);
  out.set("dies_per_wafer", static_cast<double>(wafer_dies));
  out.set("total_dies", total_dies);
  out.set("mc_samples_per_die", mc_samples);

  // ---- gate 1: byte-identical report across shard sizes and threads ------
  const auto t0 = clock::now();
  const CampaignReport serial = runner.run(spec);
  const std::chrono::duration<double> serial_dt = clock::now() - t0;
  const std::string reference = report_bytes(serial);
  std::printf("campaign yield: %.1f %% (%llu/%llu dies ship)\n",
              serial.parametric_yield() * 100.0,
              static_cast<unsigned long long>(serial.shipped_dies()),
              static_cast<unsigned long long>(serial.total_dies()));
  out.set("serial_s", serial_dt.count());
  out.set("serial_dies_per_sec", total_dies / serial_dt.count());
  out.set("parametric_yield", serial.parametric_yield());

  Table t({"shard", "threads", "wall [s]", "dies/sec", "identical"});
  t.add_row({std::to_string(spec.shard_dies), "serial",
             Table::num(serial_dt.count(), 2),
             Table::num(total_dies / serial_dt.count(), 1), "ref"});
  for (const int shard : {1, 3}) {
    for (const unsigned threads : {1u, 2u}) {
      CampaignSpec s = spec;
      s.shard_dies = shard;
      ThreadPool pool(threads);
      CampaignRunOptions opts;
      opts.pool = &pool;
      CampaignRunStats stats;
      opts.stats = &stats;
      const auto t1 = clock::now();
      const CampaignReport report = runner.run(s, opts);
      const std::chrono::duration<double> dt = clock::now() - t1;
      const bool same = report_bytes(report) == reference;
      t.add_row({std::to_string(shard), std::to_string(threads),
                 Table::num(dt.count(), 2),
                 Table::num(total_dies / dt.count(), 1),
                 same ? "yes" : "NO (BUG)"});
      if (!same) {
        std::printf("DETERMINISM VIOLATION: report bytes differ at "
                    "shard_dies=%d threads=%u\n", shard, threads);
        return 1;
      }
      if (shard == 1 && threads == 2) {
        out.set("dies_per_sec_shard1_t2", total_dies / dt.count());
        out.set("peak_pending_shards_t2",
                static_cast<double>(stats.peak_pending_shards));
      }
    }
  }
  std::printf("%s\n", t.render().c_str());

  // ---- gate 2: kill-and-resume byte identity -----------------------------
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string full_path = (tmp / "vipvt_campaign_full.ndjson").string();
  const std::string cut_path = (tmp / "vipvt_campaign_cut.ndjson").string();

  CampaignRunOptions stream_opts;
  stream_opts.stream_path = full_path;
  CampaignRunStats full_stats;
  stream_opts.stats = &full_stats;
  const CampaignReport uninterrupted = runner.run(spec, stream_opts);
  const std::size_t kill_at = full_stats.jobs_total / 2;

  CampaignRunOptions cut_opts;
  cut_opts.stream_path = cut_path;
  cut_opts.stop_after_jobs = kill_at;
  (void)runner.run(spec, cut_opts);

  ThreadPool resume_pool(2);
  CampaignRunOptions resume_opts;
  resume_opts.stream_path = cut_path;
  resume_opts.resume = true;
  resume_opts.pool = &resume_pool;
  CampaignRunStats resume_stats;
  resume_opts.stats = &resume_stats;
  const CampaignReport resumed = runner.run(spec, resume_opts);

  const bool report_same = report_bytes(resumed) == report_bytes(uninterrupted);
  const bool stream_same = file_bytes(cut_path) == file_bytes(full_path);
  std::printf("kill-and-resume: %zu jobs, killed at %zu, resumed %zu "
              "-> report %s, stream %s\n\n",
              full_stats.jobs_total, kill_at, resume_stats.jobs_run,
              report_same ? "byte-identical" : "DIVERGED",
              stream_same ? "byte-identical" : "DIVERGED");
  std::filesystem::remove(full_path);
  std::filesystem::remove(cut_path);
  if (!report_same || !stream_same) {
    std::printf("DETERMINISM VIOLATION: resumed campaign diverged from the "
                "uninterrupted run\n");
    return 1;
  }
  out.set("resume_jobs_total", static_cast<double>(full_stats.jobs_total));
  out.set("resume_jobs_resumed", static_cast<double>(resume_stats.jobs_resumed));

  // ---- gate 3: determinism + resume with analytical triage on ------------
  // The same two contracts with the triage tier enabled (DESIGN.md §16):
  // the per-slot screen is a pure function of (variant, geometry, cfg),
  // so shard size, thread count, and a kill/resume boundary must not
  // change a single byte of the report or the NDJSON stream — including
  // the triage_analytical / triage_mc_fallback tallies the checkpoint
  // now carries (schema v2).
  {
    CampaignSpec ts = spec;
    ts.base.tier = EvalTier::Triage;
    const auto t2 = clock::now();
    const CampaignReport triage_serial = runner.run(ts);
    const std::chrono::duration<double> triage_dt = clock::now() - t2;
    const std::string triage_reference = report_bytes(triage_serial);
    out.set("triage_serial_s", triage_dt.count());
    out.set("triage_dies_per_sec", total_dies / triage_dt.count());
    for (const int shard : {1, 3}) {
      for (const unsigned threads : {1u, 2u}) {
        CampaignSpec s = ts;
        s.shard_dies = shard;
        ThreadPool pool(threads);
        CampaignRunOptions opts;
        opts.pool = &pool;
        if (report_bytes(runner.run(s, opts)) != triage_reference) {
          std::printf("DETERMINISM VIOLATION: triaged report bytes differ "
                      "at shard_dies=%d threads=%u\n", shard, threads);
          return 1;
        }
      }
    }

    const std::string tfull = (tmp / "vipvt_campaign_tfull.ndjson").string();
    const std::string tcut = (tmp / "vipvt_campaign_tcut.ndjson").string();
    CampaignRunOptions tfull_opts;
    tfull_opts.stream_path = tfull;
    CampaignRunStats tfull_stats;
    tfull_opts.stats = &tfull_stats;
    const CampaignReport tuninterrupted = runner.run(ts, tfull_opts);
    CampaignRunOptions tcut_opts;
    tcut_opts.stream_path = tcut;
    tcut_opts.stop_after_jobs = tfull_stats.jobs_total / 2;
    (void)runner.run(ts, tcut_opts);
    CampaignRunOptions tresume_opts;
    tresume_opts.stream_path = tcut;
    tresume_opts.resume = true;
    const CampaignReport tresumed = runner.run(ts, tresume_opts);
    const bool t_report_same =
        report_bytes(tresumed) == report_bytes(tuninterrupted);
    const bool t_stream_same = file_bytes(tcut) == file_bytes(tfull);
    std::printf("triage-enabled gates: shard/thread invariance ok, resume "
                "-> report %s, stream %s (%.1fx campaign speedup vs full "
                "MC)\n\n",
                t_report_same ? "byte-identical" : "DIVERGED",
                t_stream_same ? "byte-identical" : "DIVERGED",
                serial_dt.count() / triage_dt.count());
    std::filesystem::remove(tfull);
    std::filesystem::remove(tcut);
    if (!t_report_same || !t_stream_same) {
      std::printf("DETERMINISM VIOLATION: triaged campaign diverged across "
                  "a kill/resume boundary\n");
      return 1;
    }
    out.set("triage_speedup_vs_full_mc", serial_dt.count() / triage_dt.count());
  }

  // ---- streaming O(1) evidence -------------------------------------------
  // The campaign's transient state is the reorder buffer; its high-water
  // mark tracks the pool's out-of-order window, not the die count.  A
  // 4-thread run over every die of the sweep must keep the buffer within
  // a few shards of the pool size.
  {
    ThreadPool pool(4);
    CampaignSpec s = spec;
    s.shard_dies = 1;  // worst case: one pending slot per die
    CampaignRunOptions opts;
    opts.pool = &pool;
    CampaignRunStats stats;
    opts.stats = &stats;
    (void)runner.run(s, opts);
    std::printf("reorder buffer high-water mark at 4 threads, shard=1: "
                "%zu pending shards over %.0f dies (O(1) in dies)\n",
                stats.peak_pending_shards, total_dies);
    out.set("peak_pending_shards_t4_shard1",
            static_cast<double>(stats.peak_pending_shards));
    if (stats.peak_pending_shards > 64) {
      std::printf("STREAMING VIOLATION: reorder buffer grew far beyond the "
                  "pool's out-of-order window\n");
      return 1;
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  out.set("hardware_threads", hw);
  out.write(bench::out_path(argc, argv, "BENCH_campaign.json"));
  return 0;
}
