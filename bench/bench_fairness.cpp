// Competing-flow fairness sweep (PR 6): N two-party sessions — mixed
// platforms × mixed client ABR adapters — sharing one bottleneck gateway
// downlink (core::run_fairness_session). Each cell reports Jain's fairness
// index, per-flow achieved rate and share, convergence time to steady state,
// the shaper's self-inflicted queuing lag, and drop fraction; every cell runs
// with ABR applied and again with every flow on the plain platform-pushed
// policy, so the sweep shows what client-side adaptation buys (or costs) at
// a shared link.
//
// The sweep runs on runner::ExperimentRunner once at 1 thread and once at 8;
// the aggregate reports must be bit-identical — ABR active included (exit 1
// on any mismatch).
//
// `--gate <ratio>` switches to the ABR-off invisibility check CI's
// perf-smoke job runs: interleaved A/B rounds of the same contention scene,
// A with ABR fully disabled (the pre-PR client path, byte for byte) and B
// with every adapter armed in shadow mode plus receiver feedback accounting
// on. The two aggregate reports must be byte-identical (exit 1) and
// best-of-rounds wall clock may not regress below the gate ratio (e.g.
// --gate 0.98 = "armed shadow machinery costs <= 2%", exit 3).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fairness_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Cell {
  int flows = 2;
  bool abr = true;
  std::string key;  // e.g. "f4.abr" / "f4.plain"
};

core::FairnessBenchmarkConfig cell_config(const Cell& cell, SimDuration media) {
  core::FairnessBenchmarkConfig cfg;
  cfg.flows = core::default_fairness_flows(cell.flows);
  if (!cell.abr) {
    for (auto& f : cfg.flows) f.abr = abr::AbrKind::kNone;
  }
  // Scale the bottleneck with the flow count so every cell sits in the same
  // per-flow contention regime (~600 Kbps/flow against Mbps-class targets).
  cfg.bottleneck = DataRate::kbps(600 * cell.flows);
  cfg.media_duration = media;
  return cfg;
}

void sample_session(runner::SessionContext& ctx, const std::string& key,
                    const core::FairnessBenchmarkResult& r) {
  ctx.sample(key + ".jain", r.jain_index);
  ctx.sample(key + ".utilization", r.utilization);
  ctx.sample(key + ".queue_ms", r.queue_delay_mean_ms);
  ctx.sample(key + ".queue_max_ms", r.queue_delay_max_ms);
  ctx.sample(key + ".drop", r.drop_fraction);
  if (r.convergence_mean_seconds >= 0.0) {
    ctx.sample(key + ".convergence_s", r.convergence_mean_seconds);
  }
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const auto& f = r.flows[i];
    const std::string fk = key + ".flow" + std::to_string(i);
    ctx.sample(fk + ".kbps", f.achieved_kbps);
    ctx.sample(fk + ".share", f.share);
    if (f.convergence_seconds >= 0.0) ctx.sample(fk + ".convergence_s", f.convergence_seconds);
    if (f.abr != abr::AbrKind::kNone) {
      ctx.sample(fk + ".abr_decisions", static_cast<double>(f.abr_decisions));
      ctx.sample(fk + ".abr_switches", static_cast<double>(f.abr_tier_switches));
    }
  }
}

/// ABR-off invisibility gate (CI perf-smoke): A = ABR fully disabled,
/// B = shadow-armed adapters + feedback accounting. Returns the exit code.
int run_gate(double gate, int rounds, const std::string& out_path) {
  const auto make_task = [](bool armed) {
    return [armed](runner::SessionContext& ctx) {
      Cell cell{3, armed, "gate"};
      core::FairnessBenchmarkConfig cfg = cell_config(cell, seconds(10));
      cfg.abr_shadow = true;  // armed adapters never apply their decisions
      const auto r = core::run_fairness_session(cfg, ctx.seed);
      ctx.sample("gate.jain", r.jain_index);
      ctx.sample("gate.utilization", r.utilization);
      ctx.sample("gate.queue_ms", r.queue_delay_mean_ms);
      ctx.sample("gate.drop", r.drop_fraction);
      for (std::size_t i = 0; i < r.flows.size(); ++i) {
        ctx.sample("gate.flow" + std::to_string(i) + ".kbps", r.flows[i].achieved_kbps);
      }
    };
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 6161;
  rc.label = "fairness_gate";
  rc.threads = 1;

  std::string baseline_json;
  double best_off = 0.0, best_shadow = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (const bool armed : {false, true}) {
      const auto report = runner::ExperimentRunner{rc}.run(3, make_task(armed));
      if (!report.failures.empty()) {
        std::printf("FAIL: gate session threw (%zu failures)\n", report.failures.size());
        return 1;
      }
      if (baseline_json.empty()) {
        baseline_json = report.aggregate_json();
      } else if (report.aggregate_json() != baseline_json) {
        std::printf("FAIL: %s aggregate differs from ABR-off baseline — shadow-armed "
                    "ABR must be byte-invisible\n",
                    armed ? "shadow-armed" : "ABR-off");
        return 1;
      }
      double& best = armed ? best_shadow : best_off;
      if (best == 0.0 || report.wall_seconds < best) best = report.wall_seconds;
    }
  }
  const double ratio = best_shadow > 0.0 ? best_off / best_shadow : 0.0;
  std::printf("ABR-off gate: best off %.3f s, best shadow-armed %.3f s, ratio %.3fx "
              "(gate %.2fx), aggregates byte-identical: yes\n",
              best_off, best_shadow, ratio, gate);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n  \"benchmark\": \"fairness_gate\",\n  \"rounds\": %d,\n"
                "  \"best_abr_off_seconds\": %.6f,\n  \"best_shadow_armed_seconds\": %.6f,\n"
                "  \"shadow_speed_ratio\": %.4f,\n  \"gate\": %.2f,\n"
                "  \"aggregates_byte_identical\": true\n}\n",
                rounds, best_off, best_shadow, ratio, gate);
  if (runner::write_text_file(out_path, json)) {
    std::printf("report written to %s\n", out_path.c_str());
  }
  if (ratio < gate) {
    std::printf("FAIL: shadow-armed overhead ratio %.3fx below gate %.2fx\n", ratio, gate);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = vcb::paper_scale(argc, argv);
  const double gate = vcb::double_flag(argc, argv, "--gate", 0.0);
  const int rounds = std::max(3, vcb::int_flag(argc, argv, "--rounds", 5));
  const std::string out_path = vcb::string_flag(argc, argv, "--out", "bench_fairness.report.json");
  if (gate > 0.0) return run_gate(gate, rounds, out_path);

  vcb::banner("Competing-flow fairness — shared bottleneck, client ABR vs platform policy",
              paper);

  const std::vector<int> flow_counts = paper ? std::vector<int>{2, 4, 8}
                                             : std::vector<int>{2, 4};
  const int sessions_per_cell = paper ? 3 : 1;
  const SimDuration media = paper ? seconds(30) : seconds(15);

  std::vector<Cell> cells;
  for (const int nf : flow_counts) {
    for (const bool abr_on : {true, false}) {
      Cell c;
      c.flows = nf;
      c.abr = abr_on;
      c.key = "f" + std::to_string(nf) + (abr_on ? ".abr" : ".plain");
      for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
    }
  }

  const auto task = [&cells, media](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    const core::FairnessBenchmarkConfig cfg = cell_config(c, media);
    const auto r = core::run_fairness_session(cfg, ctx.seed);
    sample_session(ctx, c.key, r);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 6006;
  rc.label = "fairness";
  rc.threads = 1;
  const auto serial = runner::ExperimentRunner{rc}.run(cells.size(), task);
  rc.threads = 8;
  const auto report = runner::ExperimentRunner{rc}.run(cells.size(), task);

  TextTable table{{"flows", "abr", "Jain", "util", "queue (ms)", "drop", "conv (s)",
                   "min flow (kbps)", "max flow (kbps)"}};
  auto cell_stat = [&report](const std::string& key) -> const RunningStats* {
    return report.find_sample(key);
  };
  for (const int nf : flow_counts) {
    for (const bool abr_on : {true, false}) {
      const std::string k = "f" + std::to_string(nf) + (abr_on ? ".abr" : ".plain");
      double lo = 0.0, hi = 0.0;
      for (int i = 0; i < nf; ++i) {
        const auto* s = cell_stat(k + ".flow" + std::to_string(i) + ".kbps");
        if (s == nullptr) continue;
        if (lo == 0.0 || s->mean() < lo) lo = s->mean();
        hi = std::max(hi, s->mean());
      }
      const auto* jain = cell_stat(k + ".jain");
      const auto* util = cell_stat(k + ".utilization");
      const auto* queue = cell_stat(k + ".queue_ms");
      const auto* drop = cell_stat(k + ".drop");
      const auto* conv = cell_stat(k + ".convergence_s");
      table.add_row({std::to_string(nf), abr_on ? "mixed" : "off",
                     jain ? TextTable::num(jain->mean(), 3) : "-",
                     util ? TextTable::num(util->mean(), 2) : "-",
                     queue ? TextTable::num(queue->mean(), 1) : "-",
                     drop ? TextTable::num(drop->mean(), 3) : "-",
                     conv ? TextTable::num(conv->mean(), 1) : "-", TextTable::num(lo, 0),
                     TextTable::num(hi, 0)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  const bool identical = serial.aggregate_json() == report.aggregate_json();
  std::printf("sessions: %zu  failures: %zu\n", report.sessions, report.failures.size());
  std::printf("wall clock: %.2f s at 1 thread, %.2f s at 8 threads — speedup %.2fx\n",
              serial.wall_seconds, report.wall_seconds,
              report.wall_seconds > 0 ? serial.wall_seconds / report.wall_seconds : 0.0);
  std::printf("aggregate reports bit-identical across thread counts (ABR active): %s\n",
              identical ? "yes" : "NO — determinism regression!");

  if (runner::write_text_file(out_path, report.to_json())) {
    std::printf("report written to %s\n", out_path.c_str());
  }
  return identical && report.failures.empty() ? 0 : 1;
}
