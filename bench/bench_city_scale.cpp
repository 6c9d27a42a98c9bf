// City-scale relay-federation sweep (PR 10): fleet size × placement policy
// over a city's worth of concurrent meetings per task, on the new src/fleet
// subsystem (cascaded relays + meeting load balancer + spare-capacity
// failover).
//
// Each task simulates one city: one platform, one fleet::RelayFleet, and a
// staggered batch of meetings (a broadcasting host plus passive receivers
// each). The default sweep covers fleet sizes {1,2,4} × policies
// {rr,least,locality} × `--cities` replicas, plus a crash-failover cell
// (relay 0 crashes mid-call, the balancer re-homes its meetings onto
// survivors and the clients reconnect) — north of 10^4 simulated
// participants end to end. Reported per cell: one-way video lag quantiles,
// meetings completed, trunked packet totals; report-level "rates" carry
// events/sec and bytes/sec (the runner divides the deterministic
// city.sim_events / city.sim_bytes counters by wall-clock).
//
// The sweep runs once at 1 thread and twice at 8 (the second 8-thread pass
// is the placement-replica check); all three aggregate reports must be
// byte-identical (exit 1).
//
// `--gate <ratio>` switches to the fleet-of-1 equivalence gate CI's
// perf-smoke job runs: interleaved A/B rounds of the same single-meeting
// Webex workload with native relay steering vs a fleet of size 1 with the
// balancer armed. The two aggregates must be byte-identical (exit 1 — the
// balancer's placement must reproduce the native path exactly) and
// best-of-rounds wall clock may not regress below the gate ratio (e.g.
// --gate 0.98 = "the armed balancer costs <= 2%", exit 3).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/city_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

platform::PlatformId parse_platform(const std::string& name) {
  if (name == "zoom") return platform::PlatformId::kZoom;
  if (name == "webex") return platform::PlatformId::kWebex;
  if (name == "meet") return platform::PlatformId::kMeet;
  std::fprintf(stderr, "unknown platform %s (zoom|webex|meet)\n", name.c_str());
  std::exit(2);
}

void sample_quantiles(runner::SessionContext& ctx, const std::string& base,
                      const std::vector<double>& values) {
  if (values.empty()) return;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    char suffix[8];
    std::snprintf(suffix, sizeof(suffix), ".p%d", static_cast<int>(q * 100 + 0.5));
    ctx.sample(base + suffix, quantile(std::vector<double>(values), q));
  }
}

struct Cell {
  int fleet_size = 1;
  fleet::PlacementPolicy policy = fleet::PlacementPolicy::kRoundRobin;
  bool crash = false;
  std::string key;  // e.g. "f2/least" or "f2/least/crash"
};

/// Fleet-of-1 equivalence gate (CI perf-smoke): A = native relay steering,
/// B = fleet of size 1 with the balancer armed. Returns the process exit
/// code.
int run_gate(double gate, int rounds, const std::string& out_path) {
  const auto make_task = [](bool fleet_on) {
    return [fleet_on](runner::SessionContext& ctx) {
      core::CityScaleConfig cfg;
      // Single-meeting Webex: the one workload whose native steering a
      // fleet of 1 reproduces move for move (one relay at webex-us-east,
      // allocated at meeting creation, no P2P short-circuit, no allocator
      // RNG draw) — which is what makes byte-identity a fair demand.
      cfg.platform = platform::PlatformId::kWebex;
      cfg.meetings = 1;
      cfg.participants_per_meeting = 7;
      cfg.media_duration = seconds(10);
      cfg.use_fleet = fleet_on;
      cfg.fleet_size = 1;
      cfg.attach_fleet_metrics = false;  // match the native instrument set
      cfg.seed = ctx.seed;
      cfg.metrics = &ctx.metrics;
      const auto r = core::run_city_scale_benchmark(cfg);
      ctx.sample("gate.completed", static_cast<double>(r.meetings_completed));
      ctx.sample("gate.lag_samples", static_cast<double>(r.lag_ms.size()));
      sample_quantiles(ctx, "gate.lag", r.lag_ms);
    };
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 10101;
  rc.label = "city_gate";
  rc.threads = 1;
  rc.rate_counters = {"city.sim_events", "city.sim_bytes"};

  std::string baseline_json;
  double best_native = 0.0, best_fleet = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (const bool fleet_on : {false, true}) {
      const auto report = runner::ExperimentRunner{rc}.run(3, make_task(fleet_on));
      if (!report.failures.empty()) {
        std::printf("FAIL: gate session threw (%zu failures)\n", report.failures.size());
        return 1;
      }
      if (baseline_json.empty()) {
        baseline_json = report.aggregate_json();
      } else if (report.aggregate_json() != baseline_json) {
        std::printf("FAIL: %s aggregate differs from native baseline — a fleet of 1 "
                    "must reproduce the single-relay path byte for byte\n",
                    fleet_on ? "fleet-of-1" : "native");
        return 1;
      }
      double& best = fleet_on ? best_fleet : best_native;
      if (best == 0.0 || report.wall_seconds < best) best = report.wall_seconds;
    }
  }
  const double ratio = best_fleet > 0.0 ? best_native / best_fleet : 0.0;
  std::printf("fleet-of-1 gate: best native %.3f s, best fleet %.3f s, ratio %.3fx "
              "(gate %.2fx), aggregates byte-identical: yes\n",
              best_native, best_fleet, ratio, gate);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n  \"benchmark\": \"city_scale_fleet_gate\",\n  \"rounds\": %d,\n"
                "  \"best_native_seconds\": %.6f,\n  \"best_fleet_seconds\": %.6f,\n"
                "  \"fleet_speed_ratio\": %.4f,\n  \"gate\": %.2f,\n"
                "  \"aggregates_byte_identical\": true\n}\n",
                rounds, best_native, best_fleet, ratio, gate);
  if (runner::write_text_file(out_path, json)) {
    std::printf("report written to %s\n", out_path.c_str());
  }
  if (ratio < gate) {
    std::printf("FAIL: fleet-of-1 overhead ratio %.3fx below gate %.2fx\n", ratio, gate);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = vcb::paper_scale(argc, argv);
  const double gate = vcb::double_flag(argc, argv, "--gate", 0.0);
  const int rounds = std::max(3, vcb::int_flag(argc, argv, "--rounds", 5));
  const std::string out_path =
      vcb::string_flag(argc, argv, "--out", "bench_city_scale.report.json");
  if (gate > 0.0) return run_gate(gate, rounds, out_path);

  vcb::banner("City scale — relay federation fleet sweep", paper);

  const platform::PlatformId plat =
      parse_platform(vcb::string_flag(argc, argv, "--platform", "zoom"));
  const int cities = vcb::int_flag(argc, argv, "--cities", paper ? 8 : 4);
  const int meetings = vcb::int_flag(argc, argv, "--meetings", paper ? 24 : 13);
  const int participants = vcb::int_flag(argc, argv, "--participants", 7);
  const int overflow = vcb::int_flag(argc, argv, "--overflow", 6);
  std::vector<int> fleet_sizes;
  for (const auto& s : split_csv(vcb::string_flag(argc, argv, "--fleets", "1,2,4"))) {
    fleet_sizes.push_back(std::atoi(s.c_str()));
  }
  std::vector<fleet::PlacementPolicy> policies;
  for (const auto& s : split_csv(vcb::string_flag(argc, argv, "--policies", "rr,least,locality"))) {
    policies.push_back(fleet::parse_policy(s));
  }

  // Sweep cells: every fleet size × policy, `cities` tasks each, plus a
  // crash-failover cell on the largest fleet (least-loaded re-homing).
  std::vector<Cell> cells;
  for (const int f : fleet_sizes) {
    for (const auto policy : policies) {
      Cell c;
      c.fleet_size = f;
      c.policy = policy;
      c.key = std::string{"f"}.append(std::to_string(f)).append("/").append(
          fleet::policy_name(policy));
      for (int i = 0; i < cities; ++i) cells.push_back(c);
    }
  }
  {
    Cell c;
    c.fleet_size = std::max<int>(2, fleet_sizes.back());
    c.policy = fleet::PlacementPolicy::kLeastLoaded;
    c.crash = true;
    c.key = std::string{"f"}.append(std::to_string(c.fleet_size)).append("/least/crash");
    for (int i = 0; i < cities; ++i) cells.push_back(c);
  }

  const auto task = [&cells, plat, meetings, participants,
                     overflow](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::CityScaleConfig cfg;
    cfg.platform = plat;
    cfg.fleet_size = c.fleet_size;
    cfg.policy = c.policy;
    cfg.overflow_shard_size = c.fleet_size > 1 ? overflow : 0;
    cfg.meetings = meetings;
    cfg.participants_per_meeting = participants;
    cfg.inject_crash = c.crash;
    cfg.seed = ctx.seed;
    cfg.metrics = &ctx.metrics;
    cfg.tracer = ctx.tracer;
    const auto r = core::run_city_scale_benchmark(cfg);
    ctx.sample(c.key + ".completed", static_cast<double>(r.meetings_completed));
    ctx.sample(c.key + ".join_timeouts", static_cast<double>(r.join_timeouts));
    ctx.sample(c.key + ".clients", static_cast<double>(r.clients));
    ctx.sample(c.key + ".relays", static_cast<double>(r.relays_created));
    ctx.sample(c.key + ".trunk_delivered", static_cast<double>(r.trunk_delivered_packets));
    ctx.sample(c.key + ".trunk_dropped", static_cast<double>(r.trunk_dropped_packets));
    if (c.crash) {
      ctx.sample(c.key + ".lost_in_outage", static_cast<double>(r.packets_lost_in_outage));
      ctx.sample(c.key + ".reconnects", static_cast<double>(r.reconnects));
    }
    sample_quantiles(ctx, c.key + ".lag", r.lag_ms);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 9090;
  rc.label = "city_scale";
  rc.threads = 1;
  rc.rate_counters = {"city.sim_events", "city.sim_bytes"};
  const auto serial = runner::ExperimentRunner{rc}.run(cells.size(), task);
  rc.threads = 8;
  const auto report = runner::ExperimentRunner{rc}.run(cells.size(), task);
  // Placement-replica check: the identical sweep again — fleet decisions
  // must be a pure function of (seed, config), never of scheduling.
  const auto replica = runner::ExperimentRunner{rc}.run(cells.size(), task);

  TextTable table{{"cell", "clients", "done", "relays", "trunk pkts", "trunk drop",
                   "lag p50 (ms)", "lag p90 (ms)"}};
  auto cell_num = [&report](const std::string& key, int digits) {
    const auto* s = report.find_sample(key);
    return s ? TextTable::num(s->mean(), digits) : std::string{"-"};
  };
  std::vector<std::string> seen;
  for (const Cell& c : cells) {
    if (std::find(seen.begin(), seen.end(), c.key) != seen.end()) continue;
    seen.push_back(c.key);
    table.add_row({c.key, cell_num(c.key + ".clients", 0), cell_num(c.key + ".completed", 1),
                   cell_num(c.key + ".relays", 1), cell_num(c.key + ".trunk_delivered", 0),
                   cell_num(c.key + ".trunk_dropped", 0), cell_num(c.key + ".lag.p50", 1),
                   cell_num(c.key + ".lag.p90", 1)});
  }
  std::printf("%s\n", table.render().c_str());

  double total_clients = 0.0;
  for (const auto& [name, s] : report.samples) {
    if (name.size() > 8 && name.compare(name.size() - 8, 8, ".clients") == 0) {
      total_clients += s.sum();
    }
  }
  std::printf("sweep total: %.0f simulated participants across %zu city tasks "
              "(%.0f across the 1-thread, 8-thread, and replica passes)\n",
              total_clients, report.sessions, total_clients * 3);
  for (const auto& [name, value] : report.rates) {
    std::printf("rate %s: %.0f\n", name.c_str(), value);
  }

  const bool identical = serial.aggregate_json() == report.aggregate_json() &&
                         report.aggregate_json() == replica.aggregate_json();
  std::printf("sessions: %zu  failures: %zu\n", report.sessions, report.failures.size());
  std::printf("wall clock: %.2f s at 1 thread, %.2f s at 8 threads — speedup %.2fx\n",
              serial.wall_seconds, report.wall_seconds,
              report.wall_seconds > 0 ? serial.wall_seconds / report.wall_seconds : 0.0);
  std::printf("aggregate reports bit-identical across thread counts and replicas: %s\n",
              identical ? "yes" : "NO — determinism regression!");

  if (runner::write_text_file(out_path, report.to_json())) {
    std::printf("report written to %s\n", out_path.c_str());
  }
  return identical && report.failures.empty() ? 0 : 1;
}
