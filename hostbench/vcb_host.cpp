// vcb_host: runs one host-time benchmark workload and prints its raw
// measurements as one JSON object on stdout (progress goes to stderr).
// hostbench/run.py builds this binary, runs it and turns the measurements
// into the named metrics.
//
//   vcb_host --workload city|townhall|qoe --seed N --seconds T
//            --mode e2e|layers [--spans FILE]
//
// Runner passes use K = min(4, hardware threads) runner threads, the same on
// every run of a host.
//
// e2e: set-up repeats of the workload's minimal-media task, then rounds of
// the whole task batch on K runner threads until T seconds have passed
// (closed loop: each runner thread takes the next task as soon as its
// current one ends), then a 1-thread pass of the batch. Every round and the
// 1-thread pass must produce a byte-identical aggregate report.
//
// layers: one K-thread pass, one untraced and one traced 1-thread pass, then
// the host-time attribution of the traced pass (see layers.h). Each traced
// task's replays run just before and just after it, and the calibration
// loops just before and just after the traced pass; the attribution takes
// the mean of each pair, so a drift in the host's speed cancels to first
// order. Spans are kept in memory and written to FILE at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace hostbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSetupRepeats = 64;

std::size_t runner_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string flag(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

std::string hex_digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double max_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Minimal JSON object writer: keys in insertion order, numbers at full
/// precision.
class Json {
 public:
  Json& num(const std::string& key, double v) { return raw(key, number(v)); }
  Json& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (double x : v) s.append(s.size() > 1 ? ", " : "").append(number(x));
    return raw(key, s + "]");
  }
  Json& strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (const auto& x : v) s.append(s.size() > 1 ? ", " : "").append(quote(x));
    return raw(key, s + "]");
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& v) {
    body_.append(body_.empty() ? "" : ", ").append(quote(key)).append(": ").append(v);
    return *this;
  }
  static std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
  }
  std::string body_;
};

/// One runner pass over the batch: its wall time (tasks, runner pool and the
/// aggregate reduction, but not replays), the per-task outcomes and the
/// deterministic aggregate.
struct Pass {
  double wall_s = 0.0;
  std::vector<TaskOutcome> outcomes;
  std::vector<std::string> failures;  // one entry per failed task
  std::string aggregate;
  vc::runner::RunReport report;
};

/// Called on the runner thread just before and just after task `index`, with
/// its seed: kReplaysPerTask calls per task.
using Replay = std::function<void(std::size_t index, std::uint64_t seed)>;
constexpr int kReplaysPerTask = 2;

/// `replay` needs `spans` and one thread: its time is read off the recorder
/// and taken out of the pass's wall.
Pass run_pass(const Workload& wl, std::size_t threads, Spans* spans, const Replay& replay = {}) {
  Pass pass;
  pass.outcomes.resize(wl.tasks.size());
  vc::runner::ExperimentRunner::Config rc;
  rc.threads = threads;
  rc.base_seed = wl.base_seed;
  rc.label = "hostbench_" + wl.name;
  double replay_s = 0.0;
  const auto task = [&wl, &pass, spans, &replay, &replay_s](vc::runner::SessionContext& ctx) {
    const TaskSpec& spec = wl.tasks[ctx.task_index];
    const int id = static_cast<int>(ctx.task_index);
    const auto replay_task = [&] {
      if (!replay) return;
      const double t0 = spans->now();
      {
        Scope s{spans, "replay.task", id};
        replay(ctx.task_index, ctx.seed);
      }
      replay_s += spans->now() - t0;
    };
    replay_task();
    {
      Scope task_span{spans, "task", id};
      std::unique_ptr<vc::Tracer> tracer;  // sim-time flight recorder, traced pass only
      if (spans != nullptr) {
        tracer = std::make_unique<vc::Tracer>();
        tracer->set_enabled(true);
      }
      Scope run_span{spans,
                     spec.entry == Entry::kCity ? "core.run_city_scale_benchmark"
                                                : "core.run_qoe_session",
                     id};
      pass.outcomes[ctx.task_index] = run_task(spec, ctx, tracer.get());
    }
    replay_task();
  };
  const auto t0 = Clock::now();
  pass.report = vc::runner::ExperimentRunner{rc}.run(wl.tasks.size(), task);
  {
    Scope s{spans, "runner.aggregate", -1};
    pass.aggregate = pass.report.aggregate_json();
  }
  pass.wall_s = since(t0) - replay_s;
  for (const auto& [index, what] : pass.report.failures) {
    pass.outcomes[index].failure = "threw: " + what;
  }
  for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
    if (!pass.outcomes[i].failure.empty()) {
      pass.failures.push_back("task " + std::to_string(i) + " (" + wl.tasks[i].cell +
                              "): " + pass.outcomes[i].failure);
    }
  }
  return pass;
}

/// QoE census of every task, with the runner passes' seeds: the counts
/// run_qoe_session does not expose.
struct Census {
  std::vector<QoeCensus> tasks;
  std::vector<std::int64_t> events;
  vc::runner::RunReport report;
};

Census run_census(const Workload& wl, std::size_t threads) {
  Census census;
  census.tasks.resize(wl.tasks.size());
  census.events.resize(wl.tasks.size());
  vc::runner::ExperimentRunner::Config rc;
  rc.threads = threads;
  rc.base_seed = wl.base_seed;
  rc.label = "hostbench_census";
  census.report = vc::runner::ExperimentRunner{rc}.run(
      wl.tasks.size(), [&wl, &census](vc::runner::SessionContext& ctx) {
        census.tasks[ctx.task_index] = run_qoe_census(wl.tasks[ctx.task_index].qoe, ctx.seed,
                                                      ctx.metrics, nullptr,
                                                      static_cast<int>(ctx.task_index));
        census.events[ctx.task_index] = ctx.metrics.counter("net.loop.events_executed").value();
      });
  return census;
}

/// The census must reproduce the entry point's outputs bit for bit.
std::vector<std::string> census_mismatches(const Workload& wl, const Census& census,
                                           const Pass& pass, bool scored) {
  std::vector<std::string> out;
  for (const auto& [index, what] : census.report.failures) {
    out.push_back("census task " + std::to_string(index) + " threw: " + what);
  }
  for (std::size_t i = 0; i < wl.tasks.size(); ++i) {
    const std::string why = compare_qoe(pass.outcomes[i].qoe, census.tasks[i].result, scored);
    if (!why.empty()) out.push_back("census task " + std::to_string(i) + ": " + why);
  }
  return out;
}

bool is_qoe(const Workload& wl) { return wl.tasks.front().entry == Entry::kQoe; }

std::int64_t task_events(const Workload& wl, const Pass& pass, const Census& census,
                         std::size_t i) {
  return is_qoe(wl) ? census.events[i] : pass.outcomes[i].sim_events;
}

/// Checks shared by both modes; returns how many tasks they fail.
std::int64_t identity_checks(const Workload& wl, const std::vector<const Pass*>& passes,
                             const Census& census, bool scored, Json& checks,
                             std::vector<std::string>& failures) {
  std::int64_t failed = 0;
  const std::string& first = passes.front()->aggregate;
  bool identical = true;
  for (const Pass* p : passes) identical = identical && p->aggregate == first;
  checks.boolean("aggregates_identical", identical);
  if (!identical) {
    failures.push_back("aggregate report differs across thread counts or replicas");
    failed += static_cast<std::int64_t>(wl.tasks.size());
  }
  if (is_qoe(wl)) {
    const auto diff = census_mismatches(wl, census, *passes.front(), scored);
    checks.boolean("census_identical", diff.empty());
    failures.insert(failures.end(), diff.begin(), diff.end());
    failed += static_cast<std::int64_t>(diff.size());
  }
  return failed;
}

Json run_e2e(const Workload& wl, double seconds, std::size_t threads) {
  Json out;
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Set-up cost: the minimal-media task, in batches of one per runner
  // thread; run.py takes the median. A lone set-up task keeps to one core,
  // whose speed is a lottery that holds for the whole run; a batch meets
  // every core the rounds use. The batches are spread over the run (before,
  // between and after the rounds), so the median does not hang on the
  // host's speed at one moment either.
  const Workload setup_batch{wl.name, wl.base_seed, std::vector<TaskSpec>(threads, wl.setup_task),
                             wl.setup_task};
  std::vector<double> setup_s;
  const auto set_up = [&setup_batch, threads, &setup_s, &failures] {
    const Pass p = run_pass(setup_batch, threads, nullptr);
    for (const TaskOutcome& o : p.outcomes) setup_s.push_back(o.wall_s);
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  };
  set_up();

  const Census census = is_qoe(wl) ? run_census(wl, threads) : Census{};

  std::vector<Pass> rounds;
  double timed_s = 0.0;  // round walls only: set-up repeats do not eat the budget
  while (rounds.empty() || timed_s < seconds) {
    rounds.push_back(run_pass(wl, threads, nullptr));
    timed_s += rounds.back().wall_s;
    std::fprintf(stderr, "%s: round %zu %.3f s\n", wl.name.c_str(), rounds.size(),
                 rounds.back().wall_s);
    set_up();
  }
  const Pass serial = run_pass(wl, 1, nullptr);
  while (setup_s.size() < kMinSetupRepeats) set_up();

  std::vector<double> round_wall, round_participant_s, round_events, task_wall;
  for (const Pass& r : rounds) {
    double participant_s = 0.0;
    double events = 0.0;
    for (std::size_t i = 0; i < wl.tasks.size(); ++i) {
      participant_s += wl.tasks[i].participant_seconds;
      events += static_cast<double>(task_events(wl, r, census, i));
      task_wall.push_back(r.outcomes[i].wall_s);
    }
    round_wall.push_back(r.wall_s);
    round_participant_s.push_back(participant_s);
    round_events.push_back(events);
    attempted += static_cast<std::int64_t>(wl.tasks.size());
    failed += static_cast<std::int64_t>(r.failures.size());
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
  failures.insert(failures.end(), serial.failures.begin(), serial.failures.end());

  std::vector<const Pass*> passes{&serial};
  for (const Pass& r : rounds) passes.push_back(&r);
  Json checks;
  failed += identity_checks(wl, passes, census, false, checks, failures);
  failed = std::min(failed, attempted);
  if (!failures.empty() && failed == 0) failed = 1;  // set-up or serial-pass misses

  out.nums("setup_s", setup_s)
      .nums("round_wall_s", round_wall)
      .nums("round_participant_s", round_participant_s)
      .nums("round_sim_events", round_events)
      .nums("task_wall_s", task_wall)
      .num("serial_wall_s", serial.wall_s)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .strs("failures", failures)
      .obj("checks", checks)
      .str("output_digest", hex_digest(rounds.front().aggregate))
      .num("max_rss_mb", max_rss_mib());
  return out;
}

double counter(const vc::runner::RunReport& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double hist_mean(const vc::runner::RunReport& r, const std::string& name) {
  const auto it = r.histograms.find(name);
  return it == r.histograms.end() ? 0.0 : it->second.mean();
}

double sum_counters(const vc::runner::RunReport& r, const std::string& prefix,
                    const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : r.counters) {
    if (name.size() >= prefix.size() + suffix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

Json run_layers(const Workload& wl, std::size_t threads, Spans& spans) {
  std::vector<std::string> failures;
  const bool qoe = is_qoe(wl);

  const Pass parallel = run_pass(wl, threads, nullptr);
  const Pass serial = run_pass(wl, 1, nullptr);

  // Network, relay, fleet and client counts: from the run's own registry
  // (every pass has the same, the identity check below holds them to it), or
  // from the census where the entry point exposes none.
  const Census census = qoe ? run_census(wl, threads) : Census{};
  const vc::runner::RunReport& counts = qoe ? census.report : parallel.report;
  const double fan_out = hist_mean(counts, "relay.fan_out");
  const auto hwm = counts.gauge_hwm.find("net.loop.queue_depth_hwm");
  const double queue_hwm = hwm == counts.gauge_hwm.end() ? 0.0 : hwm->second.max();
  const auto calibrate_now = [&] {
    return calibrate(static_cast<int>(std::lround(fan_out)) + 1, static_cast<int>(queue_hwm),
                     spans);
  };

  // Replays: every pure-module call on the inputs the traced task consumed,
  // just before and just after that task. For QoE the census re-runs the
  // session with its feed counted and scores the recordings, one span per
  // layer call. Each replay of a task writes the same slot.
  std::int64_t feed_frames = 0, encode_frames = 0, decode_frames = 0;
  std::int64_t pairs = 0, aligns = 0, capture_records = 0;
  Census scored;
  scored.tasks.resize(wl.tasks.size());
  std::vector<std::int64_t> city_frames(wl.tasks.size());
  const Replay replay = [&wl, &spans, &scored, &city_frames, qoe](std::size_t i,
                                                                  std::uint64_t seed) {
    const int id = static_cast<int>(i);
    if (qoe) {
      vc::MetricsRegistry unused;  // the counts come from `census`
      scored.tasks[i] = run_qoe_census(wl.tasks[i].qoe, seed, unused, &spans, id);
      replay_qoe_codec(wl.tasks[i], seed, spans, id);
    } else {
      city_frames[i] = replay_city_media(wl.tasks[i], seed, spans, id);
    }
  };
  const Calibration before = calibrate_now();
  const Pass traced = run_pass(wl, 1, &spans, replay);
  const Calibration after = calibrate_now();
  const double traced_wall = traced.wall_s;

  // Per-call costs: the mean of the calibrations either side of the pass.
  Calibration cal = before;
  cal.loop_event_s = (before.loop_event_s + after.loop_event_s) / 2;
  cal.net_packet_s = (before.net_packet_s + after.net_packet_s) / 2;
  cal.relay_media_in_s = (before.relay_media_in_s + after.relay_media_in_s) / 2;
  cal.trunk_packet_s = (before.trunk_packet_s + after.trunk_packet_s) / 2;

  if (qoe) {
    for (const QoeCensus& t : scored.tasks) {
      feed_frames += t.feed_frames;
      pairs += t.pairs_scored;
      aligns += t.align_calls;
      capture_records += t.capture_records;
    }
    encode_frames = static_cast<std::int64_t>(counter(census.report, "codec.video.frames_encoded"));
    decode_frames = static_cast<std::int64_t>(counter(census.report, "codec.video.frames_decoded"));
  } else {
    for (const std::int64_t n : city_frames) feed_frames += n;
    encode_frames = feed_frames;  // an estimate from the config: see layers.h
  }

  const auto self = spans.self_times();
  // Self time of a replayed layer call, per replay of the batch.
  const auto self_s = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.seconds / kReplaysPerTask;
  };
  const auto per_call = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() || it->second.calls == 0
               ? 0.0
               : it->second.seconds / static_cast<double>(it->second.calls);
  };

  double task_spans = 0.0;
  for (const auto& s : spans.all()) {
    if (std::strcmp(s.name, "task") == 0) task_spans += s.end - s.start;
  }

  const double events = counter(counts, "net.loop.events_executed");
  const double packets = counter(counts, "net.link.packets_sent");
  const double media_in = counter(counts, "relay.media_in");
  const double trunk_packets = sum_counters(counts, "fleet.trunk", ".forwarded_packets");

  const double feeds_s = self_s("feeds.frame_at");
  const double encode_s = per_call("codec.encode") * static_cast<double>(encode_frames);
  const double decode_s = per_call("codec.decode") * static_cast<double>(decode_frames);
  const double qoe_s = self_s("qoe.crop") + self_s("qoe.align") + self_s("qoe.score");
  const double net_s = events * cal.loop_event_s + packets * cal.net_packet_s;
  const double relay_s = media_in * cal.relay_media_in_s;
  const double fleet_s = trunk_packets * cal.trunk_packet_s;
  const double capture_s = self_s("capture.trace") + self_s("capture.rates");
  const double runner_s = traced_wall - task_spans;
  const double attributed =
      feeds_s + encode_s + decode_s + qoe_s + net_s + relay_s + fleet_s + capture_s + runner_s;
  const double unattributed = traced_wall - attributed;

  Json layers;
  const auto share = [traced_wall](double s) { return traced_wall > 0 ? s / traced_wall : 0.0; };
  layers.num("feeds.frames", static_cast<double>(feed_frames))
      .num("feeds.host_s", feeds_s)
      .num("feeds.share", share(feeds_s))
      .num("codec.encode_frames", static_cast<double>(encode_frames))
      .num("codec.decode_frames", static_cast<double>(decode_frames))
      .num("codec.encode_host_s", encode_s)
      .num("codec.decode_host_s", decode_s)
      .num("codec.share", share(encode_s + decode_s))
      .num("qoe.pairs_scored", static_cast<double>(pairs))
      .num("qoe.align_calls", static_cast<double>(aligns))
      .num("qoe.host_s", qoe_s)
      .num("qoe.share", share(qoe_s))
      .num("net.events", events)
      .num("net.queue_depth_hwm", queue_hwm)
      .num("net.packets_sent", packets)
      .num("net.packets_lost", counter(counts, "net.link.packets_lost"))
      .num("net.delivery_batch_mean", hist_mean(counts, "net.delivery_batch_pkts"))
      .num("net.host_s", net_s)
      .num("net.share", share(net_s))
      .num("relay.media_in", media_in)
      .num("relay.media_forwarded", counter(counts, "relay.media_forwarded"))
      .num("relay.fan_out_mean", fan_out)
      .num("relay.departure_batch_mean", hist_mean(counts, "relay.departure_batch_pkts"))
      .num("relay.host_s", relay_s)
      .num("relay.share", share(relay_s))
      .num("fleet.trunk_packets", trunk_packets)
      .num("fleet.trunk_dropped", sum_counters(counts, "fleet.trunk", ".dropped_packets"))
      .num("fleet.host_s", fleet_s)
      .num("fleet.share", share(fleet_s))
      .num("client.joins", counter(counts, "client.joins"))
      .num("client.reconnects", counter(counts, "client.reconnects"))
      .num("client.join_latency_ms.mean", hist_mean(counts, "client.join_latency_ms"))
      .num("capture.records", static_cast<double>(capture_records))
      .num("capture.host_s", capture_s)
      .num("runner.aggregate_host_s", runner_s)
      .num("runner.parallel_efficiency",
           parallel.wall_s > 0 ? serial.wall_s / (static_cast<double>(threads) * parallel.wall_s)
                               : 0.0)
      .num("unattributed.host_s", unattributed)
      .num("unattributed.share", share(unattributed))
      .num("trace_overhead", serial.wall_s > 0 ? traced_wall / serial.wall_s : 0.0);

  Json calibration;
  calibration.num("loop_event_s", cal.loop_event_s)
      .num("net_packet_s", cal.net_packet_s)
      .num("relay_media_in_s", cal.relay_media_in_s)
      .num("relay_members", cal.relay_members)
      .num("queue_depth", cal.queue_depth)
      .num("trunk_packet_s", cal.trunk_packet_s);

  std::int64_t failed = static_cast<std::int64_t>(parallel.failures.size() + serial.failures.size() +
                                                  traced.failures.size());
  for (const Pass* p : {&parallel, &serial, &traced}) {
    failures.insert(failures.end(), p->failures.begin(), p->failures.end());
  }
  Json checks;
  failed += identity_checks(wl, {&parallel, &serial, &traced}, scored, true, checks, failures);
  if (qoe) {
    const auto diff = census_mismatches(wl, census, parallel, false);
    checks.boolean("counting_census_identical", diff.empty());
    failures.insert(failures.end(), diff.begin(), diff.end());
    failed += static_cast<std::int64_t>(diff.size());
  }
  const std::int64_t attempted = 3 * static_cast<std::int64_t>(wl.tasks.size());
  if (!failures.empty() && failed == 0) failed = 1;

  Json out;
  out.num("traced_wall_s", traced_wall)
      .num("serial_wall_s", serial.wall_s)
      .num("parallel_wall_s", parallel.wall_s)
      .obj("layers", layers)
      .obj("calibration", calibration)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(std::min(failed, attempted)))
      .strs("failures", failures)
      .obj("checks", checks)
      .str("output_digest", hex_digest(parallel.aggregate))
      .num("max_rss_mb", max_rss_mib());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = flag(argc, argv, "--workload", "");
  const std::string mode = flag(argc, argv, "--mode", "e2e");
  const std::string spans_path = flag(argc, argv, "--spans", "");
  const std::uint64_t seed = std::strtoull(flag(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const double seconds = std::atof(flag(argc, argv, "--seconds", "10").c_str());
  const std::size_t threads = runner_threads();
  if (mode != "e2e" && mode != "layers") {
    std::fprintf(stderr, "usage: vcb_host --workload W --seed N --seconds T "
                         "--mode e2e|layers [--spans FILE]\n");
    return 2;
  }
  Workload wl;
  try {
    wl = make_workload(name, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  Json out;
  out.str("workload", wl.name)
      .num("seed", static_cast<double>(seed))
      .num("threads", static_cast<double>(threads))
      .num("tasks", static_cast<double>(wl.tasks.size()));
  Spans spans;
  if (mode == "e2e") {
    out.obj("e2e", run_e2e(wl, seconds, threads));
  } else {
    out.obj("layers", run_layers(wl, threads, spans));
    if (!spans_path.empty()) {
      std::ofstream f{spans_path};
      f << spans.to_jsonl();
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
        return 1;
      }
    }
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
