// Workload definitions for the host-time benchmark.
//
// A workload is a fixed, seeded batch of independent session tasks, each run
// through an unchanged public entry point (core::run_city_scale_benchmark or
// core::run_qoe_session) on a runner::ExperimentRunner. The benchmark seed
// picks the runner's base seed; the program only ever sees the generated
// configs and per-task seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/city_benchmark.h"
#include "core/qoe_benchmark.h"
#include "runner/experiment_runner.h"
#include "spans.h"

namespace hostbench {

enum class Entry { kCity, kQoe };

struct TaskSpec {
  Entry entry = Entry::kCity;
  std::string cell;  // aggregate-sample prefix, e.g. "f2/least" or "zoom/low/r2"
  bool crash = false;
  vc::core::CityScaleConfig city;
  vc::core::QoeBenchmarkConfig qoe;
  /// Simulated clients × media seconds the task completes.
  double participant_seconds = 0.0;
};

struct Workload {
  std::string name;
  std::uint64_t base_seed = 0;
  std::vector<TaskSpec> tasks;
  /// The workload's first task with media cut to a single frame period:
  /// world build, joins and teardown only.
  TaskSpec setup_task;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// What one task execution produced, written by the task into its own slot.
struct TaskOutcome {
  double wall_s = 0.0;
  std::string failure;  // empty = every output check passed
  std::int64_t sim_events = -1;  // -1: the entry point does not expose it
  vc::core::QoeSessionResult qoe;  // kQoe only
};

/// Runs `spec` with the context's seed and metrics, records the task's
/// deterministic outputs as aggregate samples and checks them. `tracer` (may
/// be null) is handed to entry points that accept one.
TaskOutcome run_task(const TaskSpec& spec, vc::runner::SessionContext& ctx, vc::Tracer* tracer);

/// Re-runs a QoE session from the same public building blocks as
/// core::run_qoe_session, with metrics attached, so the counts the entry
/// point does not expose (events, codec frames, capture records) can be
/// read. With `spans` set it also scores the recordings, recording one span
/// per layer call.
struct QoeCensus {
  vc::core::QoeSessionResult result;
  std::int64_t feed_frames = 0;  // VideoFeed::frame_at calls (feeder + reference)
  std::int64_t capture_records = 0;
  std::int64_t pairs_scored = 0;
  std::int64_t align_calls = 0;
};
QoeCensus run_qoe_census(const vc::core::QoeBenchmarkConfig& config, std::uint64_t seed,
                         vc::MetricsRegistry& metrics, Spans* spans, int task);

/// Empty when the census reproduced the entry point's outputs bit for bit.
std::string compare_qoe(const vc::core::QoeSessionResult& entry,
                        const vc::core::QoeSessionResult& census, bool scored);

}  // namespace hostbench
