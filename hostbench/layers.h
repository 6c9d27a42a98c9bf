// Host-time attribution for the traced run.
//
// Two sources, both measured from outside the simulator:
//  * Pure modules (feeds, codec, QoE scoring, capture post-processing) are
//    timed by calling their public functions again on the inputs the run
//    consumed — feeds are pure in (seed, index), so a task's frames can be
//    regenerated exactly — with one span per call.
//  * Simulation-core modules (event loop, network, relay fan-out, trunk) get
//    a per-call cost from a small calibration run of their public API, which
//    is multiplied by the run's own work counts.
#pragma once

#include <cstdint>

#include "spans.h"
#include "workloads.h"

namespace hostbench {

/// Host seconds per call, each net of the layers below it.
struct Calibration {
  double loop_event_s = 0.0;      // EventLoop schedule + execute at `queue_depth` pending
  double net_packet_s = 0.0;      // Network send + delivery, excluding loop events
  double relay_media_in_s = 0.0;  // RelayServer ingest + fan-out to `relay_members`-1
  double trunk_packet_s = 0.0;    // trunk shaper admit + release, excluding loop events
  int relay_members = 0;
  int queue_depth = 0;
};

/// Runs the calibration loops under a `calibrate` span, at the run's own
/// event-queue high-water mark and relay fan-out.
Calibration calibrate(int relay_members, int queue_depth, Spans& spans);

/// Regenerates every frame a city-scale task's feeders played (each host's
/// FlashFeed, frames 0..n-1, n from the config) and encodes each once at the
/// platform's nominal high-motion rate: one `feeds.frame_at` and one
/// `codec.encode` span per frame. Returns the frame count. This estimates the
/// hosts' encode work from the config: the run's clients encode on their own
/// video ticks, at a varying target and only while routed, and the entry
/// point exposes no count of it.
std::int64_t replay_city_media(const TaskSpec& task, std::uint64_t seed, Spans& spans, int id);

/// Encodes the QoE task's padded feed and decodes the result once: one
/// `codec.encode` / `codec.decode` span per frame.
void replay_qoe_codec(const TaskSpec& task, std::uint64_t seed, Spans& spans, int id);

}  // namespace hostbench
