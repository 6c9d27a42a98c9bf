#include "core/fault_recovery_benchmark.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "capture/lag_detector.h"
#include "client/media_feeder.h"
#include "client/vca_client.h"
#include "net/network.h"
#include "testbed/cloud_testbed.h"
#include "testbed/orchestrator.h"

namespace vc::core {

FaultRecoveryResult run_fault_recovery_benchmark(const FaultRecoveryConfig& config) {
  if (config.participant_sites.empty()) throw std::invalid_argument{"no participants"};
  testbed::CloudTestbed bed{config.seed};
  std::unique_ptr<platform::BasePlatform> platform =
      platform::make_platform(config.platform, bed.network(),
                              platform::PlatformConfig{.seed = config.seed ^ 0xABC});

  // Reconnect instruments (client.disconnects / client.reconnects /
  // client.time_to_reconnect_ms) are harvested from a registry; when the
  // caller brings none, a local one keeps the result self-contained. Callers
  // sharing a registry across runs should hand each run a fresh one, since
  // counters are read as absolute values.
  MetricsRegistry local_metrics;
  MetricsRegistry& reg = config.metrics != nullptr ? *config.metrics : local_metrics;
  bed.network().attach_metrics(reg);
  platform->set_metrics(&reg);
  if (config.tracer != nullptr) {
    bed.network().set_tracer(config.tracer);
    platform->set_tracer(config.tracer);
  }

  net::Host& host_vm = bed.create_vm(testbed::site_by_name(config.host_site), 8);
  std::vector<net::Host*> part_vms;
  std::unordered_map<std::string, int> site_use;
  for (const auto& site : config.participant_sites) {
    part_vms.push_back(&bed.create_vm(testbed::site_by_name(site), site_use[site]++));
  }

  const auto feed = std::make_shared<media::FlashFeed>(
      media::FeedParams{config.feed_width, config.feed_height, config.fps, config.seed ^ 0xF1A5});

  client::VcaClient::Config host_cfg;
  host_cfg.send_video = true;
  host_cfg.send_audio = false;
  host_cfg.decode_video = false;
  host_cfg.video_width = config.feed_width;
  host_cfg.video_height = config.feed_height;
  host_cfg.fps = config.fps;
  host_cfg.seed = config.seed;
  client::VcaClient host_client{host_vm, *platform, host_cfg};
  host_client.attach_metrics(reg);
  if (config.tracer != nullptr) host_client.set_tracer(config.tracer);
  client::MediaFeeder feeder{bed.loop(), host_client.video_device(), host_client.audio_device()};
  capture::PacketCapture host_capture{host_vm, bed.clock_offset(host_vm)};

  std::vector<std::unique_ptr<client::VcaClient>> participants;
  std::vector<std::unique_ptr<capture::PacketCapture>> captures;
  for (std::size_t i = 0; i < part_vms.size(); ++i) {
    client::VcaClient::Config cfg;
    cfg.send_video = false;
    cfg.send_audio = false;
    cfg.decode_video = false;
    cfg.seed = config.seed + 31 * i;
    participants.push_back(std::make_unique<client::VcaClient>(*part_vms[i], *platform, cfg));
    participants.back()->attach_metrics(reg);
    if (config.tracer != nullptr) participants.back()->set_tracer(config.tracer);
    captures.push_back(
        std::make_unique<capture::PacketCapture>(*part_vms[i], bed.clock_offset(*part_vms[i])));
  }

  fault::FaultPlan timeline;
  if (config.use_custom_plan) {
    timeline = config.custom_plan;
  } else {
    timeline.relay_crash(config.outage_start, 0, config.outage_duration);
    if (config.platform == platform::PlatformId::kMeet) {
      // Meet's host gets a primary/secondary front-end pair, created first
      // (indices 0 and 1) in unspecified order; crashing both takes the
      // host's front-end site down whichever one this session picked.
      timeline.relay_crash(config.outage_start, 1, config.outage_duration);
    }
  }

  // Phase boundaries in absolute sim time, fixed when media starts (the arm
  // origin). Captured here so the harvest below can bucket receiver flash
  // events; capture timestamps carry the VM clock offsets (~1 ms), noise on
  // the seconds-long phases.
  SimTime outage_begin_abs{};
  SimTime recovery_end_abs{};

  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  for (auto& p : participants) plan.participants.push_back(p.get());
  plan.media_duration = config.session_duration;
  plan.metrics = &reg;
  plan.tracer = config.tracer;
  plan.reconnect = config.reconnect;
  plan.reconnect_seed = config.seed ^ 0xFA117;
  plan.on_all_joined = [&] {
    feeder.play_video(feed, config.session_duration);
    const SimTime origin = bed.loop().now();
    outage_begin_abs = origin + config.outage_start;
    recovery_end_abs = outage_begin_abs + config.outage_duration + config.recovery_grace;
    if (config.inject) {
      fault::FaultPlan::Bindings bindings;
      bindings.network = &bed.network();
      bindings.platform = platform.get();
      bindings.metrics = &reg;
      bindings.tracer = config.tracer;
      timeline.arm(bindings, origin);
    }
  };
  testbed::SessionOrchestrator orchestrator{std::move(plan)};
  if (config.timeline != nullptr) {
    // The bound (join + media + reconnect-tail headroom) is what lets the
    // self-rescheduling tick chain end and run_all() drain.
    config.timeline->arm(bed.loop(), reg, SimTime::zero(),
                         SimTime::zero() + config.session_duration + config.outage_duration +
                             config.recovery_grace + seconds(30));
  }
  orchestrator.start();
  bed.run_all();

  FaultRecoveryResult result;
  result.platform = config.platform;
  result.clients = 1 + static_cast<int>(part_vms.size());
  result.outage_begin_abs = outage_begin_abs;
  result.recovery_end_abs = recovery_end_abs;

  capture::LagDetectorConfig lag_cfg;
  lag_cfg.flash_period = seconds_f(feed->period_sec());
  const auto sender_events =
      capture::detect_flash_events(host_capture.trace(), net::Direction::kOutgoing, lag_cfg);
  for (std::size_t i = 0; i < captures.size(); ++i) {
    const auto rx_events =
        capture::detect_flash_events(captures[i]->trace(), net::Direction::kIncoming, lag_cfg);
    // Bucket receiver events by phase, then match each bucket against the
    // full sender timeline (matching is per-receiver-event, so splitting the
    // receiver side is exact).
    std::vector<capture::FlashEvent> before, during, after;
    for (const auto& ev : rx_events) {
      if (ev.at < outage_begin_abs) {
        before.push_back(ev);
      } else if (ev.at < recovery_end_abs) {
        during.push_back(ev);
      } else {
        after.push_back(ev);
      }
    }
    for (double lag : capture::match_lags_ms(sender_events, before, lag_cfg)) {
      result.lags_before_ms.push_back(lag);
    }
    for (double lag : capture::match_lags_ms(sender_events, during, lag_cfg)) {
      result.lags_during_ms.push_back(lag);
    }
    for (double lag : capture::match_lags_ms(sender_events, after, lag_cfg)) {
      result.lags_after_ms.push_back(lag);
    }
  }
  for (double lag : result.lags_during_ms) {
    result.lag_spike_hwm_ms = std::max(result.lag_spike_hwm_ms, lag);
  }
  for (double lag : result.lags_after_ms) {
    result.lag_spike_hwm_ms = std::max(result.lag_spike_hwm_ms, lag);
  }
  reg.gauge("fault.lag_spike_hwm_ms").set(result.lag_spike_hwm_ms);

  platform::RelayAllocator& alloc = platform->allocator();
  for (std::size_t i = 0; i < alloc.relays_created(); ++i) {
    result.packets_lost_in_outage +=
        static_cast<std::int64_t>(alloc.relay_at(i)->stats().crash_dropped);
  }

  result.disconnects = reg.counter("client.disconnects").value();
  result.reconnects = reg.counter("client.reconnects").value();
  result.reconnect_attempts = reg.counter("client.reconnect_attempts").value();
  result.reconnect_giveups = reg.counter("client.reconnect_giveups").value();
  const RunningStats& ttr = reg.histogram("client.time_to_reconnect_ms").stats();
  if (ttr.count() > 0) {
    result.mean_time_to_reconnect_ms = ttr.mean();
    result.max_time_to_reconnect_ms = ttr.max();
  }
  return result;
}

}  // namespace vc::core
