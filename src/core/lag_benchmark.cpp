#include "core/lag_benchmark.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "capture/endpoint_discovery.h"
#include "capture/lag_detector.h"
#include "client/media_feeder.h"
#include "client/monitor.h"
#include "client/vca_client.h"
#include "platform/base_platform.h"
#include "testbed/cloud_testbed.h"
#include "testbed/orchestrator.h"

namespace vc::core {

std::vector<std::string> us_participant_sites(const std::string& host_site) {
  // Seven US VMs total (Table 3): the host plus these six.
  std::vector<std::string> sites = {"US-Central", "US-NCentral", "US-SCentral",
                                    "US-East",    "US-West",     "US-West"};
  if (host_site == "US-West") {
    sites = {"US-Central", "US-NCentral", "US-SCentral", "US-East", "US-East", "US-West"};
  }
  return sites;
}

std::vector<std::string> europe_participant_sites(const std::string& host_site) {
  std::vector<std::string> all = {"CH", "DE", "IE", "NL", "FR", "UK-South", "UK-West"};
  std::vector<std::string> sites;
  bool host_removed = false;
  for (const auto& s : all) {
    if (!host_removed && s == host_site) {
      host_removed = true;
      continue;
    }
    sites.push_back(s);
  }
  if (!host_removed) throw std::invalid_argument{"host site must be one of the Europe sites"};
  return sites;
}

LagBenchmarkResult run_lag_benchmark(const LagBenchmarkConfig& config) {
  if (config.participant_sites.empty()) throw std::invalid_argument{"no participants"};
  testbed::CloudTestbed bed{config.seed};
  std::unique_ptr<platform::BasePlatform> platform;
  const platform::PlatformConfig platform_cfg{.seed = config.seed ^ 0xABC};
  if (config.platform == platform::PlatformId::kWebex &&
      config.webex_tier == platform::WebexTier::kPaid) {
    platform = std::make_unique<platform::WebexPlatform>(bed.network(), platform_cfg,
                                                         platform::WebexTier::kPaid);
  } else {
    platform = platform::make_platform(config.platform, bed.network(), platform_cfg);
  }
  if (config.metrics != nullptr) {
    bed.network().attach_metrics(*config.metrics);
    platform->set_metrics(config.metrics);
  }
  if (config.tracer != nullptr) {
    bed.network().set_tracer(config.tracer);
    platform->set_tracer(config.tracer);
  }

  // Provision VMs once; they persist across sessions (Meet endpoint
  // stickiness is keyed to the client VM's address).
  net::Host& host_vm = bed.create_vm(testbed::site_by_name(config.host_site), 8);
  std::vector<net::Host*> part_vms;
  std::unordered_map<std::string, int> site_use;
  std::vector<std::string> labels;
  for (const auto& site : config.participant_sites) {
    const int idx = site_use[site]++;
    part_vms.push_back(&bed.create_vm(testbed::site_by_name(site), idx));
    labels.push_back(idx == 0 ? site : site + "-" + std::to_string(idx + 1));
  }

  LagBenchmarkResult result;
  result.platform = config.platform;
  result.host_site = config.host_site;
  result.participants.resize(part_vms.size());
  for (std::size_t i = 0; i < labels.size(); ++i) result.participants[i].label = labels[i];

  std::vector<std::vector<capture::Trace>> session_traces(part_vms.size());
  std::vector<capture::Trace> all_traces;

  const auto feed = std::make_shared<media::FlashFeed>(
      media::FeedParams{config.feed_width, config.feed_height, config.fps, config.seed ^ 0xF1A5});

  for (int s = 0; s < config.sessions; ++s) {
    // Fresh clients per session (the controller relaunches the app), same VMs.
    client::VcaClient::Config host_cfg;
    host_cfg.send_video = true;
    host_cfg.send_audio = false;  // the lag feed is a one-way video signal
    host_cfg.decode_video = false;
    host_cfg.video_width = config.feed_width;
    host_cfg.video_height = config.feed_height;
    host_cfg.fps = config.fps;
    host_cfg.seed = config.seed + static_cast<std::uint64_t>(s) * 7919;
    client::VcaClient host_client{host_vm, *platform, host_cfg};
    if (config.metrics != nullptr) host_client.attach_metrics(*config.metrics);
    if (config.tracer != nullptr) host_client.set_tracer(config.tracer);
    client::MediaFeeder feeder{bed.loop(), host_client.video_device(), host_client.audio_device()};
    capture::PacketCapture host_capture{host_vm, bed.clock_offset(host_vm)};

    std::vector<std::unique_ptr<client::VcaClient>> participants;
    std::vector<std::unique_ptr<client::ClientMonitor>> monitors;
    for (std::size_t i = 0; i < part_vms.size(); ++i) {
      client::VcaClient::Config cfg;
      cfg.send_video = false;
      cfg.send_audio = false;
      cfg.decode_video = false;
      cfg.seed = config.seed + 31 * i + static_cast<std::uint64_t>(s);
      participants.push_back(std::make_unique<client::VcaClient>(*part_vms[i], *platform, cfg));
      client::ClientMonitor::Config mon_cfg;
      mon_cfg.clock_offset = bed.clock_offset(*part_vms[i]);
      mon_cfg.probe_count = static_cast<int>(config.session_duration.seconds()) - 20;
      if (config.metrics != nullptr) participants.back()->attach_metrics(*config.metrics);
      if (config.tracer != nullptr) participants.back()->set_tracer(config.tracer);
      monitors.push_back(std::make_unique<client::ClientMonitor>(*part_vms[i], mon_cfg));
      if (config.metrics != nullptr) monitors.back()->attach_metrics(*config.metrics);
      if (config.tracer != nullptr) monitors.back()->set_tracer(config.tracer);
    }

    testbed::SessionOrchestrator::Plan plan;
    plan.host = &host_client;
    for (auto& p : participants) plan.participants.push_back(p.get());
    plan.media_duration = config.session_duration;
    plan.metrics = config.metrics;
    plan.on_all_joined = [&] {
      feeder.play_video(feed, config.session_duration);
      for (auto& m : monitors) m->start_active_probing();
    };
    testbed::SessionOrchestrator orchestrator{std::move(plan)};
    if (config.timeline != nullptr && config.metrics != nullptr) {
      // Re-armed per session because run_all() drains the loop: the bound
      // (join + media + teardown headroom) is what lets the tick chain end
      // and the session terminate.
      const SimTime origin = bed.loop().now();
      config.timeline->arm(bed.loop(), *config.metrics, origin,
                           origin + config.session_duration + seconds(30));
    }
    orchestrator.start();
    bed.run_all();

    // Harvest this session.
    const capture::Trace sender_trace = host_capture.trace();
    for (std::size_t i = 0; i < part_vms.size(); ++i) {
      capture::Trace rx_trace = monitors[i]->trace();
      capture::LagDetectorConfig lag_cfg;
      lag_cfg.flash_period = seconds_f(feed->period_sec());
      auto lags = capture::measure_streaming_lag_ms(sender_trace, rx_trace, lag_cfg);
      auto& out = result.participants[i];
      out.lags_ms.insert(out.lags_ms.end(), lags.begin(), lags.end());
      if (!monitors[i]->prober().rtts_ms().empty()) {
        out.session_rtt_ms.push_back(monitors[i]->prober().average_ms());
      }
      session_traces[i].push_back(rx_trace);
      all_traces.push_back(rx_trace);
      if (s == config.sessions - 1 && i == 0) {
        result.sample_sender_trace = sender_trace;
        result.sample_receiver_trace = std::move(rx_trace);
      }
    }
  }

  double total_endpoints = 0.0;
  for (std::size_t i = 0; i < part_vms.size(); ++i) {
    result.participants[i].distinct_endpoints = capture::distinct_endpoint_ips(session_traces[i]);
    total_endpoints += static_cast<double>(result.participants[i].distinct_endpoints);
  }
  result.mean_distinct_endpoints = total_endpoints / static_cast<double>(part_vms.size());
  result.dominant_media_port = capture::dominant_media_port(all_traces);
  return result;
}

}  // namespace vc::core
