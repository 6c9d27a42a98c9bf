#include "core/city_benchmark.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "client/media_feeder.h"
#include "client/vca_client.h"
#include "fault/fault_plan.h"
#include "media/feeds.h"
#include "net/network.h"
#include "testbed/cloud_testbed.h"
#include "testbed/locations.h"
#include "testbed/orchestrator.h"

namespace vc::core {

CityScaleResult run_city_scale_benchmark(const CityScaleConfig& config) {
  if (config.meetings < 1) throw std::invalid_argument{"meetings must be >= 1"};
  if (config.participants_per_meeting < 1) {
    throw std::invalid_argument{"participants_per_meeting must be >= 1"};
  }
  testbed::CloudTestbed bed{config.seed};
  std::unique_ptr<platform::BasePlatform> platform =
      platform::make_platform(config.platform, bed.network(),
                              platform::PlatformConfig{.seed = config.seed ^ 0xC17});

  MetricsRegistry local_metrics;
  MetricsRegistry& reg = config.metrics != nullptr ? *config.metrics : local_metrics;
  bed.network().attach_metrics(reg);
  platform->set_metrics(&reg);
  if (config.tracer != nullptr) {
    bed.network().set_tracer(config.tracer);
    platform->set_tracer(config.tracer);
  }

  std::unique_ptr<fleet::RelayFleet> fleet;
  if (config.use_fleet) {
    fleet::RelayFleet::Config fc;
    fc.size = config.fleet_size;
    fc.policy = config.policy;
    fc.overflow_shard_size = config.overflow_shard_size;
    fleet = std::make_unique<fleet::RelayFleet>(bed.network(), *platform, fc);
    if (config.attach_fleet_metrics) fleet->attach_metrics(reg);
    fleet->set_tracer(config.tracer);
  }

  // One VM per client, cycled across the US measurement sites (Table 3's
  // within-US deployments) so the locality policy has a real geography.
  const std::vector<testbed::VmSite> sites = testbed::us_sites();
  std::unordered_map<std::string, int> site_use;
  auto make_vm = [&](std::size_t k) -> net::Host& {
    const testbed::VmSite& site = sites[k % sites.size()];
    return bed.create_vm(site, site_use[site.name]++);
  };

  struct MeetingRig {
    std::unique_ptr<client::VcaClient> host;
    std::vector<std::unique_ptr<client::VcaClient>> receivers;
    std::unique_ptr<client::MediaFeeder> feeder;
    std::shared_ptr<const media::FlashFeed> feed;
    std::unique_ptr<testbed::SessionOrchestrator> orchestrator;
  };
  std::vector<MeetingRig> rigs;
  rigs.reserve(static_cast<std::size_t>(config.meetings));

  CityScaleResult result;
  fault::FaultPlan crash_plan;
  if (config.inject_crash) {
    crash_plan.relay_crash(config.outage_start, 0, config.outage_duration);
  }

  for (int mi = 0; mi < config.meetings; ++mi) {
    MeetingRig rig;
    const std::size_t base = static_cast<std::size_t>(mi) *
                             static_cast<std::size_t>(1 + config.participants_per_meeting);
    net::Host& host_vm = make_vm(base);

    client::VcaClient::Config host_cfg;
    host_cfg.send_video = true;
    host_cfg.send_audio = false;
    host_cfg.decode_video = false;
    host_cfg.video_width = config.feed_width;
    host_cfg.video_height = config.feed_height;
    host_cfg.fps = config.fps;
    host_cfg.seed = config.seed + 101 * static_cast<std::uint64_t>(mi);
    rig.host = std::make_unique<client::VcaClient>(host_vm, *platform, host_cfg);
    rig.feeder = std::make_unique<client::MediaFeeder>(bed.loop(), rig.host->video_device(),
                                                       rig.host->audio_device());
    rig.feed = std::make_shared<media::FlashFeed>(
        media::FeedParams{config.feed_width, config.feed_height, config.fps,
                          config.seed ^ (0xF00D + static_cast<std::uint64_t>(mi))});

    for (int ri = 0; ri < config.participants_per_meeting; ++ri) {
      net::Host& vm = make_vm(base + 1 + static_cast<std::size_t>(ri));
      client::VcaClient::Config cfg;
      cfg.send_video = false;
      cfg.send_audio = false;
      cfg.decode_video = false;
      cfg.seed = config.seed + 101 * static_cast<std::uint64_t>(mi) +
                 static_cast<std::uint64_t>(ri) + 1;
      rig.receivers.push_back(std::make_unique<client::VcaClient>(vm, *platform, cfg));
      // One-way lag tap: sender stamp → receiver interface, subsampled per
      // receiver with a deterministic stride.
      const int stride = config.lag_sample_stride > 0 ? config.lag_sample_stride : 1;
      vm.add_tap([&lags = result.lag_ms, stride, n = 0](net::Direction dir,
                                                        const net::Packet& pkt,
                                                        SimTime at) mutable {
        if (dir != net::Direction::kIncoming || pkt.kind != net::StreamKind::kVideo) return;
        if (n++ % stride != 0) return;
        lags.push_back((at - pkt.sent_at).millis());
      });
    }

    testbed::SessionOrchestrator::Plan plan;
    plan.host = rig.host.get();
    for (auto& r : rig.receivers) plan.participants.push_back(r.get());
    plan.media_duration = config.media_duration;
    plan.metrics = &reg;
    plan.tracer = config.tracer;
    if (config.inject_crash) {
      plan.reconnect = config.reconnect;
      plan.reconnect_seed = config.seed ^ (0xFA11 + static_cast<std::uint64_t>(mi));
    }
    client::MediaFeeder* feeder = rig.feeder.get();
    auto feed_shared = rig.feed;
    plan.on_all_joined = [feeder, feed_shared, mi, &config, &crash_plan, &bed, &platform,
                          &reg]() {
      feeder->play_video(feed_shared, config.media_duration);
      if (mi == 0 && config.inject_crash) {
        fault::FaultPlan::Bindings bindings;
        bindings.network = &bed.network();
        bindings.platform = platform.get();
        bindings.metrics = &reg;
        crash_plan.arm(bindings, bed.loop().now());
      }
    };
    plan.on_done = [&result](const testbed::SessionOutcome& outcome) {
      if (outcome.ok) {
        ++result.meetings_completed;
      } else {
        ++result.join_timeouts;
      }
    };
    rig.orchestrator = std::make_unique<testbed::SessionOrchestrator>(std::move(plan));
    rigs.push_back(std::move(rig));

    testbed::SessionOrchestrator* orch = rigs.back().orchestrator.get();
    bed.loop().schedule_after(config.meeting_stagger * mi, [orch] { orch->start(); });
  }

  bed.run_all();

  result.clients = config.meetings * (1 + config.participants_per_meeting);
  result.sim_events = static_cast<std::int64_t>(bed.loop().events_executed());
  result.sim_bytes = bed.network().stats().bytes_sent;
  reg.counter("city.sim_events").add(result.sim_events);
  reg.counter("city.sim_bytes").add(result.sim_bytes);
  if (fleet != nullptr) {
    for (int i = 0; i < fleet->size(); ++i) {
      for (int j = 0; j < fleet->size(); ++j) {
        const fleet::Trunk* t = fleet->trunk(i, j);
        if (t == nullptr) continue;
        result.trunk_delivered_packets += t->stats().delivered_packets;
        result.trunk_dropped_packets += t->shaper_stats().dropped_packets;
      }
    }
  }
  platform::RelayAllocator& alloc = platform->allocator();
  result.relays_created = static_cast<std::int64_t>(alloc.relays_created());
  for (std::size_t i = 0; i < alloc.relays_created(); ++i) {
    result.packets_lost_in_outage += alloc.relay_at(i)->stats().crash_dropped;
  }
  result.reconnects = reg.counter("client.reconnects").value();
  return result;
}

}  // namespace vc::core
