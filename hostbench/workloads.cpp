#include "workloads.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "capture/rate_analyzer.h"
#include "capture/trace.h"
#include "client/media_feeder.h"
#include "client/recorder.h"
#include "client/vca_client.h"
#include "common/stats.h"
#include "media/align.h"
#include "media/feeds.h"
#include "media/qoe/video_metrics.h"
#include "platform/base_platform.h"
#include "testbed/cloud_testbed.h"
#include "testbed/locations.h"
#include "testbed/orchestrator.h"

namespace hostbench {
namespace {

using namespace vc;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

TaskSpec city_task(int fleet_size, fleet::PlacementPolicy policy, bool crash) {
  TaskSpec t;
  t.entry = Entry::kCity;
  t.crash = crash;
  t.cell = std::string{"f"}.append(std::to_string(fleet_size)).append("/");
  t.cell.append(fleet::policy_name(policy)).append(crash ? "/crash" : "");
  core::CityScaleConfig& c = t.city;
  c.platform = platform::PlatformId::kZoom;
  c.fleet_size = fleet_size;
  c.policy = policy;
  c.overflow_shard_size = fleet_size > 1 ? 6 : 0;  // bench_city_scale's default
  c.meetings = 13;
  c.participants_per_meeting = 7;
  c.media_duration = seconds(12);
  c.feed_width = 160;
  c.feed_height = 120;
  c.fps = 10.0;
  c.inject_crash = crash;
  t.participant_seconds = c.meetings * (1 + c.participants_per_meeting) * c.media_duration.seconds();
  return t;
}

TaskSpec townhall_task() {
  TaskSpec t;
  t.entry = Entry::kCity;
  t.cell = "townhall";
  core::CityScaleConfig& c = t.city;
  c.platform = platform::PlatformId::kZoom;
  c.fleet_size = 4;
  c.policy = fleet::PlacementPolicy::kLeastLoaded;
  c.overflow_shard_size = 24;
  c.meetings = 2;
  c.participants_per_meeting = 95;
  c.media_duration = seconds(12);
  c.feed_width = 64;
  c.feed_height = 48;
  c.fps = 10.0;
  t.participant_seconds = c.meetings * (1 + c.participants_per_meeting) * c.media_duration.seconds();
  return t;
}

TaskSpec qoe_task(platform::PlatformId id, platform::MotionClass motion, int receivers) {
  TaskSpec t;
  t.entry = Entry::kQoe;
  t.cell = std::string{platform::platform_name(id)} +
           (motion == platform::MotionClass::kLowMotion ? "/low" : "/high") + "/r" +
           std::to_string(receivers);
  core::QoeBenchmarkConfig& q = t.qoe;
  q.platform = id;
  q.motion = motion;
  q.host_site = "US-East";
  q.receiver_sites = core::us_qoe_receiver_sites(receivers);
  q.media_duration = seconds(10);
  q.content_width = 256;
  q.content_height = 192;
  q.padding = 24;
  q.fps = 10.0;
  t.participant_seconds = (1 + receivers) * q.media_duration.seconds();
  return t;
}

TaskSpec with_minimal_media(TaskSpec t) {
  if (t.entry == Entry::kCity) {
    t.city.media_duration = seconds_f(1.0 / t.city.fps);
  } else {
    t.qoe.media_duration = seconds_f(1.0 / t.qoe.fps);
  }
  t.cell += "/setup";
  return t;
}

void sample_quantiles(runner::SessionContext& ctx, const std::string& base,
                      const std::vector<double>& values) {
  for (double q : {0.1, 0.5, 0.9}) {
    ctx.sample(base + ".p" + std::to_string(static_cast<int>(q * 100 + 0.5)),
               quantile(std::vector<double>(values), q));
  }
}

bool in_range(double v, double lo, double hi) { return std::isfinite(v) && v >= lo && v <= hi; }

std::string check_city(const TaskSpec& t, const core::CityScaleResult& r) {
  const int meetings = t.city.meetings;
  if (r.meetings_completed + r.join_timeouts != meetings) return "meetings unaccounted for";
  if (!t.crash && r.join_timeouts != 0) return "join timeout outside a crash cell";
  if (!t.crash && r.meetings_completed != meetings) return "meeting not completed";
  if (t.city.media_duration >= seconds(1) && r.lag_ms.empty()) return "no lag samples";
  for (double lag : r.lag_ms) {
    if (!in_range(lag, 0.0, 60'000.0)) return "lag sample out of range";
  }
  if (r.sim_events <= 0) return "no simulated events";
  return {};
}

std::string check_qoe(const TaskSpec& t, const core::QoeSessionResult& r) {
  if (r.receivers.size() != t.qoe.receiver_sites.size()) return "receiver count";
  if (!in_range(r.upload_kbps, 1e-9, 1e6)) return "upload rate out of range";
  const bool scored = t.qoe.media_duration >= seconds(2);
  for (const auto& rx : r.receivers) {
    if (!in_range(rx.download_kbps, 1e-9, 1e6)) return "download rate out of range";
    if (!rx.has_delivery_ratio || !in_range(rx.delivery_ratio, 1e-9, 1.5)) {
      return "delivery ratio missing or out of range";
    }
    if (!scored) continue;
    if (!rx.has_video_qoe) return "recording not scored";
    if (!in_range(rx.psnr, 1e-9, 100.0)) return "PSNR out of range";
    if (!in_range(rx.ssim, -1.0, 1.0)) return "SSIM out of range";
    if (!in_range(rx.vifp, 0.0, 2.0)) return "VIFp out of range";
  }
  return {};
}

/// Forwards to a feed, counting (and with spans, timing) every frame_at.
class CountingFeed final : public media::VideoFeed {
 public:
  CountingFeed(std::shared_ptr<const media::VideoFeed> inner, std::int64_t* calls, Spans* spans,
               int task)
      : inner_(std::move(inner)), calls_(calls), spans_(spans), task_(task) {}
  int width() const override { return inner_->width(); }
  int height() const override { return inner_->height(); }
  double fps() const override { return inner_->fps(); }
  media::Frame frame_at(std::int64_t index) const override {
    ++*calls_;
    Scope s{spans_, "feeds.frame_at", task_};
    return inner_->frame_at(index);
  }

 private:
  std::shared_ptr<const media::VideoFeed> inner_;
  std::int64_t* calls_;
  Spans* spans_;
  int task_;
};

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.base_seed = splitmix64(seed ^ name_hash(name));
  if (name == "city") {
    // Two cities per cell, so a round is five waves of four tasks and the
    // idle tail of its last wave stays a small part of the round.
    for (int city = 0; city < 2; ++city) {
      for (const int f : {1, 2, 4}) {
        for (const auto p : {fleet::PlacementPolicy::kRoundRobin,
                             fleet::PlacementPolicy::kLeastLoaded,
                             fleet::PlacementPolicy::kLocality}) {
          w.tasks.push_back(city_task(f, p, false));
        }
      }
      w.tasks.push_back(city_task(4, fleet::PlacementPolicy::kLeastLoaded, true));
    }
  } else if (name == "townhall") {
    // Six waves of four tasks: a round's wall then follows the typical task
    // rather than the slowest of a short last wave.
    for (int i = 0; i < 24; ++i) w.tasks.push_back(townhall_task());
  } else if (name == "qoe") {
    // Each platform × motion pair once, with 3, 2 and 1 receivers in turn:
    // costliest first, so six tasks on four runner threads stay balanced.
    int receivers = 0;
    for (const auto m : {platform::MotionClass::kLowMotion, platform::MotionClass::kHighMotion}) {
      for (const auto id : {platform::PlatformId::kZoom, platform::PlatformId::kWebex,
                            platform::PlatformId::kMeet}) {
        w.tasks.push_back(qoe_task(id, m, 3 - receivers++ / 2));
      }
    }
  } else {
    throw std::invalid_argument{"unknown workload " + name};
  }
  w.setup_task = with_minimal_media(w.tasks.front());
  return w;
}

TaskOutcome run_task(const TaskSpec& t, runner::SessionContext& ctx, Tracer* tracer) {
  TaskOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  if (t.entry == Entry::kCity) {
    core::CityScaleConfig cfg = t.city;
    cfg.seed = ctx.seed;
    cfg.metrics = &ctx.metrics;
    cfg.tracer = tracer;
    const core::CityScaleResult r = core::run_city_scale_benchmark(cfg);
    out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    out.sim_events = r.sim_events;
    out.failure = check_city(t, r);
    ctx.sample(t.cell + ".completed", r.meetings_completed);
    ctx.sample(t.cell + ".join_timeouts", r.join_timeouts);
    ctx.sample(t.cell + ".trunk_delivered", static_cast<double>(r.trunk_delivered_packets));
    ctx.sample(t.cell + ".reconnects", static_cast<double>(r.reconnects));
    ctx.sample(t.cell + ".lag_samples", static_cast<double>(r.lag_ms.size()));
    if (!r.lag_ms.empty()) sample_quantiles(ctx, t.cell + ".lag", r.lag_ms);
  } else {
    out.qoe = core::run_qoe_session(t.qoe, ctx.seed);
    out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    out.failure = check_qoe(t, out.qoe);
    ctx.sample(t.cell + ".upload_kbps", out.qoe.upload_kbps);
    ctx.sample(t.cell + ".download_kbps", out.qoe.session_download_kbps);
    for (const auto& rx : out.qoe.receivers) {
      ctx.sample(t.cell + ".delivery_ratio", rx.delivery_ratio);
      if (!rx.has_video_qoe) continue;
      ctx.sample(t.cell + ".psnr", rx.psnr);
      ctx.sample(t.cell + ".ssim", rx.ssim);
      ctx.sample(t.cell + ".vifp", rx.vifp);
    }
  }
  return out;
}

// Mirrors core::run_qoe_session (qoe_benchmark.cpp) step for step; the
// compare_qoe() identity check is what keeps the two from drifting apart.
QoeCensus run_qoe_census(const core::QoeBenchmarkConfig& config, std::uint64_t seed,
                         MetricsRegistry& metrics, Spans* spans, int task) {
  QoeCensus census;
  testbed::CloudTestbed bed{seed};
  auto platform = platform::make_platform(config.platform, bed.network(), seed ^ 0xBEEF);
  net::Host& host_vm = bed.create_vm(testbed::site_by_name(config.host_site), 8);
  std::vector<net::Host*> rx_vms;
  std::unordered_map<std::string, int> site_use;
  for (const auto& site : config.receiver_sites) {
    rx_vms.push_back(&bed.create_vm(testbed::site_by_name(site), site_use[site]++));
  }
  bed.network().attach_metrics(metrics);
  platform->set_metrics(&metrics);

  const std::uint64_t feed_seed = seed ^ 0xC0FFEE;
  const std::uint64_t session_seed = seed;
  const int padded_w = config.content_width + 2 * config.padding;
  const int padded_h = config.content_height + 2 * config.padding;
  const media::FeedParams params{config.content_width, config.content_height, config.fps,
                                 feed_seed};
  std::shared_ptr<const media::VideoFeed> raw;
  if (config.motion == platform::MotionClass::kHighMotion) {
    raw = std::make_shared<media::TourGuideFeed>(params);
  } else {
    raw = std::make_shared<media::TalkingHeadFeed>(params);
  }
  const auto content = std::make_shared<CountingFeed>(raw, &census.feed_frames, spans, task);
  const auto padded = std::make_shared<media::PaddedFeed>(content, config.padding);

  client::VcaClient::Config host_cfg;
  host_cfg.send_video = true;
  host_cfg.send_audio = true;
  host_cfg.decode_video = false;
  host_cfg.motion = config.motion;
  host_cfg.video_width = padded_w;
  host_cfg.video_height = padded_h;
  host_cfg.fps = config.fps;
  host_cfg.ui_border = config.padding > 8 ? config.padding - 8 : 0;
  host_cfg.synthetic_video = !config.score_video;
  host_cfg.seed = session_seed;
  client::VcaClient host_client{host_vm, *platform, host_cfg};
  host_client.attach_metrics(metrics);
  client::MediaFeeder feeder{bed.loop(), host_client.video_device(), host_client.audio_device()};
  capture::PacketCapture host_capture{host_vm, bed.clock_offset(host_vm)};

  std::vector<std::unique_ptr<client::VcaClient>> receivers;
  std::vector<std::unique_ptr<client::DesktopRecorder>> recorders;
  std::vector<std::unique_ptr<capture::PacketCapture>> captures;
  for (std::size_t i = 0; i < rx_vms.size(); ++i) {
    client::VcaClient::Config cfg;
    cfg.send_video = false;
    cfg.send_audio = false;
    cfg.video_width = padded_w;
    cfg.video_height = padded_h;
    cfg.fps = config.fps;
    cfg.ui_border = host_cfg.ui_border;
    cfg.seed = session_seed + 17 * (i + 1);
    cfg.decode_video = config.score_video;
    receivers.push_back(std::make_unique<client::VcaClient>(*rx_vms[i], *platform, cfg));
    receivers.back()->attach_metrics(metrics);
    recorders.push_back(std::make_unique<client::DesktopRecorder>(*receivers.back(), config.fps));
    captures.push_back(
        std::make_unique<capture::PacketCapture>(*rx_vms[i], bed.clock_offset(*rx_vms[i])));
  }

  SimTime media_start{};
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  for (auto& r : receivers) plan.participants.push_back(r.get());
  plan.media_duration = config.media_duration;
  plan.metrics = &metrics;
  plan.on_all_joined = [&] {
    media_start = bed.network().now();
    feeder.play_video(padded, config.media_duration);
    feeder.play_audio(
        media::synthesize_voice(config.media_duration.seconds(), session_seed ^ 0xA0D10));
    if (config.score_video) {
      for (auto& rec : recorders) rec->start(config.media_duration);
    }
  };
  testbed::SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();

  core::QoeSessionResult& out = census.result;
  auto trace_of = [&](const capture::PacketCapture& cap) {
    census.capture_records += static_cast<std::int64_t>(cap.size());
    Scope s{spans, "capture.trace", task};
    return cap.trace();
  };
  {
    const capture::Trace host_trace = trace_of(host_capture);
    Scope s{spans, "capture.rates", task};
    out.upload_kbps = capture::RateAnalyzer{host_trace}.average(media_start).upload.as_kbps();
  }
  double download_acc = 0.0;
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    core::QoeReceiverResult rx;
    {
      const capture::Trace rx_trace = trace_of(*captures[i]);
      Scope s{spans, "capture.rates", task};
      rx.download_kbps = capture::RateAnalyzer{rx_trace}.average(media_start).download.as_kbps();
    }
    download_acc += rx.download_kbps;
    const auto& st = receivers[i]->stats();
    if (host_client.stats().video_frames_sent > 0) {
      rx.has_delivery_ratio = true;
      rx.delivery_ratio = static_cast<double>(st.video_frames_completed) /
                          static_cast<double>(host_client.stats().video_frames_sent);
    }
    // Scoring runs only when traced: the counting pass needs the simulation.
    if (config.score_video && spans != nullptr) {
      media::RecordedVideo cropped;
      {
        Scope s{spans, "qoe.crop", task};
        cropped = media::crop_and_resize(recorders[i]->video(), config.padding,
                                         config.content_width, config.content_height);
      }
      if (cropped.frames.size() >= 12) {
        std::vector<media::Frame> reference;
        reference.reserve(cropped.frames.size());
        for (std::size_t k = 0; k < cropped.frames.size(); ++k) {
          reference.push_back(content->frame_at(static_cast<std::int64_t>(k)));
        }
        media::AlignedPair aligned;
        {
          Scope s{spans, "qoe.align", task};
          const std::int64_t shift = media::best_temporal_shift(reference, cropped.frames, 10);
          aligned = media::align_sequences(reference, cropped.frames, shift);
        }
        ++census.align_calls;
        std::vector<media::Frame> ref_sample;
        std::vector<media::Frame> rec_sample;
        for (std::size_t k = 0; k < aligned.reference.size();
             k += static_cast<std::size_t>(config.metric_stride)) {
          ref_sample.push_back(aligned.reference[k]);
          rec_sample.push_back(aligned.recording[k]);
        }
        if (!ref_sample.empty()) {
          Scope s{spans, "qoe.score", task};
          const auto qoe = media::qoe::mean_video_qoe(ref_sample, rec_sample);
          census.pairs_scored += static_cast<std::int64_t>(ref_sample.size());
          rx.has_video_qoe = true;
          rx.psnr = qoe.psnr;
          rx.ssim = qoe.ssim;
          rx.vifp = qoe.vifp;
        }
      }
    }
    out.receivers.push_back(rx);
  }
  out.session_download_kbps = download_acc / static_cast<double>(receivers.size());
  return census;
}

std::string compare_qoe(const core::QoeSessionResult& a, const core::QoeSessionResult& b,
                        bool scored) {
  if (a.upload_kbps != b.upload_kbps) return "upload rate differs";
  if (a.session_download_kbps != b.session_download_kbps) return "download rate differs";
  if (a.receivers.size() != b.receivers.size()) return "receiver count differs";
  for (std::size_t i = 0; i < a.receivers.size(); ++i) {
    const auto& x = a.receivers[i];
    const auto& y = b.receivers[i];
    if (x.download_kbps != y.download_kbps || x.delivery_ratio != y.delivery_ratio ||
        x.has_delivery_ratio != y.has_delivery_ratio) {
      return "receiver rates differ";
    }
    if (scored && (x.has_video_qoe != y.has_video_qoe || x.psnr != y.psnr || x.ssim != y.ssim ||
                   x.vifp != y.vifp)) {
      return "receiver scores differ";
    }
  }
  return {};
}

}  // namespace hostbench
