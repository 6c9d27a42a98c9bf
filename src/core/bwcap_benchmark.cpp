#include "core/bwcap_benchmark.h"

#include <memory>

#include "capture/rate_analyzer.h"
#include "client/media_feeder.h"
#include "client/recorder.h"
#include "client/vca_client.h"
#include "media/align.h"
#include "media/feeds.h"
#include "media/qoe/mos_lqo.h"
#include "media/qoe/video_metrics.h"
#include "platform/base_platform.h"
#include "testbed/cloud_testbed.h"
#include "testbed/orchestrator.h"

namespace vc::core {
namespace {

/// One capped two-party session against an existing world. Shared by the
/// aggregate benchmark (persistent bed/VMs across sessions, like the paper's
/// long-lived testbed) and the self-contained per-seed entry point.
BwCapSessionResult run_one_session(const BwCapBenchmarkConfig& config, testbed::CloudTestbed& bed,
                                   platform::BasePlatform& platform, net::Host& host_vm,
                                   net::Host& rx_vm, std::uint64_t feed_seed,
                                   std::uint64_t session_seed) {
  const int padded_w = config.content_width + 2 * config.padding;
  const int padded_h = config.content_height + 2 * config.padding;
  BwCapSessionResult out;

  // Arm the ingress shaper for this session (tc qdisc on ifb).
  net::TokenBucketShaper* shaper = nullptr;
  if (!config.cap.is_unlimited()) {
    auto owned = std::make_unique<net::TokenBucketShaper>(bed.loop(), config.cap,
                                                          /*burst=*/24'000,
                                                          /*queue_limit_packets=*/100);
    shaper = owned.get();
    rx_vm.set_ingress_shaper(std::move(owned));
  } else {
    rx_vm.set_ingress_shaper(nullptr);
  }

  std::shared_ptr<const media::VideoFeed> content;
  {
    media::FeedParams params{config.content_width, config.content_height, config.fps, feed_seed};
    if (config.motion == platform::MotionClass::kHighMotion) {
      content = std::make_shared<media::TourGuideFeed>(params);
    } else {
      content = std::make_shared<media::TalkingHeadFeed>(params);
    }
  }
  const auto padded = std::make_shared<media::PaddedFeed>(content, config.padding);
  const auto voice = media::synthesize_voice(config.media_duration.seconds() + 1.0,
                                             session_seed ^ 0x701CE);

  client::VcaClient::Config host_cfg;
  host_cfg.send_video = true;
  host_cfg.send_audio = true;
  host_cfg.decode_video = false;
  host_cfg.motion = config.motion;
  host_cfg.video_width = padded_w;
  host_cfg.video_height = padded_h;
  host_cfg.fps = config.fps;
  host_cfg.ui_border = config.padding > 8 ? config.padding - 8 : 0;
  host_cfg.seed = session_seed;
  client::VcaClient host_client{host_vm, platform, host_cfg};
  client::MediaFeeder feeder{bed.loop(), host_client.video_device(), host_client.audio_device()};

  client::VcaClient::Config rx_cfg;
  rx_cfg.send_video = false;
  rx_cfg.send_audio = false;
  rx_cfg.video_width = padded_w;
  rx_cfg.video_height = padded_h;
  rx_cfg.fps = config.fps;
  rx_cfg.ui_border = host_cfg.ui_border;
  rx_cfg.seed = session_seed + 77;
  client::VcaClient receiver{rx_vm, platform, rx_cfg};
  client::DesktopRecorder recorder{receiver, config.fps};
  capture::PacketCapture rx_capture{rx_vm, bed.clock_offset(rx_vm)};

  SimTime media_start{};
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  plan.participants = {&receiver};
  plan.media_duration = config.media_duration;
  plan.on_all_joined = [&] {
    media_start = bed.network().now();
    feeder.play_video(padded, config.media_duration);
    feeder.play_audio(voice);
    recorder.start(config.media_duration);
  };
  testbed::SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();

  // --- video QoE ---
  const media::RecordedVideo cropped = media::crop_and_resize(
      recorder.video(), config.padding, config.content_width, config.content_height);
  if (cropped.frames.size() >= 12) {
    std::vector<media::Frame> reference;
    for (std::size_t k = 0; k < cropped.frames.size(); ++k) {
      reference.push_back(content->frame_at(static_cast<std::int64_t>(k)));
    }
    const auto shift = media::best_temporal_shift(reference, cropped.frames, 10);
    const auto aligned = media::align_sequences(reference, cropped.frames, shift);
    std::vector<media::Frame> ref_sample;
    std::vector<media::Frame> rec_sample;
    for (std::size_t k = 0; k < aligned.reference.size();
         k += static_cast<std::size_t>(config.metric_stride)) {
      ref_sample.push_back(aligned.reference[k]);
      rec_sample.push_back(aligned.recording[k]);
    }
    const auto qoe = media::qoe::mean_video_qoe(ref_sample, rec_sample);
    out.has_video_qoe = true;
    out.psnr = qoe.psnr;
    out.ssim = qoe.ssim;
    out.vifp = qoe.vifp;
  }

  // --- audio QoE (EBU-style normalization → offset alignment → MOS) ---
  media::AudioSignal received = receiver.received_audio();
  if (!received.samples.empty()) {
    media::AudioSignal reference = voice;
    media::normalize_loudness(reference);
    media::normalize_loudness(received);
    const auto max_shift = static_cast<std::int64_t>(2 * reference.sample_rate);
    const auto offset = media::find_offset_samples(reference, received, max_shift);
    const auto aligned = media::shifted(received, offset, reference.samples.size());
    out.has_audio_qoe = true;
    out.mos_lqo = media::qoe::mos_lqo(reference, aligned);
  }

  // --- traffic ---
  const capture::Trace rx_trace = rx_capture.trace();
  const capture::RateAnalyzer rates{rx_trace};
  out.download_kbps = rates.average(media_start).download.as_kbps();
  if (shaper != nullptr) {
    const auto& st = shaper->stats();
    const double total = static_cast<double>(st.forwarded_bytes + st.dropped_bytes);
    out.drop_fraction = total > 0 ? static_cast<double>(st.dropped_bytes) / total : 0.0;
  }
  if (host_client.stats().video_frames_sent > 0) {
    out.has_delivery_ratio = true;
    out.delivery_ratio = static_cast<double>(receiver.stats().video_frames_completed) /
                         static_cast<double>(host_client.stats().video_frames_sent);
  }
  rx_vm.set_ingress_shaper(nullptr);  // disarm before the next session
  return out;
}

}  // namespace

BwCapBenchmarkResult run_bwcap_benchmark(const BwCapBenchmarkConfig& config) {
  testbed::CloudTestbed bed{config.seed};
  auto platform = platform::make_platform(
      config.platform, bed.network(),
      platform::PlatformConfig{.seed = config.seed ^ 0xCAB});

  net::Host& host_vm = bed.create_vm(testbed::site_by_name(config.host_site), 8);
  net::Host& rx_vm = bed.create_vm(testbed::site_by_name(config.receiver_site), 9);

  BwCapBenchmarkResult result;
  result.platform = config.platform;
  result.cap = config.cap;

  for (int s = 0; s < config.sessions; ++s) {
    const std::uint64_t session_seed = config.seed + static_cast<std::uint64_t>(s) * 4447;
    const BwCapSessionResult session = run_one_session(
        config, bed, *platform, host_vm, rx_vm, config.seed ^ 0xFEED, session_seed);
    if (session.has_video_qoe) {
      result.psnr.add(session.psnr);
      result.ssim.add(session.ssim);
      result.vifp.add(session.vifp);
    }
    if (session.has_audio_qoe) result.mos_lqo.add(session.mos_lqo);
    result.download_kbps.add(session.download_kbps);
    result.drop_fraction.add(session.drop_fraction);
    if (session.has_delivery_ratio) result.delivery_ratio.add(session.delivery_ratio);
  }
  return result;
}

BwCapSessionResult run_bwcap_session(const BwCapBenchmarkConfig& config, std::uint64_t seed) {
  testbed::CloudTestbed bed{seed};
  auto platform = platform::make_platform(
      config.platform, bed.network(),
      platform::PlatformConfig{.seed = seed ^ 0xCAB});
  net::Host& host_vm = bed.create_vm(testbed::site_by_name(config.host_site), 8);
  net::Host& rx_vm = bed.create_vm(testbed::site_by_name(config.receiver_site), 9);
  return run_one_session(config, bed, *platform, host_vm, rx_vm, seed ^ 0xFEED, seed);
}

}  // namespace vc::core
