#include "layers.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "media/feeds.h"
#include "media/video_codec.h"
#include "net/event_loop.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/shaper.h"
#include "platform/rate_policy.h"
#include "platform/relay.h"

namespace hostbench {
namespace {

using namespace vc;

constexpr int kCalibrationRepeats = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Frames a MediaFeeder plays for `duration` at `fps`: one per tick while
/// the tick time is before the end.
std::int64_t frames_played(SimDuration duration, double fps) {
  const std::int64_t period = seconds_f(1.0 / fps).micros();
  return (duration.micros() + period - 1) / period;
}

DataRate host_video_rate(platform::PlatformId id, int participants, platform::MotionClass motion) {
  const platform::RateProfile& p = platform::rate_profile(id);
  DataRate rate = participants == 2 ? p.video_two_party : p.video_multi_party;
  if (motion == platform::MotionClass::kLowMotion) rate = rate * p.low_motion_factor;
  return rate;
}

/// Self-rescheduling timers, `timers` pending at any time: one schedule +
/// one pop per executed event. Delays are spread over 0.1..200 ms (packet
/// hops to media ticks), so a push sifts through the heap as in a session
/// rather than always landing last.
double loop_event_cost(int timers, Spans& spans) {
  constexpr std::int64_t kEvents = 300'000;
  std::vector<double> per_event;
  for (int r = 0; r < kCalibrationRepeats; ++r) {
    Scope s{&spans, "calib.loop", -1};
    net::EventLoop loop;
    std::int64_t fired = 0;
    std::uint64_t lcg = 12345;
    const auto delay = [&lcg] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return micros(100 + static_cast<std::int64_t>((lcg >> 33) % 200'000));
    };
    std::vector<std::function<void()>> ticks(static_cast<std::size_t>(timers));
    for (int i = 0; i < timers; ++i) {
      ticks[static_cast<std::size_t>(i)] = [&loop, &fired, &delay,
                                            &tick = ticks[static_cast<std::size_t>(i)]] {
        if (++fired < kEvents) loop.schedule_after(delay(), tick);
      };
      loop.schedule_after(delay(), ticks[static_cast<std::size_t>(i)]);
    }
    const double t0 = spans.now();
    loop.run();
    per_event.push_back((spans.now() - t0) / static_cast<double>(loop.events_executed()));
  }
  return median(per_event);
}

/// Spaced single-packet sends between two hosts.
double net_packet_cost(double loop_event_s, Spans& spans) {
  constexpr int kPackets = 50'000;
  std::vector<double> per_packet;
  for (int r = 0; r < kCalibrationRepeats; ++r) {
    Scope s{&spans, "calib.net", -1};
    net::Network net{std::make_unique<net::FixedLatencyModel>(millis(5)), 1};
    net::Host& src = net.add_host("src", GeoPoint{40.0, -75.0});
    net::Host& dst = net.add_host("dst", GeoPoint{38.9, -77.4});
    auto& sock = src.udp_bind(200);
    std::int64_t received = 0;
    dst.udp_bind(100).on_receive([&received](const net::Packet&) { ++received; });
    for (int i = 0; i < kPackets; ++i) {
      net.loop().schedule_at(SimTime{i * 100}, [&sock, &dst] {
        sock.send_to({dst.ip(), 100}, 1100, net::StreamKind::kVideo);
      });
    }
    const double t0 = spans.now();
    net.loop().run();
    const double t = spans.now() - t0;
    const double loop_s = static_cast<double>(net.loop().events_executed()) * loop_event_s;
    per_packet.push_back(std::max(0.0, t - loop_s) / static_cast<double>(kPackets));
  }
  return median(per_packet);
}

/// One sender streaming into a relay with `members` participants.
double relay_media_in_cost(int members, double loop_event_s, double net_packet_s, Spans& spans) {
  members = std::max(members, 2);
  const int packets = std::max(200, 100'000 / (members - 1));
  std::vector<double> per_in;
  for (int r = 0; r < kCalibrationRepeats; ++r) {
    Scope s{&spans, "calib.relay", -1};
    net::Network net{std::make_unique<net::FixedLatencyModel>(millis(5)), 1};
    platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                                platform::RelayServer::ForwardingDelay{millis(2), 1.0}};
    std::int64_t received = 0;
    std::vector<net::Host*> clients;
    for (int i = 0; i < members; ++i) {
      net::Host& h = net.add_host(std::string{"c"}.append(std::to_string(i)), GeoPoint{40.0, -75.0});
      h.udp_bind(100).on_receive([&received](const net::Packet&) { ++received; });
      relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1), {h.ip(), 100});
      clients.push_back(&h);
    }
    for (int t = 0; t < packets; ++t) {
      net.loop().schedule_at(SimTime{t * 1'000}, [&relay, sender = clients.front()] {
        net::Packet p;
        p.dst = relay.endpoint();
        p.l7_len = 1100;
        p.kind = net::StreamKind::kVideo;
        p.origin_id = 1;
        sender->udp_socket(100)->send(std::move(p));
      });
    }
    const double t0 = spans.now();
    net.loop().run();
    const double t = spans.now() - t0;
    const double below = static_cast<double>(net.loop().events_executed()) * loop_event_s +
                         static_cast<double>(net.stats().packets_sent) * net_packet_s;
    per_in.push_back(std::max(0.0, t - below) / static_cast<double>(packets));
  }
  return median(per_in);
}

/// A trunk's shaper at trunk rate, fed fan-out bursts that queue briefly
/// but stay below capacity on average, so nothing drops.
double trunk_packet_cost(double loop_event_s, Spans& spans) {
  constexpr int kBurst = 32;
  constexpr int kBursts = 2'000;
  constexpr int kPackets = kBurst * kBursts;
  std::vector<double> per_packet;
  for (int r = 0; r < kCalibrationRepeats; ++r) {
    Scope s{&spans, "calib.trunk", -1};
    net::EventLoop loop;
    net::TokenBucketShaper shaper{loop, DataRate::mbps(500), 64'000, 4096};
    std::int64_t out = 0;
    for (int b = 0; b < kBursts; ++b) {
      // 32 × 1100 B at 500 Mbit/s drains in ~0.56 ms.
      loop.schedule_at(SimTime{b * 1'000}, [&shaper, &out] {
        for (int i = 0; i < kBurst; ++i) {
          net::Packet p;
          p.l7_len = 1100;
          shaper.submit(std::move(p), [&out](net::Packet q) { out += q.l7_len; });
        }
      });
    }
    const double t0 = spans.now();
    loop.run();
    const double t = spans.now() - t0;
    const double loop_s = static_cast<double>(loop.events_executed()) * loop_event_s;
    per_packet.push_back(std::max(0.0, t - loop_s) / static_cast<double>(kPackets));
  }
  return median(per_packet);
}

}  // namespace

Calibration calibrate(int relay_members, int queue_depth, Spans& spans) {
  Scope s{&spans, "calibrate", -1};
  Calibration c;
  c.relay_members = relay_members;
  c.queue_depth = std::clamp(queue_depth, 16, 8192);
  c.loop_event_s = loop_event_cost(c.queue_depth, spans);
  c.net_packet_s = net_packet_cost(c.loop_event_s, spans);
  c.relay_media_in_s = relay_media_in_cost(relay_members, c.loop_event_s, c.net_packet_s, spans);
  c.trunk_packet_s = trunk_packet_cost(c.loop_event_s, spans);
  return c;
}

std::int64_t replay_city_media(const TaskSpec& task, std::uint64_t seed, Spans& spans, int id) {
  const core::CityScaleConfig& c = task.city;
  const std::int64_t n = frames_played(c.media_duration, c.fps);
  const DataRate rate = host_video_rate(c.platform, 1 + c.participants_per_meeting,
                                        platform::MotionClass::kHighMotion);
  std::int64_t frames = 0;
  for (int mi = 0; mi < c.meetings; ++mi) {
    // Same feed as city_benchmark.cpp builds for meeting `mi`.
    const media::FlashFeed feed{media::FeedParams{
        c.feed_width, c.feed_height, c.fps, seed ^ (0xF00D + static_cast<std::uint64_t>(mi))}};
    media::VideoEncoder encoder{c.feed_width, c.feed_height,
                                media::VideoEncoder::Config{.target_bitrate = rate, .fps = c.fps}};
    for (std::int64_t k = 0; k < n; ++k) {
      media::Frame frame;
      {
        Scope s{&spans, "feeds.frame_at", id};
        frame = feed.frame_at(k);
      }
      Scope s{&spans, "codec.encode", id};
      encoder.encode(frame);
    }
    frames += n;
  }
  return frames;
}

void replay_qoe_codec(const TaskSpec& task, std::uint64_t seed, Spans& spans, int id) {
  const core::QoeBenchmarkConfig& q = task.qoe;
  const media::FeedParams params{q.content_width, q.content_height, q.fps, seed ^ 0xC0FFEE};
  std::shared_ptr<const media::VideoFeed> content;
  if (q.motion == platform::MotionClass::kHighMotion) {
    content = std::make_shared<media::TourGuideFeed>(params);
  } else {
    content = std::make_shared<media::TalkingHeadFeed>(params);
  }
  const media::PaddedFeed padded{content, q.padding};
  const std::int64_t n = frames_played(q.media_duration, q.fps);
  const int receivers = static_cast<int>(q.receiver_sites.size());
  media::VideoEncoder encoder{
      padded.width(), padded.height(),
      media::VideoEncoder::Config{.target_bitrate = host_video_rate(q.platform, 1 + receivers, q.motion),
                                  .fps = q.fps}};
  media::VideoDecoder decoder{padded.width(), padded.height()};
  for (std::int64_t k = 0; k < n; ++k) {
    const media::Frame frame = padded.frame_at(k);  // input only: feeds are timed in the census
    std::shared_ptr<media::EncodedFrame> encoded;
    {
      Scope s{&spans, "codec.encode", id};
      encoded = encoder.encode(frame);
    }
    Scope s{&spans, "codec.decode", id};
    decoder.decode(*encoded);
  }
}

}  // namespace hostbench
