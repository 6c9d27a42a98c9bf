// Microbenchmarks (google-benchmark) for the hot paths of the harness:
// codec encode/decode, QoE metrics, audio pipeline, event loop, relay
// fan-out, shaper.
//
// The event-loop and fan-out benchmarks below are the perf gate for the
// discrete-event core: `cmake --build build --target bench-report` (or
// `make bench-report`) runs them with a JSON reporter and writes
// build/BENCH_PR2.json; the repo-root BENCH_PR2.json records the measured
// before/after trajectory of the slab-allocated core.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "media/audio.h"
#include "media/feeds.h"
#include "media/qoe/mos_lqo.h"
#include "media/qoe/video_metrics.h"
#include "media/video_codec.h"
#include "net/event_loop.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/shaper.h"
#include "platform/relay.h"

namespace {

using namespace vc;

void BM_VideoEncode(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int h = w * 3 / 4;
  media::TourGuideFeed feed{{w, h, 10.0, 1}};
  media::VideoEncoder enc{w, h, {.target_bitrate = DataRate::kbps(800), .fps = 10.0}};
  std::int64_t i = 0;
  std::vector<media::Frame> frames;
  for (int k = 0; k < 10; ++k) frames.push_back(feed.frame_at(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(frames[static_cast<std::size_t>(i++ % 10)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VideoEncode)->Arg(128)->Arg(256);

void BM_VideoDecode(benchmark::State& state) {
  media::TourGuideFeed feed{{128, 96, 10.0, 1}};
  media::VideoEncoder enc{128, 96, {.target_bitrate = DataRate::kbps(800), .fps = 10.0}};
  const auto frame = enc.encode(feed.frame_at(0));
  media::VideoDecoder dec{128, 96};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode(*frame));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VideoDecode);

void BM_Ssim(benchmark::State& state) {
  media::TourGuideFeed feed{{256, 192, 10.0, 1}};
  const media::Frame a = feed.frame_at(0);
  const media::Frame b = feed.frame_at(1);
  for (auto _ : state) benchmark::DoNotOptimize(media::qoe::ssim(a, b));
}
BENCHMARK(BM_Ssim);

void BM_Vifp(benchmark::State& state) {
  media::TourGuideFeed feed{{256, 192, 10.0, 1}};
  const media::Frame a = feed.frame_at(0);
  const media::Frame b = feed.frame_at(1);
  for (auto _ : state) benchmark::DoNotOptimize(media::qoe::vifp(a, b));
}
BENCHMARK(BM_Vifp);

void BM_MosLqo(benchmark::State& state) {
  const auto ref = media::synthesize_voice(2.0, 1);
  const auto deg = media::synthesize_voice(2.0, 2);
  for (auto _ : state) benchmark::DoNotOptimize(media::qoe::mos_lqo(ref, deg));
}
BENCHMARK(BM_MosLqo);

// A whole scored sequence: the QoE benchmark scores 25 frame pairs per
// receiver, and mean_video_qoe reuses one set of VIFp planes across them.
void BM_MeanVideoQoe(benchmark::State& state) {
  media::TourGuideFeed feed{{256, 192, 10.0, 1}};
  std::vector<media::Frame> reference;
  std::vector<media::Frame> distorted;
  for (int k = 0; k < 25; ++k) {
    reference.push_back(feed.frame_at(k));
    distorted.push_back(feed.frame_at(k + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::qoe::mean_video_qoe(reference, distorted));
  }
  state.SetItemsProcessed(state.iterations() * 25);
}
BENCHMARK(BM_MeanVideoQoe);

void BM_FeedRender(benchmark::State& state) {
  media::TourGuideFeed feed{{256, 192, 10.0, 1}};
  std::int64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(feed.frame_at(i++));
}
BENCHMARK(BM_FeedRender);

void BM_FeedRenderTalkingHead(benchmark::State& state) {
  media::TalkingHeadFeed feed{{256, 192, 10.0, 1}};
  std::int64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(feed.frame_at(i++));
}
BENCHMARK(BM_FeedRenderTalkingHead);

// The QoE benchmark's geometry: a 256×192 talking head inside its 24-pixel
// protective margin (Fig 13).
void BM_FeedRenderPadded(benchmark::State& state) {
  media::PaddedFeed feed{std::make_shared<media::TalkingHeadFeed>(
                             media::FeedParams{256, 192, 10.0, 1}),
                         24};
  std::int64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(feed.frame_at(i++));
}
BENCHMARK(BM_FeedRenderPadded);

void BM_EventLoopChurn(benchmark::State& state) {
  for (auto _ : state) {
    net::EventLoop loop;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(SimTime{i * 100}, [&counter] { ++counter; });
    }
    loop.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopChurn);

// Steady-state scheduling: a fixed population of self-rescheduling timers
// (the shape of media ticks, probe cadences and feedback loops). Dominated
// by one schedule + one pop per fired event — the discrete-event hot path.
// The timers' first firings are spread evenly over one 20 ms period, as
// clients that joined at different instants are, so every pending timestamp
// is distinct and the heap orders on time. 1024 timers is about the queue
// depth of hostbench's `townhall` workload.
void BM_EventLoopSteadyState(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  constexpr int kTicksPerTimer = 200;
  constexpr std::int64_t kPeriodUs = 20'000;
  for (auto _ : state) {
    net::EventLoop loop;
    std::int64_t fired = 0;
    std::vector<std::function<void()>> ticks(static_cast<std::size_t>(timers));
    for (int i = 0; i < timers; ++i) {
      ticks[static_cast<std::size_t>(i)] = [&loop, &fired, &tick = ticks[static_cast<std::size_t>(i)],
                                            timers] {
        if (++fired < static_cast<std::int64_t>(timers) * kTicksPerTimer) {
          loop.schedule_after(micros(kPeriodUs), tick);
        }
      };
      loop.schedule_at(SimTime{kPeriodUs + i * kPeriodUs / timers}, ticks[static_cast<std::size_t>(i)]);
    }
    loop.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * timers * kTicksPerTimer);
}
BENCHMARK(BM_EventLoopSteadyState)->Arg(8)->Arg(64)->Arg(1024);

// Schedule-then-cancel churn: half the scheduled events are cancelled before
// they fire (retransmit timers, join timeouts, tick epochs).
void BM_EventLoopCancelChurn(benchmark::State& state) {
  constexpr int kEvents = 1000;
  for (auto _ : state) {
    net::EventLoop loop;
    int counter = 0;
    std::vector<net::EventId> ids;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(loop.schedule_at(SimTime{i * 100}, [&counter] { ++counter; }));
    }
    for (int i = 0; i < kEvents; i += 2) loop.cancel(ids[static_cast<std::size_t>(i)]);
    loop.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopCancelChurn);

// The relay fan-out path end to end: N participants in one meeting, every
// ingested media packet forwarded to N-1 receivers through the jittered
// per-destination departure pipeline, then delivered over the network. This
// is the profile-dominating loop of every large-N sweep.
void BM_RelayFanout(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kPacketsPerSender = 50;
  for (auto _ : state) {
    net::Network net{std::make_unique<net::FixedLatencyModel>(millis(5)), 1};
    platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                                platform::RelayServer::ForwardingDelay{millis(2), 1.0}};
    std::int64_t received = 0;
    std::vector<net::Host*> clients;
    for (int i = 0; i < n; ++i) {
      net::Host& h = net.add_host(std::string{"c"}.append(std::to_string(i)), GeoPoint{40.0, -75.0});
      h.udp_bind(100).on_receive([&received](const net::Packet&) { ++received; });
      relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1), {h.ip(), 100});
      clients.push_back(&h);
    }
    // Everyone streams one frame-sized packet per tick, 20 ms apart.
    for (int t = 0; t < kPacketsPerSender; ++t) {
      for (int i = 0; i < n; ++i) {
        net.loop().schedule_at(SimTime{t * 20'000}, [&relay, &clients, i] {
          net::Packet p;
          p.dst = relay.endpoint();
          p.l7_len = 1100;
          p.kind = net::StreamKind::kVideo;
          p.origin_id = static_cast<std::uint32_t>(i + 1);
          clients[static_cast<std::size_t>(i)]->udp_socket(100)->send(std::move(p));
        });
      }
    }
    net.loop().run();
    benchmark::DoNotOptimize(received);
  }
  // Copies forwarded per iteration: senders × packets × (n-1) receivers.
  state.SetItemsProcessed(state.iterations() * n * kPacketsPerSender * (n - 1));
}
BENCHMARK(BM_RelayFanout)->Arg(10)->Arg(30);

// Same-destination burst delivery: many packets injected for one receiver at
// one simulated instant — the best case for batched (dst, tick) delivery.
void BM_NetworkBurstDelivery(benchmark::State& state) {
  constexpr int kBurst = 64;
  constexpr int kBursts = 100;
  for (auto _ : state) {
    net::Network net{std::make_unique<net::FixedLatencyModel>(millis(5)), 1};
    net::Host& src = net.add_host("src", GeoPoint{40.0, -75.0});
    net::Host& dst = net.add_host("dst", GeoPoint{38.9, -77.4});
    auto& sock = src.udp_bind(200);
    std::int64_t received = 0;
    dst.udp_bind(100).on_receive([&received](const net::Packet&) { ++received; });
    for (int b = 0; b < kBursts; ++b) {
      net.loop().schedule_at(SimTime{b * 10'000}, [&sock, &dst] {
        for (int i = 0; i < kBurst; ++i) {
          sock.send_to({dst.ip(), 100}, 1100, net::StreamKind::kVideo);
        }
      });
    }
    net.loop().run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * kBurst * kBursts);
}
BENCHMARK(BM_NetworkBurstDelivery);

void BM_ShaperThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::EventLoop loop;
    net::TokenBucketShaper shaper{loop, DataRate::mbps(2.0), 16'000, 256'000};
    std::int64_t out = 0;
    for (int i = 0; i < 500; ++i) {
      net::Packet p;
      p.l7_len = 1150;
      shaper.submit(std::move(p), [&out](net::Packet q) { out += q.l7_len; });
    }
    loop.run();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_ShaperThroughput);

}  // namespace

BENCHMARK_MAIN();
