// Regression tests for the allocation-free codec hot path: after warm-up,
// steady-state encode and decode must perform ZERO heap allocations (the
// EncodedFrame pool + persistent scratch frames + capacity-retaining
// assign() make every per-frame buffer reusable).
//
// This file lives in its own test binary (tests_codec_hotpath) because it
// replaces global operator new/delete with counting versions — that is
// process-wide and must not leak into unrelated suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "media/feeds.h"
#include "media/video_codec.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

// The replacement operators below reach malloc/free only through these two
// out-of-line helpers. Once GCC inlines a malloc or free into an operator
// new or delete it pairs them across call sites and reports
// -Wmismatched-new-delete; out of line, each new pairs only with a delete.
[[gnu::noinline]] void* counted_malloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace vc::media {
namespace {

constexpr int kW = 128;
constexpr int kH = 96;

VideoEncoder::Config cfg() {
  VideoEncoder::Config c;
  c.target_bitrate = DataRate::kbps(800);
  c.fps = 10.0;
  return c;
}

// Pre-rendered frames: feed rendering allocates by design (returns Frame by
// value); the contract under test is the codec, so frames are produced
// outside the measured window.
std::vector<Frame> render_frames(int count) {
  TourGuideFeed feed{{kW, kH, 10.0, 3}};
  std::vector<Frame> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) frames.push_back(feed.frame_at(i));
  return frames;
}

// Encodes frames[0, 8) to warm up the pool, the scratch frames and the
// coeffs/modes capacity (keyframe 0 is the largest output), then returns
// the heap allocations made while encoding the rest. `seen` inspects each
// measured output; the output is dropped right after, so the pool slot is
// free again for the next frame.
template <typename Fn>
std::uint64_t allocs_after_warmup(const std::vector<Frame>& frames, Fn seen) {
  VideoEncoder enc{kW, kH, cfg()};
  for (std::size_t i = 0; i < 8; ++i) enc.encode(frames[i]);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 8; i < frames.size(); ++i) seen(*enc.encode(frames[i]));
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(CodecHotPath, EncodeIsAllocationFreeAfterWarmup) {
  EXPECT_EQ(allocs_after_warmup(render_frames(24), [](const EncodedFrame&) {}), 0u);

  // The lag feed: at 10 fps it flashes on frames 0-1 of every 20, and a
  // keyframe falls every 60 frames, so frames 8..69 cross steady blank,
  // flash, post-flash settling and a keyframe — every per-block decision
  // (intra, inter, skip) is taken after warm-up.
  const FlashFeed flash{{kW, kH, 10.0, 5}};
  std::vector<Frame> frames;
  for (int i = 0; i < 70; ++i) frames.push_back(flash.frame_at(i));
  int keyframes = 0, all_skip = 0, intra_deltas = 0;
  EXPECT_EQ(allocs_after_warmup(frames,
                                [&](const EncodedFrame& f) {
                                  keyframes += f.keyframe ? 1 : 0;
                                  all_skip += f.skip_blocks == f.total_blocks ? 1 : 0;
                                  intra_deltas +=
                                      !f.keyframe && f.modes[0] == BlockMode::kIntra ? 1 : 0;
                                }),
            0u);
  EXPECT_EQ(keyframes, 1);
  EXPECT_GT(all_skip, 0);
  EXPECT_GT(intra_deltas, 0);
}

TEST(CodecHotPath, DecodeIsAllocationFreeAfterWarmup) {
  const auto frames = render_frames(24);
  VideoEncoder enc{kW, kH, cfg()};
  std::vector<std::shared_ptr<EncodedFrame>> encoded;
  encoded.reserve(frames.size());
  // Retaining every frame forces the encoder to allocate fresh ones — the
  // pool must never recycle a frame the caller still holds.
  for (const auto& f : frames) encoded.push_back(enc.encode(f));

  VideoDecoder dec{kW, kH};
  for (int i = 0; i < 8; ++i) dec.decode(*encoded[static_cast<std::size_t>(i)]);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 8; i < 24; ++i) dec.decode(*encoded[static_cast<std::size_t>(i)]);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "decode hot path allocated " << (after - before) << " times";
}

// The pool is an optimization, never a semantic: an encoder whose caller
// retains every output (pool always exhausted → fresh allocations) must
// produce the exact same stream as one whose caller drops frames
// immediately (pool recycles every time).
TEST(CodecHotPath, PoolRecyclingDoesNotChangeTheStream) {
  const auto frames = render_frames(20);
  VideoEncoder retain_enc{kW, kH, cfg()};
  VideoEncoder drop_enc{kW, kH, cfg()};
  std::vector<std::shared_ptr<EncodedFrame>> retained;
  for (const auto& f : frames) {
    retained.push_back(retain_enc.encode(f));
    const auto dropped = drop_enc.encode(f);
    const auto& kept = *retained.back();
    EXPECT_EQ(dropped->bytes, kept.bytes);
    EXPECT_EQ(dropped->qstep, kept.qstep);
    EXPECT_EQ(dropped->sequence, kept.sequence);
    EXPECT_EQ(dropped->keyframe, kept.keyframe);
    EXPECT_EQ(dropped->coeffs, kept.coeffs);
    EXPECT_EQ(dropped->modes, kept.modes);
  }
  // Sanity: the retained frames really are all distinct objects.
  for (std::size_t i = 0; i < retained.size(); ++i) {
    for (std::size_t j = i + 1; j < retained.size(); ++j) {
      EXPECT_NE(retained[i].get(), retained[j].get());
    }
  }
  EXPECT_EQ(retain_enc.last_reconstructed(), drop_enc.last_reconstructed());
}

// The counting operators themselves must be active, or the zero-allocation
// expectations above would pass vacuously.
TEST(CodecHotPath, CountingAllocatorIsLive) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto* v = new std::vector<int>(1024, 7);
  delete v;
  EXPECT_GT(g_allocs.load(std::memory_order_relaxed), before);
  EXPECT_GT(g_frees.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace vc::media
