// Bit-exactness oracle for the procedural feeds.
//
// The per-pixel renderers below are the feeds as they were before the
// row/column tables replaced them: every pixel recomputes its lattice hashes,
// smoothstep weights and sensor-noise value from scratch. The table-driven
// feeds must produce the same bytes, not merely similar images.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "media/feeds.h"
#include "media/frame.h"

namespace vc::media {
namespace {

std::uint8_t oracle_hash_noise(std::uint64_t seed, int x, int y) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(x) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(y) * 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<std::uint8_t>(h & 0xFF);
}

double value_noise(std::uint64_t seed, double x, double y, double cell) {
  const double gx = x / cell;
  const double gy = y / cell;
  const int x0 = static_cast<int>(std::floor(gx));
  const int y0 = static_cast<int>(std::floor(gy));
  const double fx = gx - x0;
  const double fy = gy - y0;
  const double sx = fx * fx * (3 - 2 * fx);
  const double sy = fy * fy * (3 - 2 * fy);
  const double v00 = oracle_hash_noise(seed, x0, y0);
  const double v10 = oracle_hash_noise(seed, x0 + 1, y0);
  const double v01 = oracle_hash_noise(seed, x0, y0 + 1);
  const double v11 = oracle_hash_noise(seed, x0 + 1, y0 + 1);
  return (v00 * (1 - sx) + v10 * sx) * (1 - sy) + (v01 * (1 - sx) + v11 * sx) * sy;
}

double fractal_noise(std::uint64_t seed, double x, double y, double cell) {
  return 0.7 * value_noise(seed, x, y, cell) + 0.3 * value_noise(seed ^ 0xABCD, x, y, cell / 3.0);
}

void oracle_fill_ellipse(Frame& f, double cx, double cy, double rx, double ry, std::uint8_t luma) {
  const int x_lo = std::max(0, static_cast<int>(cx - rx) - 1);
  const int x_hi = std::min(f.width() - 1, static_cast<int>(cx + rx) + 1);
  const int y_lo = std::max(0, static_cast<int>(cy - ry) - 1);
  const int y_hi = std::min(f.height() - 1, static_cast<int>(cy + ry) + 1);
  for (int y = y_lo; y <= y_hi; ++y) {
    for (int x = x_lo; x <= x_hi; ++x) {
      const double dx = (x - cx) / rx;
      const double dy = (y - cy) / ry;
      if (dx * dx + dy * dy <= 1.0) f.set(x, y, luma);
    }
  }
}

void apply_sensor_noise(Frame& f, std::uint64_t seed, std::int64_t index, double sigma) {
  if (sigma <= 0.0) return;
  const double half_range = sigma * 1.7320508;
  const std::uint64_t frame_seed =
      seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1));
  for (int y = 0; y < f.height(); ++y) {
    for (int x = 0; x < f.width(); ++x) {
      const double u = (oracle_hash_noise(frame_seed, x, y) - 127.5) / 127.5;
      const double v = f.at(x, y) + u * half_range;
      f.set(x, y, static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
}

Frame oracle_talking_head_background(const FeedParams& p) {
  Frame bg{p.width, p.height};
  for (int y = 0; y < p.height; ++y) {
    for (int x = 0; x < p.width; ++x) {
      double v = 90.0 + 0.25 * fractal_noise(p.seed, x, y, 48.0);
      if (x > p.width * 3 / 4) v *= 0.7;
      bg.set(x, y, static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
  return bg;
}

Frame oracle_talking_head(const FeedParams& p, const Frame& background, std::int64_t index) {
  Frame f = background;
  const double t = static_cast<double>(index) / p.fps;
  const double cx = p.width / 2.0 + 1.5 * std::sin(2.0 * std::numbers::pi * 0.25 * t);
  const double head_cy = p.height * 0.38 + 1.0 * std::sin(2.0 * std::numbers::pi * 0.4 * t);
  const double head_r = p.height * 0.16;
  oracle_fill_ellipse(f, cx, p.height * 0.85, p.width * 0.22, p.height * 0.30, 60);
  oracle_fill_ellipse(f, cx, head_cy, head_r * 0.8, head_r, 180);
  const bool blink = std::fmod(t, 4.0) < 0.15;
  if (!blink) {
    oracle_fill_ellipse(f, cx - head_r * 0.35, head_cy - head_r * 0.2, head_r * 0.1,
                        head_r * 0.07, 30);
    oracle_fill_ellipse(f, cx + head_r * 0.35, head_cy - head_r * 0.2, head_r * 0.1,
                        head_r * 0.07, 30);
  }
  const double mouth_open = 0.5 + 0.5 * std::sin(2.0 * std::numbers::pi * 3.0 * t);
  oracle_fill_ellipse(f, cx, head_cy + head_r * 0.5, head_r * 0.3,
                      head_r * (0.05 + 0.12 * mouth_open), 40);
  const double phase = std::fmod(t, 7.0);
  if (phase < 1.0) {
    const double lift = std::sin(std::numbers::pi * phase);
    oracle_fill_ellipse(f, cx + p.width * 0.25, p.height * (0.8 - 0.25 * lift), p.width * 0.05,
                        p.height * 0.06, 170);
  }
  apply_sensor_noise(f, p.seed, index, p.sensor_noise_sigma);
  return f;
}

// The camera's vertical pan at frame `index`, as the tour guide computes it.
double tour_pan_y(const FeedParams& p, std::int64_t index) {
  const double t = static_cast<double>(index) / p.fps;
  return 12.0 * std::sin(2.0 * std::numbers::pi * 0.3 * t);
}

Frame oracle_tour_guide(const FeedParams& p, std::int64_t index) {
  constexpr double kScenePeriod = 5.0;
  Frame f{p.width, p.height};
  const double t = static_cast<double>(index) / p.fps;
  const auto scene = static_cast<std::uint64_t>(t / kScenePeriod);
  const std::uint64_t scene_seed = p.seed ^ (scene * 0x9E3779B97F4A7C15ULL + 17);
  const double pan_x = 85.0 * t;
  const double pan_y = 12.0 * std::sin(2.0 * std::numbers::pi * 0.3 * t);
  for (int y = 0; y < p.height; ++y) {
    for (int x = 0; x < p.width; ++x) {
      const double v = fractal_noise(scene_seed, x + pan_x, y + pan_y, 9.0);
      f.set(x, y, static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
  Rng obj_rng{scene_seed ^ 0x5151};
  for (int i = 0; i < 8; ++i) {
    const double speed = obj_rng.uniform(30.0, 90.0) * (obj_rng.chance(0.5) ? 1.0 : -1.0);
    const double y0 = obj_rng.uniform(0.2, 0.9) * p.height;
    const double r = obj_rng.uniform(0.03, 0.08) * p.height;
    const double scene_t = t - static_cast<double>(scene) * kScenePeriod;
    double x0 = obj_rng.uniform(0.0, 1.0) * p.width + speed * scene_t;
    x0 = std::fmod(std::fmod(x0, p.width) + p.width, p.width);
    const auto luma = static_cast<std::uint8_t>(obj_rng.uniform_int(20, 235));
    oracle_fill_ellipse(f, x0, y0, r * 1.5, r, luma);
  }
  apply_sensor_noise(f, p.seed, index, p.sensor_noise_sigma);
  return f;
}

Frame oracle_flash_image(const FeedParams& p) {
  Frame flash{p.width, p.height};
  for (int y = 0; y < p.height; ++y) {
    for (int x = 0; x < p.width; ++x) {
      const bool check = ((x / 12) + (y / 12)) % 2 == 0;
      const double texture = 0.5 * value_noise(p.seed ^ 0xF1A5, x, y, 5.0);
      const double v = (check ? 200.0 : 60.0) + texture - 64.0;
      flash.set(x, y, static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
  return flash;
}

Frame oracle_padded(const Frame& inner, int pad, std::uint8_t pad_luma) {
  Frame out{inner.width() + 2 * pad, inner.height() + 2 * pad, pad_luma};
  for (int y = 0; y < inner.height(); ++y) {
    for (int x = 0; x < inner.width(); ++x) out.set(x + pad, y + pad, inner.at(x, y));
  }
  return out;
}

bool same_bytes(const Frame& a, const Frame& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

std::uint64_t fnv1a(const Frame& f) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < f.size(); ++i) h = (h ^ f.data()[i]) * 1099511628211ULL;
  return h;
}

// The grid: seeds (including all-ones), sizes from a single pixel up to a
// width that is not a multiple of any cell size, non-integer and integer
// frame rates, no/default/strong sensor noise, and frame indices that
// straddle the tour guide's 5 s scene changes at 10 fps (49/50/51, 149/150)
// plus one far into a session.
constexpr std::uint64_t kSeeds[] = {1, 17, 0xF00D, 0x0123456789ABCDEFULL, ~0ULL};
constexpr int kSizes[][2] = {{1, 1}, {2, 3}, {17, 17}, {64, 48}, {160, 120}, {333, 77}};
constexpr double kFps[] = {7.3, 10.0, 15.0, 30.0};
constexpr double kSigmas[] = {0.0, 2.0, 5.5};
constexpr std::int64_t kIndices[] = {0, 1, 49, 50, 51, 149, 150, 123457};

template <typename Visit>
void for_each_feed_params(Visit visit) {
  int combo = 0;
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& size : kSizes) {
      for (const double fps : kFps) {
        const double sigma = kSigmas[combo++ % 3];
        visit(FeedParams{size[0], size[1], fps, seed, sigma});
      }
    }
  }
}

std::string describe(const FeedParams& p) {
  return ::testing::PrintToString(p.width) + "x" + ::testing::PrintToString(p.height) +
         " fps " + ::testing::PrintToString(p.fps) + " seed " +
         ::testing::PrintToString(p.seed) + " sigma " +
         ::testing::PrintToString(p.sensor_noise_sigma);
}

TEST(FeedOracle, TourGuideMatchesPerPixelRendererByteForByte) {
  int frames = 0;
  int negative_rows = 0;
  for_each_feed_params([&](const FeedParams& p) {
    const TourGuideFeed feed{p};
    for (const std::int64_t index : kIndices) {
      SCOPED_TRACE(describe(p) + " frame " + ::testing::PrintToString(index));
      EXPECT_TRUE(same_bytes(feed.frame_at(index), oracle_tour_guide(p, index)));
      ++frames;
      if (tour_pan_y(p, index) < 0.0) ++negative_rows;  // row 0 samples y + pan_y < 0
    }
  });
  EXPECT_EQ(frames, 5 * 6 * 4 * 8);
  EXPECT_GT(negative_rows, 100);
}

TEST(FeedOracle, TalkingHeadMatchesPerPixelRendererByteForByte) {
  for_each_feed_params([&](const FeedParams& p) {
    const TalkingHeadFeed feed{p};
    const Frame background = oracle_talking_head_background(p);
    for (const std::int64_t index : kIndices) {
      SCOPED_TRACE(describe(p) + " frame " + ::testing::PrintToString(index));
      EXPECT_TRUE(same_bytes(feed.frame_at(index), oracle_talking_head(p, background, index)));
    }
  });
}

TEST(FeedOracle, FlashImageMatchesPerPixelRendererByteForByte) {
  for_each_feed_params([&](const FeedParams& p) {
    const FlashFeed feed{p};
    SCOPED_TRACE(describe(p));
    EXPECT_TRUE(same_bytes(feed.frame_at(0), oracle_flash_image(p)));
  });
}

TEST(FeedOracle, PaddedFeedMatchesPerPixelCopy) {
  for (const int pad : {0, 1, 7, 20}) {
    const FeedParams p{37, 23, 10.0, 5, 2.0};
    const auto tour = std::make_shared<TourGuideFeed>(p);
    const auto head = std::make_shared<TalkingHeadFeed>(p);
    const PaddedFeed padded_tour{tour, pad, 16};
    const PaddedFeed padded_head{head, pad, 200};
    for (const std::int64_t index : kIndices) {
      SCOPED_TRACE("pad " + ::testing::PrintToString(pad) + " frame " +
                   ::testing::PrintToString(index));
      EXPECT_TRUE(same_bytes(padded_tour.frame_at(index),
                             oracle_padded(oracle_tour_guide(p, index), pad, 16)));
      EXPECT_TRUE(same_bytes(padded_head.frame_at(index),
                             oracle_padded(head->frame_at(index), pad, 200)));
    }
  }
}

// FNV-1a over the pixels of the QoE benchmark's geometry (256×192, 10 fps,
// default sensor noise), recorded from the per-pixel renderers: the first
// frame, the frame before and at the first scene change, and a talking-head
// frame with the hand raised.
TEST(FeedOracle, QoeGeometryFramesMatchRecordedDigests) {
  const FeedParams p{256, 192, 10.0, 1};
  const TourGuideFeed tour{p};
  const TalkingHeadFeed head{p};
  EXPECT_EQ(fnv1a(tour.frame_at(0)), 0xe9eda972e94f9f6cULL);
  EXPECT_EQ(fnv1a(tour.frame_at(49)), 0x16fbaae1a1a1b793ULL);
  EXPECT_EQ(fnv1a(tour.frame_at(50)), 0x892863be2258a982ULL);
  EXPECT_EQ(fnv1a(head.frame_at(0)), 0xc35cf450ab6f97f7ULL);
  EXPECT_EQ(fnv1a(head.frame_at(73)), 0xee920bc840981c78ULL);
}

}  // namespace
}  // namespace vc::media
