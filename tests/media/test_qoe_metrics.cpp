#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/qoe_benchmark.h"
#include "media/align.h"
#include "media/audio.h"
#include "media/feeds.h"
#include "media/qoe/mos_lqo.h"
#include "media/qoe/video_metrics.h"

namespace vc::media {
namespace {

Frame noisy(const Frame& f, double sigma, std::uint64_t seed) {
  Rng rng{seed};
  Frame out = f;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = out.data()[i] + rng.normal(0.0, sigma);
    out.data()[i] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
  }
  return out;
}

Frame test_image(std::uint64_t seed = 3) {
  return TourGuideFeed{{128, 96, 10.0, seed}}.frame_at(0);
}

TEST(Psnr, IdenticalHitsCap) {
  const Frame f = test_image();
  EXPECT_DOUBLE_EQ(qoe::psnr(f, f), 100.0);
}

TEST(Psnr, KnownValueForUniformError) {
  Frame a{64, 64, 100};
  Frame b{64, 64, 110};
  // MSE = 100 → PSNR = 10 log10(255² / 100) ≈ 28.13 dB.
  EXPECT_NEAR(qoe::psnr(a, b), 28.13, 0.01);
}

TEST(Psnr, MonotoneInNoise) {
  const Frame f = test_image();
  EXPECT_GT(qoe::psnr(f, noisy(f, 2, 1)), qoe::psnr(f, noisy(f, 10, 1)));
}

TEST(Ssim, IdenticalIsOne) {
  const Frame f = test_image();
  EXPECT_NEAR(qoe::ssim(f, f), 1.0, 1e-9);
}

TEST(Ssim, MonotoneInNoise) {
  const Frame f = test_image();
  const double s_light = qoe::ssim(f, noisy(f, 3, 2));
  const double s_heavy = qoe::ssim(f, noisy(f, 20, 2));
  EXPECT_GT(s_light, s_heavy);
  EXPECT_GT(s_light, 0.8);
  EXPECT_LT(s_heavy, 0.75);
}

TEST(Ssim, UnrelatedImagesScoreLow) {
  const Frame a = test_image(1);
  const Frame b = test_image(99);
  // Two tour frames share texture *statistics* but not structure: SSIM must
  // land far below the ~0.9+ of a faithful transmission.
  EXPECT_LT(qoe::ssim(a, b), 0.55);
}

TEST(Vifp, IdenticalIsOne) {
  const Frame f = test_image();
  EXPECT_NEAR(qoe::vifp(f, f), 1.0, 1e-6);
}

TEST(Vifp, MonotoneInNoise) {
  const Frame f = test_image();
  const double v_light = qoe::vifp(f, noisy(f, 3, 4));
  const double v_heavy = qoe::vifp(f, noisy(f, 20, 4));
  EXPECT_GT(v_light, v_heavy);
  EXPECT_GT(v_heavy, 0.0);
}

TEST(Vifp, BlurReducesInformation) {
  const Frame f = test_image();
  // Box-blur the image: structural information lost → VIFp well below 1.
  Frame blurred = f;
  for (int y = 1; y < f.height() - 1; ++y) {
    for (int x = 1; x < f.width() - 1; ++x) {
      int acc = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) acc += f.at(x + dx, y + dy);
      }
      blurred.set(x, y, static_cast<std::uint8_t>(acc / 9));
    }
  }
  // A 3×3 box blur removes fine-scale information; VIFp must drop below the
  // identity score (it weighs coarse scales heavily, so the drop is modest).
  EXPECT_LT(qoe::vifp(f, blurred), 0.95);
  EXPECT_GT(qoe::vifp(f, blurred), 0.3);
}

TEST(VideoQoe, BundleMatchesIndividuals) {
  const Frame f = test_image();
  const Frame g = noisy(f, 5, 6);
  const auto q = qoe::video_qoe(f, g);
  EXPECT_DOUBLE_EQ(q.psnr, qoe::psnr(f, g));
  EXPECT_DOUBLE_EQ(q.ssim, qoe::ssim(f, g));
  EXPECT_DOUBLE_EQ(q.vifp, qoe::vifp(f, g));
}

TEST(VideoQoe, MeanOverSequence) {
  std::vector<Frame> ref;
  std::vector<Frame> dist;
  for (int i = 0; i < 4; ++i) {
    ref.push_back(test_image(static_cast<std::uint64_t>(i)));
    dist.push_back(noisy(ref.back(), 5, static_cast<std::uint64_t>(i)));
  }
  const auto q = qoe::mean_video_qoe(ref, dist);
  EXPECT_GT(q.psnr, 20.0);
  EXPECT_LT(q.psnr, 100.0);
  EXPECT_THROW(qoe::mean_video_qoe({}, {}), std::invalid_argument);
}

TEST(MetricInputs, SizeMismatchThrows) {
  Frame a{64, 64};
  Frame b{32, 32};
  EXPECT_THROW(qoe::psnr(a, b), std::invalid_argument);
  EXPECT_THROW(qoe::ssim(a, b), std::invalid_argument);
  EXPECT_THROW(qoe::vifp(a, b), std::invalid_argument);
}

TEST(Vifp, FrameSmallerThanWindowThrows) {
  // The first scale's 17-tap window does not fit: there is nothing to score,
  // which must not read as a perfect 1.0.
  const Frame a = test_image(1);
  const Frame b = test_image(99);
  for (const auto& [w, h] : {std::pair{16, 16}, std::pair{64, 16}, std::pair{16, 64}}) {
    EXPECT_THROW(qoe::vifp(a.crop(0, 0, w, h), b.crop(0, 0, w, h)), std::invalid_argument);
  }
  EXPECT_NO_THROW(qoe::vifp(a.crop(0, 0, 17, 17), b.crop(0, 0, 17, 17)));
}

// ------------------------------------------------- bit-exactness oracle
//
// The scalar SSIM and VIFp kernels as they were before the integer
// sliding-window SSIM and the lane-parallel VIFp filters replaced them. The
// optimised kernels must return the same bits, not merely close values.

double reference_ssim(const Frame& reference, const Frame& distorted) {
  constexpr int kWin = 8;
  constexpr double kC1 = (0.01 * 255) * (0.01 * 255);
  constexpr double kC2 = (0.03 * 255) * (0.03 * 255);
  const int w = reference.width();
  const int h = reference.height();
  double total = 0.0;
  std::int64_t windows = 0;
  for (int y0 = 0; y0 + kWin <= h; y0 += 2) {
    for (int x0 = 0; x0 + kWin <= w; x0 += 2) {
      double sum_a = 0, sum_b = 0, sum_aa = 0, sum_bb = 0, sum_ab = 0;
      for (int y = 0; y < kWin; ++y) {
        for (int x = 0; x < kWin; ++x) {
          const double a = reference.at(x0 + x, y0 + y);
          const double b = distorted.at(x0 + x, y0 + y);
          sum_a += a;
          sum_b += b;
          sum_aa += a * a;
          sum_bb += b * b;
          sum_ab += a * b;
        }
      }
      constexpr double kN = kWin * kWin;
      const double mu_a = sum_a / kN;
      const double mu_b = sum_b / kN;
      const double var_a = sum_aa / kN - mu_a * mu_a;
      const double var_b = sum_bb / kN - mu_b * mu_b;
      const double cov = sum_ab / kN - mu_a * mu_b;
      const double s = ((2 * mu_a * mu_b + kC1) * (2 * cov + kC2)) /
                       ((mu_a * mu_a + mu_b * mu_b + kC1) * (var_a + var_b + kC2));
      total += s;
      ++windows;
    }
  }
  return windows > 0 ? total / static_cast<double>(windows) : 0.0;
}

struct RefImage {
  int w = 0;
  int h = 0;
  std::vector<double> px;

  RefImage() = default;
  RefImage(int w_, int h_) : w(w_), h(h_), px(static_cast<std::size_t>(w_) * h_, 0.0) {}
  explicit RefImage(const Frame& f) : RefImage(f.width(), f.height()) {
    for (std::size_t i = 0; i < px.size(); ++i) px[i] = static_cast<double>(f.data()[i]);
  }
  double at(int x, int y) const { return px[static_cast<std::size_t>(y) * w + x]; }
  double& at(int x, int y) { return px[static_cast<std::size_t>(y) * w + x]; }
};

RefImage ref_multiply(const RefImage& a, const RefImage& b) {
  RefImage out{a.w, a.h};
  for (std::size_t i = 0; i < out.px.size(); ++i) out.px[i] = a.px[i] * b.px[i];
  return out;
}

std::vector<double> ref_gaussian_kernel(int n, double sd) {
  std::vector<double> k(static_cast<std::size_t>(n));
  const int c = n / 2;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = i - c;
    k[static_cast<std::size_t>(i)] = std::exp(-d * d / (2.0 * sd * sd));
    sum += k[static_cast<std::size_t>(i)];
  }
  for (auto& v : k) v /= sum;
  return k;
}

RefImage ref_filter_valid(const RefImage& in, const std::vector<double>& k) {
  const int n = static_cast<int>(k.size());
  const int ow = in.w - n + 1;
  const int oh = in.h - n + 1;
  if (ow <= 0 || oh <= 0) return RefImage{};
  RefImage tmp{ow, in.h};
  for (int y = 0; y < in.h; ++y) {
    for (int x = 0; x < ow; ++x) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += k[static_cast<std::size_t>(i)] * in.at(x + i, y);
      tmp.at(x, y) = acc;
    }
  }
  RefImage out{ow, oh};
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += k[static_cast<std::size_t>(i)] * tmp.at(x, y + i);
      out.at(x, y) = acc;
    }
  }
  return out;
}

RefImage ref_downsample2(const RefImage& in) {
  RefImage out{(in.w + 1) / 2, (in.h + 1) / 2};
  for (int y = 0; y < out.h; ++y) {
    for (int x = 0; x < out.w; ++x) out.at(x, y) = in.at(x * 2, y * 2);
  }
  return out;
}

double reference_vifp(const Frame& reference, const Frame& distorted) {
  constexpr double kSigmaNsq = 2.0;
  RefImage ref{reference};
  RefImage dist{distorted};
  double num = 0.0;
  double den = 0.0;
  for (int scale = 1; scale <= 4; ++scale) {
    const int n = (1 << (4 - scale + 1)) + 1;
    const auto kernel = ref_gaussian_kernel(n, static_cast<double>(n) / 5.0);
    if (scale > 1) {
      ref = ref_downsample2(ref_filter_valid(ref, kernel));
      dist = ref_downsample2(ref_filter_valid(dist, kernel));
      if (ref.w < n || ref.h < n) break;
    }
    const RefImage mu1 = ref_filter_valid(ref, kernel);
    const RefImage mu2 = ref_filter_valid(dist, kernel);
    const RefImage rr = ref_filter_valid(ref_multiply(ref, ref), kernel);
    const RefImage dd = ref_filter_valid(ref_multiply(dist, dist), kernel);
    const RefImage rd = ref_filter_valid(ref_multiply(ref, dist), kernel);
    for (std::size_t i = 0; i < mu1.px.size(); ++i) {
      const double m1 = mu1.px[i];
      const double m2 = mu2.px[i];
      double sigma1_sq = rr.px[i] - m1 * m1;
      double sigma2_sq = dd.px[i] - m2 * m2;
      double sigma12 = rd.px[i] - m1 * m2;
      sigma1_sq = std::max(sigma1_sq, 0.0);
      sigma2_sq = std::max(sigma2_sq, 0.0);
      double g = sigma12 / (sigma1_sq + 1e-10);
      double sv_sq = sigma2_sq - g * sigma12;
      if (sigma1_sq < 1e-10) {
        g = 0.0;
        sv_sq = sigma2_sq;
        sigma1_sq = 0.0;
      }
      if (sigma2_sq < 1e-10) {
        g = 0.0;
        sv_sq = 0.0;
      }
      if (g < 0.0) {
        sv_sq = sigma2_sq;
        g = 0.0;
      }
      sv_sq = std::max(sv_sq, 1e-10);
      num += std::log10(1.0 + g * g * sigma1_sq / (sv_sq + kSigmaNsq));
      den += std::log10(1.0 + sigma1_sq / kSigmaNsq);
    }
  }
  if (den <= 1e-12) return 1.0;
  return std::clamp(num / den, 0.0, 1.0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof v);
  return u;
}

enum class Content { kUniform, kNearCopy, kCheckerboard, kNearConstant };

// A random frame pair of the given content class: independent uniform noise;
// a copy with a few pixels nudged; 0/255 checkerboards (the largest window
// sums) with a random phase each; or flat grey with sparse ±1 pixels (the
// sigma < 1e-10 branches of VIFp and SSIM's smallest variances).
std::pair<Frame, Frame> random_pair(Rng& rng, int w, int h, Content content) {
  Frame a{w, h};
  Frame b{w, h};
  const auto byte = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint8_t>(rng.uniform_int(lo, hi));
  };
  switch (content) {
    case Content::kUniform:
      for (std::size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = byte(0, 255);
        b.data()[i] = byte(0, 255);
      }
      break;
    case Content::kNearCopy:
      for (std::size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = byte(0, 255);
        const int nudge = rng.uniform_int(0, 9) == 0 ? static_cast<int>(rng.uniform_int(-3, 3)) : 0;
        b.data()[i] = static_cast<std::uint8_t>(std::clamp(a.data()[i] + nudge, 0, 255));
      }
      break;
    case Content::kCheckerboard: {
      const int pa = static_cast<int>(rng.uniform_int(0, 1));
      const int pb = static_cast<int>(rng.uniform_int(0, 1));
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          a.set(x, y, ((x + y + pa) & 1) != 0 ? 255 : 0);
          b.set(x, y, ((x + y + pb) & 1) != 0 ? 255 : 0);
        }
      }
      break;
    }
    case Content::kNearConstant: {
      const std::uint8_t base = byte(1, 254);
      for (std::size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = base;
        b.data()[i] = rng.uniform_int(0, 49) == 0 ? byte(base - 1, base + 1) : base;
      }
      break;
    }
  }
  return {std::move(a), std::move(b)};
}

TEST(QoeOracle, RandomPairsMatchScalarReferenceBitForBit) {
  Rng rng{0x5515};
  constexpr Content kContents[] = {Content::kUniform, Content::kNearCopy, Content::kCheckerboard,
                                   Content::kNearConstant};
  int compared = 0;
  for (int rep = 0; rep < 500; ++rep) {
    const Content content = kContents[rep % 4];
    // SSIM needs 8×8 and VIFp 17×17; most sizes are odd or not multiples of 8.
    const int w = static_cast<int>(rng.uniform_int(8, 127));
    const int h = static_cast<int>(rng.uniform_int(8, 107));
    const auto [a, b] = random_pair(rng, w, h, content);
    SCOPED_TRACE(::testing::Message() << "rep " << rep << " " << w << "x" << h << " content "
                                      << static_cast<int>(content));
    EXPECT_PRED2(same_bits, qoe::ssim(a, b), reference_ssim(a, b));
    EXPECT_PRED2(same_bits, qoe::ssim(b, a), reference_ssim(b, a));
    if (w >= 17 && h >= 17) {
      EXPECT_PRED2(same_bits, qoe::vifp(a, b), reference_vifp(a, b));
      ++compared;
    }
  }
  EXPECT_GT(compared, 300);
}

TEST(QoeOracle, FeedFramesMatchScalarReferenceBitForBit) {
  // Real feed content at the QoE benchmark's geometry, against a noisy copy
  // and against itself.
  const FeedParams p{256, 192, 10.0, 17};
  const TourGuideFeed tour{p};
  const TalkingHeadFeed head{p};
  for (int i = 0; i < 3; ++i) {
    for (const Frame& f : {tour.frame_at(i), head.frame_at(i)}) {
      const Frame g = noisy(f, 6, static_cast<std::uint64_t>(i));
      EXPECT_PRED2(same_bits, qoe::ssim(f, g), reference_ssim(f, g));
      EXPECT_PRED2(same_bits, qoe::vifp(f, g), reference_vifp(f, g));
      EXPECT_PRED2(same_bits, qoe::vifp(f, f), reference_vifp(f, f));
    }
  }
}

// mean_video_qoe reuses one set of VIFp planes for every pair of a sequence.
// Pair sizes that grow, shrink and grow again must not leak one pair's planes
// into the next: every prefix mean equals the same sum of the allocating
// reference scores, bit for bit.
TEST(QoeOracle, SequenceScratchMatchesAllocatingVifpBitForBit) {
  Rng rng{0x5eed};
  const TourGuideFeed tour{{256, 192, 10.0, 23}};
  std::vector<Frame> reference;
  std::vector<Frame> distorted;
  const auto add_feed_pair = [&](int index) {
    reference.push_back(tour.frame_at(index));
    distorted.push_back(noisy(reference.back(), 5, static_cast<std::uint64_t>(index)));
  };
  const auto add_random_pair = [&](int w, int h, Content content) {
    auto [a, b] = random_pair(rng, w, h, content);
    reference.push_back(std::move(a));
    distorted.push_back(std::move(b));
  };
  add_feed_pair(0);
  add_random_pair(17, 17, Content::kUniform);
  add_random_pair(18, 18, Content::kNearCopy);
  add_random_pair(64, 48, Content::kNearConstant);
  add_feed_pair(51);

  double psnr_sum = 0.0;
  double ssim_sum = 0.0;
  double vifp_sum = 0.0;
  for (std::size_t k = 0; k < reference.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "pair " << k << " " << reference[k].width() << "x"
                                      << reference[k].height());
    const double expected = reference_vifp(reference[k], distorted[k]);
    EXPECT_EQ(bits_of(qoe::vifp(reference[k], distorted[k])), bits_of(expected));
    psnr_sum += qoe::psnr(reference[k], distorted[k]);
    ssim_sum += reference_ssim(reference[k], distorted[k]);
    vifp_sum += expected;
    const std::vector<Frame> ref_prefix(reference.begin(), reference.begin() + k + 1);
    const std::vector<Frame> dist_prefix(distorted.begin(), distorted.begin() + k + 1);
    const qoe::VideoQoe mean = qoe::mean_video_qoe(ref_prefix, dist_prefix);
    const auto n = static_cast<double>(k + 1);
    EXPECT_EQ(bits_of(mean.psnr), bits_of(psnr_sum / n));
    EXPECT_EQ(bits_of(mean.ssim), bits_of(ssim_sum / n));
    EXPECT_EQ(bits_of(mean.vifp), bits_of(vifp_sum / n));
  }
}

TEST(QoeOracle, SessionScoresPinned) {
  // One short Zoom high-motion session: the recorded scores' bit patterns
  // (PSNR 29.860424564646472 dB, SSIM 0.91900041163666413, VIFp
  // 0.51362061064678588), taken from the scalar kernels before the optimised
  // ones replaced them.
  core::QoeBenchmarkConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.motion = platform::MotionClass::kHighMotion;
  cfg.receiver_sites = {"US-West"};
  cfg.media_duration = seconds(3);
  const auto r = core::run_qoe_session(cfg, 11);
  ASSERT_EQ(r.receivers.size(), 1u);
  ASSERT_TRUE(r.receivers[0].has_video_qoe);
  EXPECT_EQ(bits_of(r.receivers[0].psnr), 0x403ddc44c8c5d4e6ULL);
  EXPECT_EQ(bits_of(r.receivers[0].ssim), 0x3fed68738d1fae2aULL);
  EXPECT_EQ(bits_of(r.receivers[0].vifp), 0x3fe06f947da8f19fULL);
}

// ---------------------------------------------------------------- audio MOS

TEST(MosLqo, IdenticalNearCeiling) {
  const auto v = synthesize_voice(2.0, 31);
  EXPECT_GT(qoe::mos_lqo(v, v), 4.5);
}

TEST(MosLqo, NoiseDegrades) {
  auto v = synthesize_voice(2.0, 33);
  normalize_loudness(v);
  AudioSignal noisy_sig = v;
  Rng rng{5};
  for (auto& s : noisy_sig.samples) s += static_cast<float>(rng.normal(0.0, 0.08));
  const double clean = qoe::mos_lqo(v, v);
  const double degraded = qoe::mos_lqo(v, noisy_sig);
  EXPECT_LT(degraded, clean - 0.4);
}

TEST(MosLqo, DropoutsDegrade) {
  auto v = synthesize_voice(3.0, 35);
  normalize_loudness(v);
  AudioSignal gappy = v;
  // Zero out 100 ms every 500 ms (the Webex-under-cap artifact).
  const std::size_t gap = 1600;
  for (std::size_t start = 4000; start + gap < gappy.samples.size(); start += 8000) {
    for (std::size_t i = 0; i < gap; ++i) gappy.samples[start + i] = 0.0F;
  }
  EXPECT_LT(qoe::mos_lqo(v, gappy), qoe::mos_lqo(v, v) - 0.3);
}

TEST(MosLqo, SilenceScoresNearFloor) {
  auto v = synthesize_voice(2.0, 37);
  normalize_loudness(v);
  AudioSignal silence = v;
  for (auto& s : silence.samples) s = 0.0F;
  EXPECT_LT(qoe::mos_lqo(v, silence), 2.5);
}

TEST(MosLqo, MapMonotone) {
  double prev = 0.0;
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    const double mos = qoe::nsim_to_mos(s);
    EXPECT_GE(mos, prev);
    EXPECT_GE(mos, 1.0);
    EXPECT_LE(mos, 5.0);
    prev = mos;
  }
}

// ------------------------------------------------------------------ alignment

TEST(Align, CropAndResize) {
  RecordedVideo rec;
  rec.fps = 10;
  auto inner = std::make_shared<TalkingHeadFeed>(FeedParams{64, 48, 10.0, 8});
  const PaddedFeed padded{inner, 8};
  for (int i = 0; i < 3; ++i) rec.frames.push_back(padded.frame_at(i));
  const auto out = crop_and_resize(rec, 8, 64, 48);
  ASSERT_EQ(out.frames.size(), 3u);
  EXPECT_EQ(out.frames[0], inner->frame_at(0));
  EXPECT_THROW(crop_and_resize(out, 40, 10, 10), std::invalid_argument);
}

TEST(Align, RecoversTemporalShift) {
  TourGuideFeed feed{{64, 48, 10.0, 9}};
  std::vector<Frame> reference;
  std::vector<Frame> recording;
  const int shift = 4;
  for (int i = 0; i < 30; ++i) reference.push_back(feed.frame_at(i));
  // Recording lags by `shift` frames (plus leading garbage frames).
  for (int i = 0; i < shift; ++i) recording.emplace_back(64, 48, 12);
  for (int i = 0; i < 26; ++i) recording.push_back(feed.frame_at(i));
  EXPECT_EQ(best_temporal_shift(reference, recording, 8), shift);
  const auto aligned = align_sequences(reference, recording, shift);
  EXPECT_EQ(aligned.reference.size(), aligned.recording.size());
  EXPECT_EQ(aligned.reference[0], aligned.recording[0]);
}

TEST(Align, NonPositiveProbeFramesThrows) {
  const std::vector<Frame> seq(4, Frame{16, 16, 1});
  EXPECT_THROW(best_temporal_shift(seq, seq, 2, 0), std::invalid_argument);
  EXPECT_THROW(best_temporal_shift(seq, seq, 2, -1), std::invalid_argument);
  EXPECT_EQ(best_temporal_shift(seq, seq, 2, 1), 0);
}

TEST(Align, SequenceTruncation) {
  std::vector<Frame> ref(10, Frame{16, 16, 1});
  std::vector<Frame> rec(7, Frame{16, 16, 1});
  const auto aligned = align_sequences(ref, rec, 2);
  EXPECT_EQ(aligned.reference.size(), 5u);
  EXPECT_THROW(align_sequences(ref, rec, 7), std::invalid_argument);
  EXPECT_THROW(align_sequences(ref, rec, -1), std::invalid_argument);
}

}  // namespace
}  // namespace vc::media
