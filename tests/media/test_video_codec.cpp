#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "media/feeds.h"
#include "media/qoe/video_metrics.h"
#include "media/video_codec.h"

namespace vc::media {
namespace {

constexpr int kW = 128;
constexpr int kH = 96;

VideoEncoder::Config cfg(double kbps, double fps = 10.0) {
  VideoEncoder::Config c;
  c.target_bitrate = DataRate::kbps(kbps);
  c.fps = fps;
  return c;
}

TEST(VideoCodec, RejectsNonMultipleOf8) {
  EXPECT_THROW((VideoEncoder{100, 96, cfg(500)}), std::invalid_argument);
  EXPECT_THROW((VideoDecoder{128, 90}), std::invalid_argument);
}

TEST(VideoCodec, RejectsBadQstepBounds) {
  // A zero step quantises a zero coefficient as 0/0; the bounds must keep
  // every step positive and finite.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [lo, hi] : {std::pair{0.0, 160.0}, std::pair{-1.0, 160.0}, std::pair{20.0, 10.0},
                               std::pair{nan, 160.0}, std::pair{0.1, nan}, std::pair{0.1, inf},
                               std::pair{inf, inf}}) {
    auto c = cfg(500);
    c.min_qstep = lo;
    c.max_qstep = hi;
    EXPECT_THROW((VideoEncoder{kW, kH, c}), std::invalid_argument) << lo << " " << hi;
  }
  auto c = cfg(500);
  c.min_qstep = 7.0;
  c.max_qstep = 7.0;
  EXPECT_NO_THROW((VideoEncoder{kW, kH, c}));
}

TEST(VideoCodec, StartingQstepObeysBounds) {
  // The encoder starts at qstep 10. With a zero target the rate control
  // never moves the step, so frame 0 is coded at the starting step itself:
  // bounds that exclude 10 must clamp it before the first frame.
  const Frame frame = TourGuideFeed{{kW, kH, 10.0, 3}}.frame_at(0);
  for (const double q : {40.0, 2.5}) {
    auto c = cfg(0);
    c.min_qstep = q;
    c.max_qstep = q;
    VideoEncoder enc{kW, kH, c};
    EXPECT_EQ(enc.current_qstep(), q);
    EXPECT_EQ(enc.encode(frame)->qstep, q);
    EXPECT_EQ(enc.current_qstep(), q);
  }
  // Bounds that include 10 leave the start where it was.
  auto c = cfg(500);
  c.min_qstep = 5.0;
  c.max_qstep = 20.0;
  EXPECT_EQ((VideoEncoder{kW, kH, c}.current_qstep()), 10.0);
}

TEST(VideoCodec, DecoderRejectsMissizedPayload) {
  // The right geometry with coefficients or modes that do not cover the
  // block grid must be refused, not read out of bounds.
  VideoDecoder dec{kW, kH};
  const std::size_t blocks = kW / 8 * kH / 8;
  EncodedFrame f;
  f.width = kW;
  f.height = kH;
  EXPECT_THROW(dec.decode(f), std::invalid_argument);
  f.modes.assign(blocks, BlockMode::kIntra);
  f.coeffs.assign(blocks * 64 - 1, 0);
  EXPECT_THROW(dec.decode(f), std::invalid_argument);
  f.coeffs.assign(blocks * 64, 0);
  f.modes.assign(blocks + 1, BlockMode::kIntra);
  EXPECT_THROW(dec.decode(f), std::invalid_argument);
  f.modes.assign(blocks, BlockMode::kIntra);
  EXPECT_NO_THROW(dec.decode(f));
  EXPECT_EQ(dec.frames_decoded(), 1);
}

TEST(VideoCodec, DecoderMatchesEncoderReconstruction) {
  // The closed loop: a lossless decoder must reproduce the encoder's own
  // reconstruction bit-exactly, frame after frame.
  TourGuideFeed feed{{kW, kH, 10.0, 3}};
  VideoEncoder enc{kW, kH, cfg(600)};
  VideoDecoder dec{kW, kH};
  for (int i = 0; i < 12; ++i) {
    const auto encoded = enc.encode(feed.frame_at(i));
    const Frame& decoded = dec.decode(*encoded);
    EXPECT_EQ(decoded, enc.last_reconstructed()) << "frame " << i;
  }
  EXPECT_EQ(dec.frames_decoded(), 12);
}

TEST(VideoCodec, FirstFrameIsKeyframe) {
  TalkingHeadFeed feed{{kW, kH, 10.0, 3}};
  VideoEncoder enc{kW, kH, cfg(600)};
  const auto f0 = enc.encode(feed.frame_at(0));
  EXPECT_TRUE(f0->keyframe);
  const auto f1 = enc.encode(feed.frame_at(1));
  EXPECT_FALSE(f1->keyframe);
}

TEST(VideoCodec, KeyframeInterval) {
  TalkingHeadFeed feed{{kW, kH, 10.0, 3}};
  auto c = cfg(600);
  c.keyframe_interval = 5;
  VideoEncoder enc{kW, kH, c};
  for (int i = 0; i < 11; ++i) {
    const auto f = enc.encode(feed.frame_at(i));
    EXPECT_EQ(f->keyframe, i % 5 == 0) << "frame " << i;
  }
}

TEST(VideoCodec, RateControlHitsTarget) {
  TourGuideFeed feed{{kW, kH, 10.0, 7}};
  const double target_kbps = 500;
  VideoEncoder enc{kW, kH, cfg(target_kbps)};
  std::int64_t bytes = 0;
  const int frames = 50;
  for (int i = 0; i < frames; ++i) bytes += enc.encode(feed.frame_at(i))->bytes;
  const double realized_kbps = static_cast<double>(bytes) * 8 / (frames / 10.0) / 1000.0;
  EXPECT_NEAR(realized_kbps, target_kbps, target_kbps * 0.35);
}

TEST(VideoCodec, HigherRateGivesHigherQuality) {
  TourGuideFeed feed{{kW, kH, 10.0, 7}};
  double psnr_low = 0;
  double psnr_high = 0;
  for (const double kbps : {150.0, 1500.0}) {
    VideoEncoder enc{kW, kH, cfg(kbps)};
    VideoDecoder dec{kW, kH};
    double acc = 0;
    for (int i = 0; i < 10; ++i) {
      const Frame original = feed.frame_at(i);
      dec.decode(*enc.encode(original));
      acc += qoe::psnr(original, dec.current());
    }
    (kbps < 1000 ? psnr_low : psnr_high) = acc / 10;
  }
  EXPECT_GT(psnr_high, psnr_low + 2.0);
}

TEST(VideoCodec, LowMotionCostsFewerBitsAtSameQuality) {
  // Finding 3's mechanism: with the same quantizer path, the static scene
  // compresses far better. Measured on noise-free content (sensor noise is
  // a property of the capture pipeline, not of the codec).
  TalkingHeadFeed low{{kW, kH, 10.0, 5, 0.0}};
  TourGuideFeed high{{kW, kH, 10.0, 5, 0.0}};
  auto total_bytes = [](const VideoFeed& feed) {
    VideoEncoder enc{kW, kH, cfg(100000)};  // effectively uncapped: qstep stays put
    std::int64_t bytes = 0;
    for (int i = 0; i < 15; ++i) bytes += enc.encode(feed.frame_at(i))->bytes;
    return bytes;
  };
  EXPECT_LT(total_bytes(low), total_bytes(high) / 2);
}

TEST(VideoCodec, StaticContentGoesQuietOnTheWire) {
  // After the first frames, a blank feed must cost almost nothing — the
  // premise of the paper's lag-measurement method (Fig 2).
  BlankFeed feed{{kW, kH, 10.0, 1}};
  VideoEncoder enc{kW, kH, cfg(600)};
  std::shared_ptr<const EncodedFrame> last;
  for (int i = 0; i < 5; ++i) last = enc.encode(feed.frame_at(i));
  EXPECT_LT(last->bytes, 200);
}

TEST(VideoCodec, FlashBurstsAreBig) {
  FlashFeed feed{{kW, kH, 10.0, 1}};
  VideoEncoder enc{kW, kH, cfg(600)};
  std::int64_t flash_bytes = 0;
  std::int64_t blank_bytes = 0;
  for (int i = 0; i < 40; ++i) {
    const auto f = enc.encode(feed.frame_at(i));
    if (i % 20 == 0) flash_bytes = f->bytes;     // first flash frame of a period
    if (i % 20 == 10) blank_bytes = f->bytes;    // mid-quiescence
  }
  EXPECT_GT(flash_bytes, 1000);
  EXPECT_LT(blank_bytes, 200);
}

TEST(VideoCodec, SetTargetBitrateAdapts) {
  TourGuideFeed feed{{kW, kH, 10.0, 9}};
  VideoEncoder enc{kW, kH, cfg(1200)};
  for (int i = 0; i < 10; ++i) enc.encode(feed.frame_at(i));
  const double q_before = enc.current_qstep();
  enc.set_target_bitrate(DataRate::kbps(120));
  for (int i = 10; i < 25; ++i) enc.encode(feed.frame_at(i));
  EXPECT_GT(enc.current_qstep(), q_before * 1.5);  // quantizer coarsened
}

TEST(VideoCodec, EncodedFrameMetadata) {
  TalkingHeadFeed feed{{kW, kH, 10.0, 3}};
  VideoEncoder enc{kW, kH, cfg(400)};
  const auto f = enc.encode(feed.frame_at(0));
  EXPECT_EQ(f->width, kW);
  EXPECT_EQ(f->height, kH);
  EXPECT_EQ(f->sequence, 0);
  EXPECT_EQ(f->coeffs.size(), static_cast<std::size_t>(kW / 8 * kH / 8 * 64));
  EXPECT_EQ(f->modes.size(), static_cast<std::size_t>(kW / 8 * kH / 8));
  EXPECT_GT(f->bytes, 0);
}

TEST(VideoCodec, MismatchedFrameSizeThrows) {
  VideoEncoder enc{kW, kH, cfg(400)};
  EXPECT_THROW(enc.encode(Frame{64, 64}), std::invalid_argument);
  VideoDecoder dec{kW, kH};
  EncodedFrame wrong;
  wrong.width = 64;
  wrong.height = 64;
  EXPECT_THROW(dec.decode(wrong), std::invalid_argument);
}

// FNV-1a over every field of an encoded sequence that reaches the wire or
// the decoder, plus the encoder's closed-loop reconstruction after each
// frame.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
};

std::uint64_t encode_digest(const VideoFeed& feed, int frames) {
  VideoEncoder enc{feed.width(), feed.height(), cfg(216, feed.fps())};
  Fnv1a d;
  for (int i = 0; i < frames; ++i) {
    const auto e = enc.encode(feed.frame_at(i));
    d.value(e->bytes);
    d.value(e->qstep);
    d.value(e->skip_blocks);
    d.bytes(e->coeffs.data(), e->coeffs.size() * sizeof(std::int16_t));
    d.bytes(e->modes.data(), e->modes.size() * sizeof(BlockMode));
    const Frame& r = enc.last_reconstructed();
    d.bytes(r.data(), r.size());
  }
  return d.h;
}

// Pins the encoder's output bit for bit. The flash stream uses the city
// host's geometry (160x120 at 10 fps) and its codec target (720 kbps x the
// client's 0.3 content fraction): 150 frames cross keyframes, flashes,
// post-flash settling and steady blank. The two camera feeds cover intra-,
// inter- and residual-heavy blocks. The constants were recorded on the
// encoder that decided block modes inside each pass, so they pin the
// shared per-frame decision to its output byte for byte.
TEST(VideoCodec, EncodeDigestPinned) {
  const FeedParams p{160, 120, 10.0, 0xF00D};
  EXPECT_EQ(encode_digest(FlashFeed{p}, 150), 0x5cb21a2d883056d3ULL);
  EXPECT_EQ(encode_digest(TalkingHeadFeed{p}, 60), 0x041feddcbc42d7b0ULL);
  EXPECT_EQ(encode_digest(TourGuideFeed{p}, 60), 0x734f88f04710ae4dULL);
}

// The plain scalar sum that sad_8x8 (SSE2 psadbw on x86) must equal exactly.
std::int32_t scalar_sad(const std::uint8_t* a, std::ptrdiff_t a_stride, const std::uint8_t* b,
                        std::ptrdiff_t b_stride) {
  std::int32_t sad = 0;
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      sad += std::abs(static_cast<int>(a[y * a_stride + x]) -
                      static_cast<int>(b[y * b_stride + x]));
    }
  }
  return sad;
}

TEST(Sad8x8, RandomBlocksMatchScalarSumAtAnyStride) {
  Rng rng{4242};
  std::vector<std::uint8_t> a(40 * 8), b(40 * 8);
  for (const std::ptrdiff_t stride : {8, 9, 13, 16, 40}) {
    for (int rep = 0; rep < 500; ++rep) {
      for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      // Mixed strides too: the encoder pairs a frame row with a stride-0 row.
      EXPECT_EQ(sad_8x8(a.data(), stride, b.data(), stride),
                scalar_sad(a.data(), stride, b.data(), stride));
      EXPECT_EQ(sad_8x8(a.data(), stride, b.data(), 0), scalar_sad(a.data(), stride, b.data(), 0));
      EXPECT_EQ(sad_8x8(a.data() + 1, stride, b.data() + 3, 8),
                scalar_sad(a.data() + 1, stride, b.data() + 3, 8));
    }
  }
}

TEST(Sad8x8, ExtremeBlocks) {
  const std::vector<std::uint8_t> zeros(64, 0), full(64, 255), grey(8, 128);
  EXPECT_EQ(sad_8x8(zeros.data(), 8, zeros.data(), 8), 0);
  EXPECT_EQ(sad_8x8(full.data(), 8, full.data(), 8), 0);
  EXPECT_EQ(sad_8x8(zeros.data(), 8, full.data(), 8), 64 * 255);
  EXPECT_EQ(sad_8x8(full.data(), 8, zeros.data(), 8), 64 * 255);
  EXPECT_EQ(sad_8x8(full.data(), 8, grey.data(), 0), 64 * 127);
  EXPECT_EQ(sad_8x8(zeros.data(), 8, grey.data(), 0), 64 * 128);
}

// ------------------------------------------------- bit-exactness oracle
//
// The scalar per-coefficient quantise and per-pixel reconstruct loops that
// quantise_8x8, dequantise_8x8 and reconstruct_8x8 replaced, with the step
// hoisted into a table. The kernels must return the same bits.

struct ReferenceBlock {
  std::int64_t bits = 0;
  bool all_zero = true;
};

ReferenceBlock reference_quantise(const double* coeffs, const double* steps, std::int16_t* q,
                                  double* deq) {
  ReferenceBlock res;
  for (int i = 0; i < 64; ++i) {
    const double c = coeffs[i] / steps[i];
    q[i] = static_cast<std::int16_t>(
        std::clamp(std::lround(c), static_cast<long>(INT16_MIN), static_cast<long>(INT16_MAX)));
    const int mag = q[i] < 0 ? -static_cast<int>(q[i]) : static_cast<int>(q[i]);
    if (mag != 0) {
      res.bits += 2 + static_cast<std::int64_t>(2.0 * std::log2(1.0 + static_cast<double>(mag)));
      res.all_zero = false;
    }
    deq[i] = static_cast<double>(q[i]) * steps[i];
  }
  return res;
}

void reference_reconstruct(const std::uint8_t* pred, std::ptrdiff_t pred_stride, const double* rec,
                           std::uint8_t* dst, std::ptrdiff_t dst_stride) {
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const double v = static_cast<double>(pred[y * pred_stride + x]) + rec[y * 8 + x];
      dst[y * dst_stride + x] = static_cast<std::uint8_t>(std::clamp(v + 0.5, 0.0, 255.0));
    }
  }
}

// Quantises one block both ways and compares q, the bit count, the
// all-zero flag and the dequantised values by memcmp.
void expect_quantise_matches(const double* coeffs, const double* steps) {
  std::int16_t q[64], ref_q[64];
  double deq[64], ref_deq[64];
  const QuantisedBlock got = quantise_8x8(coeffs, steps, q);
  dequantise_8x8(q, steps, deq);
  const ReferenceBlock want = reference_quantise(coeffs, steps, ref_q, ref_deq);
  ASSERT_EQ(std::memcmp(q, ref_q, sizeof q), 0) << "c[0]=" << coeffs[0] << " step " << steps[0];
  ASSERT_EQ(got.bits, want.bits);
  ASSERT_EQ(got.all_zero, want.all_zero);
  ASSERT_EQ(std::memcmp(deq, ref_deq, sizeof deq), 0);
}

TEST(CodecOracle, StepTableIsTheWeightedStep) {
  Rng rng{77};
  for (int rep = 0; rep < 1000; ++rep) {
    const double qstep = rng.uniform(0.1, 160.0);
    double steps[64];
    quant_steps_8x8(qstep, steps);
    for (int v = 0; v < 8; ++v) {
      for (int u = 0; u < 8; ++u) {
        const double want = qstep * (1.0 + 0.12 * (u + v));
        ASSERT_EQ(std::memcmp(&steps[v * 8 + u], &want, sizeof want), 0);
      }
    }
  }
}

TEST(CodecOracle, QuantiseAndReconstructMatchScalarBitForBit) {
  Rng rng{0xC0DEC};
  double coeffs[64], steps[64], unit[64];
  std::fill(std::begin(unit), std::end(unit), 1.0);
  const double kBig[] = {32767.0, 32767.5, 32768.0, 40000.25, 2147483647.0, 2147483648.5,
                         4294967296.0, 1e15, 4503599627370497.0, 4.6e18};
  for (int rep = 0; rep < 4000; ++rep) {
    // Coefficients of a real transform at a random qstep: residuals of
    // 8-bit pixels give |c| <= 2040.
    quant_steps_8x8(rng.uniform(0.1, 160.0), steps);
    for (double& c : coeffs) c = rng.uniform(-2040.0, 2040.0) * (rng.uniform(0.0, 1.0) < 0.5 ? 0.02 : 1.0);
    expect_quantise_matches(coeffs, steps);

    // Exact ties k ± 0.5 and their nextafter neighbours, with unit steps so
    // that c is the coefficient itself.
    for (double& c : coeffs) {
      const double k = static_cast<double>(rng.uniform_int(-40000, 40000));
      double v = k + (rng.uniform(0.0, 1.0) < 0.5 ? 0.5 : -0.5);
      const int nudge = static_cast<int>(rng.uniform_int(-1, 1));
      if (nudge != 0) v = std::nextafter(v, nudge * std::numeric_limits<double>::infinity());
      c = v;
    }
    expect_quantise_matches(coeffs, unit);

    // Saturation: beyond ±32768 and ±2^31, up to where lround is defined
    // (|c| < 2^63, so below 9.2e17 once divided by a step >= 0.1).
    for (double& c : coeffs) {
      c = kBig[rng.uniform_int(0, 9)] * (rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0);
    }
    expect_quantise_matches(coeffs, unit);
    for (double& c : coeffs) c = std::clamp(c, -9e17, 9e17);
    quant_steps_8x8(rng.uniform(0.1, 160.0), steps);
    expect_quantise_matches(coeffs, steps);
  }
  // Sub-ulp ties around zero and ±0.
  for (int i = 0; i < 64; ++i) {
    const double base[] = {0.0, -0.0, 0.5, -0.5, 0.49999999999999994, -0.49999999999999994,
                           1.5, -1.5, 2.5, -2.5, 4e-320, -4e-320};
    coeffs[i] = base[i % 12];
  }
  expect_quantise_matches(coeffs, unit);
  std::fill(std::begin(coeffs), std::end(coeffs), 0.0);
  expect_quantise_matches(coeffs, unit);

  // Reconstruction, with the predictor read at the frame's stride (inter)
  // or with stride 0 (the intra mid-grey row).
  constexpr int kWidth = 40;
  std::vector<std::uint8_t> pred(kWidth * 8), dst(kWidth * 8), ref_dst(kWidth * 8);
  double rec[64];
  for (int rep = 0; rep < 4000; ++rep) {
    for (auto& p : pred) p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (int i = 0; i < 64; ++i) {
      const int kind = static_cast<int>(rng.uniform_int(0, 3));
      const double p = pred[(i / 8) * kWidth + i % 8];
      if (kind == 0) rec[i] = rng.uniform(-300.0, 300.0);
      if (kind == 1) {
        // (p + rec) + 0.5 lands on an integer, or one ulp to either side.
        rec[i] = static_cast<double>(rng.uniform_int(-2, 257)) - p - 0.5;
        const int nudge = static_cast<int>(rng.uniform_int(-1, 1));
        if (nudge != 0) rec[i] = std::nextafter(rec[i], nudge * std::numeric_limits<double>::infinity());
      }
      if (kind == 2) rec[i] = static_cast<double>(rng.uniform_int(-1, 1)) * 1e300;
      if (kind == 3) rec[i] = rng.uniform(-1.0, 1.0) * 1e-300;
    }
    const int x0 = static_cast<int>(rng.uniform_int(0, kWidth - 8));
    for (const std::ptrdiff_t stride : {std::ptrdiff_t{kWidth}, std::ptrdiff_t{0}}) {
      std::fill(dst.begin(), dst.end(), 0);
      std::fill(ref_dst.begin(), ref_dst.end(), 0);
      reconstruct_8x8(pred.data() + x0, stride, rec, dst.data() + x0, kWidth);
      reference_reconstruct(pred.data() + x0, stride, rec, ref_dst.data() + x0, kWidth);
      ASSERT_EQ(dst, ref_dst) << "stride " << stride << " rep " << rep;
    }
  }
  // Sums a few ulps below an integer, where (p + rec) + 0.5 and
  // p + (rec + 0.5) round to different pixels: about one offset j per
  // predictor value, so every p is swept over a range of j.
  std::vector<std::pair<int, double>> cases;
  for (int p = 0; p < 256; ++p) {
    for (const double base : {-0.5, 0.5}) {
      const double ulp = 0.5 - std::nextafter(0.5, 0.0);
      for (int j = -1100; j <= 1100; ++j) cases.emplace_back(p, base + j * ulp);
    }
  }
  for (std::size_t at = 0; at + 64 <= cases.size(); at += 64) {
    for (int i = 0; i < 64; ++i) {
      pred[(i / 8) * kWidth + i % 8] = static_cast<std::uint8_t>(cases[at + i].first);
      rec[i] = cases[at + i].second;
    }
    reconstruct_8x8(pred.data(), kWidth, rec, dst.data(), kWidth);
    reference_reconstruct(pred.data(), kWidth, rec, ref_dst.data(), kWidth);
    ASSERT_EQ(dst, ref_dst) << "case " << at;
  }
}

// quantise_8x8 computes each coefficient's cost 2 + ⌊2·log2(1+|q|)⌋ from
// the exponent of a float square instead of calling log2. Every magnitude
// q can take, both signs, must cost exactly what the log2 expression says.
TEST(CodecOracle, CoefficientBitsMatchLog2ForEveryMagnitude) {
  double coeffs[64], unit[64];
  std::fill(std::begin(unit), std::end(unit), 1.0);
  for (int m = 0; m <= 32768; ++m) {
    for (int i = 0; i < 64; ++i) coeffs[i] = (i % 2 == 0 || m == 32768) ? -m : m;
    expect_quantise_matches(coeffs, unit);
  }
}

}  // namespace
}  // namespace vc::media
