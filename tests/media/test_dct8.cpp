// Exhaustive bit-equality suite for the vectorized DCT/IDCT backends
// against the retained scalar reference (dct8.h's determinism contract).
// Every comparison is memcmp over the raw doubles: not "close", identical.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "media/dct8.h"
#include "media/feeds.h"
#include "media/video_codec.h"

namespace vc::media {
namespace {

using Block = std::array<double, 64>;

std::vector<DctBackend> available_backends() {
  std::vector<DctBackend> out;
  for (DctBackend b : {DctBackend::kPortable, DctBackend::kSse2, DctBackend::kAvx}) {
    if (dct_backend_available(b)) out.push_back(b);
  }
  return out;
}

// Restores the startup dispatch even when an assertion fails mid-test.
struct BackendGuard {
  ~BackendGuard() { set_dct_backend(best_dct_backend()); }
};

void expect_identical(const Block& in, DctBackend backend) {
  ASSERT_TRUE(set_dct_backend(backend));
  Block ref_f{}, vec_f{}, ref_i{}, vec_i{};
  dct2d_8x8_scalar(in.data(), ref_f.data());
  dct2d_8x8(in.data(), vec_f.data());
  EXPECT_EQ(std::memcmp(ref_f.data(), vec_f.data(), sizeof(Block)), 0)
      << "forward DCT diverges on backend " << dct_backend_name(backend);
  // Run the inverse on the (identical) coefficients too, so the round trip
  // exercises both table layouts.
  idct2d_8x8_scalar(ref_f.data(), ref_i.data());
  idct2d_8x8(ref_f.data(), vec_i.data());
  EXPECT_EQ(std::memcmp(ref_i.data(), vec_i.data(), sizeof(Block)), 0)
      << "inverse DCT diverges on backend " << dct_backend_name(backend);
}

TEST(Dct8, ScalarBackendIsTheReference) {
  BackendGuard guard;
  ASSERT_TRUE(set_dct_backend(DctBackend::kScalar));
  Block in{};
  Rng rng{2026};
  for (auto& v : in) v = rng.uniform(-255.0, 255.0);
  Block a{}, b{};
  dct2d_8x8(in.data(), a.data());
  dct2d_8x8_scalar(in.data(), b.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(Block)), 0);
}

TEST(Dct8, BestBackendIsVectorizedOnX86) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_TRUE(best_dct_backend() == DctBackend::kSse2 || best_dct_backend() == DctBackend::kAvx);
  EXPECT_TRUE(dct_backend_available(DctBackend::kSse2));
#else
  EXPECT_EQ(best_dct_backend(), DctBackend::kPortable);
#endif
  EXPECT_TRUE(dct_backend_available(best_dct_backend()));
  EXPECT_STRNE(dct_backend_name(best_dct_backend()), "?");
}

TEST(Dct8, UnavailableBackendLeavesDispatchUntouched) {
  BackendGuard guard;
  const DctBackend before = active_dct_backend();
  for (DctBackend b : {DctBackend::kSse2, DctBackend::kAvx}) {
    if (!dct_backend_available(b)) {
      EXPECT_FALSE(set_dct_backend(b));
      EXPECT_EQ(active_dct_backend(), before);
    }
  }
}

TEST(Dct8, RandomBlocksBitIdenticalOnEveryBackend) {
  BackendGuard guard;
  Rng rng{7321};
  for (DctBackend backend : available_backends()) {
    for (int rep = 0; rep < 2000; ++rep) {
      Block in{};
      // Mix residual-like values (pixel − prediction ∈ [−255, 255]) with
      // occasional huge coefficients to stress exponent ranges.
      for (auto& v : in) {
        v = rep % 5 == 4 ? rng.uniform(-2.0e5, 2.0e5) : rng.uniform(-255.0, 255.0);
      }
      expect_identical(in, backend);
    }
  }
}

TEST(Dct8, ExtremeAndStructuredBlocksBitIdentical) {
  BackendGuard guard;
  std::vector<Block> cases;
  Block b{};
  cases.push_back(b);  // all zero
  b.fill(255.0);
  cases.push_back(b);  // max positive residual
  b.fill(-255.0);
  cases.push_back(b);  // max negative residual
  // Single impulses at every position — isolates each basis column.
  for (int i = 0; i < 64; ++i) {
    Block imp{};
    imp[i] = 255.0;
    cases.push_back(imp);
    imp[i] = -128.0;
    cases.push_back(imp);
  }
  // Checkerboards (highest spatial frequency) and gradients.
  Block checker{}, grad{};
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      checker[y * 8 + x] = ((x + y) & 1) != 0 ? 255.0 : -255.0;
      grad[y * 8 + x] = static_cast<double>(x * 8 + y) - 31.5;
    }
  }
  cases.push_back(checker);
  cases.push_back(grad);
  // Denormal-scale and huge-magnitude inputs: the lanes must round the same
  // even at the edges of the double range.
  Block tiny{}, huge{};
  for (int i = 0; i < 64; ++i) {
    tiny[i] = (i % 2 != 0 ? 1.0 : -1.0) * 1e-300;
    huge[i] = (i % 3 != 0 ? 1.0 : -1.0) * 1e300;
  }
  cases.push_back(tiny);
  cases.push_back(huge);
  for (DctBackend backend : available_backends()) {
    for (const Block& c : cases) expect_identical(c, backend);
  }
}

// Whole-encoder equality across the quantizer range the platforms actually
// use: pinning min_qstep == max_qstep forces every pass to run at that
// step, and the encoded stream (sizes, coefficients, modes, recon) must be
// byte-identical whichever backend computed the transforms.
TEST(Dct8, FullEncoderBitIdenticalAcrossQstepGrid) {
  BackendGuard guard;
  constexpr int kW = 64;
  constexpr int kH = 64;
  const auto backends = available_backends();
  for (double q : {0.1, 0.5, 2.0, 10.0, 40.0, 160.0}) {
    VideoEncoder::Config cfg;
    cfg.target_bitrate = DataRate::kbps(600);
    cfg.fps = 10.0;
    cfg.min_qstep = q;
    cfg.max_qstep = q;

    TourGuideFeed feed{{kW, kH, 10.0, 11}};
    std::vector<Frame> frames;
    for (int i = 0; i < 8; ++i) frames.push_back(feed.frame_at(i));

    ASSERT_TRUE(set_dct_backend(DctBackend::kScalar));
    VideoEncoder ref_enc{kW, kH, cfg};
    VideoDecoder ref_dec{kW, kH};
    std::vector<std::shared_ptr<EncodedFrame>> ref_frames;
    std::vector<Frame> ref_decoded;
    for (const Frame& f : frames) {
      ref_frames.push_back(ref_enc.encode(f));
      ref_decoded.push_back(ref_dec.decode(*ref_frames.back()));
    }

    for (DctBackend backend : backends) {
      ASSERT_TRUE(set_dct_backend(backend));
      VideoEncoder enc{kW, kH, cfg};
      VideoDecoder dec{kW, kH};
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto got = enc.encode(frames[i]);
        EXPECT_EQ(got->bytes, ref_frames[i]->bytes)
            << dct_backend_name(backend) << " q=" << q << " frame " << i;
        EXPECT_EQ(got->qstep, q) << "frame " << i;
        EXPECT_EQ(got->qstep, ref_frames[i]->qstep);
        EXPECT_EQ(got->coeffs, ref_frames[i]->coeffs)
            << dct_backend_name(backend) << " q=" << q << " frame " << i;
        EXPECT_EQ(got->modes, ref_frames[i]->modes);
        EXPECT_EQ(dec.decode(*got), ref_decoded[i])
            << dct_backend_name(backend) << " q=" << q << " frame " << i;
      }
      EXPECT_EQ(enc.last_reconstructed(), ref_enc.last_reconstructed());
    }
  }
}

}  // namespace
}  // namespace vc::media
