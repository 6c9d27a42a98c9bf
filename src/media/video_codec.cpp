#include "media/video_codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "media/dct8.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace vc::media {
namespace {

using Block = std::array<double, kBlock * kBlock>;

// Table-driven quantization: kQuant.weight is the frequency-weighted step
// multiplier (1.0 + 0.12·(u+v), like JPEG/H.26x matrices) and kQuant.bits
// the entropy estimate for one quantized coefficient (sign + magnitude
// prefix). Both tables are generated from the exact expressions the hot
// loop used to evaluate per coefficient — 2 + ⌊2·log2(1+|q|)⌋ cost a log2
// per coefficient per pass — so every encoded bit count is unchanged.
struct QuantTables {
  double weight[kBlock * kBlock];
  std::uint8_t bits[32769];  // index |q|, q clamped to int16 so |q| <= 32768
  QuantTables() {
    for (int v = 0; v < kBlock; ++v) {
      for (int u = 0; u < kBlock; ++u) weight[v * kBlock + u] = 1.0 + 0.12 * (u + v);
    }
    bits[0] = 0;
    for (int m = 1; m <= 32768; ++m) {
      const double mag = static_cast<double>(m);
      bits[m] = static_cast<std::uint8_t>(2 + static_cast<std::int64_t>(2.0 * std::log2(1.0 + mag)));
    }
  }
};
const QuantTables kQuant;

// SKIP threshold: ~1.5 luma units/pixel. SAD sums of 8-bit pixels are exact
// small integers, so integer accumulation reproduces the historical double
// accumulation bit-for-bit in any order.
constexpr std::int32_t kSkipSad = 96;

// The intra predictor: one row of mid-grey, read with stride 0.
constexpr std::uint8_t kFlatRow[kBlock] = {128, 128, 128, 128, 128, 128, 128, 128};

std::int64_t div_round_up(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

}  // namespace

std::int32_t sad_8x8(const std::uint8_t* a, std::ptrdiff_t a_stride, const std::uint8_t* b,
                     std::ptrdiff_t b_stride) {
#if defined(__SSE2__)
  // Two rows per vector; psadbw leaves one partial sum per 64-bit half.
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < kBlock; y += 2) {
    const __m128i ra = _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + y * a_stride)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + (y + 1) * a_stride)));
    const __m128i rb = _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + y * b_stride)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + (y + 1) * b_stride)));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(ra, rb));
  }
  return _mm_cvtsi128_si32(acc) + _mm_cvtsi128_si32(_mm_unpackhi_epi64(acc, acc));
#else
  std::int32_t sad = 0;
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      sad += std::abs(static_cast<int>(a[y * a_stride + x]) -
                      static_cast<int>(b[y * b_stride + x]));
    }
  }
  return sad;
#endif
}

VideoEncoder::VideoEncoder(int width, int height, Config cfg)
    : width_(width), height_(height), cfg_(cfg), recon_(width, height, 0),
      recon_scratch_(width, height, 0) {
  if (width % kBlock != 0 || height % kBlock != 0) {
    throw std::invalid_argument{"frame dimensions must be multiples of 8"};
  }
  if (cfg_.fps <= 0.0 || cfg_.keyframe_interval <= 0) throw std::invalid_argument{"bad encoder config"};
  decisions_.resize(static_cast<std::size_t>(width / kBlock) * (height / kBlock));
}

void VideoEncoder::set_target_bitrate(DataRate rate) { cfg_.target_bitrate = rate; }

void VideoEncoder::decide_blocks(const Frame& frame, bool keyframe) {
  // Keyframes force every block intra, so neither SAD is needed.
  if (keyframe) {
    std::fill(decisions_.begin(), decisions_.end(), BlockDecision::kIntra);
    return;
  }
  const int bx = width_ / kBlock;
  const int by = height_ / kBlock;
  const std::ptrdiff_t stride = width_;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const std::ptrdiff_t offset = (byi * stride + bxi) * kBlock;
      const std::uint8_t* fblock = frame.data() + offset;
      // Mode decision by SAD against each predictor.
      const std::int32_t sad_intra = sad_8x8(fblock, stride, kFlatRow, 0);
      const std::int32_t sad_inter = sad_8x8(fblock, stride, recon_.data() + offset, stride);
      // SKIP decision before the transform: when the block barely differs
      // from the reference, copy it (real codecs' SKIP mode). Without this,
      // the encoder would spend bits forever chasing its own quantization
      // noise on static content — and a "blank" screen would never go quiet
      // on the wire, breaking the premise of the paper's lag measurement.
      BlockDecision d = BlockDecision::kIntra;
      if (sad_inter <= sad_intra) {
        d = sad_inter < kSkipSad ? BlockDecision::kSkip : BlockDecision::kInter;
      }
      decisions_[static_cast<std::size_t>(byi) * bx + bxi] = d;
    }
  }
}

VideoEncoder::EncodeResult VideoEncoder::encode_pass(const Frame& frame, double qstep,
                                                     EncodedFrame* out, Frame* recon) const {
  const int bx = width_ / kBlock;
  const int by = height_ / kBlock;
  EncodeResult res;
  if (out != nullptr) {
    // assign() within retained capacity: allocation-free after first use.
    out->coeffs.assign(static_cast<std::size_t>(bx) * by * kBlock * kBlock, 0);
    out->modes.assign(static_cast<std::size_t>(bx) * by, BlockMode::kIntra);
  }
  alignas(32) Block pred, residual, coeffs, deq, rec;
  const std::uint8_t* fdata = frame.data();
  const std::uint8_t* rdata = recon_.data();
  const int stride = width_;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const int x0 = bxi * kBlock;
      const int y0 = byi * kBlock;
      const std::uint8_t* fblock = fdata + static_cast<std::size_t>(y0) * stride + x0;
      const std::uint8_t* rblock = rdata + static_cast<std::size_t>(y0) * stride + x0;
      ++res.total_blocks;
      const BlockDecision decision = decisions_[static_cast<std::size_t>(byi) * bx + bxi];
      if (decision == BlockDecision::kSkip) {
        res.bits += 1;
        ++res.skip_blocks;
        if (out != nullptr) {
          out->modes[static_cast<std::size_t>(byi) * bx + bxi] = BlockMode::kInter;
        }
        if (recon != nullptr) {
          std::uint8_t* dst = recon->data() + static_cast<std::size_t>(y0) * stride + x0;
          for (int y = 0; y < kBlock; ++y) {
            std::memcpy(dst + static_cast<std::size_t>(y) * stride,
                        rblock + static_cast<std::size_t>(y) * stride, kBlock);
          }
        }
        continue;
      }
      const bool inter = decision == BlockDecision::kInter;
      for (int y = 0; y < kBlock; ++y) {
        const std::uint8_t* frow = fblock + static_cast<std::size_t>(y) * stride;
        const std::uint8_t* rrow = rblock + static_cast<std::size_t>(y) * stride;
        for (int x = 0; x < kBlock; ++x) {
          pred[y * kBlock + x] = inter ? static_cast<double>(rrow[x]) : 128.0;
          residual[y * kBlock + x] = static_cast<double>(frow[x]) - pred[y * kBlock + x];
        }
      }
      dct2d_8x8(residual.data(), coeffs.data());
      std::int64_t block_bits = 10;  // mode + qdelta + EOB overhead
      bool all_zero = true;
      std::int16_t* out_coeffs =
          out != nullptr
              ? out->coeffs.data() + (static_cast<std::size_t>(byi) * bx + bxi) * kBlock * kBlock
              : nullptr;
      for (int i = 0; i < kBlock * kBlock; ++i) {
        const double step = qstep * kQuant.weight[i];
        const double c = coeffs[i] / step;
        const auto q = static_cast<std::int16_t>(std::clamp(
            std::lround(c), static_cast<long>(INT16_MIN), static_cast<long>(INT16_MAX)));
        block_bits += kQuant.bits[q < 0 ? -static_cast<int>(q) : static_cast<int>(q)];
        if (q != 0) all_zero = false;
        deq[i] = static_cast<double>(q) * step;
        if (out_coeffs != nullptr) out_coeffs[i] = q;
      }
      // Skip-block coding: an inter block with an all-zero residual costs a
      // fraction of a bit (run-length coded), like real codecs' SKIP mode —
      // this is what makes a static scene nearly free (Finding 3) and keeps
      // the blank frames of the lag feed under the big-packet threshold.
      if (inter && all_zero) {
        block_bits = 1;
        ++res.skip_blocks;
      }
      res.bits += block_bits;
      if (out != nullptr) {
        out->modes[static_cast<std::size_t>(byi) * bx + bxi] =
            inter ? BlockMode::kInter : BlockMode::kIntra;
      }
      if (recon != nullptr) {
        idct2d_8x8(deq.data(), rec.data());
        for (int y = 0; y < kBlock; ++y) {
          for (int x = 0; x < kBlock; ++x) {
            const double v = pred[y * kBlock + x] + rec[y * kBlock + x];
            recon->set(x0 + x, y0 + y, static_cast<std::uint8_t>(std::clamp(v + 0.5, 0.0, 255.0)));
          }
        }
      }
    }
  }
  return res;
}

std::shared_ptr<EncodedFrame> VideoEncoder::acquire_output_frame() {
  // Recycle a pooled frame once its last external reference is gone: the
  // coeffs/modes capacity survives, so the steady-state encode path makes
  // zero heap allocations (tests/media/test_codec_hotpath.cpp). A frame the
  // caller still holds is never touched — a fresh one is allocated instead —
  // so recycling cannot change any encoded bit.
  for (auto& slot : frame_pool_) {
    if (slot == nullptr) {
      slot = std::make_shared<EncodedFrame>();
      return slot;
    }
    if (slot.use_count() == 1) return slot;
  }
  return std::make_shared<EncodedFrame>();
}

std::shared_ptr<EncodedFrame> VideoEncoder::encode(const Frame& frame) {
  if (frame.width() != width_ || frame.height() != height_) {
    throw std::invalid_argument{"frame size does not match encoder"};
  }
  const bool keyframe = next_seq_ % cfg_.keyframe_interval == 0;
  const double per_frame_budget =
      static_cast<double>(cfg_.target_bitrate.bits_per_second()) / cfg_.fps;
  // Keyframes may spend a few frames' budget; the virtual buffer charges the
  // overdraft to subsequent frames.
  const double frame_target = per_frame_budget * (keyframe ? 3.0 : 1.0);

  // Trial pass at the current quantizer, then one corrective pass; both
  // read the same block decisions.
  decide_blocks(frame, keyframe);
  const EncodeResult trial = encode_pass(frame, qstep_, nullptr, nullptr);
  double q = qstep_;
  if (trial.bits > 0 && frame_target > 0) {
    const double ratio = static_cast<double>(trial.bits) / frame_target;
    q = std::clamp(qstep_ * std::pow(ratio, 0.8), cfg_.min_qstep, cfg_.max_qstep);
  }

  auto out = acquire_output_frame();
  out->width = width_;
  out->height = height_;
  out->keyframe = keyframe;
  out->qstep = q;
  out->sequence = next_seq_++;
  const EncodeResult real = encode_pass(frame, q, out.get(), &recon_scratch_);
  out->bytes = std::max<std::int64_t>(div_round_up(real.bits, 8), 64);
  out->wire_bytes = out->bytes;
  out->skip_blocks = real.skip_blocks;
  out->total_blocks = real.total_blocks;
  // encode_pass wrote every pixel of the scratch frame; swap it in as the
  // new closed-loop reference (the old reference becomes next call's
  // scratch) — no per-frame Frame allocation.
  std::swap(recon_, recon_scratch_);

  // Buffer feedback nudges the starting quantizer of the next frame.
  buffer_bits_ += static_cast<double>(real.bits) - per_frame_budget;
  buffer_bits_ = std::max(buffer_bits_, 0.0);
  const double pressure = buffer_bits_ / (per_frame_budget * 4.0 + 1.0);
  qstep_ = std::clamp(q * (1.0 + 0.2 * pressure), cfg_.min_qstep, cfg_.max_qstep);
  return out;
}

VideoDecoder::VideoDecoder(int width, int height)
    : width_(width), height_(height), current_(width, height, 0), scratch_(width, height, 0) {
  if (width % kBlock != 0 || height % kBlock != 0) {
    throw std::invalid_argument{"frame dimensions must be multiples of 8"};
  }
}

const Frame& VideoDecoder::decode(const EncodedFrame& frame) {
  if (frame.width != width_ || frame.height != height_) {
    throw std::invalid_argument{"encoded frame size does not match decoder"};
  }
  const int bx = width_ / kBlock;
  const int by = height_ / kBlock;
  alignas(32) Block deq, rec;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const int x0 = bxi * kBlock;
      const int y0 = byi * kBlock;
      const bool inter = frame.modes[static_cast<std::size_t>(byi) * bx + bxi] == BlockMode::kInter;
      const std::int16_t* cblock =
          frame.coeffs.data() + (static_cast<std::size_t>(byi) * bx + bxi) * kBlock * kBlock;
      for (int i = 0; i < kBlock * kBlock; ++i) {
        const double step = frame.qstep * kQuant.weight[i];
        deq[i] = static_cast<double>(cblock[i]) * step;
      }
      idct2d_8x8(deq.data(), rec.data());
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          const double pred = inter ? static_cast<double>(current_.at(x0 + x, y0 + y)) : 128.0;
          scratch_.set(x0 + x, y0 + y,
                       static_cast<std::uint8_t>(std::clamp(pred + rec[y * kBlock + x] + 0.5, 0.0, 255.0)));
        }
      }
    }
  }
  // Every pixel of scratch_ was just written; swap it in (the previous
  // frame becomes the next call's scratch) — no per-frame allocation.
  std::swap(current_, scratch_);
  ++frames_decoded_;
  return current_;
}

}  // namespace vc::media
