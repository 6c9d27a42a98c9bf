#include "media/video_codec.h"

#include <algorithm>
#include <array>
#include <bit>
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

// Entropy estimate of one nonzero quantised coefficient of magnitude m (sign
// + magnitude prefix): 2 + ⌊2·log2(1+m)⌋, in exact integers as
// 2 + ⌊log2((1+m)²)⌋ = 1 + bit_width((1+m)²). For m <= 32768, (1+m)² < 2^31.
// CodecOracle.CoefficientBitsMatchLog2ForEveryMagnitude checks every m
// against the log2 expression.
constexpr std::int32_t coeff_bits(std::int32_t m) {
  const auto a = static_cast<std::uint32_t>(m) + 1u;
  return m == 0 ? 0 : 1 + std::bit_width(a * a);
}

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

void quant_steps_8x8(double qstep, double* steps) {
  // Frequency-weighted steps, like JPEG/H.26x quantisation matrices.
  for (int v = 0; v < kBlock; ++v) {
    for (int u = 0; u < kBlock; ++u) steps[v * kBlock + u] = qstep * (1.0 + 0.12 * (u + v));
  }
}

QuantisedBlock quantise_8x8(const double* coeffs, const double* steps, std::int16_t* q) {
  // Saturating c to the int16 range before rounding equals saturating the
  // rounded value (rounding is monotone and the bounds are integers), and
  // keeps cvttpd in range. Rounding is lround's: t = trunc(c) plus
  // trunc(2·(c − t)), which is ±1 exactly when |c − t| >= 0.5. c − t and the
  // doubling are exact, so no tie is misjudged.
  QuantisedBlock res;
#if defined(__SSE2__)
  const __m128d lo = _mm_set1_pd(INT16_MIN);
  const __m128d hi = _mm_set1_pd(INT16_MAX);
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi32(1);
  const __m128i exp_bias = _mm_set1_epi32(125);
  // Two coefficients, rounded, as int32 in the low half.
  const auto round2 = [&](int i) {
    const __m128d c = _mm_min_pd(
        _mm_max_pd(_mm_div_pd(_mm_loadu_pd(coeffs + i), _mm_loadu_pd(steps + i)), lo), hi);
    const __m128i t = _mm_cvttpd_epi32(c);
    const __m128d frac = _mm_sub_pd(c, _mm_cvtepi32_pd(t));
    return _mm_add_epi32(t, _mm_cvttpd_epi32(_mm_add_pd(frac, frac)));
  };
  // coeff_bits of four int32 lanes: 1 + |r| is exact in float, and the
  // float square of it is rounded but never across a power of two for
  // |r| <= 32768, so its biased exponent e gives ⌊log2((1+|r|)²)⌋ = e − 127
  // and the cost e − 125.
  const auto bits4 = [&](__m128i r) {
    const __m128i sign = _mm_srai_epi32(r, 31);
    const __m128 a =
        _mm_cvtepi32_ps(_mm_add_epi32(_mm_sub_epi32(_mm_xor_si128(r, sign), sign), one));
    const __m128i e = _mm_srli_epi32(_mm_castps_si128(_mm_mul_ps(a, a)), 23);
    return _mm_andnot_si128(_mm_cmpeq_epi32(r, zero), _mm_sub_epi32(e, exp_bias));
  };
  __m128i bits = zero;
  __m128i any = zero;
  for (int i = 0; i < kBlock * kBlock; i += 8) {
    const __m128i r0 = _mm_unpacklo_epi64(round2(i), round2(i + 2));
    const __m128i r1 = _mm_unpacklo_epi64(round2(i + 4), round2(i + 6));
    bits = _mm_add_epi32(bits, _mm_add_epi32(bits4(r0), bits4(r1)));
    const __m128i q8 = _mm_packs_epi32(r0, r1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), q8);
    any = _mm_or_si128(any, q8);
  }
  bits = _mm_add_epi32(bits, _mm_srli_si128(bits, 8));
  bits = _mm_add_epi32(bits, _mm_srli_si128(bits, 4));
  res.bits = _mm_cvtsi128_si32(bits);
  res.all_zero = _mm_movemask_epi8(_mm_cmpeq_epi8(any, zero)) == 0xFFFF;
#else
  for (int i = 0; i < kBlock * kBlock; ++i) {
    const double c = std::clamp(coeffs[i] / steps[i], double{INT16_MIN}, double{INT16_MAX});
    const auto t = static_cast<std::int32_t>(c);
    const double frac = c - static_cast<double>(t);
    const std::int32_t v = t + static_cast<std::int32_t>(frac + frac);
    q[i] = static_cast<std::int16_t>(v);
    res.bits += coeff_bits(v < 0 ? -v : v);
    if (v != 0) res.all_zero = false;
  }
#endif
  return res;
}

void dequantise_8x8(const std::int16_t* q, const double* steps, double* deq) {
  for (int i = 0; i < kBlock * kBlock; ++i) deq[i] = static_cast<double>(q[i]) * steps[i];
}

void reconstruct_8x8(const std::uint8_t* pred, std::ptrdiff_t pred_stride, const double* rec,
                     std::uint8_t* dst, std::ptrdiff_t dst_stride) {
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      const double v = static_cast<double>(pred[y * pred_stride + x]) + rec[y * kBlock + x];
      dst[y * dst_stride + x] = static_cast<std::uint8_t>(std::clamp(v + 0.5, 0.0, 255.0));
    }
  }
}

namespace {

void copy_8x8(const std::uint8_t* src, std::ptrdiff_t src_stride, std::uint8_t* dst,
              std::ptrdiff_t dst_stride) {
  for (int y = 0; y < kBlock; ++y) std::memcpy(dst + y * dst_stride, src + y * src_stride, kBlock);
}

// Dequantise, inverse-transform and add the prediction: the one block
// reconstruction the encoder's closed loop and the decoder share. All-zero
// coefficients inverse-transform to ±0, and (p ± 0) + 0.5 truncates back to
// p, so such a block is its predictor, bit for bit, and is copied; the
// caller says whether q is all zero.
void decode_block(const std::int16_t* q, bool all_zero, const double* steps,
                  const std::uint8_t* pred, std::ptrdiff_t pred_stride, std::uint8_t* dst,
                  std::ptrdiff_t dst_stride) {
  if (all_zero) {
    copy_8x8(pred, pred_stride, dst, dst_stride);
    return;
  }
  alignas(32) Block deq, rec;
  dequantise_8x8(q, steps, deq.data());
  idct2d_8x8(deq.data(), rec.data());
  reconstruct_8x8(pred, pred_stride, rec.data(), dst, dst_stride);
}

}  // namespace

VideoEncoder::VideoEncoder(int width, int height, Config cfg)
    : width_(width), height_(height), cfg_(cfg), recon_(width, height, 0),
      recon_scratch_(width, height, 0) {
  if (width % kBlock != 0 || height % kBlock != 0) {
    throw std::invalid_argument{"frame dimensions must be multiples of 8"};
  }
  if (cfg_.fps <= 0.0 || cfg_.keyframe_interval <= 0) throw std::invalid_argument{"bad encoder config"};
  // A zero step would quantise a zero coefficient as 0/0.
  if (!(cfg_.min_qstep > 0.0 && cfg_.min_qstep <= cfg_.max_qstep && std::isfinite(cfg_.max_qstep))) {
    throw std::invalid_argument{"qstep bounds must satisfy 0 < min_qstep <= max_qstep < inf"};
  }
  // The first frame's trial pass runs at the starting step, so it must obey
  // the bounds too.
  qstep_ = std::clamp(qstep_, cfg_.min_qstep, cfg_.max_qstep);
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
  alignas(32) Block residual, coeffs;
  alignas(32) double steps[kBlock * kBlock];
  alignas(16) std::int16_t trial_q[kBlock * kBlock];
  quant_steps_8x8(qstep, steps);
  const std::uint8_t* fdata = frame.data();
  const std::uint8_t* rdata = recon_.data();
  const std::ptrdiff_t stride = width_;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const std::size_t block = static_cast<std::size_t>(byi) * bx + bxi;
      const std::ptrdiff_t offset = (byi * stride + bxi) * kBlock;
      const std::uint8_t* fblock = fdata + offset;
      const std::uint8_t* rblock = rdata + offset;
      std::uint8_t* dst = recon != nullptr ? recon->data() + offset : nullptr;
      ++res.total_blocks;
      const BlockDecision decision = decisions_[block];
      if (decision == BlockDecision::kSkip) {
        res.bits += 1;
        ++res.skip_blocks;
        if (out != nullptr) out->modes[block] = BlockMode::kInter;
        if (dst != nullptr) copy_8x8(rblock, stride, dst, stride);
        continue;
      }
      const bool inter = decision == BlockDecision::kInter;
      const std::uint8_t* pblock = inter ? rblock : kFlatRow;
      const std::ptrdiff_t pstride = inter ? stride : 0;
      for (int y = 0; y < kBlock; ++y) {
        const std::uint8_t* frow = fblock + y * stride;
        const std::uint8_t* prow = pblock + y * pstride;
        for (int x = 0; x < kBlock; ++x) {
          residual[y * kBlock + x] = static_cast<double>(frow[x]) - static_cast<double>(prow[x]);
        }
      }
      dct2d_8x8(residual.data(), coeffs.data());
      std::int16_t* q = out != nullptr ? out->coeffs.data() + block * kBlock * kBlock : trial_q;
      const QuantisedBlock qb = quantise_8x8(coeffs.data(), steps, q);
      std::int64_t block_bits = 10 + qb.bits;  // mode + qdelta + EOB overhead
      // Skip-block coding: an inter block with an all-zero residual costs a
      // fraction of a bit (run-length coded), like real codecs' SKIP mode —
      // this is what makes a static scene nearly free (Finding 3) and keeps
      // the blank frames of the lag feed under the big-packet threshold.
      if (inter && qb.all_zero) {
        block_bits = 1;
        ++res.skip_blocks;
      }
      res.bits += block_bits;
      if (out != nullptr) out->modes[block] = inter ? BlockMode::kInter : BlockMode::kIntra;
      if (dst != nullptr) decode_block(q, qb.all_zero, steps, pblock, pstride, dst, stride);
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
  const std::size_t blocks = static_cast<std::size_t>(bx) * by;
  if (frame.modes.size() != blocks || frame.coeffs.size() != blocks * kBlock * kBlock) {
    throw std::invalid_argument{"encoded frame payload does not match its block grid"};
  }
  alignas(32) double steps[kBlock * kBlock];
  quant_steps_8x8(frame.qstep, steps);
  const std::ptrdiff_t stride = width_;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const std::size_t block = static_cast<std::size_t>(byi) * bx + bxi;
      const std::ptrdiff_t offset = (byi * stride + bxi) * kBlock;
      const bool inter = frame.modes[block] == BlockMode::kInter;
      const std::int16_t* q = frame.coeffs.data() + block * kBlock * kBlock;
      int any = 0;
      for (int i = 0; i < kBlock * kBlock; ++i) any |= q[i];
      decode_block(q, any == 0, steps, inter ? current_.data() + offset : kFlatRow,
                   inter ? stride : 0, scratch_.data() + offset, stride);
    }
  }
  // Every pixel of scratch_ was just written; swap it in (the previous
  // frame becomes the next call's scratch) — no per-frame allocation.
  std::swap(current_, scratch_);
  ++frames_decoded_;
  return current_;
}

}  // namespace vc::media
