// Toy block-transform video codec.
//
// This is a real codec, not a size model: frames are split into 8×8 blocks,
// predicted (intra flat / inter from the previous *reconstructed* frame),
// DCT-transformed, quantized, and entropy-sized; the decoder inverts the
// pipeline bit-exactly from the quantized coefficients. It shares the two
// properties of production codecs that the paper's QoE findings rest on:
//   1. low-motion content costs far fewer bits at equal quality (Finding 3),
//   2. quality degrades smoothly as rate control raises the quantizer to meet
//      a bitrate target, and collapses when frames are lost (Figs 12, 17).
//
// The encoded byte size is an entropy estimate over the quantized
// coefficients rather than a literal bitstream; packetization uses that size
// on the wire, while decoding uses the coefficients carried alongside.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "media/frame.h"
#include "net/packet.h"

namespace vc::media {

inline constexpr int kBlock = 8;

/// Per-block prediction mode.
enum class BlockMode : std::uint8_t { kIntra = 0, kInter = 1 };

/// Sum of absolute differences between two 8×8 blocks of 8-bit pixels whose
/// rows are `a_stride` and `b_stride` bytes apart (a stride of 0 repeats one
/// row). Exact integer arithmetic: SSE2 `psadbw` where available, else the
/// scalar loop — the result is the same either way.
std::int32_t sad_8x8(const std::uint8_t* a, std::ptrdiff_t a_stride, const std::uint8_t* b,
                     std::ptrdiff_t b_stride);

// The quantise/reconstruct kernels below return the same bits as the
// per-coefficient and per-pixel loops they replaced
// (tests/media/test_video_codec.cpp, CodecOracle). quantise_8x8's SSE2 path
// puts one coefficient in each __m128d lane and runs the scalar IEEE
// sequence in every lane (divide, never fused), so it also matches its
// scalar fallback.

/// The quantiser step of each coefficient of a block at `qstep`:
/// steps[i] = qstep · (1 + 0.12·(u + v)), the frequency-weighted step.
void quant_steps_8x8(double qstep, double* steps);

struct QuantisedBlock {
  /// Entropy estimate of the block's coefficients: 2 + ⌊2·log2(1+|q|)⌋ bits
  /// per nonzero q (sign + magnitude prefix), 0 per zero.
  std::int32_t bits = 0;
  bool all_zero = true;
};

/// q[i] = coeffs[i] / steps[i] rounded half away from zero (std::lround)
/// and saturated to int16. Equal to clamp(lround(c), INT16_MIN, INT16_MAX)
/// wherever lround is defined (|c| < 2^63); beyond that it still saturates.
QuantisedBlock quantise_8x8(const double* coeffs, const double* steps, std::int16_t* q);

/// deq[i] = q[i] · steps[i].
void dequantise_8x8(const std::int16_t* q, const double* steps, double* deq);

/// dst = clamp((pred + rec) + 0.5, 0, 255), truncated to uint8, for an 8×8
/// block: the predictor and destination rows are `pred_stride` and
/// `dst_stride` bytes apart (a predictor stride of 0 repeats one row), and
/// `rec` is the row-major inverse-DCT residual.
void reconstruct_8x8(const std::uint8_t* pred, std::ptrdiff_t pred_stride, const double* rec,
                     std::uint8_t* dst, std::ptrdiff_t dst_stride);

/// A compressed frame. Immutable after encoding; shared between fan-out
/// copies when a relay forwards the stream to multiple receivers.
struct EncodedFrame final : public net::PacketPayload {
  int width = 0;
  int height = 0;
  bool keyframe = false;
  double qstep = 0.0;
  /// Modeled compressed size of the quality payload.
  std::int64_t bytes = 0;
  /// Size on the wire including FEC/redundancy padding added by the sending
  /// client (>= bytes). Real VCA streams are near-CBR at the policy rate:
  /// the codec payload is only part of it.
  std::int64_t wire_bytes = 0;
  /// Display sequence number assigned by the encoder.
  std::int64_t sequence = 0;
  /// SKIP accounting: blocks coded as SKIP (early-skip copy or all-zero
  /// inter residual) out of total_blocks. skip_blocks/total_blocks is the
  /// frame's SKIP ratio — near 1.0 on static content (Finding 3).
  std::int32_t skip_blocks = 0;
  std::int32_t total_blocks = 0;
  std::vector<std::int16_t> coeffs;   // block-major, 64 per block
  std::vector<BlockMode> modes;       // one per block
};

class VideoEncoder {
 public:
  struct Config {
    DataRate target_bitrate = DataRate::kbps(800);
    double fps = 15.0;
    /// A keyframe every this many frames (and at stream start).
    int keyframe_interval = 60;
    /// Quantiser bounds; the constructor requires 0 < min <= max < inf.
    double min_qstep = 0.1;
    double max_qstep = 160.0;
  };

  VideoEncoder(int width, int height, Config cfg);

  /// Changes the bitrate target mid-stream (rate adaptation).
  void set_target_bitrate(DataRate rate);
  DataRate target_bitrate() const { return cfg_.target_bitrate; }

  /// Encodes the next frame in display order. (Mutable so the sending
  /// client can stamp wire_bytes; treat as immutable once transmitted.)
  std::shared_ptr<EncodedFrame> encode(const Frame& frame);

  /// The encoder's own reconstruction of the last frame (what a decoder
  /// with no losses would show).
  const Frame& last_reconstructed() const { return recon_; }
  double current_qstep() const { return qstep_; }

 private:
  struct EncodeResult {
    std::int64_t bits = 0;
    std::int32_t skip_blocks = 0;
    std::int32_t total_blocks = 0;
  };
  /// A block's coding decision. It depends on the source frame and the
  /// reference only, never on the quantizer, so the trial and real passes
  /// share one decision per frame.
  enum class BlockDecision : std::uint8_t { kIntra, kInter, kSkip };
  void decide_blocks(const Frame& frame, bool keyframe);
  EncodeResult encode_pass(const Frame& frame, double qstep, EncodedFrame* out, Frame* recon) const;
  /// Pooled EncodedFrame: recycles a previously returned frame once the
  /// caller has dropped it (use_count()==1), else allocates. Keeps the
  /// steady-state encode path allocation-free without ever mutating a frame
  /// a consumer still holds.
  std::shared_ptr<EncodedFrame> acquire_output_frame();

  int width_;
  int height_;
  Config cfg_;
  Frame recon_;           // closed-loop reference
  Frame recon_scratch_;   // encode_pass target, swapped into recon_ per frame
  std::vector<BlockDecision> decisions_;  // one per block, rewritten per frame
  std::array<std::shared_ptr<EncodedFrame>, 4> frame_pool_;
  double qstep_ = 10.0;
  std::int64_t next_seq_ = 0;
  double buffer_bits_ = 0.0;  // virtual buffer fullness for rate control
};

class VideoDecoder {
 public:
  VideoDecoder(int width, int height);

  /// Decodes a frame. The decoder tolerates gaps: a missing frame is simply
  /// never passed in, and the previously decoded frame stays on screen
  /// (freeze) — callers render current() at display times. Throws
  /// std::invalid_argument when the frame's size, coefficients or modes do
  /// not match this decoder's block grid.
  const Frame& decode(const EncodedFrame& frame);

  const Frame& current() const { return current_; }
  std::int64_t frames_decoded() const { return frames_decoded_; }

 private:
  int width_;
  int height_;
  Frame current_;
  Frame scratch_;  // decode target, swapped into current_ per frame
  std::int64_t frames_decoded_ = 0;
};

}  // namespace vc::media
