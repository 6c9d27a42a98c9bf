#include "media/feeds.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

namespace vc::media {
namespace {

// Deterministic 2D hash noise in [0, 255]. The key is
// seed ^ x·0x9E37… ^ y·0xC2B2…; XOR commutes, so callers that sweep a row
// fold the y term into the seed once and hash only the column term.
std::uint8_t hash_mix(std::uint64_t h) {
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<std::uint8_t>(h & 0xFF);
}
std::uint64_t hash_x(int x) { return static_cast<std::uint64_t>(x) * 0x9E3779B97F4A7C15ULL; }
std::uint64_t hash_y(int y) { return static_cast<std::uint64_t>(y) * 0xC2B2AE3D27D4EB4FULL; }

// Smooth value noise: bilinear interpolation of lattice hash noise at a
// given cell size, produced a row at a time for the pixel grid
// (x + x_offset, y), x in [0, width). Produces natural-looking low-frequency
// texture.
//
// The noise at a point is
//   (v00·(1 − sx) + v10·sx)·(1 − sy) + (v01·(1 − sx) + v11·sx)·sy
// with v the lattice hashes around it and sx/sy the smoothstep of its offset
// inside the cell. Everything in that expression depends on one axis only:
// sx on the column, sy on the row, and each parenthesised term on the column
// and the lattice row. So the column terms are tabulated once, each lattice
// row is hashed and interpolated along x once (every lattice row serves as
// the lower row of one cell band and the upper row of the one above it), and
// a pixel costs one multiply-add. Each value is computed by the same
// operations in the same order as the per-pixel formula, so the noise is
// bit-identical to it.
class ValueNoiseRows {
 public:
  ValueNoiseRows(std::uint64_t seed, double cell, int width, double x_offset)
      : seed_(seed),
        cell_(cell),
        col_(static_cast<std::size_t>(width)),
        sx_(col_.size()),
        one_minus_sx_(col_.size()),
        lower_(col_.size()),
        upper_(col_.size()),
        out_(col_.size()) {
    for (std::size_t x = 0; x < col_.size(); ++x) {
      const double gx = (static_cast<int>(x) + x_offset) / cell;
      const int x0 = static_cast<int>(std::floor(gx));
      const double fx = gx - x0;
      if (x == 0) lo_ = x0;
      col_[x] = x0 - lo_;  // floor is monotone in x: never negative
      sx_[x] = fx * fx * (3 - 2 * fx);  // smoothstep
      one_minus_sx_[x] = 1 - sx_[x];
    }
    hashes_.resize(col_.empty() ? 0 : static_cast<std::size_t>(col_.back()) + 2);
  }

  /// The noise at (x + x_offset, y) for every column x; valid until the
  /// next call.
  const double* row(double y) {
    const double gy = y / cell_;
    const int y0 = static_cast<int>(std::floor(gy));
    const double fy = gy - y0;
    const double sy = fy * fy * (3 - 2 * fy);
    const double one_minus_sy = 1 - sy;
    if (!have_rows_ || y0 != j_) {
      if (have_rows_ && y0 == j_ + 1) {
        std::swap(lower_, upper_);
      } else {
        interpolate_lattice_row(y0, lower_);
      }
      interpolate_lattice_row(y0 + 1, upper_);
      j_ = y0;
      have_rows_ = true;
    }
    for (std::size_t x = 0; x < out_.size(); ++x) {
      out_[x] = lower_[x] * one_minus_sy + upper_[x] * sy;
    }
    return out_.data();
  }

 private:
  // dst[x] = v(x0, j)·(1 − sx) + v(x0 + 1, j)·sx for lattice row j.
  void interpolate_lattice_row(int j, std::vector<double>& dst) {
    const std::uint64_t row_key = seed_ ^ hash_y(j);
    for (std::size_t k = 0; k < hashes_.size(); ++k) {
      hashes_[k] = hash_mix(row_key ^ hash_x(lo_ + static_cast<int>(k)));
    }
    for (std::size_t x = 0; x < dst.size(); ++x) {
      const auto c = static_cast<std::size_t>(col_[x]);
      dst[x] = hashes_[c] * one_minus_sx_[x] + hashes_[c + 1] * sx_[x];
    }
  }

  std::uint64_t seed_;
  double cell_;
  int lo_ = 0;             // lattice column of pixel 0
  std::vector<int> col_;   // lattice column of each pixel, minus lo_
  std::vector<double> sx_;
  std::vector<double> one_minus_sx_;
  std::vector<double> hashes_;  // one lattice row's hashes, from column lo_
  bool have_rows_ = false;
  int j_ = 0;                   // lattice row held in lower_
  std::vector<double> lower_;   // lattice rows j_ and j_ + 1, interpolated
  std::vector<double> upper_;   // along x
  std::vector<double> out_;
};

// Two-octave fractal noise, range ~[0, 255], as rows of the grid
// (x + x_offset, y): a coarse octave and a finer, differently seeded one.
class FractalNoiseRows {
 public:
  FractalNoiseRows(std::uint64_t seed, double cell, int width, double x_offset)
      : coarse_(seed, cell, width, x_offset),
        fine_(seed ^ 0xABCD, cell / 3.0, width, x_offset),
        out_(static_cast<std::size_t>(width)) {}

  const double* row(double y) {
    const double* a = coarse_.row(y);
    const double* b = fine_.row(y);
    for (std::size_t x = 0; x < out_.size(); ++x) out_[x] = 0.7 * a[x] + 0.3 * b[x];
    return out_.data();
  }

 private:
  ValueNoiseRows coarse_;
  ValueNoiseRows fine_;
  std::vector<double> out_;
};

std::uint8_t to_luma(double v) { return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)); }

void fill_ellipse(Frame& f, double cx, double cy, double rx, double ry, std::uint8_t luma) {
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

// Deterministic sensor noise: zero-mean uniform with std-dev sigma, keyed by
// (seed, frame index, pixel). The offset for each of the 256 hash values is
// tabulated once per frame.
void apply_sensor_noise(Frame& f, std::uint64_t seed, std::int64_t index, double sigma) {
  if (sigma <= 0.0) return;
  const double half_range = sigma * 1.7320508;  // uniform(-a, a) has sd a/sqrt(3)
  const std::uint64_t frame_seed = seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1));
  double offset[256];
  for (int k = 0; k < 256; ++k) offset[k] = (k - 127.5) / 127.5 * half_range;
  for (int y = 0; y < f.height(); ++y) {
    const std::uint64_t row_key = frame_seed ^ hash_y(y);
    std::uint8_t* px = f.data() + static_cast<std::size_t>(y) * f.width();
    for (int x = 0; x < f.width(); ++x) {
      px[x] = to_luma(px[x] + offset[hash_mix(row_key ^ hash_x(x))]);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- TalkingHead

TalkingHeadFeed::TalkingHeadFeed(FeedParams params) : p_(params), background_(p_.width, p_.height) {
  // Indoor wall: smooth low-frequency texture plus a darker "bookshelf" band.
  FractalNoiseRows wall{p_.seed, 48.0, p_.width, 0.0};
  for (int y = 0; y < p_.height; ++y) {
    const double* noise = wall.row(y);
    std::uint8_t* px = background_.data() + static_cast<std::size_t>(y) * p_.width;
    for (int x = 0; x < p_.width; ++x) {
      double v = 90.0 + 0.25 * noise[x];
      if (x > p_.width * 3 / 4) v *= 0.7;  // shelf on the right
      px[x] = to_luma(v);
    }
  }
}

Frame TalkingHeadFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  Frame f = background_;
  const double t = static_cast<double>(index) / p_.fps;
  const double cx = p_.width / 2.0 + 1.5 * std::sin(2.0 * std::numbers::pi * 0.25 * t);
  const double head_cy = p_.height * 0.38 + 1.0 * std::sin(2.0 * std::numbers::pi * 0.4 * t);
  const double head_r = p_.height * 0.16;

  // Torso.
  fill_ellipse(f, cx, p_.height * 0.85, p_.width * 0.22, p_.height * 0.30, 60);
  // Head.
  fill_ellipse(f, cx, head_cy, head_r * 0.8, head_r, 180);
  // Eyes (blink every ~4 s).
  const bool blink = std::fmod(t, 4.0) < 0.15;
  if (!blink) {
    fill_ellipse(f, cx - head_r * 0.35, head_cy - head_r * 0.2, head_r * 0.1, head_r * 0.07, 30);
    fill_ellipse(f, cx + head_r * 0.35, head_cy - head_r * 0.2, head_r * 0.1, head_r * 0.07, 30);
  }
  // Mouth: opens and closes while "talking" (syllable rate ~3 Hz).
  const double mouth_open = 0.5 + 0.5 * std::sin(2.0 * std::numbers::pi * 3.0 * t);
  fill_ellipse(f, cx, head_cy + head_r * 0.5, head_r * 0.3, head_r * (0.05 + 0.12 * mouth_open), 40);
  // Occasional hand gesture: a raised hand for ~1 s every ~7 s.
  const double phase = std::fmod(t, 7.0);
  if (phase < 1.0) {
    const double lift = std::sin(std::numbers::pi * phase);  // raise then lower
    fill_ellipse(f, cx + p_.width * 0.25, p_.height * (0.8 - 0.25 * lift), p_.width * 0.05,
                 p_.height * 0.06, 170);
  }
  apply_sensor_noise(f, p_.seed, index, p_.sensor_noise_sigma);
  return f;
}

// ------------------------------------------------------------------ TourGuide

TourGuideFeed::TourGuideFeed(FeedParams params) : p_(params) {}

Frame TourGuideFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  Frame f{p_.width, p_.height};
  const double t = static_cast<double>(index) / p_.fps;
  const auto scene = static_cast<std::uint64_t>(t / scene_change_period_sec_);
  const std::uint64_t scene_seed = p_.seed ^ (scene * 0x9E3779B97F4A7C15ULL + 17);

  // Camera pans briskly; a full scene change re-seeds the texture. The
  // texture has fine detail (small cells): panning shifts it by sub-block
  // amounts every frame, so inter residuals carry real structure — the
  // reason high-motion content is expensive per bit (Finding 3).
  const double pan_x = 85.0 * t;
  const double pan_y = 12.0 * std::sin(2.0 * std::numbers::pi * 0.3 * t);
  FractalNoiseRows texture{scene_seed, 9.0, p_.width, pan_x};
  for (int y = 0; y < p_.height; ++y) {
    const double* noise = texture.row(y + pan_y);
    std::uint8_t* px = f.data() + static_cast<std::size_t>(y) * p_.width;
    for (int x = 0; x < p_.width; ++x) px[x] = to_luma(noise[x]);
  }
  // Moving foreground objects (pedestrians/vehicles) crossing the view.
  Rng obj_rng{scene_seed ^ 0x5151};
  for (int i = 0; i < 8; ++i) {
    const double speed = obj_rng.uniform(30.0, 90.0) * (obj_rng.chance(0.5) ? 1.0 : -1.0);
    const double y0 = obj_rng.uniform(0.2, 0.9) * p_.height;
    const double r = obj_rng.uniform(0.03, 0.08) * p_.height;
    const double scene_t = t - static_cast<double>(scene) * scene_change_period_sec_;
    double x0 = obj_rng.uniform(0.0, 1.0) * p_.width + speed * scene_t;
    x0 = std::fmod(std::fmod(x0, p_.width) + p_.width, p_.width);
    const auto luma = static_cast<std::uint8_t>(obj_rng.uniform_int(20, 235));
    fill_ellipse(f, x0, y0, r * 1.5, r, luma);
  }
  apply_sensor_noise(f, p_.seed, index, p_.sensor_noise_sigma);
  return f;
}

// ---------------------------------------------------------------------- Flash

FlashFeed::FlashFeed(FeedParams params, double period_sec, int flash_frames)
    : p_(params),
      period_sec_(period_sec),
      flash_frames_(flash_frames),
      flash_(p_.width, p_.height) {
  if (period_sec <= 0 || flash_frames <= 0) throw std::invalid_argument{"bad flash parameters"};
  // A photo-like image (checker + fine texture): its coded size is several
  // KB, producing the unmistakable burst of big packets on the wire that
  // the lag detector keys on (Fig 2).
  ValueNoiseRows texture{p_.seed ^ 0xF1A5, 5.0, p_.width, 0.0};
  for (int y = 0; y < p_.height; ++y) {
    const double* noise = texture.row(y);
    std::uint8_t* px = flash_.data() + static_cast<std::size_t>(y) * p_.width;
    for (int x = 0; x < p_.width; ++x) {
      const bool check = ((x / 12) + (y / 12)) % 2 == 0;
      px[x] = to_luma((check ? 200.0 : 60.0) + 0.5 * noise[x] - 64.0);
    }
  }
}

bool FlashFeed::is_flash_frame(std::int64_t index) const {
  const auto period_frames = static_cast<std::int64_t>(period_sec_ * p_.fps + 0.5);
  return index % period_frames < flash_frames_;
}

Frame FlashFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  if (!is_flash_frame(index)) return Frame{p_.width, p_.height, 16};
  return flash_;
}

// ---------------------------------------------------------------------- Blank

BlankFeed::BlankFeed(FeedParams params) : p_(params) {}

Frame BlankFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  return Frame{p_.width, p_.height, 16};
}

// --------------------------------------------------------------------- Padded

PaddedFeed::PaddedFeed(std::shared_ptr<const VideoFeed> inner, int pad, std::uint8_t pad_luma)
    : inner_(std::move(inner)), pad_(pad), pad_luma_(pad_luma) {
  if (!inner_) throw std::invalid_argument{"null inner feed"};
  if (pad_ < 0) throw std::invalid_argument{"negative padding"};
}

Frame PaddedFeed::frame_at(std::int64_t index) const {
  const Frame inner = inner_->frame_at(index);
  Frame out{width(), height(), pad_luma_};
  const auto w = static_cast<std::size_t>(inner.width());
  for (int y = 0; y < inner.height(); ++y) {
    std::memcpy(out.data() + static_cast<std::size_t>(y + pad_) * out.width() + pad_,
                inner.data() + y * w, w);
  }
  return out;
}

// --------------------------------------------------------------------- motion

double mean_motion(const VideoFeed& feed, std::int64_t frames) {
  if (frames < 2) throw std::invalid_argument{"need at least two frames"};
  double acc = 0.0;
  Frame prev = feed.frame_at(0);
  for (std::int64_t i = 1; i < frames; ++i) {
    Frame cur = feed.frame_at(i);
    double diff = 0.0;
    for (std::size_t k = 0; k < cur.size(); ++k) {
      diff += std::abs(static_cast<int>(cur.data()[k]) - static_cast<int>(prev.data()[k]));
    }
    acc += diff / static_cast<double>(cur.size());
    prev = std::move(cur);
  }
  return acc / static_cast<double>(frames - 1);
}

}  // namespace vc::media
