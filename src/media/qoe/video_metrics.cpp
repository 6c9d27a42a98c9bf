#include "media/qoe/video_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace vc::media::qoe {
namespace {

void require_same_size(const Frame& a, const Frame& b) {
  if (a.width() != b.width() || a.height() != b.height() || a.empty()) {
    throw std::invalid_argument{"metric inputs must be equal-size, non-empty frames"};
  }
}

// Double-precision image plane used by VIFp internals. reset() keeps the
// buffer's capacity, so a plane that is reused across calls stops
// allocating (and page-faulting) once it has held its largest image.
struct DImage {
  int w = 0;
  int h = 0;
  std::vector<double> px;

  void reset(int w_, int h_) {
    w = w_;
    h = h_;
    px.resize(static_cast<std::size_t>(w_) * h_);
  }
  void assign(const Frame& f) {
    reset(f.width(), f.height());
    for (std::size_t i = 0; i < px.size(); ++i) px[i] = static_cast<double>(f.data()[i]);
  }
  double at(int x, int y) const { return px[static_cast<std::size_t>(y) * w + x]; }
  double& at(int x, int y) { return px[static_cast<std::size_t>(y) * w + x]; }
};

void multiply(const DImage& a, const DImage& b, DImage& out) {
  out.reset(a.w, a.h);
  for (std::size_t i = 0; i < out.px.size(); ++i) out.px[i] = a.px[i] * b.px[i];
}

std::vector<double> gaussian_kernel(int n, double sd) {
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

// Separable "valid"-region convolution: output shrinks by n-1 per axis,
// matching MATLAB filter2(..., 'valid') used in the reference VIFp code.
// Every output is `acc = 0.0; acc += k[i] * v[i]` for i = 0..n-1 in that
// order. SSE2 computes eight adjacent outputs per step in four two-lane
// accumulators. Each lane does its own multiply, then its own add, so it
// rounds exactly as the scalar loop does; four independent accumulators keep
// the adds from waiting on each other. The scalar loop takes the ragged tail
// (and everything without SSE2).
// `tmp` holds the horizontal pass; `out` must not alias `in` or `tmp`.
void filter_valid(const DImage& in, const std::vector<double>& k, DImage& tmp, DImage& out) {
  const int n = static_cast<int>(k.size());
  const int ow = in.w - n + 1;
  const int oh = in.h - n + 1;
  if (ow <= 0 || oh <= 0) {
    out.reset(0, 0);
    return;
  }
  // One pass: dst[x] = sum_i k[i] * src[x + i * step] for x in [0, ow).
  const auto pass = [&k, n, ow](const double* src, std::ptrdiff_t step, double* dst) {
    int x = 0;
#if defined(__SSE2__)
    for (; x + 8 <= ow; x += 8) {
      __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd()};
      for (int i = 0; i < n; ++i) {
        const __m128d ki = _mm_set1_pd(k[static_cast<std::size_t>(i)]);
        const double* v = src + x + i * step;
        for (int j = 0; j < 4; ++j) {
          acc[j] = _mm_add_pd(acc[j], _mm_mul_pd(ki, _mm_loadu_pd(v + 2 * j)));
        }
      }
      for (int j = 0; j < 4; ++j) _mm_storeu_pd(dst + x + 2 * j, acc[j]);
    }
#endif
    for (; x < ow; ++x) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += k[static_cast<std::size_t>(i)] * src[x + i * step];
      dst[x] = acc;
    }
  };
  tmp.reset(ow, in.h);
  for (int y = 0; y < in.h; ++y) {
    pass(in.px.data() + static_cast<std::size_t>(y) * in.w, 1, &tmp.at(0, y));
  }
  out.reset(ow, oh);
  for (int y = 0; y < oh; ++y) pass(&tmp.at(0, y), ow, &out.at(0, y));
}

// `out` must not alias `in`.
void downsample2(const DImage& in, DImage& out) {
  out.reset((in.w + 1) / 2, (in.h + 1) / 2);
  for (int y = 0; y < out.h; ++y) {
    for (int x = 0; x < out.w; ++x) out.at(x, y) = in.at(x * 2, y * 2);
  }
}

// Every plane one VIFp call works in. vifp() makes a fresh set per call;
// mean_video_qoe() owns one set and reuses it for all of its pairs.
struct VifpPlanes {
  DImage ref, dist;         // the current scale's images
  DImage tmp;               // filter_valid's horizontal pass
  DImage filtered;          // a filtered image before downsampling
  DImage product;           // ref·ref, dist·dist or ref·dist
  DImage mu1, mu2, rr, dd, rd;
};

constexpr int kSsimWin = 8;  // SSIM window side, in pixels

// SSIM's per-column sums: adds rows `a`/`b` and `a + w`/`b + w` of the two
// frames (row width `w`) to the column sums of a, b, a², b² and ab and, when
// kDrop, subtracts the two rows kSsimWin rows above them. The sums are exact
// integers, so the order is free; __restrict lets the compiler vectorise
// across columns.
template <bool kDrop>
void slide_columns(const std::uint8_t* __restrict a, const std::uint8_t* __restrict b,
                   std::size_t w, std::int32_t* __restrict ca, std::int32_t* __restrict cb,
                   std::int32_t* __restrict caa, std::int32_t* __restrict cbb,
                   std::int32_t* __restrict cab) {
  for (std::size_t x = 0; x < w; ++x) {
    const std::int32_t a0 = a[x], a1 = a[w + x], b0 = b[x], b1 = b[w + x];
    std::int32_t sa = a0 + a1, sb = b0 + b1;
    std::int32_t saa = a0 * a0 + a1 * a1, sbb = b0 * b0 + b1 * b1, sab = a0 * b0 + a1 * b1;
    if constexpr (kDrop) {
      const std::uint8_t* da = a - kSsimWin * w;  // the rows leaving the band
      const std::uint8_t* db = b - kSsimWin * w;
      const std::int32_t d0 = da[x], d1 = da[w + x], e0 = db[x], e1 = db[w + x];
      sa -= d0 + d1;
      sb -= e0 + e1;
      saa -= d0 * d0 + d1 * d1;
      sbb -= e0 * e0 + e1 * e1;
      sab -= d0 * e0 + d1 * e1;
    }
    ca[x] += sa;
    cb[x] += sb;
    caa[x] += saa;
    cbb[x] += sbb;
    cab[x] += sab;
  }
}

}  // namespace

double psnr(const Frame& reference, const Frame& distorted, double cap) {
  require_same_size(reference, distorted);
  const double mse = reference.mse(distorted);
  if (mse <= 1e-12) return cap;
  return std::min(cap, 10.0 * std::log10(255.0 * 255.0 / mse));
}

double ssim(const Frame& reference, const Frame& distorted) {
  require_same_size(reference, distorted);
  constexpr int kWin = kSsimWin;
  constexpr double kC1 = (0.01 * 255) * (0.01 * 255);
  constexpr double kC2 = (0.03 * 255) * (0.03 * 255);
  const int w = reference.width();
  const int h = reference.height();
  if (w < kWin || h < kWin) throw std::invalid_argument{"frame smaller than SSIM window"};

  // Pixels are 8-bit, so every window sum is an integer far below 2^53: a
  // double accumulation is exact in any order, and these integer sums convert
  // to the same doubles. Per-column sums over the current 8-row band slide
  // down 2 rows per band; window sums slide right 2 columns per window.
  const auto uw = static_cast<std::size_t>(w);
  std::vector<std::int32_t> cols(uw * 5, 0);
  std::int32_t* const ca = cols.data();
  std::int32_t* const cb = ca + uw;
  std::int32_t* const caa = cb + uw;
  std::int32_t* const cbb = caa + uw;
  std::int32_t* const cab = cbb + uw;
  // Adds rows y and y + 1 to the column sums, dropping the two rows that
  // leave the band.
  const auto slide_down = [&](int y) {
    const std::uint8_t* a = reference.data() + static_cast<std::size_t>(y) * uw;
    const std::uint8_t* b = distorted.data() + static_cast<std::size_t>(y) * uw;
    if (y < kWin) {
      slide_columns<false>(a, b, uw, ca, cb, caa, cbb, cab);
    } else {
      slide_columns<true>(a, b, uw, ca, cb, caa, cbb, cab);
    }
  };
  for (int y = 0; y < kWin - 2; y += 2) slide_down(y);

  double total = 0.0;
  std::int64_t windows = 0;
  for (int y0 = 0; y0 + kWin <= h; y0 += 2) {  // stride 2: dense enough,
    slide_down(y0 + kWin - 2);                 // 4x cheaper than stride 1
    std::int64_t sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
    for (int x = 0; x < kWin - 2; ++x) {
      sa += ca[x];
      sb += cb[x];
      saa += caa[x];
      sbb += cbb[x];
      sab += cab[x];
    }
    for (int x0 = 0; x0 + kWin <= w; x0 += 2) {
      const int in = x0 + kWin - 2;  // the two columns entering the window
      sa += ca[in] + ca[in + 1];
      sb += cb[in] + cb[in + 1];
      saa += caa[in] + caa[in + 1];
      sbb += cbb[in] + cbb[in + 1];
      sab += cab[in] + cab[in + 1];
      const auto sum_a = static_cast<double>(sa);
      const auto sum_b = static_cast<double>(sb);
      const auto sum_aa = static_cast<double>(saa);
      const auto sum_bb = static_cast<double>(sbb);
      const auto sum_ab = static_cast<double>(sab);
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
      sa -= ca[x0] + ca[x0 + 1];  // the two columns leaving it
      sb -= cb[x0] + cb[x0 + 1];
      saa -= caa[x0] + caa[x0 + 1];
      sbb -= cbb[x0] + cbb[x0 + 1];
      sab -= cab[x0] + cab[x0 + 1];
    }
  }
  return windows > 0 ? total / static_cast<double>(windows) : 0.0;
}

namespace {

double vifp_with(const Frame& reference, const Frame& distorted, VifpPlanes& p) {
  require_same_size(reference, distorted);
  constexpr double kSigmaNsq = 2.0;  // HVS internal neural noise variance
  constexpr int kFirstWindow = 17;   // the finest scale's filter taps
  if (reference.width() < kFirstWindow || reference.height() < kFirstWindow) {
    throw std::invalid_argument{"frame smaller than VIFp window"};
  }

  p.ref.assign(reference);
  p.dist.assign(distorted);
  double num = 0.0;
  double den = 0.0;

  for (int scale = 1; scale <= 4; ++scale) {
    const int n = (1 << (4 - scale + 1)) + 1;  // 17, 9, 5, 3
    const auto kernel = gaussian_kernel(n, static_cast<double>(n) / 5.0);
    if (scale > 1) {
      filter_valid(p.ref, kernel, p.tmp, p.filtered);
      downsample2(p.filtered, p.ref);
      filter_valid(p.dist, kernel, p.tmp, p.filtered);
      downsample2(p.filtered, p.dist);
      if (p.ref.w < n || p.ref.h < n) break;
    }
    filter_valid(p.ref, kernel, p.tmp, p.mu1);
    filter_valid(p.dist, kernel, p.tmp, p.mu2);
    multiply(p.ref, p.ref, p.product);
    filter_valid(p.product, kernel, p.tmp, p.rr);
    multiply(p.dist, p.dist, p.product);
    filter_valid(p.product, kernel, p.tmp, p.dd);
    multiply(p.ref, p.dist, p.product);
    filter_valid(p.product, kernel, p.tmp, p.rd);

    for (std::size_t i = 0; i < p.mu1.px.size(); ++i) {
      const double m1 = p.mu1.px[i];
      const double m2 = p.mu2.px[i];
      double sigma1_sq = p.rr.px[i] - m1 * m1;
      double sigma2_sq = p.dd.px[i] - m2 * m2;
      double sigma12 = p.rd.px[i] - m1 * m2;
      sigma1_sq = std::max(sigma1_sq, 0.0);
      sigma2_sq = std::max(sigma2_sq, 0.0);

      double g = sigma12 / (sigma1_sq + 1e-10);
      double sv_sq = sigma2_sq - g * sigma12;
      // Reference implementation's edge-case handling:
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
  if (den <= 1e-12) return 1.0;  // blank reference: no information to lose
  return std::clamp(num / den, 0.0, 1.0);
}

}  // namespace

double vifp(const Frame& reference, const Frame& distorted) {
  VifpPlanes planes;
  return vifp_with(reference, distorted, planes);
}

VideoQoe video_qoe(const Frame& reference, const Frame& distorted) {
  return VideoQoe{psnr(reference, distorted), ssim(reference, distorted),
                  vifp(reference, distorted)};
}

VideoQoe mean_video_qoe(const std::vector<Frame>& reference, const std::vector<Frame>& distorted) {
  if (reference.size() != distorted.size() || reference.empty()) {
    throw std::invalid_argument{"sequences must be non-empty and equal length"};
  }
  VideoQoe acc;
  VifpPlanes planes;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    acc.psnr += psnr(reference[i], distorted[i]);
    acc.ssim += ssim(reference[i], distorted[i]);
    acc.vifp += vifp_with(reference[i], distorted[i], planes);
  }
  const auto n = static_cast<double>(reference.size());
  return VideoQoe{acc.psnr / n, acc.ssim / n, acc.vifp / n};
}

}  // namespace vc::media::qoe
