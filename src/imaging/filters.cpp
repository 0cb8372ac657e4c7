#include "imaging/filters.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/simd.hpp"
#include "imaging/row_kernels.hpp"

namespace slj {
namespace {

void require_odd(int k) {
  if (k < 1 || k % 2 == 0) throw std::invalid_argument("filter window must be odd and >= 1");
}

}  // namespace

GrayImage median_filter(const GrayImage& img, int k) {
  require_odd(k);
  const int half = k / 2;
  GrayImage out(img.width(), img.height());
  std::array<int, 256> hist{};
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      hist.fill(0);
      int count = 0;
      for (int dy = -half; dy <= half; ++dy) {
        for (int dx = -half; dx <= half; ++dx) {
          const int nx = x + dx;
          const int ny = y + dy;
          if (img.in_bounds(nx, ny)) {
            ++hist[img.at(nx, ny)];
            ++count;
          }
        }
      }
      // Walk the histogram to the median position.
      const int target = count / 2;
      int seen = 0;
      std::uint8_t median = 0;
      for (int v = 0; v < 256; ++v) {
        seen += hist[v];
        if (seen > target) {
          median = static_cast<std::uint8_t>(v);
          break;
        }
      }
      out.at(x, y) = median;
    }
  }
  return out;
}

BinaryImage median_filter_binary(const BinaryImage& img, int k) {
  std::vector<std::uint16_t> colsum;
  BinaryImage out;
  median_filter_binary_into(img, k, colsum, out);
  return out;
}

SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out) {
  median_filter_binary_into(img, k, img.bounds(), colsum, out);
}

SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k, Roi roi,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out) {
  require_odd(k);
  const int w = img.width();
  const int h = img.height();
  const int half = k / 2;
  out.assign(w, h, 0);
  if (roi.empty()) return;
  // Separable integer box count over the columns the roi's windows reach:
  // colsum[c] = ones in the clamped window column at cx0 + c, updated by
  // one add/sub per row, and every output pixel a k-tap horizontal sum of
  // those counts — exact small integers, so every backend agrees; `2*count
  // > area-1 ⇔ 2*count >= area` keeps the upper-median tie rule. The vector path's
  // k <= 127 guard bounds every 16-bit lane: counts <= k*k <= 16129,
  // doubled <= 32258 < 2^15, so the backends' signed compares agree with
  // unsigned; larger windows take the scalar int loop.
  using VU = simd::VecU16<simd::Active>;
  const int cx0 = std::max(roi.x0 - half, 0);
  const int cw = std::min(roi.x1 + half, w) - cx0;
  colsum.assign(static_cast<std::size_t>(cw), 0);
  std::uint16_t* col = colsum.data();
  const std::uint8_t* src = img.data().data();
  const auto row_ptr = [&](int y) {
    return src + static_cast<std::size_t>(y) * static_cast<std::size_t>(w) + cx0;
  };
  int y0 = std::max(roi.y0 - half, 0);
  int y1 = std::min(roi.y0 + half, h - 1);
  for (int yy = y0; yy <= y1; ++yy) rowk::col_add_u8<simd::Active>(row_ptr(yy), col, cw);
  for (int y = roi.y0; y < roi.y1; ++y) {
    if (y > roi.y0) {
      const int add_row = y + half;      // enters the window (if on the image)
      const int sub_row = y - half - 1;  // retires from it (if it ever was)
      if (add_row < h && sub_row >= 0) {
        rowk::col_slide_u8<simd::Active>(row_ptr(add_row), row_ptr(sub_row), col, cw);
      } else if (add_row < h) {
        rowk::col_add_u8<simd::Active>(row_ptr(add_row), col, cw);
      } else if (sub_row >= 0) {
        rowk::col_sub_u8<simd::Active>(row_ptr(sub_row), col, cw);
      }
      y0 = std::max(y - half, 0);
      y1 = std::min(y + half, h - 1);
    }
    const int rows = y1 - y0 + 1;
    std::uint8_t* d = out.data().data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    // Column count at frame column x, and a pointer to it for vector loads.
    const auto count_at = [&](int x) { return static_cast<int>(col[x - cx0]); };
    const auto col_at = [&](int x) { return col + (x - cx0); };
    // Clamped columns: the window narrows at the left/right frame edge and
    // the median is taken over the pixels actually present.
    const auto clamped_pixel = [&](int x) {
      const int x0 = std::max(x - half, 0);
      const int x1 = std::min(x + half, w - 1);
      int count = 0;
      for (int cx = x0; cx <= x1; ++cx) count += count_at(cx);
      const int area = (x1 - x0 + 1) * rows;
      d[x] = count * 2 >= area ? 1 : 0;
    };
    int x = roi.x0;
    const int x_begin = std::min(std::max(half, roi.x0), roi.x1);
    const int x_end = std::max(std::min(w - half, roi.x1), x_begin);
    for (; x < x_begin; ++x) clamped_pixel(x);
    const int interior_area = k * rows;
    if (k <= 127) {
      const VU vthresh = VU::broadcast(static_cast<std::uint16_t>(interior_area - 1));
      for (; x + VU::kLanes <= x_end; x += VU::kLanes) {
        VU count = VU::load(col_at(x - half));
        for (int t = 1; t < k; ++t) count = count + VU::load(col_at(x - half + t));
        VU::store_gt01(count + count, vthresh, d + x);
      }
    }
    for (; x < x_end; ++x) {
      int count = 0;
      for (int t = 0; t < k; ++t) count += count_at(x - half + t);
      d[x] = count * 2 >= interior_area ? 1 : 0;
    }
    for (; x < roi.x1; ++x) clamped_pixel(x);
  }
}

GrayImage box_blur(const GrayImage& img, int k) {
  require_odd(k);
  const Image<double> means = window_mean_gray(img, k);
  GrayImage out(img.width(), img.height());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<std::uint8_t>(
        std::clamp(std::lround(means.data()[i]), 0L, 255L));
  }
  return out;
}

}  // namespace slj
