// Row-level SIMD kernels of the moving-window passes: the exact integer
// window sums behind the extractor's Aave / Bave (object_extractor.cpp,
// integral.cpp) and the binary median's sliding column counts
// (filters.cpp), templated on a slj::simd backend tag.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/simd.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"

namespace slj::rowk {

/// Exact n×n moving-window sums of the three channels of `img`, one output
/// row at a time: calls emit(y, rows, sr, sg, sb) for y = 0 .. h−1, where
/// sr[x] is the integer sum of the red channel over the window centred at
/// (x, y) clamped to the image, and `rows` the clamped window height. The
/// clamped window width of column x is scratch.widths[x], so the window's
/// area is widths[x] · rows.
///
/// How: sliding int32 column sums over the interleaved RGB bytes (one add
/// and one subtract per row), split into three zero-padded planes, then an
/// n-tap row sum. The zero pads make the clamped sum uniform: off-image
/// columns add nothing. Every value is an integer below 255·n² — exact in
/// int32 and in double — so double(sum) / area is bit-identical to
/// IntegralImage::window_mean, whose four-corner table sum is the same
/// integer.
template <class B, class Emit>
void window_sum_rows(const RgbImage& img, int n, WindowSumScratch& s, Emit&& emit) {
  using VI = simd::VecI32<B>;
  const int w = img.width();
  const int h = img.height();
  const int half = n / 2;
  const std::size_t cw = 3u * static_cast<std::size_t>(w);
  const std::size_t pw = static_cast<std::size_t>(w) + 2u * static_cast<std::size_t>(half);
  s.col.assign(cw, 0);
  s.padded.assign(3u * pw, 0);  // the pads stay zero; the interiors are rewritten per row
  s.sums.resize(cw);
  s.widths.resize(static_cast<std::size_t>(w));
  for (int x = 0; x < w; ++x) {
    s.widths[static_cast<std::size_t>(x)] =
        static_cast<double>(std::min(x + half, w - 1) - std::max(x - half, 0) + 1);
  }
  const std::uint8_t* px = reinterpret_cast<const std::uint8_t*>(img.data().data());
  const auto row_bytes = [&](int y) { return px + static_cast<std::size_t>(y) * cw; };
  std::int32_t* col = s.col.data();
  // col[i] += add[i] − sub[i]; a null row contributes nothing.
  const auto slide = [&](const std::uint8_t* add, const std::uint8_t* sub) {
    std::size_t i = 0;
    for (; i + VI::kLanes <= cw; i += VI::kLanes) {
      VI c = VI::load(col + i);
      if (add != nullptr) c = c + VI::load_u8(add + i);
      if (sub != nullptr) c = c - VI::load_u8(sub + i);
      c.store(col + i);
    }
    for (; i < cw; ++i) col[i] += (add != nullptr ? add[i] : 0) - (sub != nullptr ? sub[i] : 0);
  };
  for (int y = 0; y < std::min(half, h); ++y) slide(row_bytes(y), nullptr);

  std::int32_t* planes[3] = {s.padded.data() + half, s.padded.data() + pw + half,
                             s.padded.data() + 2 * pw + half};
  std::int32_t* sums[3] = {s.sums.data(), s.sums.data() + w, s.sums.data() + 2 * w};
  for (int y = 0; y < h; ++y) {
    // Column sums now cover rows [y − half, y + half] ∩ [0, h).
    const int add = y + half;
    const int sub = y - half - 1;
    slide(add < h ? row_bytes(add) : nullptr, sub >= 0 ? row_bytes(sub) : nullptr);
    const int rows = std::min(y + half, h - 1) - std::max(y - half, 0) + 1;
    simd::deinterleave3_i32<B>(col, planes[0], planes[1], planes[2], static_cast<std::size_t>(w));
    for (int c = 0; c < 3; ++c) {
      const std::int32_t* p = planes[c] - half;  // p[x + t] covers columns x − half + t
      std::int32_t* out = sums[c];
      int x = 0;
      for (; x + VI::kLanes <= w; x += VI::kLanes) {
        VI acc = VI::load(p + x);
        for (int t = 1; t < n; ++t) acc = acc + VI::load(p + x + t);
        acc.store(out + x);
      }
      for (; x < w; ++x) {
        std::int32_t acc = 0;
        for (int t = 0; t < n; ++t) acc += p[x + t];
        out[x] = acc;
      }
    }
    emit(y, rows, sums[0], sums[1], sums[2]);
  }
}

/// col[x] += row[x] for a 0/1 byte row — seeds the sliding column counts of
/// the separable integer box filters.
template <class B>
inline void col_add_u8(const std::uint8_t* row, std::uint16_t* col, int w) {
  using V = simd::VecU16<B>;
  int x = 0;
  for (; x + V::kLanes <= w; x += V::kLanes) {
    (V::load(col + x) + V::load_u8(row + x)).store(col + x);
  }
  for (; x < w; ++x) col[x] = static_cast<std::uint16_t>(col[x] + row[x]);
}

/// col[x] -= row[x]; the retiring row when the window slides past the bottom
/// edge (no row enters).
template <class B>
inline void col_sub_u8(const std::uint8_t* row, std::uint16_t* col, int w) {
  using V = simd::VecU16<B>;
  int x = 0;
  for (; x + V::kLanes <= w; x += V::kLanes) {
    (V::load(col + x) - V::load_u8(row + x)).store(col + x);
  }
  for (; x < w; ++x) col[x] = static_cast<std::uint16_t>(col[x] - row[x]);
}

/// col[x] += add[x] - sub[x]: one fused slide of the column counts when the
/// window both gains its new bottom row and retires its old top row.
template <class B>
inline void col_slide_u8(const std::uint8_t* add, const std::uint8_t* sub, std::uint16_t* col,
                         int w) {
  using V = simd::VecU16<B>;
  int x = 0;
  for (; x + V::kLanes <= w; x += V::kLanes) {
    (V::load(col + x) + V::load_u8(add + x) - V::load_u8(sub + x)).store(col + x);
  }
  for (; x < w; ++x) col[x] = static_cast<std::uint16_t>(col[x] + add[x] - sub[x]);
}

}  // namespace slj::rowk
