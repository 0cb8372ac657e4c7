#include "thinning/zhang_suen.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.hpp"
#include "imaging/connected.hpp"

namespace slj::thin {
namespace {

// Neighbour ring in Zhang–Suen order P2..P9 (clockwise from north). This is
// exactly kNeighbours8; restated here to make the P-indexing explicit.
constexpr std::array<PointI, 8> kRing = {{{0, -1},   // P2
                                          {1, -1},   // P3
                                          {1, 0},    // P4
                                          {1, 1},    // P5
                                          {0, 1},    // P6
                                          {-1, 1},   // P7
                                          {-1, 0},   // P8
                                          {-1, -1}}};// P9

std::array<std::uint8_t, 8> ring_values(const BinaryImage& img, int x, int y) {
  std::array<std::uint8_t, 8> p{};
  for (std::size_t i = 0; i < kRing.size(); ++i) {
    p[i] = img.at_or(x + kRing[i].x, y + kRing[i].y, 0) ? 1 : 0;
  }
  return p;
}

// One sub-iteration: collect deletions against the *current* image, then
// apply them all at once (the algorithm requires simultaneous deletion).
std::size_t sub_iteration(BinaryImage& img, bool first) {
  std::vector<PointI> to_delete;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (!img.at(x, y)) continue;
      const auto p = ring_values(img, x, y);
      int b = 0;
      for (const std::uint8_t v : p) b += v;
      if (b < 2 || b > 6) continue;
      int a = 0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] == 0 && p[(i + 1) % p.size()] == 1) ++a;
      }
      if (a != 1) continue;
      // p[0]=P2, p[2]=P4, p[4]=P6, p[6]=P8.
      const bool cond_c = first ? (p[0] * p[2] * p[4] == 0) : (p[0] * p[2] * p[6] == 0);
      const bool cond_d = first ? (p[2] * p[4] * p[6] == 0) : (p[0] * p[4] * p[6] == 0);
      if (cond_c && cond_d) to_delete.push_back({x, y});
    }
  }
  for (const PointI& p : to_delete) img.at(p) = 0;
  return to_delete.size();
}

// The Zhang–Suen deletions among 64 pixels: `mid` holds them, `up` and
// `dn` the same columns of the rows above and below, and the `_w` / `_e`
// words the 64 columns to the west and east. Bit i of a word is column i of
// its 64, so pixel x + 1 is bit i + 1. Same conditions as sub_iteration.
template <bool kFirst>
std::uint64_t deletions(std::uint64_t up_w, std::uint64_t up, std::uint64_t up_e,
                        std::uint64_t mid_w, std::uint64_t mid, std::uint64_t mid_e,
                        std::uint64_t dn_w, std::uint64_t dn, std::uint64_t dn_e) {
  // The ring P2..P9, clockwise from north.
  const std::uint64_t p2 = up;
  const std::uint64_t p3 = (up >> 1) | (up_e << 63);
  const std::uint64_t p4 = (mid >> 1) | (mid_e << 63);
  const std::uint64_t p5 = (dn >> 1) | (dn_e << 63);
  const std::uint64_t p6 = dn;
  const std::uint64_t p7 = (dn << 1) | (dn_w >> 63);
  const std::uint64_t p8 = (mid << 1) | (mid_w >> 63);
  const std::uint64_t p9 = (up << 1) | (up_w >> 63);
  // B(P1) = p2 + ... + p9 as bit planes b0..b2 (b3 is implied: B == 8
  // leaves b0..b2 clear) through a tree of full and half adders.
  const std::uint64_t s_a = p2 ^ p3 ^ p4, c_a = (p2 & p3) | (p4 & (p2 ^ p3));
  const std::uint64_t s_b = p5 ^ p6 ^ p7, c_b = (p5 & p6) | (p7 & (p5 ^ p6));
  const std::uint64_t s_c = p8 ^ p9, c_c = p8 & p9;
  const std::uint64_t b0 = s_a ^ s_b ^ s_c, c_d = (s_a & s_b) | (s_c & (s_a ^ s_b));
  const std::uint64_t t = c_a ^ c_b ^ c_c, u = (c_a & c_b) | (c_c & (c_a ^ c_b));
  const std::uint64_t b1 = t ^ c_d, v = t & c_d;
  const std::uint64_t b2 = u ^ v;
  // 2 <= B <= 6: some bit of weight 2 or 4 set, and not B == 7.
  const std::uint64_t count_ok = (b1 | b2) & ~(b0 & b1 & b2);
  // A(P1) == 1: exactly one 0→1 step around P2..P9,P2.
  const std::uint64_t ring[9] = {p2, p3, p4, p5, p6, p7, p8, p9, p2};
  std::uint64_t once = 0, twice = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t step = ~ring[i] & ring[i + 1];
    twice |= once & step;
    once |= step;
  }
  const std::uint64_t products_ok =
      kFirst ? ~(p2 & p4 & p6) & ~(p4 & p6 & p8) : ~(p2 & p4 & p8) & ~(p2 & p6 & p8);
  return mid & count_ok & once & ~twice & products_ok;
}

// One sub-iteration over the packed box. `rows` holds h + 2 rows of
// `stride` words: row 0 and row h + 1 are zero guards, and the last word of
// every row is a zero guard column, so every neighbour read lands on a word
// that exists. `above` (stride words) carries the previous row as it stood
// when the sub-iteration began, since that row has already had its
// deletions applied by the time the next row reads it: every decision sees
// the image as it stood at the start of the sub-iteration, as Zhang–Suen
// requires. Returns the pixels deleted.
template <bool kFirst>
std::size_t packed_sub_iteration(std::uint64_t* rows, std::size_t stride, int h,
                                 std::uint64_t* above) {
  std::fill_n(above, stride, std::uint64_t{0});
  std::size_t removed = 0;
  for (int y = 1; y <= h; ++y) {
    std::uint64_t* cur = rows + static_cast<std::size_t>(y) * stride;
    const std::uint64_t* below = cur + stride;
    // Words k - 1 and k of the three rows, as they stood.
    std::uint64_t up_w = 0, mid_w = 0, dn_w = 0;
    std::uint64_t up = above[0], mid = cur[0], dn = below[0];
    for (std::size_t k = 0; k + 1 < stride; ++k) {
      const std::uint64_t up_e = above[k + 1], mid_e = cur[k + 1], dn_e = below[k + 1];
      const std::uint64_t del =
          mid == 0 ? 0 : deletions<kFirst>(up_w, up, up_e, mid_w, mid, mid_e, dn_w, dn, dn_e);
      removed += static_cast<std::size_t>(std::popcount(del));
      above[k] = mid;
      cur[k] = mid & ~del;
      up_w = up, mid_w = mid, dn_w = dn;
      up = up_e, mid = mid_e, dn = dn_e;
    }
  }
  return removed;
}

}  // namespace

SLJ_HOT_PATH void zhang_suen_thin_into(const BinaryImage& img, FrameWorkspace& ws, BinaryImage& out,
                                       ThinningStats* stats) {
  // Thin inside the foreground's bounding box grown by one pixel: outside
  // it everything is background and stays so, and the ring keeps every
  // foreground pixel's 3×3 neighbourhood inside the box — or off the frame,
  // which reads as background either way, as do the packed guard bits.
  const ImageView<const std::uint8_t> box =
      img.view(nonzero_bounds(img).padded(1, img.width(), img.height()));
  const std::size_t w = static_cast<std::size_t>(std::max(box.roi.width(), 0));
  const int h = std::max(box.roi.height(), 0);
  const std::size_t stride = (w + 63) / 64 + 1;
  auto& rows = ws.thin_rows;
  rows.assign(static_cast<std::size_t>(h + 2) * stride, 0);
  ws.thin_above.resize(stride);
  for (int y = 0; y < h; ++y) {
    simd::pack_nonzero_bits<simd::Active>(box.origin + static_cast<std::size_t>(y) * box.stride,
                                          w, rows.data() + static_cast<std::size_t>(y + 1) * stride);
  }

  int iterations = 0;
  std::size_t removed_total = 0;
  while (true) {
    const std::size_t removed =
        packed_sub_iteration<true>(rows.data(), stride, h, ws.thin_above.data()) +
        packed_sub_iteration<false>(rows.data(), stride, h, ws.thin_above.data());
    ++iterations;
    removed_total += removed;
    if (removed == 0) break;
  }

  // Unpack: each surviving bit takes back its input value (deletion only
  // ever clears); everything else is background.
  out.assign(img.width(), img.height(), 0);  // reuses out's buffer at steady state
  const ImageView<std::uint8_t> dst = out.view(box.roi);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* in = box.origin + static_cast<std::size_t>(y) * box.stride;
    std::uint8_t* px = dst.origin + static_cast<std::size_t>(y) * dst.stride;
    const std::uint64_t* words = rows.data() + static_cast<std::size_t>(y + 1) * stride;
    for (std::size_t k = 0; k + 1 < stride; ++k) {
      for (std::uint64_t bits = words[k]; bits != 0; bits &= bits - 1) {
        const std::size_t x = 64 * k + static_cast<std::size_t>(std::countr_zero(bits));
        px[x] = in[x];
      }
    }
  }
  if (stats != nullptr) {
    stats->iterations = iterations;
    stats->removed = removed_total;
  }
}

std::size_t zhang_suen_pass(BinaryImage& img) {
  return sub_iteration(img, /*first=*/true) + sub_iteration(img, /*first=*/false);
}

BinaryImage zhang_suen_thin(const BinaryImage& img, ThinningStats* stats) {
  BinaryImage out = img;
  int iterations = 0;
  std::size_t removed_total = 0;
  while (true) {
    const std::size_t removed = zhang_suen_pass(out);
    ++iterations;
    removed_total += removed;
    if (removed == 0) break;
  }
  if (stats != nullptr) {
    stats->iterations = iterations;
    stats->removed = removed_total;
  }
  return out;
}

int neighbour_count(const BinaryImage& img, int x, int y) {
  const auto p = ring_values(img, x, y);
  int b = 0;
  for (const std::uint8_t v : p) b += v;
  return b;
}

int transition_count(const BinaryImage& img, int x, int y) {
  const auto p = ring_values(img, x, y);
  int a = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == 0 && p[(i + 1) % p.size()] == 1) ++a;
  }
  return a;
}

}  // namespace slj::thin
