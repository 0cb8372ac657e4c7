#include "thinning/zhang_suen.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

// Zhang–Suen deletability of view pixel (x, y) — view-local coordinates,
// `data` at the view's origin, rows `stride` apart, the view w × h.
// Interior pixels (the overwhelming majority) load their ring with three
// row pointers and no bounds checks; only the view's one-pixel border
// checks, reading outside the view as background. Same conditions, in the
// same order, as sub_iteration above.
bool deletable(const std::uint8_t* data, std::size_t stride, int w, int h, int x, int y,
               bool first) {
  std::array<std::uint8_t, 8> p;
  if (x > 0 && y > 0 && x < w - 1 && y < h - 1) {
    const std::uint8_t* up = data + static_cast<std::size_t>(y - 1) * stride + x;
    const std::uint8_t* mid = up + stride;
    const std::uint8_t* down = mid + stride;
    p = {static_cast<std::uint8_t>(up[0] ? 1 : 0),    // P2
         static_cast<std::uint8_t>(up[1] ? 1 : 0),    // P3
         static_cast<std::uint8_t>(mid[1] ? 1 : 0),   // P4
         static_cast<std::uint8_t>(down[1] ? 1 : 0),  // P5
         static_cast<std::uint8_t>(down[0] ? 1 : 0),  // P6
         static_cast<std::uint8_t>(down[-1] ? 1 : 0), // P7
         static_cast<std::uint8_t>(mid[-1] ? 1 : 0),  // P8
         static_cast<std::uint8_t>(up[-1] ? 1 : 0)};  // P9
  } else {
    for (std::size_t i = 0; i < kRing.size(); ++i) {
      const int nx = x + kRing[i].x;
      const int ny = y + kRing[i].y;
      const bool inside = nx >= 0 && ny >= 0 && nx < w && ny < h;
      p[i] = inside && data[static_cast<std::size_t>(ny) * stride + nx] ? 1 : 0;
    }
  }
  int b = 0;
  for (const std::uint8_t v : p) b += v;
  if (b < 2 || b > 6) return false;
  int a = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == 0 && p[(i + 1) % p.size()] == 1) ++a;
  }
  if (a != 1) return false;
  const bool cond_c = first ? (p[0] * p[2] * p[4] == 0) : (p[0] * p[2] * p[6] == 0);
  const bool cond_d = first ? (p[2] * p[4] * p[6] == 0) : (p[0] * p[4] * p[6] == 0);
  return cond_c && cond_d;
}

}  // namespace

SLJ_HOT_PATH void zhang_suen_thin_into(const BinaryImage& img, FrameWorkspace& ws, BinaryImage& out,
                                       ThinningStats* stats) {
  out = img;  // vector copy-assignment: reuses out's buffer at steady state
  // Thin inside the foreground's bounding box grown by one pixel: outside
  // it everything is background and stays so, and the ring keeps every
  // foreground pixel's 3×3 neighbourhood inside the box — or off the frame,
  // which reads as background either way — so each deletability test sees
  // exactly the pixels the full-frame pass would.
  const ImageView<std::uint8_t> box =
      out.view(nonzero_bounds(out).padded(1, out.width(), out.height()));
  const int w = box.roi.width();
  const int h = box.roi.height();
  const std::size_t stride = box.stride;
  auto& cand_first = ws.thin_candidates_first;
  auto& cand_second = ws.thin_candidates_second;
  auto& eval = ws.thin_eval;
  auto& deletions = ws.thin_deletions;
  auto& marks = ws.thin_marks;
  cand_first.clear();
  cand_second.clear();
  eval.clear();
  marks.assign(static_cast<std::size_t>(std::max(w, 0)) * static_cast<std::size_t>(std::max(h, 0)),
               0);
  std::uint8_t* data = box.origin;
  // Candidates, deletions and marks index the box densely (y·w + x);
  // pixels live `stride` apart in `data`.
  const auto pixel = [&](std::uint32_t idx) -> std::uint8_t& {
    return data[(idx / static_cast<std::uint32_t>(w)) * stride +
                idx % static_cast<std::uint32_t>(w)];
  };

  // Applies the collected deletions simultaneously, then queues every pixel
  // of each deleted pixel's 3×3 neighbourhood for both sub-iteration types:
  // those are exactly the pixels whose answer can have changed.
  const auto apply_deletions = [&] {
    for (const std::uint32_t idx : deletions) pixel(idx) = 0;
    for (const std::uint32_t idx : deletions) {
      const int x = static_cast<int>(idx % static_cast<std::uint32_t>(w));
      const int y = static_cast<int>(idx / static_cast<std::uint32_t>(w));
      const int x0 = std::max(x - 1, 0), x1 = std::min(x + 1, w - 1);
      const int y0 = std::max(y - 1, 0), y1 = std::min(y + 1, h - 1);
      for (int ny = y0; ny <= y1; ++ny) {
        for (int nx = x0; nx <= x1; ++nx) {
          const std::uint32_t q = static_cast<std::uint32_t>(ny) * w + nx;
          if (!(marks[q] & 1u)) {
            marks[q] |= 1u;
            cand_first.push_back(q);
          }
          if (!(marks[q] & 2u)) {
            marks[q] |= 2u;
            cand_second.push_back(q);
          }
        }
      }
    }
  };

  // Full-box sub-iteration (first pass only). Background runs — most of a
  // silhouette — are skipped a vector block at a time; skipped pixels are
  // all zero, which can never be deletable.
  const auto full_sub = [&](bool first) {
    deletions.clear();
    const std::size_t wn = static_cast<std::size_t>(w);
    for (int y = 0; y < h; ++y) {
      const std::uint8_t* row = data + static_cast<std::size_t>(y) * stride;
      std::size_t x = 0;
      while (x < wn) {
        x += simd::find_nonzero<simd::Active>(row + x, wn - x);
        if (x >= wn) break;
        if (deletable(data, stride, w, h, static_cast<int>(x), y, first)) {
          deletions.push_back(static_cast<std::uint32_t>(static_cast<std::size_t>(y) * wn + x));
        }
        ++x;
      }
    }
    apply_deletions();
    return deletions.size();
  };

  // Frontier sub-iteration: only revisit queued candidates.
  const auto frontier_sub = [&](bool first) {
    auto& cand = first ? cand_first : cand_second;
    const std::uint8_t bit = first ? 1u : 2u;
    eval.swap(cand);
    cand.clear();
    deletions.clear();
    for (const std::uint32_t idx : eval) {
      marks[idx] &= static_cast<std::uint8_t>(~bit);
      if (!pixel(idx)) continue;
      const int x = static_cast<int>(idx % static_cast<std::uint32_t>(w));
      const int y = static_cast<int>(idx / static_cast<std::uint32_t>(w));
      if (deletable(data, stride, w, h, x, y, first)) deletions.push_back(idx);
    }
    apply_deletions();
    return deletions.size();
  };

  int iterations = 0;
  std::size_t removed_total = 0;
  bool full_scan = true;
  while (true) {
    const std::size_t removed = full_scan ? full_sub(true) + full_sub(false)
                                          : frontier_sub(true) + frontier_sub(false);
    full_scan = false;
    ++iterations;
    removed_total += removed;
    if (removed == 0) break;
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
