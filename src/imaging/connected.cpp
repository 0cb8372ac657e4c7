#include "imaging/connected.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/simd.hpp"

namespace slj {

Labeling label_components(const BinaryImage& img, bool eight_connected) {
  Labeling out;
  std::vector<PointI> stack;
  label_components_into(img, eight_connected, out, stack);
  return out;
}

SLJ_HOT_PATH void label_components_into(const BinaryImage& img, bool eight_connected, Labeling& out,
                                        std::vector<PointI>& stack) {
  label_components_into(img.view(img.bounds()), eight_connected, out, stack);
}

SLJ_HOT_PATH void label_components_into(ImageView<const std::uint8_t> img, bool eight_connected,
                                        Labeling& out, std::vector<PointI>& stack) {
  const Roi roi = img.roi;
  out.labels.assign(std::max(roi.width(), 0), std::max(roi.height(), 0), 0);
  out.origin = {roi.x0, roi.y0};
  out.components.clear();
  stack.clear();
  if (roi.empty()) return;
  const std::span<const PointI> nbrs =
      eight_connected ? std::span<const PointI>(kNeighbours8) : std::span<const PointI>(kNeighbours4);
  const auto label = [&](int x, int y) -> int& { return out.labels.at(x - roi.x0, y - roi.y0); };
  const std::size_t w = static_cast<std::size_t>(roi.width());
  int next_label = 0;
  for (int y = roi.y0; y < roi.y1; ++y) {
    // Seed scan: silhouette rows are overwhelmingly background, so skip the
    // zero spans a vector block at a time.
    const std::uint8_t* row = img.row(y);
    for (std::size_t xi = 0; xi < w; ++xi) {
      xi += simd::find_nonzero<simd::Active>(row + xi, w - xi);
      if (xi >= w) break;
      const int x = roi.x0 + static_cast<int>(xi);
      if (label(x, y) != 0) continue;
      ++next_label;
      ComponentStats stats;
      stats.label = next_label;
      stats.min = stats.max = {x, y};
      double sum_x = 0.0;
      double sum_y = 0.0;
      label(x, y) = next_label;
      stack.push_back({x, y});
      while (!stack.empty()) {
        const PointI p = stack.back();
        stack.pop_back();
        ++stats.area;
        sum_x += p.x;
        sum_y += p.y;
        stats.min.x = std::min(stats.min.x, p.x);
        stats.min.y = std::min(stats.min.y, p.y);
        stats.max.x = std::max(stats.max.x, p.x);
        stats.max.y = std::max(stats.max.y, p.y);
        for (const PointI& d : nbrs) {
          const int nx = p.x + d.x;
          const int ny = p.y + d.y;
          if (img.in_bounds(nx, ny) && img.at(nx, ny) && label(nx, ny) == 0) {
            label(nx, ny) = next_label;
            stack.push_back({nx, ny});
          }
        }
      }
      stats.centroid = {sum_x / static_cast<double>(stats.area),
                        sum_y / static_cast<double>(stats.area)};
      out.components.push_back(stats);
    }
  }
}

BinaryImage largest_component(const BinaryImage& img, bool eight_connected) {
  Labeling labeling;
  std::vector<PointI> stack;
  BinaryImage out;
  largest_component_into(img, eight_connected, labeling, stack, out);
  return out;
}

SLJ_HOT_PATH void largest_component_into(const BinaryImage& img, bool eight_connected,
                                         Labeling& labeling, std::vector<PointI>& stack,
                                         BinaryImage& out) {
  largest_component_into(img, img.bounds(), eight_connected, labeling, stack, out);
}

SLJ_HOT_PATH void largest_component_into(const BinaryImage& img, Roi roi, bool eight_connected,
                                         Labeling& labeling, std::vector<PointI>& stack,
                                         BinaryImage& out) {
  label_components_into(img.view(roi), eight_connected, labeling, stack);
  out.assign(img.width(), img.height(), 0);
  if (labeling.components.empty()) return;
  const auto largest = std::max_element(
      labeling.components.begin(), labeling.components.end(),
      [](const ComponentStats& a, const ComponentStats& b) { return a.area < b.area; });
  const ImageView<std::uint8_t> dst = out.view(roi);
  const std::size_t w = static_cast<std::size_t>(roi.width());
  const int* labels = labeling.labels.data().data();
  for (int y = roi.y0; y < roi.y1; ++y) {
    simd::store_equal01_i32<simd::Active>(labels + static_cast<std::size_t>(y - roi.y0) * w,
                                          largest->label, dst.row(y), w);
  }
}

std::size_t component_count(const BinaryImage& img, bool eight_connected) {
  return label_components(img, eight_connected).components.size();
}

Roi nonzero_bounds(const BinaryImage& img) {
  const std::size_t w = static_cast<std::size_t>(img.width());
  Roi box{img.width(), img.height(), 0, 0};
  for (int y = 0; y < img.height(); ++y) {
    const std::uint8_t* row = img.data().data() + static_cast<std::size_t>(y) * w;
    const std::size_t first = simd::find_nonzero<simd::Active>(row, w);
    if (first == w) continue;
    const std::size_t last = simd::find_last_nonzero<simd::Active>(row, w);
    box.x0 = std::min(box.x0, static_cast<int>(first));
    box.x1 = std::max(box.x1, static_cast<int>(last) + 1);
    box.y0 = std::min(box.y0, y);
    box.y1 = y + 1;
  }
  return box.empty() ? Roi{} : box;
}

}  // namespace slj
