// Connected-component labelling and component statistics. The segmentation
// stage keeps only the largest component (the jumper) after thresholding.
#pragma once

#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"

namespace slj {

/// Per-component summary produced by label_components.
struct ComponentStats {
  int label = 0;            ///< 1-based label as stored in the label image.
  std::size_t area = 0;     ///< pixel count
  PointI min{0, 0};         ///< bounding-box top-left
  PointI max{0, 0};         ///< bounding-box bottom-right (inclusive)
  PointF centroid{0, 0};
};

struct Labeling {
  /// 0 = background, 1..N = component id. Covers the labelled view:
  /// labels(0, 0) is frame pixel `origin` (the origin is 0 for whole images).
  Image<int> labels;
  PointI origin{0, 0};
  /// Stats in frame coordinates, in raster order of their first pixel.
  std::vector<ComponentStats> components;

  /// Label of frame pixel (x, y), which must lie inside the labelled view.
  int label_at(int x, int y) const { return labels.at(x - origin.x, y - origin.y); }
};

/// Labels foreground components. `eight_connected` selects 8- vs
/// 4-connectivity (skeletons need 8).
Labeling label_components(const BinaryImage& img, bool eight_connected = true);

/// Allocation-free variant: labels and per-component stats are written into
/// `out` and the DFS runs on `stack`, both reusing their storage.
SLJ_HOT_PATH void label_components_into(const BinaryImage& img, bool eight_connected, Labeling& out,
                                        std::vector<PointI>& stack);

/// Same, over a strided view: components are traced inside view.roi only
/// (pixels outside it count as background), `out.labels` covers the roi and
/// the stats are in the frame coordinates of the viewed image.
SLJ_HOT_PATH void label_components_into(ImageView<const std::uint8_t> img, bool eight_connected,
                                        Labeling& out, std::vector<PointI>& stack);

/// Mask of the largest foreground component; empty-input → all-zero mask.
BinaryImage largest_component(const BinaryImage& img, bool eight_connected = true);

/// Allocation-free variant of largest_component; `labeling` and `stack` are
/// scratch, the mask lands in `out`. `out` must not alias `img`.
SLJ_HOT_PATH void largest_component_into(const BinaryImage& img, bool eight_connected,
                                         Labeling& labeling, std::vector<PointI>& stack,
                                         BinaryImage& out);

/// Same, labelling only inside `roi`: bit-identical to largest_component
/// when `img` is zero outside `roi`. `out` is full-size, zero outside `roi`.
SLJ_HOT_PATH void largest_component_into(const BinaryImage& img, Roi roi, bool eight_connected,
                                         Labeling& labeling, std::vector<PointI>& stack,
                                         BinaryImage& out);

/// Counts connected foreground components.
std::size_t component_count(const BinaryImage& img, bool eight_connected = true);

/// Bounding box of the nonzero pixels; empty when there are none.
Roi nonzero_bounds(const BinaryImage& img);

}  // namespace slj
