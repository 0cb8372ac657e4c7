// Image<T>: the single pixel-buffer container used by every stage of the
// pipeline (RGB frames, grayscale difference maps, binary silhouettes and
// skeletons).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "imaging/geometry.hpp"

namespace slj {

/// 8-bit RGB pixel. Plain aggregate; members vary independently.
struct Rgb {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  friend constexpr bool operator==(const Rgb&, const Rgb&) = default;
};
static_assert(sizeof(Rgb) == 3, "RGB frames are read as interleaved byte rows");

/// Half-open pixel rectangle [x0, x1) × [y0, y1) in frame coordinates. The
/// back end of the extractor runs inside one: the foreground's bounding box,
/// grown by the stages' reach.
struct Roi {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;

  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  bool empty() const { return x1 <= x0 || y1 <= y0; }
  bool contains(int x, int y) const { return x >= x0 && x < x1 && y >= y0 && y < y1; }

  /// Grown by `pad` on every side, then clipped to a width × height frame.
  /// An empty box stays empty.
  Roi padded(int pad, int width, int height) const {
    if (empty()) return {};
    return {std::max(x0 - pad, 0), std::max(y0 - pad, 0), std::min(x1 + pad, width),
            std::min(y1 + pad, height)};
  }

  friend bool operator==(const Roi&, const Roi&) = default;
};

/// Borrowed, strided window onto pixels owned elsewhere: `origin` points at
/// pixel (roi.x0, roi.y0), rows are `stride` elements apart, and at(x, y)
/// takes the frame coordinates of the image the view was cut from — so
/// stats and positions computed through a view need no offset fix-up.
template <typename T>
struct ImageView {
  T* origin = nullptr;
  std::size_t stride = 0;
  Roi roi;

  /// Pointer to pixel (roi.x0, y).
  T* row(int y) const { return origin + static_cast<std::size_t>(y - roi.y0) * stride; }
  T& at(int x, int y) const {
    assert(roi.contains(x, y));
    return row(y)[x - roi.x0];
  }
  bool in_bounds(int x, int y) const { return roi.contains(x, y); }
};

/// Row-major 2-D pixel buffer.
///
/// Invariant: data_.size() == width_ * height_. The class never exposes a
/// way to break it; resizing reallocates.
template <typename T>
class Image {
 public:
  Image() = default;

  Image(int width, int height, T fill = T{})
      : width_(width), height_(height), data_(checked_size(width, height), fill) {}

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }

  bool in_bounds(int x, int y) const { return x >= 0 && x < width_ && y >= 0 && y < height_; }
  bool in_bounds(const PointI& p) const { return in_bounds(p.x, p.y); }

  T& at(int x, int y) {
    assert(in_bounds(x, y));
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  const T& at(int x, int y) const {
    assert(in_bounds(x, y));
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  T& at(const PointI& p) { return at(p.x, p.y); }
  const T& at(const PointI& p) const { return at(p.x, p.y); }

  /// Bounds-checked read that returns `outside` for off-image coordinates.
  T at_or(int x, int y, T outside) const { return in_bounds(x, y) ? at(x, y) : outside; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Resizes to width × height with every pixel set to `fill`. Reuses the
  /// existing buffer when capacity allows, so steady-state callers (per-frame
  /// scratch in FrameWorkspace) never reallocate.
  void assign(int width, int height, T fill = T{}) {
    data_.assign(checked_size(width, height), fill);
    width_ = width;
    height_ = height;
  }

  /// Resizes to width × height leaving pixel values unspecified (whatever the
  /// buffer held before). For scratch images that are fully overwritten.
  void resize_discard(int width, int height) {
    data_.resize(checked_size(width, height));
    width_ = width;
    height_ = height;
  }

  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

  /// The whole image as a Roi.
  Roi bounds() const { return {0, 0, width_, height_}; }

  /// Strided views of the pixels inside `roi`, which must lie within the
  /// image.
  ImageView<T> view(Roi roi) {
    return {data_.data() + offset_of(roi), static_cast<std::size_t>(width_), roi};
  }
  ImageView<const T> view(Roi roi) const {
    return {data_.data() + offset_of(roi), static_cast<std::size_t>(width_), roi};
  }

  friend bool operator==(const Image&, const Image&) = default;

 private:
  static std::size_t checked_size(int width, int height) {
    if (width < 0 || height < 0) {
      throw std::invalid_argument("Image dimensions must be non-negative");
    }
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }

  std::size_t offset_of(Roi roi) const {
    assert(roi.empty() || (roi.x0 >= 0 && roi.y0 >= 0 && roi.x1 <= width_ && roi.y1 <= height_));
    return roi.empty() ? 0
                       : static_cast<std::size_t>(roi.y0) * static_cast<std::size_t>(width_) +
                             static_cast<std::size_t>(roi.x0);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<T> data_;
};

using GrayImage = Image<std::uint8_t>;
using RgbImage = Image<Rgb>;
/// Binary image: 0 = background, 1 = foreground. Stored one byte per pixel.
using BinaryImage = Image<std::uint8_t>;

/// Number of foreground (non-zero) pixels.
inline std::size_t count_foreground(const BinaryImage& img) {
  return static_cast<std::size_t>(
      std::count_if(img.data().begin(), img.data().end(), [](std::uint8_t v) { return v != 0; }));
}

/// Intersection-over-union of two same-sized binary masks. Returns 1.0 when
/// both are empty (they agree perfectly).
inline double iou(const BinaryImage& a, const BinaryImage& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("iou: image sizes differ");
  }
  std::size_t inter = 0;
  std::size_t uni = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool fa = a.data()[i] != 0;
    const bool fb = b.data()[i] != 0;
    inter += static_cast<std::size_t>(fa && fb);
    uni += static_cast<std::size_t>(fa || fb);
  }
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

/// 8-connected neighbour offsets in Z-S order P2..P9: clockwise starting
/// from the pixel directly above. Thinning and graph construction both
/// depend on this exact order.
inline constexpr PointI kNeighbours8[8] = {
    {0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}};

/// 4-connected neighbour offsets.
inline constexpr PointI kNeighbours4[4] = {{0, -1}, {1, 0}, {0, 1}, {-1, 0}};

}  // namespace slj
