// Binary morphology and region utilities used to clean the extracted
// silhouette before thinning: erode/dilate, open/close, border-flood hole
// filling.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"

namespace slj {

/// 3×3 structuring element shape.
enum class Structuring { kCross4, kSquare8 };

BinaryImage dilate(const BinaryImage& img, Structuring se = Structuring::kSquare8);
BinaryImage erode(const BinaryImage& img, Structuring se = Structuring::kSquare8);

/// Erosion followed by dilation: removes speckle smaller than the element.
BinaryImage open(const BinaryImage& img, Structuring se = Structuring::kSquare8);

/// Dilation followed by erosion: closes pinholes smaller than the element.
BinaryImage close(const BinaryImage& img, Structuring se = Structuring::kSquare8);

/// Fills interior holes: every background region not connected (4-conn) to
/// the image border becomes foreground.
BinaryImage fill_holes(const BinaryImage& img);

/// Allocation-free variant: the border flood runs on `reached`/`stack`
/// scratch and the result lands in `out`, all reusing their storage.
/// Considerably faster than fill_holes: the flood walks a sentinel-padded
/// closed map with raw indices, so the inner loop has no bounds checks.
/// `out` must not alias `img`.
SLJ_HOT_PATH void fill_holes_into(const BinaryImage& img, BinaryImage& reached,
                                  std::vector<std::uint32_t>& stack, BinaryImage& out);

/// Same, flooding only inside `roi` from its border: bit-identical to
/// fill_holes when `img` is zero on and outside the roi's one-pixel inner
/// ring wherever the roi does not reach the frame edge (the background
/// around the foreground then connects to the outer background, as in the
/// full frame). `out` is full-size, zero outside `roi`.
SLJ_HOT_PATH void fill_holes_into(const BinaryImage& img, Roi roi, BinaryImage& reached,
                                  std::vector<std::uint32_t>& stack, BinaryImage& out);

}  // namespace slj
