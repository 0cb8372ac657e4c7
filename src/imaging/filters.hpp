// Spatial filters. The paper smooths the extracted silhouette with a median
// filter (Sec. 2, Fig. 1c); the binary specialisation below is what the
// segmentation pipeline uses.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"

namespace slj {

/// Median filter over a k×k window (k odd). Border pixels use the clamped
/// window. Works on full 8-bit grayscale range.
GrayImage median_filter(const GrayImage& img, int k);

/// Median filter specialised to 0/1 masks: a pixel becomes foreground iff
/// the majority of its (clamped) k×k window is foreground. Equivalent to
/// median_filter on a 0/1 image but considerably faster.
BinaryImage median_filter_binary(const BinaryImage& img, int k);

/// Allocation-free variant: a separable integer box count over sliding
/// column counts kept in `colsum`, the result written to `out`, both
/// reusing their storage. Output is bit-identical to median_filter_binary.
/// `out` must not alias `img`.
SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out);

/// The extractor's median: the same filter computed only inside `roi` (which
/// must lie within the image). Windows still clamp to the whole image, and
/// `out` is full-size with zeros outside `roi` — bit-identical to
/// median_filter_binary whenever `roi` contains the foreground's bounding
/// box grown by k/2.
SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k, Roi roi,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out);

/// Box blur (mean filter) over a k×k window, rounding to nearest.
GrayImage box_blur(const GrayImage& img, int k);

}  // namespace slj
