#include "segmentation/object_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/simd.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "imaging/row_kernels.hpp"

namespace slj::seg {
namespace {

void validate(const ExtractorParams& params) {
  if (params.window < 1 || params.window % 2 == 0) {
    throw std::invalid_argument("ExtractorParams.window (the paper's n) must be odd and >= 1; got " +
                                std::to_string(params.window));
  }
  if (params.median_window < 1 || params.median_window % 2 == 0) {
    throw std::invalid_argument("ExtractorParams.median_window must be odd and >= 1; got " +
                                std::to_string(params.median_window));
  }
  if (params.th_object < 0 || params.th_object > 255) {
    throw std::invalid_argument(
        "ExtractorParams.th_object must be in [0, 255] (it thresholds the normalized "
        "8-bit difference); got " +
        std::to_string(params.th_object));
  }
  if (!(params.min_max_difference >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument("ExtractorParams.min_max_difference must be >= 0; got " +
                                std::to_string(params.min_max_difference));
  }
}

}  // namespace

// validate() runs inside the first initializer so an invalid window is
// reported with the ExtractorParams message, not BackgroundModel's.
ObjectExtractor::ObjectExtractor(ExtractorParams params)
    : params_((validate(params), params)), background_(params.window) {}

void ObjectExtractor::set_background(const RgbImage& background) {
  background_.set_background(background);
}

void ObjectExtractor::accumulate_background(const RgbImage& background) {
  background_.accumulate(background);
}

ExtractionResult ObjectExtractor::extract(const RgbImage& frame) const {
  if (!background_.has_background()) {
    throw std::logic_error("ObjectExtractor: background not set");
  }
  if (frame.width() != background_.width() || frame.height() != background_.height()) {
    throw std::invalid_argument("frame size differs from background");
  }
  const RgbMeans& bave = background_.averaged();
  // Step ii: Aave, the windowed mean of the frame with the moving object.
  const RgbMeans aave = window_mean_rgb(frame, params_.window);

  ExtractionResult res;
  const int w = frame.width();
  const int h = frame.height();
  res.difference = Image<double>(w, h);

  // Steps iii–v: C = Aave − Bave per channel; D = |C_R| + |C_G| + |C_B|.
  double max_d = 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double d = std::abs(aave.r.at(x, y) - bave.r.at(x, y)) +
                       std::abs(aave.g.at(x, y) - bave.g.at(x, y)) +
                       std::abs(aave.b.at(x, y) - bave.b.at(x, y));
      res.difference.at(x, y) = d;
      max_d = std::max(max_d, d);
    }
  }
  res.max_difference = max_d;

  // Steps vi–vii: shift so max(D) = 255, clamp negatives to zero. If the
  // scene differs nowhere (max_d = 0), or differs by less than the noise
  // floor (rescaling would only amplify sensor noise into a phantom
  // silhouette), everything stays background.
  const bool scene_changed = max_d > 0.0 && max_d >= params_.min_max_difference;
  const double shift = max_d - 255.0;
  res.normalized = GrayImage(w, h);
  res.raw_mask = BinaryImage(w, h);
  for (std::size_t i = 0; i < res.normalized.size(); ++i) {
    const double r = scene_changed ? res.difference.data()[i] - shift : 0.0;
    const double clamped = std::clamp(r, 0.0, 255.0);
    res.normalized.data()[i] = static_cast<std::uint8_t>(std::lround(clamped));
    // Step viii: threshold at Th_Object.
    res.raw_mask.data()[i] = res.normalized.data()[i] > params_.th_object ? 1 : 0;
  }

  // Fig. 1(c): median smoothing removes the "small holes and ridged edges".
  res.smoothed = median_filter_binary(res.raw_mask, params_.median_window);

  BinaryImage cleaned = res.smoothed;
  if (params_.keep_largest_only) cleaned = largest_component(cleaned);
  if (params_.fill_holes) cleaned = fill_holes(cleaned);
  res.silhouette = std::move(cleaned);
  return res;
}

SLJ_HOT_PATH double ObjectExtractor::extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                                  BinaryImage& silhouette_out) const {
  if (!background_.has_background()) {
    throw std::logic_error("ObjectExtractor: background not set");
  }
  if (frame.width() != background_.width() || frame.height() != background_.height()) {
    throw std::invalid_argument("frame size differs from background");
  }
  const RgbMeans& bave = background_.averaged();
  const int w = frame.width();
  const int h = frame.height();
  const double* br = bave.r.data().data();
  const double* bg = bave.g.data().data();
  const double* bb = bave.b.data().data();
  ws.difference.resize_discard(w, h);
  double* diff = ws.difference.data().data();

  // Steps ii–v fused: the exact integer moving-window kernel hands over each
  // row's window sums, and the frame's mean — sum / clamped area, the same
  // IEEE division window_mean_rgb performs on the same integer — feeds the
  // difference directly, so the Aave planes are never materialised. D is
  // formed in extract()'s operand order and max(D) is order-independent (no
  // NaNs, no negative zeros), so D and max(D) are bit-identical to extract().
  using V = simd::VecF64<simd::Active>;
  V vmax = V::broadcast(0.0);
  double max_d = 0.0;
  rowk::window_sum_rows<simd::Active>(
      frame, params_.window, ws.window_sums,
      [&](int y, int rows, const std::int32_t* sr, const std::int32_t* sg, const std::int32_t* sb) {
        const double* widths = ws.window_sums.widths.data();
        const V vrows = V::broadcast(static_cast<double>(rows));
        const std::size_t base = static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
        int x = 0;
        for (; x + V::kLanes <= w; x += V::kLanes) {
          const std::size_t i = base + static_cast<std::size_t>(x);
          const V area = V::load(widths + x) * vrows;
          const V dr = (V::load_i32(sr + x) / area - V::load(br + i)).abs();
          const V dg = (V::load_i32(sg + x) / area - V::load(bg + i)).abs();
          const V db = (V::load_i32(sb + x) / area - V::load(bb + i)).abs();
          const V d = dr + dg + db;
          d.store(diff + i);
          vmax = V::max(vmax, d);
        }
        for (; x < w; ++x) {
          const std::size_t i = base + static_cast<std::size_t>(x);
          const double area = widths[x] * static_cast<double>(rows);
          const double d = std::abs(static_cast<double>(sr[x]) / area - br[i]) +
                           std::abs(static_cast<double>(sg[x]) / area - bg[i]) +
                           std::abs(static_cast<double>(sb[x]) / area - bb[i]);
          diff[i] = d;
          max_d = std::max(max_d, d);
        }
      });
  max_d = std::max(max_d, vmax.reduce_max());

  // Steps vi–viii fused without materialising the rounded 8-bit image:
  // lround(clamped) > th  ⇔  clamped >= th + 0.5 (lround rounds half away
  // from zero and clamped is non-negative), and th + 0.5 is exact in double,
  // so the mask is bit-identical to extract()'s threshold of `normalized`.
  // std::clamp(r, 0, 255) = min(max(r, 0), 255) lane-wise: r is never NaN
  // and never −0, so the vector compare/select sequence matches exactly.
  const bool scene_changed = max_d > 0.0 && max_d >= params_.min_max_difference;
  const double shift = max_d - 255.0;
  const double mask_threshold = static_cast<double>(params_.th_object) + 0.5;
  ws.raw_mask.resize_discard(w, h);
  std::uint8_t* mask = ws.raw_mask.data().data();
  if (scene_changed) {
    const V vshift = V::broadcast(shift);
    const V vzero = V::broadcast(0.0);
    const V v255 = V::broadcast(255.0);
    const V vth = V::broadcast(mask_threshold);
    const std::size_t n = ws.raw_mask.size();
    std::size_t k = 0;
    for (; k + static_cast<std::size_t>(V::kLanes) <= n; k += static_cast<std::size_t>(V::kLanes)) {
      const V clamped = V::min(V::max(V::load(diff + k) - vshift, vzero), v255);
      V::store_ge01(clamped, vth, mask + k);
    }
    for (; k < n; ++k) {
      const double clamped = std::clamp(diff[k] - shift, 0.0, 255.0);
      mask[k] = clamped >= mask_threshold ? 1 : 0;
    }
  } else {
    std::fill(mask, mask + ws.raw_mask.size(), 0);
  }

  // The back end runs inside the raw mask's bounding box grown by the
  // median's reach plus one pixel, and is exact there:
  //  * the median reads the full-frame mask, and an output pixel outside
  //    the box has no foreground in its window, so it is 0;
  //  * labeling, hole fill (and thinning downstream) then see a ring of
  //    background at least one pixel wide inside the box — or the frame
  //    edge — connected to the outer background, as in the full frame.
  // Outside the box every output is zero, as the full-frame passes give.
  ws.roi = nonzero_bounds(ws.raw_mask).padded(params_.median_window / 2 + 1, w, h);
  median_filter_binary_into(ws.raw_mask, params_.median_window, ws.roi, ws.mask_integral,
                            ws.smoothed);

  const BinaryImage* cleaned = &ws.smoothed;
  if (params_.keep_largest_only) {
    largest_component_into(ws.smoothed, ws.roi, true, ws.labeling, ws.pixel_stack, ws.largest);
    cleaned = &ws.largest;
  }
  if (params_.fill_holes) {
    fill_holes_into(*cleaned, ws.roi, ws.reached, ws.flood_stack, silhouette_out);
  } else {
    silhouette_out = *cleaned;
  }
  return max_d;
}

BinaryImage ObjectExtractor::silhouette(const RgbImage& frame) const {
  return extract(frame).silhouette;
}

}  // namespace slj::seg
