// Background model for the paper's object-extraction algorithm (Sec. 2,
// steps i–ii): the moving-window n×n per-channel average of the background
// frame, optionally accumulated over several empty frames for stability
// ("the light sources can be controlled and are more stable").
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/image.hpp"
#include "imaging/integral.hpp"

namespace slj::seg {

class BackgroundModel {
 public:
  /// `window` is the paper's n (odd). The model is empty until a frame is
  /// accumulated.
  explicit BackgroundModel(int window = 3);

  /// Adds one empty-scene frame; the stored background is the running mean.
  void accumulate(const RgbImage& frame);

  /// Convenience: reset and accumulate exactly one frame.
  void set_background(const RgbImage& frame);

  void reset();

  bool has_background() const { return frame_count_ > 0; }
  int window() const { return window_; }
  int width() const { return average_.width(); }
  int height() const { return average_.height(); }

  /// The paper's Bave: per-channel moving-window mean of the background.
  /// Rebuilt eagerly by accumulate(), so concurrent const reads (parallel
  /// frame extraction against one installed background) are safe.
  const RgbMeans& averaged() const;

 private:
  int window_;
  int frame_count_ = 0;
  /// Per-pixel channel sums of the accumulated frames, interleaved like the
  /// frames' bytes; empty while only one frame is in.
  std::vector<std::uint32_t> sums_;
  /// The accumulated frames' mean, rounded to 8 bits before windowing.
  RgbImage average_;
  RgbMeans mean_;
  WindowSumScratch scratch_;
};

}  // namespace slj::seg
