#include "segmentation/background_model.hpp"

#include <stdexcept>

namespace slj::seg {

BackgroundModel::BackgroundModel(int window) : window_(window) {
  if (window < 1 || window % 2 == 0) {
    throw std::invalid_argument("background window must be odd and >= 1");
  }
}

void BackgroundModel::accumulate(const RgbImage& frame) {
  // Average the accumulated frames, rounded to 8 bits, then apply the
  // paper's n×n moving window with the exact integer kernel — identical to
  // feeding the rounded average through window_mean_rgb. A single frame is
  // its own average, so the channel sums only exist from the second frame.
  if (frame_count_ == 0) {
    average_ = frame;
    sums_.clear();
  } else {
    if (frame.width() != average_.width() || frame.height() != average_.height()) {
      throw std::invalid_argument("background frames must share one size");
    }
    std::uint8_t* avg = reinterpret_cast<std::uint8_t*>(average_.data().data());
    if (sums_.empty()) sums_.assign(avg, avg + 3u * average_.size());  // the first frame
    const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(frame.data().data());
    const double inv = 1.0 / (frame_count_ + 1);
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      sums_[i] += bytes[i];
      avg[i] = static_cast<std::uint8_t>(static_cast<double>(sums_[i]) * inv + 0.5);
    }
  }
  ++frame_count_;
  window_mean_rgb_into(average_, window_, scratch_, mean_);
}

void BackgroundModel::set_background(const RgbImage& frame) {
  reset();
  accumulate(frame);
}

void BackgroundModel::reset() { frame_count_ = 0; }

const RgbMeans& BackgroundModel::averaged() const {
  if (frame_count_ == 0) throw std::logic_error("background model has no frames");
  return mean_;
}

}  // namespace slj::seg
