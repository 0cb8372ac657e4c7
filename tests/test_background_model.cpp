#include "segmentation/background_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace slj::seg {
namespace {

RgbImage constant_frame(int w, int h, Rgb value) { return RgbImage(w, h, value); }

TEST(BackgroundModel, ThrowsOnEvenWindow) {
  EXPECT_THROW(BackgroundModel(2), std::invalid_argument);
  EXPECT_THROW(BackgroundModel(0), std::invalid_argument);
}

TEST(BackgroundModel, EmptyModelHasNoBackground) {
  BackgroundModel model(3);
  EXPECT_FALSE(model.has_background());
  EXPECT_THROW(model.averaged(), std::logic_error);
}

TEST(BackgroundModel, SingleFrameAverageEqualsWindowMean) {
  BackgroundModel model(3);
  model.set_background(constant_frame(8, 6, {30, 60, 90}));
  EXPECT_TRUE(model.has_background());
  const RgbMeans& m = model.averaged();
  EXPECT_DOUBLE_EQ(m.r.at(4, 3), 30.0);
  EXPECT_DOUBLE_EQ(m.g.at(4, 3), 60.0);
  EXPECT_DOUBLE_EQ(m.b.at(4, 3), 90.0);
}

TEST(BackgroundModel, AccumulationAveragesFrames) {
  BackgroundModel model(1);
  model.accumulate(constant_frame(4, 4, {10, 10, 10}));
  model.accumulate(constant_frame(4, 4, {30, 30, 30}));
  const RgbMeans& m = model.averaged();
  EXPECT_DOUBLE_EQ(m.r.at(2, 2), 20.0);
}

TEST(BackgroundModel, MismatchedFrameSizeThrows) {
  BackgroundModel model(3);
  model.accumulate(constant_frame(4, 4, {}));
  EXPECT_THROW(model.accumulate(constant_frame(5, 4, {})), std::invalid_argument);
}

TEST(BackgroundModel, DimensionsAvailableBeforeAveraging) {
  BackgroundModel model(3);
  model.set_background(constant_frame(9, 7, {}));
  EXPECT_EQ(model.width(), 9);
  EXPECT_EQ(model.height(), 7);
}

TEST(BackgroundModel, ResetForgetsFrames) {
  BackgroundModel model(3);
  model.set_background(constant_frame(4, 4, {50, 50, 50}));
  model.reset();
  EXPECT_FALSE(model.has_background());
  model.set_background(constant_frame(4, 4, {80, 80, 80}));
  EXPECT_DOUBLE_EQ(model.averaged().r.at(1, 1), 80.0);
}

TEST(BackgroundModel, WindowSmoothsSpatialVariation) {
  RgbImage bg(3, 1, {0, 0, 0});
  bg.at(0, 0) = {90, 0, 0};
  BackgroundModel model(3);
  model.set_background(bg);
  // Centre pixel's 3x3 (clamped to 3x1) window covers all three pixels.
  EXPECT_DOUBLE_EQ(model.averaged().r.at(1, 0), 30.0);
}

// ---- averaged() against the SAT-based window_mean_rgb ----------------------

RgbImage noisy_frame(std::uint32_t seed, int w, int h) {
  std::mt19937 rng(seed);
  RgbImage img(w, h);
  for (Rgb& p : img.data()) {
    p = {static_cast<std::uint8_t>(rng()), static_cast<std::uint8_t>(rng()),
         static_cast<std::uint8_t>(rng())};
  }
  return img;
}

/// Bit-for-bit plane equality (== on doubles would let -0.0 match +0.0).
void expect_same_bits(const RgbMeans& got, const RgbMeans& want) {
  for (const auto& [g, w] : {std::pair{&got.r, &want.r}, {&got.g, &want.g}, {&got.b, &want.b}}) {
    ASSERT_EQ(g->size(), w->size());
    for (std::size_t i = 0; i < g->size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g->data()[i]),
                std::bit_cast<std::uint64_t>(w->data()[i]));
    }
  }
}

TEST(BackgroundModel, AveragedIsBitIdenticalToWindowMeanRgb) {
  for (const int n : {1, 3, 5, 9}) {  // one frame: Bave is the frame's window mean
    const RgbImage frame = noisy_frame(static_cast<std::uint32_t>(n), 41, 27);
    BackgroundModel model(n);
    model.set_background(frame);
    expect_same_bits(model.averaged(), window_mean_rgb(frame, n));
  }
  // Several frames: the window mean of the running mean rounded to 8 bits.
  BackgroundModel model(3);
  std::vector<RgbImage> frames;
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    frames.push_back(noisy_frame(seed * 101u, 33, 19));
    model.accumulate(frames.back());
    RgbImage avg(33, 19);
    const double inv = 1.0 / static_cast<double>(frames.size());
    for (std::size_t i = 0; i < avg.size(); ++i) {
      double r = 0, g = 0, b = 0;
      for (const RgbImage& f : frames) {
        r += f.data()[i].r;
        g += f.data()[i].g;
        b += f.data()[i].b;
      }
      avg.data()[i] = {static_cast<std::uint8_t>(r * inv + 0.5),
                       static_cast<std::uint8_t>(g * inv + 0.5),
                       static_cast<std::uint8_t>(b * inv + 0.5)};
    }
    expect_same_bits(model.averaged(), window_mean_rgb(avg, 3));
  }
}

}  // namespace
}  // namespace slj::seg
