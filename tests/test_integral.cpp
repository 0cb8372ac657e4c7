#include "imaging/integral.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace slj {
namespace {

TEST(IntegralImage, SumMatchesBruteForceOnKnownImage) {
  GrayImage img(4, 3);
  std::uint8_t v = 1;
  for (auto& p : img.data()) p = v++;
  IntegralImage integral(img.width(), img.height(),
                         [&](int x, int y) { return static_cast<double>(img.at(x, y)); });
  // whole image: 1+2+...+12 = 78
  EXPECT_DOUBLE_EQ(integral.sum(0, 0, 3, 2), 78.0);
  // single pixel
  EXPECT_DOUBLE_EQ(integral.sum(2, 1, 2, 1), static_cast<double>(img.at(2, 1)));
  // 2x2 block at origin: 1+2+5+6
  EXPECT_DOUBLE_EQ(integral.sum(0, 0, 1, 1), 14.0);
}

TEST(IntegralImage, SumClampsOutOfRangeRectangles) {
  GrayImage img(3, 3, 1);
  IntegralImage integral(3, 3, [&](int x, int y) { return static_cast<double>(img.at(x, y)); });
  EXPECT_DOUBLE_EQ(integral.sum(-5, -5, 10, 10), 9.0);
  EXPECT_DOUBLE_EQ(integral.sum(5, 5, 10, 10), 0.0);  // fully outside
  EXPECT_DOUBLE_EQ(integral.sum(2, 2, 1, 1), 0.0);    // inverted rect
}

struct WindowMeanCase {
  int width, height, n;
};

class WindowMeanProperty : public ::testing::TestWithParam<WindowMeanCase> {};

TEST_P(WindowMeanProperty, MatchesBruteForce) {
  const auto [w, h, n] = GetParam();
  std::mt19937 rng(77 + static_cast<unsigned>(w * 31 + h * 7 + n));
  GrayImage img(w, h);
  for (auto& p : img.data()) p = static_cast<std::uint8_t>(rng() % 256);

  const Image<double> fast = window_mean_gray(img, n);
  const int half = n / 2;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double sum = 0.0;
      int count = 0;
      for (int dy = -half; dy <= half; ++dy) {
        for (int dx = -half; dx <= half; ++dx) {
          if (img.in_bounds(x + dx, y + dy)) {
            sum += img.at(x + dx, y + dy);
            ++count;
          }
        }
      }
      ASSERT_NEAR(fast.at(x, y), sum / count, 1e-6) << "at (" << x << "," << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WindowMeanProperty,
                         ::testing::Values(WindowMeanCase{8, 8, 1}, WindowMeanCase{8, 8, 3},
                                           WindowMeanCase{16, 9, 5}, WindowMeanCase{5, 17, 7},
                                           WindowMeanCase{1, 1, 3}, WindowMeanCase{2, 9, 9}));

TEST(WindowMean, EvenOrNonPositiveWindowThrows) {
  GrayImage img(4, 4);
  EXPECT_THROW(window_mean_gray(img, 2), std::invalid_argument);
  EXPECT_THROW(window_mean_gray(img, 0), std::invalid_argument);
  EXPECT_THROW(window_mean_gray(img, -3), std::invalid_argument);
}

TEST(WindowMeanRgb, ChannelsAreIndependent) {
  RgbImage img(5, 5, Rgb{10, 20, 30});
  const RgbMeans means = window_mean_rgb(img, 3);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      EXPECT_DOUBLE_EQ(means.r.at(x, y), 10.0);
      EXPECT_DOUBLE_EQ(means.g.at(x, y), 20.0);
      EXPECT_DOUBLE_EQ(means.b.at(x, y), 30.0);
    }
  }
}

TEST(WindowMeanRgb, WindowOneIsIdentity) {
  RgbImage img(3, 3);
  std::mt19937 rng(3);
  for (auto& p : img.data()) {
    p = {static_cast<std::uint8_t>(rng() % 256), static_cast<std::uint8_t>(rng() % 256),
         static_cast<std::uint8_t>(rng() % 256)};
  }
  const RgbMeans means = window_mean_rgb(img, 1);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      EXPECT_DOUBLE_EQ(means.r.at(x, y), img.at(x, y).r);
      EXPECT_DOUBLE_EQ(means.g.at(x, y), img.at(x, y).g);
      EXPECT_DOUBLE_EQ(means.b.at(x, y), img.at(x, y).b);
    }
  }
}

// ---- the exact integer moving-window kernel --------------------------------

/// Bit-for-bit comparison (EXPECT_EQ on doubles would let -0.0 == +0.0).
::testing::AssertionResult same_bits(const Image<double>& got, const IntegralImage& table, int n) {
  for (int y = 0; y < got.height(); ++y) {
    for (int x = 0; x < got.width(); ++x) {
      const double want = table.window_mean(x, y, n);
      if (std::bit_cast<std::uint64_t>(got.at(x, y)) != std::bit_cast<std::uint64_t>(want)) {
        return ::testing::AssertionFailure()
               << "at (" << x << "," << y << "): " << got.at(x, y) << " vs " << want;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(WindowSumKernel, BitIdenticalToIntegralWindowMeanForEveryOddWindow) {
  WindowSumScratch scratch;  // reused across every shape, as a workspace would
  RgbMeans means;
  for (int n = 1; n <= 15; n += 2) {
    // 1×1, a row, a column, smaller than the window both ways, and one
    // wide enough for every vector path and its tail.
    const std::vector<std::pair<int, int>> shapes = {
        {1, 1}, {1, 23}, {23, 1}, {std::max(1, n - 1), std::max(1, n / 2)}, {37, 29}};
    for (const auto& [w, h] : shapes) {
      for (int content = 0; content < 3; ++content) {
        RgbImage img(w, h, content == 1 ? Rgb{255, 255, 255} : Rgb{0, 0, 0});
        if (content == 2) {
          std::mt19937 rng(static_cast<std::uint32_t>(n * 1000 + w * 31 + h));
          for (Rgb& p : img.data()) {
            p = {static_cast<std::uint8_t>(rng() % 256), static_cast<std::uint8_t>(rng() % 256),
                 static_cast<std::uint8_t>(rng() % 256)};
          }
        }
        window_mean_rgb_into(img, n, scratch, means);
        const IntegralImage tr(w, h, [&](int x, int y) { return double(img.at(x, y).r); });
        const IntegralImage tg(w, h, [&](int x, int y) { return double(img.at(x, y).g); });
        const IntegralImage tb(w, h, [&](int x, int y) { return double(img.at(x, y).b); });
        EXPECT_TRUE(same_bits(means.r, tr, n)) << "n " << n << " " << w << "x" << h << " c " << content;
        EXPECT_TRUE(same_bits(means.g, tg, n)) << "n " << n << " " << w << "x" << h << " c " << content;
        EXPECT_TRUE(same_bits(means.b, tb, n)) << "n " << n << " " << w << "x" << h << " c " << content;
      }
    }
  }
}

TEST(WindowSumKernel, RejectsEvenWindow) {
  WindowSumScratch scratch;
  RgbMeans means;
  EXPECT_THROW(window_mean_rgb_into(RgbImage(4, 4), 2, scratch, means), std::invalid_argument);
}

}  // namespace
}  // namespace slj
