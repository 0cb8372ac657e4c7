#include "thinning/zhang_suen.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "imaging/connected.hpp"
#include "imaging/draw.hpp"

namespace slj::thin {
namespace {

BinaryImage filled_rect(int w, int h, int x0, int y0, int x1, int y1) {
  BinaryImage img(w, h, 0);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) img.at(x, y) = 1;
  }
  return img;
}

TEST(ZhangSuen, EmptyImageStaysEmpty) {
  ThinningStats stats;
  const BinaryImage out = zhang_suen_thin(BinaryImage(10, 10, 0), &stats);
  EXPECT_EQ(count_foreground(out), 0u);
  EXPECT_EQ(stats.removed, 0u);
}

TEST(ZhangSuen, SinglePixelSurvives) {
  BinaryImage img(5, 5, 0);
  img.at(2, 2) = 1;
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_EQ(out, img);
}

TEST(ZhangSuen, OnePixelLineIsFixedPoint) {
  BinaryImage img(20, 5, 0);
  for (int x = 2; x < 18; ++x) img.at(x, 2) = 1;
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_EQ(out, img);
}

TEST(ZhangSuen, ThickBarThinsToThinLine) {
  const BinaryImage img = filled_rect(30, 12, 3, 3, 26, 8);  // 24x6 bar
  const BinaryImage out = zhang_suen_thin(img);
  // Thinned result is much smaller and lies inside the original.
  EXPECT_LT(count_foreground(out), count_foreground(img) / 3);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 30; ++x) {
      if (out.at(x, y)) EXPECT_TRUE(img.at(x, y));
    }
  }
  // Roughly one pixel wide: every skeleton pixel has few neighbours.
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 30; ++x) {
      if (out.at(x, y)) EXPECT_LE(neighbour_count(out, x, y), 2);
    }
  }
}

TEST(ZhangSuen, SquareThinsToSmallCore) {
  const BinaryImage img = filled_rect(20, 20, 4, 4, 15, 15);
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_GT(count_foreground(out), 0u);
  EXPECT_LT(count_foreground(out), 30u);
}

TEST(ZhangSuen, IsIdempotent) {
  const BinaryImage img = filled_rect(30, 14, 2, 2, 27, 11);
  const BinaryImage once = zhang_suen_thin(img);
  const BinaryImage twice = zhang_suen_thin(once);
  EXPECT_EQ(once, twice);
}

TEST(ZhangSuen, StatsCountRemovedPixels) {
  const BinaryImage img = filled_rect(16, 10, 2, 2, 13, 7);
  ThinningStats stats;
  const BinaryImage out = zhang_suen_thin(img, &stats);
  EXPECT_EQ(stats.removed, count_foreground(img) - count_foreground(out));
  EXPECT_GE(stats.iterations, 1);
}

TEST(ZhangSuen, PassRemovesAtMostBorder) {
  BinaryImage img = filled_rect(16, 16, 2, 2, 13, 13);
  const std::size_t before = count_foreground(img);
  const std::size_t removed = zhang_suen_pass(img);
  EXPECT_EQ(before - count_foreground(img), removed);
  // Interior pixels cannot be deleted in the first pass.
  EXPECT_TRUE(img.at(7, 7));
}

class ThinningConnectivity : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThinningConnectivity, PreservesComponentCountOfBlobs) {
  // Random blobs from overlapping discs: thinning must not split or merge
  // 8-connected components.
  std::mt19937 rng(GetParam());
  BinaryImage img(64, 48, 0);
  std::uniform_int_distribution<int> cx(8, 55), cy(8, 39), r(3, 7);
  for (int i = 0; i < 6; ++i) {
    fill_disc(img, {static_cast<double>(cx(rng)), static_cast<double>(cy(rng))},
              static_cast<double>(r(rng)));
  }
  const std::size_t before = component_count(img, true);
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_EQ(component_count(out, true), before);
}

TEST_P(ThinningConnectivity, SkeletonIsSubsetOfInput) {
  std::mt19937 rng(GetParam() + 1000);
  BinaryImage img(48, 48, 0);
  std::uniform_int_distribution<int> c(6, 41), r(3, 8);
  for (int i = 0; i < 5; ++i) {
    fill_capsule(img, {static_cast<double>(c(rng)), static_cast<double>(c(rng))},
                 {static_cast<double>(c(rng)), static_cast<double>(c(rng))},
                 static_cast<double>(r(rng)));
  }
  const BinaryImage out = zhang_suen_thin(img);
  for (std::size_t i = 0; i < img.size(); ++i) {
    if (out.data()[i]) EXPECT_TRUE(img.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThinningConnectivity,
                         ::testing::Values(1u, 7u, 13u, 42u, 99u, 123u, 2024u, 31337u));

TEST(NeighbourFunctions, CountAndTransitions) {
  BinaryImage img(3, 3, 0);
  img.at(1, 1) = 1;
  img.at(1, 0) = 1;  // north
  img.at(2, 1) = 1;  // east
  EXPECT_EQ(neighbour_count(img, 1, 1), 2);
  // Ring around centre: P2=1,P3=0,P4=1,rest 0 → transitions 0->1 occur at
  // P9->P2? P2=1 preceded by P9=0 counts once, P3->P4 counts once = 2.
  EXPECT_EQ(transition_count(img, 1, 1), 2);
}

TEST(NeighbourFunctions, FullRing) {
  BinaryImage img(3, 3, 1);
  EXPECT_EQ(neighbour_count(img, 1, 1), 8);
  EXPECT_EQ(transition_count(img, 1, 1), 0);
}


// ---- packed kernel parity ----------------------------------------------------
//
// zhang_suen_thin_into evaluates the operator 64 pixels at a time on packed
// words; the per-pixel zhang_suen_thin is its oracle. Every case compares
// the image and both stats, through one workspace reused across shapes.

class PackedThinning : public ::testing::Test {
 protected:
  void expect_matches_oracle(const BinaryImage& img, const std::string& what) {
    ThinningStats want_stats;
    const BinaryImage want = zhang_suen_thin(img, &want_stats);
    ThinningStats got_stats;
    zhang_suen_thin_into(img, ws_, out_, &got_stats);
    EXPECT_EQ(out_, want) << what;
    EXPECT_EQ(got_stats.iterations, want_stats.iterations) << what;
    EXPECT_EQ(got_stats.removed, want_stats.removed) << what;
  }

  FrameWorkspace ws_;
  BinaryImage out_;
};

BinaryImage noise(std::uint32_t seed, int w, int h, double density) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution on(density);
  BinaryImage img(w, h, 0);
  for (std::uint8_t& v : img.data()) v = on(rng) ? 1 : 0;
  return img;
}

TEST_F(PackedThinning, BoxWidthsAroundWordBoundaries) {
  for (const int width : {1, 2, 63, 64, 65, 127, 128, 129}) {
    const std::string at = "width " + std::to_string(width);
    // The box spans the whole frame: foreground reaches both side edges.
    BinaryImage edge_to_edge = noise(static_cast<std::uint32_t>(width), width, 21, 0.6);
    for (int y = 0; y < 21; ++y) edge_to_edge.at(0, y) = edge_to_edge.at(width - 1, y) = 1;
    expect_matches_oracle(edge_to_edge, at + ", edge to edge");
    // The box sits inside a wider frame: foreground width - 2 columns wide,
    // grown by the one-pixel ring to exactly `width`.
    if (width > 2) {
      BinaryImage inner(width + 9, 30, 0);
      for (int y = 4; y < 26; ++y) {
        for (int x = 5; x < 5 + width - 2; ++x) inner.at(x, y) = 1;
      }
      ASSERT_EQ(nonzero_bounds(inner).padded(1, inner.width(), inner.height()).width(), width);
      expect_matches_oracle(inner, at + ", bar inside the frame");
      expect_matches_oracle(noise(7u * static_cast<std::uint32_t>(width), width, 40, 0.5),
                            at + ", noise");
    }
  }
}

TEST_F(PackedThinning, FullFrameAtTheCameraResolution) {
  expect_matches_oracle(BinaryImage(288, 160, 1), "all ones");
  BinaryImage blobs(288, 160, 0);
  fill_disc(blobs, {60.0, 80.0}, 40.0);
  fill_disc(blobs, {200.0, 70.0}, 55.0);
  fill_capsule(blobs, {60.0, 80.0}, {200.0, 70.0}, 9.0);
  expect_matches_oracle(blobs, "blobs");
  expect_matches_oracle(noise(288u, 288, 160, 0.5), "noise");
}

TEST_F(PackedThinning, BlobsTouchingEveryEdgeAndCorner) {
  const int w = 97, h = 71;
  const PointF anchors[] = {{0.0, 35.0},  {96.0, 35.0}, {48.0, 0.0},  {48.0, 70.0},
                            {0.0, 0.0},   {96.0, 0.0},  {0.0, 70.0},  {96.0, 70.0}};
  for (const PointF& c : anchors) {
    BinaryImage img(w, h, 0);
    fill_disc(img, c, 12.0);
    expect_matches_oracle(img, "disc at " + std::to_string(c.x) + "," + std::to_string(c.y));
  }
  BinaryImage all(w, h, 0);
  for (const PointF& c : anchors) fill_disc(all, c, 9.0);
  expect_matches_oracle(all, "all eight");
}

TEST_F(PackedThinning, RegularMasks) {
  expect_matches_oracle(BinaryImage(70, 33, 1), "all ones");
  BinaryImage checker(70, 33, 0);
  for (int y = 0; y < 33; ++y) {
    for (int x = 0; x < 70; ++x) checker.at(x, y) = static_cast<std::uint8_t>((x + y) % 2);
  }
  expect_matches_oracle(checker, "checkerboard");
  expect_matches_oracle(BinaryImage(130, 1, 1), "single row");
  expect_matches_oracle(BinaryImage(1, 90, 1), "single column");
  BinaryImage row_in_frame(130, 9, 0), column_in_frame(9, 90, 0);
  for (int x = 3; x < 120; ++x) row_in_frame.at(x, 4) = 1;
  for (int y = 3; y < 80; ++y) column_in_frame.at(4, y) = 1;
  expect_matches_oracle(row_in_frame, "single row inside the frame");
  expect_matches_oracle(column_in_frame, "single column inside the frame");
  expect_matches_oracle(BinaryImage(0, 0), "empty frame");
  expect_matches_oracle(BinaryImage(40, 30, 0), "blank frame");
}

TEST_F(PackedThinning, NoiseAtLowMediumAndHighDensity) {
  // Noise deletes many pixels per pass, all over the box, unlike blobs.
  for (const double density : {0.1, 0.5, 0.9}) {
    for (const std::uint32_t seed : {1u, 2u, 3u}) {
      const int w = 137 + 23 * static_cast<int>(seed);
      expect_matches_oracle(noise(seed, w, 60, density),
                            "density " + std::to_string(density) + " seed " + std::to_string(seed));
    }
  }
}

TEST_F(PackedThinning, SurvivorsKeepTheirInputValue) {
  // Any nonzero byte is foreground; the oracle keeps survivors' values.
  BinaryImage img(80, 40, 0);
  fill_disc(img, {40.0, 20.0}, 15.0, 255);
  fill_disc(img, {20.0, 20.0}, 8.0, 7);
  expect_matches_oracle(img, "values 7 and 255");
}

}  // namespace
}  // namespace slj::thin
