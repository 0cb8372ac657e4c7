// SIMD-vs-scalar property suite.
//
// The simd.hpp contract is bit-identity on the kernels' integer domain:
// every primitive instantiated with the configured backend (simd::Active)
// must produce exactly the bytes the always-compiled ScalarBackend twin
// produces — across odd widths, vector-width tails, unaligned bases, and
// degenerate all-0 / all-255 planes. On an SLJ_SIMD=OFF build Active *is*
// ScalarBackend and the primitive checks pin trivially; the kernel-level
// checks compare against the untouched scalar references and bite on every
// build.
#include "core/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "imaging/filters.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/morphology.hpp"
#include "segmentation/object_extractor.hpp"

namespace slj {
namespace {

using simd::Active;
using simd::ScalarBackend;
using VA = simd::VecF64<Active>;
using VS = simd::VecF64<ScalarBackend>;

// Widths straddling every lane boundary of every backend (1/2/4 f64 lanes,
// 8/16/32 u8 lanes), plus odd primes and a plain round number.
const std::vector<std::size_t> kWidths = {1,  2,  3,  5,  7,  8,  15, 16,
                                          17, 31, 32, 33, 63, 64, 65, 100};

/// Integer-exact doubles: the domain the bit-identity contract covers.
std::vector<double> random_int_doubles(std::uint32_t seed, std::size_t n, int lo, int hi) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(lo, hi);
  std::vector<double> out(n);
  for (double& x : out) x = static_cast<double>(dist(rng));
  return out;
}

std::vector<std::uint8_t> random_bytes(std::uint32_t seed, std::size_t n, int hi) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, hi);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& x : out) x = static_cast<std::uint8_t>(dist(rng));
  return out;
}

// ---- VecF64 primitives ------------------------------------------------------

TEST(SimdVecF64, LaneArithmeticMatchesScalar) {
  const std::size_t n = 64;
  const std::vector<double> a = random_int_doubles(1, n, -1000, 1000);
  const std::vector<double> b = random_int_doubles(2, n, 1, 1000);  // no /0
  std::vector<double> got(VA::kLanes), want(VA::kLanes);
  for (std::size_t i = 0; i + VA::kLanes <= n; i += VA::kLanes) {
    const VA va = VA::load(a.data() + i);
    const VA vb = VA::load(b.data() + i);
    for (int op = 0; op < 6; ++op) {
      VA r = va;
      switch (op) {
        case 0: r = va + vb; break;
        case 1: r = va - vb; break;
        case 2: r = va * vb; break;
        case 3: r = va / vb; break;
        case 4: r = VA::max(va, vb); break;
        case 5: r = VA::min(va, vb); break;
      }
      r.store(got.data());
      for (int l = 0; l < VA::kLanes; ++l) {
        const double x = a[i + l], y = b[i + l];
        switch (op) {
          case 0: want[l] = x + y; break;
          case 1: want[l] = x - y; break;
          case 2: want[l] = x * y; break;
          case 3: want[l] = x / y; break;
          case 4: want[l] = x > y ? x : y; break;
          case 5: want[l] = x < y ? x : y; break;
        }
      }
      for (int l = 0; l < VA::kLanes; ++l) {
        EXPECT_EQ(got[l], want[l]) << "op " << op << " i " << i << " lane " << l;
      }
    }
    VA r = va.abs();
    r.store(got.data());
    for (int l = 0; l < VA::kLanes; ++l) {
      EXPECT_EQ(got[l], std::fabs(a[i + l])) << "abs i " << i << " lane " << l;
    }
  }
}

TEST(SimdVecF64, LoadI32IsExactConversion) {
  std::vector<std::int32_t> src = {0, 1, -1, 127, -128, 65535, -2147483647, 2147483647};
  src.resize(static_cast<std::size_t>(VA::kLanes) * 4, 42);
  std::vector<double> got(VA::kLanes);
  for (std::size_t i = 0; i + VA::kLanes <= src.size(); i += VA::kLanes) {
    VA::load_i32(src.data() + i).store(got.data());
    for (int l = 0; l < VA::kLanes; ++l) {
      EXPECT_EQ(got[l], static_cast<double>(src[i + l])) << "i " << i << " lane " << l;
    }
  }
}

TEST(SimdVecF64, InclusiveScanWithCarryMatchesRunningSum) {
  for (const std::size_t n : kWidths) {
    const std::vector<double> src = random_int_doubles(static_cast<std::uint32_t>(n), n, 0, 255);
    // Scalar reference: the plain running sum.
    std::vector<double> want(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) want[i] = sum += src[i];
    // Vector path: block scan + broadcast_last carry, scalar tail — the
    // exact shape the SAT row kernels use.
    std::vector<double> got(n);
    VA carry = VA::broadcast(0.0);
    std::size_t i = 0;
    for (; i + VA::kLanes <= n; i += VA::kLanes) {
      const VA scanned = VA::load(src.data() + i).inclusive_scan() + carry;
      scanned.store(got.data() + i);
      carry = scanned.broadcast_last();
    }
    double tail_carry[VA::kLanes];
    carry.store(tail_carry);
    double run = tail_carry[0];
    for (; i < n; ++i) got[i] = run += src[i];
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(got[j], want[j]) << "n " << n << " j " << j;
    }
  }
}

TEST(SimdVecF64, ReduceMaxMatchesMaxElement) {
  const std::vector<double> src = random_int_doubles(9, 64, -500, 500);
  for (std::size_t i = 0; i + VA::kLanes <= src.size(); i += VA::kLanes) {
    const double got = VA::load(src.data() + i).reduce_max();
    const double want =
        *std::max_element(src.begin() + static_cast<std::ptrdiff_t>(i),
                          src.begin() + static_cast<std::ptrdiff_t>(i + VA::kLanes));
    EXPECT_EQ(got, want) << "i " << i;
  }
}

TEST(SimdVecF64, StoreGe01MatchesScalarIncludingTies) {
  const std::size_t n = 96;
  std::vector<double> a = random_int_doubles(3, n, 0, 4);
  const std::vector<double> b = random_int_doubles(4, n, 0, 4);
  // Plant exact ties: >= on equal values must agree across backends.
  for (std::size_t i = 0; i < n; i += 3) a[i] = b[i];
  std::vector<std::uint8_t> got(n, 0xee), want(n, 0xee);
  for (std::size_t i = 0; i + VA::kLanes <= n; i += VA::kLanes) {
    VA::store_ge01(VA::load(a.data() + i), VA::load(b.data() + i), got.data() + i);
  }
  for (std::size_t i = 0; i + VA::kLanes <= n; i += VA::kLanes) {
    for (int l = 0; l < VA::kLanes; ++l) {
      VS::store_ge01(VS::load(a.data() + i + l), VS::load(b.data() + i + l), want.data() + i + l);
    }
  }
  EXPECT_EQ(got, want);
}

// ---- byte-plane primitives --------------------------------------------------

TEST(SimdBytePlane, FindNonzeroMatchesScalarAcrossWidthsAndOffsets) {
  for (const std::size_t n : kWidths) {
    // Sparse plane with slack so unaligned bases stay in bounds.
    std::vector<std::uint8_t> plane(n + 7, 0);
    std::mt19937 rng(static_cast<std::uint32_t>(n) * 31u);
    for (std::size_t hits = 0; hits < std::max<std::size_t>(1, n / 8); ++hits) {
      plane[rng() % plane.size()] = static_cast<std::uint8_t>(1 + rng() % 255);
    }
    for (std::size_t off = 0; off < 7; ++off) {
      const std::uint8_t* p = plane.data() + off;
      EXPECT_EQ(simd::find_nonzero<Active>(p, n), simd::find_nonzero<ScalarBackend>(p, n))
          << "n " << n << " off " << off;
    }
    // All-zero and first/last-only: the boundary answers.
    std::vector<std::uint8_t> zeros(n, 0);
    EXPECT_EQ(simd::find_nonzero<Active>(zeros.data(), n), n) << "n " << n;
    zeros[n - 1] = 255;
    EXPECT_EQ(simd::find_nonzero<Active>(zeros.data(), n), n - 1) << "n " << n;
    zeros.assign(n, 0);
    zeros[0] = 1;
    EXPECT_EQ(simd::find_nonzero<Active>(zeros.data(), n), 0u) << "n " << n;
  }
}

TEST(SimdBytePlane, StoreEqual01MatchesScalar) {
  for (const std::size_t n : kWidths) {
    std::mt19937 rng(static_cast<std::uint32_t>(n) + 77u);
    std::vector<int> labels(n);
    for (int& l : labels) l = static_cast<int>(rng() % 5);
    for (const int needle : {0, 1, 3, 7}) {
      std::vector<std::uint8_t> got(n, 0xee), want(n, 0xee);
      simd::store_equal01_i32<Active>(labels.data(), needle, got.data(), n);
      simd::store_equal01_i32<ScalarBackend>(labels.data(), needle, want.data(), n);
      EXPECT_EQ(got, want) << "n " << n << " needle " << needle;
    }
  }
}

TEST(SimdBytePlane, StoreFill01MatchesScalarIncludingSaturatedPlanes) {
  for (const std::size_t n : kWidths) {
    const std::vector<std::uint8_t> rand_src = random_bytes(static_cast<std::uint32_t>(n), n, 2);
    const std::vector<std::uint8_t> rand_closed =
        random_bytes(static_cast<std::uint32_t>(n) + 1, n, 1);
    const std::vector<std::uint8_t> zeros(n, 0);
    const std::vector<std::uint8_t> full(n, 255);
    const std::vector<std::uint8_t>* cases[][2] = {
        {&rand_src, &rand_closed}, {&zeros, &zeros}, {&full, &full},
        {&zeros, &full},           {&full, &zeros},
    };
    for (const auto& c : cases) {
      std::vector<std::uint8_t> got(n, 0xee), want(n, 0xee);
      simd::store_fill01_u8<Active>(c[0]->data(), c[1]->data(), got.data(), n);
      simd::store_fill01_u8<ScalarBackend>(c[0]->data(), c[1]->data(), want.data(), n);
      EXPECT_EQ(got, want) << "n " << n;
    }
  }
}

// ---- VecI32 and the window-sum primitives ----------------------------------

using IA = simd::VecI32<Active>;
using IS = simd::VecI32<ScalarBackend>;

TEST(SimdVecI32, AddSubAndWideningLoadMatchScalar) {
  const std::size_t n = 96;
  std::mt19937 rng(12);
  std::vector<std::int32_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::int32_t>(rng() % 140001) - 70000;
    b[i] = static_cast<std::int32_t>(rng() % 140001) - 70000;
  }
  for (const std::vector<std::uint8_t>& u8 : {random_bytes(13, n, 255), std::vector<std::uint8_t>(n, 0),
                                              std::vector<std::uint8_t>(n, 255)}) {
    for (std::size_t i = 0; i + IA::kLanes <= n; i += IA::kLanes) {
      std::int32_t got[3][IA::kLanes];
      (IA::load(a.data() + i) + IA::load(b.data() + i)).store(got[0]);
      (IA::load(a.data() + i) - IA::load(b.data() + i)).store(got[1]);
      (IA::load(a.data() + i) + IA::load_u8(u8.data() + i)).store(got[2]);
      for (int l = 0; l < IA::kLanes; ++l) {
        const std::size_t j = i + static_cast<std::size_t>(l);
        std::int32_t want[3];
        (IS::load(&a[j]) + IS::load(&b[j])).store(&want[0]);
        (IS::load(&a[j]) - IS::load(&b[j])).store(&want[1]);
        (IS::load(&a[j]) + IS::load_u8(&u8[j])).store(&want[2]);
        for (int op = 0; op < 3; ++op) EXPECT_EQ(got[op][l], want[op]) << "op " << op << " j " << j;
      }
    }
  }
}

TEST(SimdBytePlane, Deinterleave3MatchesScalar) {
  for (const std::size_t n : kWidths) {
    std::mt19937 rng(static_cast<std::uint32_t>(n) + 5u);
    std::vector<std::int32_t> in(3 * n);
    for (std::int32_t& v : in) v = static_cast<std::int32_t>(rng() % 1000000);
    std::vector<std::int32_t> got(3 * n, -1), want(3 * n, -1);
    simd::deinterleave3_i32<Active>(in.data(), got.data(), got.data() + n, got.data() + 2 * n, n);
    simd::deinterleave3_i32<ScalarBackend>(in.data(), want.data(), want.data() + n,
                                           want.data() + 2 * n, n);
    EXPECT_EQ(got, want) << "n " << n;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], in[3 * i]) << "n " << n << " i " << i;
      ASSERT_EQ(want[n + i], in[3 * i + 1]) << "n " << n << " i " << i;
      ASSERT_EQ(want[2 * n + i], in[3 * i + 2]) << "n " << n << " i " << i;
    }
  }
}

TEST(SimdBytePlane, FindLastNonzeroMatchesScalarAcrossWidthsAndOffsets) {
  for (const std::size_t n : kWidths) {
    std::vector<std::uint8_t> plane(n + 7, 0);
    std::mt19937 rng(static_cast<std::uint32_t>(n) * 17u);
    for (std::size_t hits = 0; hits < std::max<std::size_t>(1, n / 8); ++hits) {
      plane[rng() % plane.size()] = static_cast<std::uint8_t>(1 + rng() % 255);
    }
    for (std::size_t off = 0; off < 7; ++off) {
      const std::uint8_t* p = plane.data() + off;
      EXPECT_EQ(simd::find_last_nonzero<Active>(p, n), simd::find_last_nonzero<ScalarBackend>(p, n))
          << "n " << n << " off " << off;
    }
    std::vector<std::uint8_t> zeros(n, 0);
    EXPECT_EQ(simd::find_last_nonzero<Active>(zeros.data(), n), n) << "n " << n;
    zeros[0] = 255;
    EXPECT_EQ(simd::find_last_nonzero<Active>(zeros.data(), n), 0u) << "n " << n;
    zeros[n - 1] = 1;
    EXPECT_EQ(simd::find_last_nonzero<Active>(zeros.data(), n), n - 1) << "n " << n;
    const std::vector<std::uint8_t> full(n, 255);
    EXPECT_EQ(simd::find_last_nonzero<Active>(full.data(), n), n - 1) << "n " << n;
  }
}

TEST(SimdBytePlane, PackNonzeroBitsMatchesScalarAndTheDefinition) {
  for (std::size_t n : kWidths) {
    for (const std::size_t extra : {std::size_t{0}, std::size_t{64}, std::size_t{128}}) {
      n += extra;  // multi-word rows: 65..228 bytes
      // Mostly-zero bytes with sparse nonzero values, saturated ones included.
      std::vector<std::uint8_t> plane = random_bytes(static_cast<std::uint32_t>(n) + 11u, n + 7, 3);
      for (std::uint8_t& v : plane) v = v == 3 ? 255 : v == 2 ? 1 : 0;
      const std::size_t words = (n + 63) / 64;
      for (std::size_t off = 0; off < 7; ++off) {
        const std::uint8_t* p = plane.data() + off;
        std::vector<std::uint64_t> got(words, ~0ull), want(words, ~0ull);
        simd::pack_nonzero_bits<Active>(p, n, got.data());
        simd::pack_nonzero_bits<ScalarBackend>(p, n, want.data());
        EXPECT_EQ(got, want) << "n " << n << " off " << off;
        for (std::size_t i = 0; i < 64 * words; ++i) {
          const bool bit = (want[i / 64] >> (i % 64)) & 1u;
          ASSERT_EQ(bit, i < n && p[i] != 0) << "n " << n << " off " << off << " i " << i;
        }
      }
      n -= extra;
    }
  }
}

// ---- kernel-level SIMD parity -----------------------------------------------

RgbImage random_rgb(std::uint32_t seed, int w, int h) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  RgbImage img(w, h);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img.data()[i] = {static_cast<std::uint8_t>(dist(rng)), static_cast<std::uint8_t>(dist(rng)),
                     static_cast<std::uint8_t>(dist(rng))};
  }
  return img;
}

TEST(SimdKernelParity, FusedIntegralBuildMatchesScalarTwin) {
  // Odd widths and heights; the twin is a table built pixel by pixel.
  const std::pair<int, int> sizes[] = {{1, 1}, {3, 2}, {7, 5}, {17, 9}, {64, 48}, {65, 47}};
  FrameWorkspace ws;
  for (const auto& [w, h] : sizes) {
    const RgbImage img = random_rgb(static_cast<std::uint32_t>(w * 100 + h), w, h);
    build_rgb_integrals(img, ws);
    const std::size_t n = (static_cast<std::size_t>(w) + 1) * (static_cast<std::size_t>(h) + 1);
    const IntegralImage* got[] = {&ws.integral_r, &ws.integral_g, &ws.integral_b};
    for (int c = 0; c < 3; ++c) {
      const IntegralImage want(w, h, [&](int x, int y) {
        const Rgb p = img.at(x, y);
        return static_cast<double>(c == 0 ? p.r : c == 1 ? p.g : p.b);
      });
      EXPECT_TRUE(std::equal(got[c]->raw(), got[c]->raw() + n, want.raw())) << "channel " << c;
    }
  }
}

TEST(SimdKernelParity, MedianFilterMatchesReferenceOnSaturatedAndOddSizes) {
  FrameWorkspace ws;
  BinaryImage out;
  const std::pair<int, int> sizes[] = {{5, 5}, {17, 11}, {33, 31}, {64, 50}};
  for (const auto& [w, h] : sizes) {
    std::mt19937 rng(static_cast<std::uint32_t>(w + h));
    for (int variant = 0; variant < 3; ++variant) {
      BinaryImage mask(w, h, variant == 1 ? 1 : 0);
      if (variant == 2) {
        for (std::size_t i = 0; i < mask.size(); ++i) {
          mask.data()[i] = static_cast<std::uint8_t>(rng() % 2);
        }
      }
      for (const int k : {1, 3, 5}) {
        median_filter_binary_into(mask, k, ws.mask_integral, out);
        EXPECT_EQ(out, median_filter_binary(mask, k))
            << w << "x" << h << " variant " << variant << " k " << k;
      }
    }
  }
}

TEST(SimdKernelParity, HoleFillAndLargestComponentMatchReferenceOnSaturatedPlanes) {
  FrameWorkspace ws;
  BinaryImage filled, largest;
  for (const auto& [w, h] : {std::pair<int, int>{1, 1}, {9, 7}, {33, 20}, {64, 33}}) {
    std::mt19937 rng(static_cast<std::uint32_t>(w * 7 + h));
    for (int variant = 0; variant < 3; ++variant) {
      BinaryImage mask(w, h, variant == 1 ? 1 : 0);
      if (variant == 2) {
        for (std::size_t i = 0; i < mask.size(); ++i) {
          mask.data()[i] = static_cast<std::uint8_t>(rng() % 2);
        }
      }
      fill_holes_into(mask, ws.reached, ws.flood_stack, filled);
      EXPECT_EQ(filled, fill_holes(mask)) << w << "x" << h << " variant " << variant;
      largest_component_into(mask, true, ws.labeling, ws.pixel_stack, largest);
      EXPECT_EQ(largest, largest_component(mask, true)) << w << "x" << h << " variant " << variant;
    }
  }
}

TEST(SimdKernelParity, ExtractIntoMatchesExtractOnOddFrameSizes) {
  // extract() is the untouched scalar reference; extract_into runs the SIMD
  // kernels. Odd sizes force every vector tail in the fused passes.
  for (const auto& [w, h] : {std::pair<int, int>{31, 17}, {65, 33}, {64, 47}}) {
    const RgbImage background = random_rgb(static_cast<std::uint32_t>(w), w, h);
    RgbImage frame = background;
    // Perturb a patch so the mask is non-trivial.
    for (int y = h / 4; y < h / 2; ++y) {
      for (int x = w / 4; x < w / 2; ++x) {
        frame.at(x, y) = {255, 255, 255};
      }
    }
    seg::ObjectExtractor extractor;
    extractor.set_background(background);
    FrameWorkspace ws;
    BinaryImage silhouette;
    const seg::ExtractionResult want = extractor.extract(frame);
    const double max_d = extractor.extract_into(frame, ws, silhouette);
    EXPECT_EQ(silhouette, want.silhouette) << w << "x" << h;
    EXPECT_EQ(ws.raw_mask, want.raw_mask) << w << "x" << h;
    EXPECT_EQ(ws.difference, want.difference) << w << "x" << h;
    EXPECT_DOUBLE_EQ(max_d, want.max_difference) << w << "x" << h;
  }
}

}  // namespace
}  // namespace slj
