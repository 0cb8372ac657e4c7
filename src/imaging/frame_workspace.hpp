// FrameWorkspace: every scratch buffer the per-frame vision pipeline needs —
// the integer window-sum kernel's rows, difference and mask images,
// connected-component and hole-fill scratch, the skeleton-graph maps, and
// the bit-packed thinning rows. One workspace per worker lane (ClipEngine)
// or per live session (StreamEngine) makes steady-state frame processing
// free of full-frame heap allocations: every buffer is sized on the first
// frame and reused for the rest of the run.
//
// A workspace is plain mutable state with no invariants of its own; the
// into-style functions that take one (`build_rgb_integrals`,
// `ObjectExtractor::extract_into`, `zhang_suen_thin_into`, ...) each resize
// what they use, so a single workspace can serve frames of changing sizes
// (it re-allocates only when a frame outgrows the high-water mark). It is
// NOT safe to share one workspace between concurrent calls.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/connected.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"

namespace slj {

struct FrameWorkspace {
  // --- windowed-mean scratch (paper Sec. 2 step ii) ---
  WindowSumScratch window_sums;  ///< exact integer moving-window kernel
  IntegralImage integral_r;  ///< build_rgb_integrals' summed-area tables
  IntegralImage integral_g;
  IntegralImage integral_b;

  // --- segmentation scratch (ObjectExtractor::extract_into) ---
  Image<double> difference;  ///< D(i,j) = |ΔR| + |ΔG| + |ΔB|
  BinaryImage raw_mask;      ///< thresholded mask before smoothing
  /// The raw mask's bounding box grown by median_window/2 + 1 and clipped
  /// to the frame: every later stage of the last extract_into ran inside
  /// it, and smoothed / largest / the silhouette are zero outside it.
  Roi roi;
  std::vector<std::uint16_t> mask_integral;  ///< the binary median's column counts
  BinaryImage smoothed;      ///< after median smoothing (tracker input)
  BinaryImage largest;       ///< largest-component mask
  Labeling labeling;         ///< connected-component labels + stats
  BinaryImage reached;       ///< hole-fill padded closed map
  std::vector<PointI> pixel_stack;          ///< DFS stack for labeling
  std::vector<std::uint32_t> flood_stack;   ///< index stack for hole filling

  // --- skeleton-graph scratch (build_skeleton_graph / clean_skeleton) ---
  // (box-sized: the graph build works inside the skeleton's bounding box)
  BinaryImage junction_mask;           ///< degree>=3 skeleton pixels ("is_junction")
  Labeling junction_labeling;          ///< 8-connected junction clusters / stats label image
  std::vector<PointI> junction_stack;  ///< DFS stack for the above
  BinaryImage graph_visited;           ///< pure-cycle sweep "visited" map

  // --- Zhang–Suen scratch (zhang_suen_thin_into) ---
  std::vector<std::uint64_t> thin_rows;   ///< the box packed 64 pixels a word, guard-padded
  std::vector<std::uint64_t> thin_above;  ///< the row above as it stood before the sub-iteration
};

/// Builds the three per-channel summed-area tables of `img` into
/// ws.integral_{r,g,b} with IntegralImage's own recurrence, reusing their
/// storage. The extractor reads no tables (it runs the integer window
/// kernel); the tables serve the stage benchmarks and the table-based
/// reference.
void build_rgb_integrals(const RgbImage& img, FrameWorkspace& ws);

}  // namespace slj
