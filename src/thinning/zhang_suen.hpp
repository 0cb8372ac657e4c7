// Zhang–Suen thinning — the paper's "Z-S algorithm" (Sec. 3, ref [6]).
//
// The classic two-sub-iteration peeling scheme: a border pixel P1 is deleted
// when
//   (a) 2 <= B(P1) <= 6            (B = count of foreground 8-neighbours)
//   (b) A(P1) == 1                 (A = 0→1 transitions in P2..P9,P2 order)
//   (c1) P2·P4·P6 == 0 and (d1) P4·P6·P8 == 0   — sub-iteration 1
//   (c2) P2·P4·P8 == 0 and (d2) P2·P6·P8 == 0   — sub-iteration 2
// Sub-iterations alternate until no pixel is deleted. The result is an
// 8-connected, one-pixel-wide skeleton that, as the paper notes, avoids the
// break-line problem but can leave loops, corners and redundant branches
// (handled by skelgraph).
#pragma once

#include "core/annotations.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/image.hpp"

namespace slj::thin {

struct ThinningStats {
  int iterations = 0;        ///< full passes (pairs of sub-iterations)
  std::size_t removed = 0;   ///< pixels peeled in total
};

/// Thins `img` (0/1 mask) to a one-pixel-wide skeleton. `stats`, when given,
/// receives iteration telemetry for the perf benches.
BinaryImage zhang_suen_thin(const BinaryImage& img, ThinningStats* stats = nullptr);

/// Allocation-free fast path used by the per-frame pipeline: thins `img`
/// into `out` with the same operator, 64 pixels at a time. Zhang–Suen is a
/// parallel operator — every deletion of a sub-iteration is decided from
/// the image as it stood when the sub-iteration began — so each decision is
/// a fixed boolean function of the 3×3 neighbourhood and can be evaluated
/// on bit planes:
///  - the foreground's bounding box, grown by one pixel, is packed into u64
///    words (ws.thin_rows); outside it everything is background and stays
///    so, and pixels outside the box read as 0;
///  - P2..P9 of 64 pixels are the rows above, at and below shifted by one
///    bit, carrying across word boundaries;
///  - 2 <= B(P1) <= 6 comes from a full-adder count of the eight planes,
///    A(P1) == 1 from a seen-once / seen-twice pass over the eight 0→1
///    ring steps, and the product conditions are plain ANDs;
///  - deletions apply simultaneously (row &= ~del), popcount(del) feeds
///    `removed`, and passes stop after the first that removes nothing.
/// Output and stats therefore match zhang_suen_thin bit for bit (the parity
/// suite pins this). `out` must not alias `img`.
SLJ_HOT_PATH void zhang_suen_thin_into(const BinaryImage& img, FrameWorkspace& ws, BinaryImage& out,
                          ThinningStats* stats = nullptr);

/// One full Zhang–Suen pass (both sub-iterations) in place. Returns pixels
/// removed. Exposed for tests pinning per-pass behaviour.
std::size_t zhang_suen_pass(BinaryImage& img);

/// Number of foreground neighbours of (x, y) — B(P1).
int neighbour_count(const BinaryImage& img, int x, int y);

/// Number of 0→1 transitions in the ordered ring P2..P9,P2 — A(P1).
int transition_count(const BinaryImage& img, int x, int y);

}  // namespace slj::thin
