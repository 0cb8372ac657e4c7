// Golden parity suite for the FrameWorkspace fast path: the workspace
// pipeline — integer-kernel window means, into-style segmentation run
// inside the foreground's box, word-parallel Zhang–Suen — must produce
// bit-identical results to the straightforward (seed) implementations it
// shadows, at every worker count, via the StreamEngine, and on scenes that
// stress the box (foreground on every frame edge, empty frames, a mask
// covering the whole frame, a scene under the noise floor); and the
// steady-state segmentation + thinning hot path must perform zero heap
// allocations.
#include "imaging/frame_workspace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/clip_engine.hpp"
#include "core/stream_engine.hpp"
#include "imaging/connected.hpp"
#include "imaging/draw.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "synth/dataset.hpp"
#include "thinning/zhang_suen.hpp"

// ---- global allocation counter ---------------------------------------------
// Replacing the global allocator in this TU counts every heap allocation in
// the binary; the hot-path test reads the counter around a steady-state
// frame. (Alignment-overloaded news are not replaced: the pipeline's buffers
// are all default-aligned vectors.)
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace slj {
namespace {

using core::ClipEngine;
using core::ClipEngineConfig;
using core::ClipObservation;
using core::FrameObservation;
using core::FramePipeline;
using core::GroundMonitor;

// A small but real corpus: full-pipeline parity on every frame of every clip.
std::vector<synth::Clip> parity_clips() {
  std::vector<synth::Clip> clips;
  const std::pair<std::uint32_t, int> specs[] = {{3u, 18}, {17u, 14}, {2008u, 16}};
  for (const auto& [seed, frames] : specs) {
    synth::ClipSpec spec;
    spec.seed = seed;
    spec.frame_count = frames;
    clips.push_back(synth::generate_clip(spec));
  }
  return clips;
}

void expect_identical_observation(const FrameObservation& got, const FrameObservation& want,
                                  std::size_t frame) {
  EXPECT_EQ(got.silhouette, want.silhouette) << "frame " << frame;
  EXPECT_EQ(got.raw_skeleton, want.raw_skeleton) << "frame " << frame;
  EXPECT_EQ(got.bottom_row, want.bottom_row) << "frame " << frame;
  ASSERT_EQ(got.key_points.size(), want.key_points.size()) << "frame " << frame;
  for (std::size_t k = 0; k < got.key_points.size(); ++k) {
    EXPECT_EQ(got.key_points[k].pos, want.key_points[k].pos) << "frame " << frame << " kp " << k;
  }
  ASSERT_EQ(got.candidates.size(), want.candidates.size()) << "frame " << frame;
  for (std::size_t c = 0; c < got.candidates.size(); ++c) {
    EXPECT_EQ(got.candidates[c].nodes, want.candidates[c].nodes)
        << "frame " << frame << " cand " << c;
    EXPECT_TRUE(got.candidates[c].features == want.candidates[c].features)
        << "frame " << frame << " cand " << c;
  }
}

/// The seed reference: a plain serial FramePipeline loop (non-workspace
/// overloads, which still run the original allocating implementations).
ClipObservation serial_reference(const synth::Clip& clip) {
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  GroundMonitor ground;
  ClipObservation ref;
  for (const RgbImage& frame : clip.frames) {
    ref.frames.push_back(pipeline.process(frame));
    const bool flying = ground.airborne(ref.frames.back().bottom_row);
    ref.airborne.push_back(flying);
    if (flying) ++ref.airborne_frames;
    if (ref.frames.back().bottom_row < 0) ++ref.empty_frames;
  }
  ref.ground_row = ground.ground_row();
  return ref;
}

BinaryImage random_blobs(std::uint32_t seed, int w, int h, int discs) {
  std::mt19937 rng(seed);
  BinaryImage img(w, h, 0);
  std::uniform_int_distribution<int> cx(2, w - 3), cy(2, h - 3), r(2, 9);
  for (int i = 0; i < discs; ++i) {
    fill_disc(img, {static_cast<double>(cx(rng)), static_cast<double>(cy(rng))},
              static_cast<double>(r(rng)));
  }
  return img;
}

// ---- kernel-level parity ---------------------------------------------------

TEST(FrameWorkspaceParity, WindowMeansMatchReference) {
  const synth::Clip clip = parity_clips().front();
  FrameWorkspace ws;
  for (const int n : {1, 3, 5}) {
    const RgbMeans want = window_mean_rgb(clip.frames[5], n);
    RgbMeans got;
    window_mean_rgb_into(clip.frames[5], n, ws.window_sums, got);
    EXPECT_EQ(got.r, want.r) << "window " << n;
    EXPECT_EQ(got.g, want.g) << "window " << n;
    EXPECT_EQ(got.b, want.b) << "window " << n;
  }
}

TEST(FrameWorkspaceParity, IntoVariantsMatchReference) {
  FrameWorkspace ws;
  for (const std::uint32_t seed : {1u, 7u, 42u}) {
    const BinaryImage mask = random_blobs(seed, 70, 50, 6);

    BinaryImage median_out;
    median_filter_binary_into(mask, 5, ws.mask_integral, median_out);
    EXPECT_EQ(median_out, median_filter_binary(mask, 5)) << "seed " << seed;

    BinaryImage largest_out;
    largest_component_into(mask, true, ws.labeling, ws.pixel_stack, largest_out);
    EXPECT_EQ(largest_out, largest_component(mask, true)) << "seed " << seed;

    BinaryImage filled_out;
    fill_holes_into(mask, ws.reached, ws.flood_stack, filled_out);
    EXPECT_EQ(filled_out, fill_holes(mask)) << "seed " << seed;
  }
}

TEST(FrameWorkspaceParity, PackedThinningMatchesReferenceAcrossSeeds) {
  FrameWorkspace ws;  // deliberately reused across shapes and sizes
  BinaryImage out;
  for (const std::uint32_t seed : {1u, 7u, 13u, 42u, 99u, 123u, 2024u, 31337u}) {
    const BinaryImage img = random_blobs(seed, 64 + static_cast<int>(seed % 17), 48, 7);
    thin::ThinningStats want_stats;
    const BinaryImage want = thin::zhang_suen_thin(img, &want_stats);
    thin::ThinningStats got_stats;
    thin::zhang_suen_thin_into(img, ws, out, &got_stats);
    EXPECT_EQ(out, want) << "seed " << seed;
    EXPECT_EQ(got_stats.iterations, want_stats.iterations) << "seed " << seed;
    EXPECT_EQ(got_stats.removed, want_stats.removed) << "seed " << seed;
  }
}

TEST(FrameWorkspaceParity, ThinningHandlesDegenerateImages) {
  FrameWorkspace ws;
  BinaryImage out;
  // Empty, full, single-pixel, single-row, single-column images.
  for (const BinaryImage& img :
       {BinaryImage(0, 0), BinaryImage(12, 9, 0), BinaryImage(12, 9, 1), BinaryImage(1, 1, 1),
        BinaryImage(20, 1, 1), BinaryImage(1, 20, 1)}) {
    thin::zhang_suen_thin_into(img, ws, out);
    EXPECT_EQ(out, thin::zhang_suen_thin(img));
  }
}

TEST(FrameWorkspaceParity, ExtractIntoMatchesExtract) {
  const synth::Clip clip = parity_clips().front();
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage silhouette;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const seg::ExtractionResult want = extractor.extract(clip.frames[i]);
    const double max_d = extractor.extract_into(clip.frames[i], ws, silhouette);
    EXPECT_EQ(silhouette, want.silhouette) << "frame " << i;
    EXPECT_EQ(ws.smoothed, want.smoothed) << "frame " << i;
    EXPECT_EQ(ws.raw_mask, want.raw_mask) << "frame " << i;
    EXPECT_EQ(ws.difference, want.difference) << "frame " << i;
    EXPECT_DOUBLE_EQ(max_d, want.max_difference) << "frame " << i;
  }
}

TEST(FrameWorkspaceParity, WorkspaceSurvivesFrameSizeChanges) {
  // One workspace fed frames of different sizes must stay correct (buffers
  // are resized by each call, shrinking and growing).
  FrameWorkspace ws;
  BinaryImage out;
  const std::pair<int, int> sizes[] = {{80, 60}, {24, 18}, {120, 90}, {24, 90}};
  for (const auto& [w, h] : sizes) {
    const BinaryImage img = random_blobs(static_cast<std::uint32_t>(w * h), w, h, 5);
    thin::zhang_suen_thin_into(img, ws, out);
    EXPECT_EQ(out, thin::zhang_suen_thin(img)) << w << "x" << h;
  }
}

TEST(FrameWorkspaceParity, RoiKernelsMatchFullFrameKernels) {
  FrameWorkspace ws;
  for (const std::uint32_t seed : {2u, 9u, 31u}) {
    for (const auto& [w, h] : {std::pair<int, int>{70, 50}, {33, 17}}) {
      const BinaryImage mask = random_blobs(seed, w, h, 3);
      const Roi bounds = nonzero_bounds(mask);
      // k = 129 exceeds the 16-bit vector guard and takes the scalar loop.
      for (const int k : {1, 3, 5, 129}) {
        BinaryImage got;
        median_filter_binary_into(mask, k, bounds.padded(k / 2, w, h), ws.mask_integral, got);
        EXPECT_EQ(got, median_filter_binary(mask, k)) << "seed " << seed << " k " << k;
      }
      BinaryImage got;
      largest_component_into(mask, bounds, true, ws.labeling, ws.pixel_stack, got);
      EXPECT_EQ(got, largest_component(mask, true)) << "seed " << seed;
      fill_holes_into(mask, bounds.padded(1, w, h), ws.reached, ws.flood_stack, got);
      EXPECT_EQ(got, fill_holes(mask)) << "seed " << seed;
    }
  }
}

TEST(FrameWorkspaceParity, NonzeroBoundsIsTheTightBox) {
  BinaryImage img(40, 30, 0);
  EXPECT_TRUE(nonzero_bounds(img).empty());
  img.at(7, 11) = 1;
  EXPECT_EQ(nonzero_bounds(img), (Roi{7, 11, 8, 12}));
  img.at(39, 29) = 1;
  img.at(0, 20) = 1;
  EXPECT_EQ(nonzero_bounds(img), (Roi{0, 11, 40, 30}));
  EXPECT_EQ(nonzero_bounds(img).padded(3, 40, 30), (Roi{0, 8, 40, 30}));
  EXPECT_TRUE(Roi{}.padded(5, 40, 30).empty());
}

/// Scenes that stress the extractor's box back end: foreground flush with
/// each frame edge and corner, an empty frame, a mask covering the whole
/// frame, and a change under the noise floor.
std::vector<std::pair<const char*, RgbImage>> box_scenes(const RgbImage& background) {
  const int w = background.width();
  const int h = background.height();
  const auto with_rect = [&](int x0, int y0, int x1, int y1) {
    RgbImage frame = background;
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) frame.at(x, y) = {250, 240, 230};
    }
    return frame;
  };
  std::vector<std::pair<const char*, RgbImage>> scenes = {
      {"top edge", with_rect(12, 0, 30, 9)},
      {"bottom edge", with_rect(10, h - 8, 26, h)},
      {"left edge", with_rect(0, 8, 7, 24)},
      {"right edge", with_rect(w - 6, 10, w, 30)},
      {"top-left corner", with_rect(0, 0, 9, 9)},
      {"bottom-right corner", with_rect(w - 11, h - 7, w, h)},
      {"empty frame", background},
      {"whole frame", RgbImage(w, h, {255, 255, 255})},
  };
  RgbImage faint = background;  // a +1 patch stays far below min_max_difference
  for (int y = 10; y < 16; ++y) {
    for (int x = 10; x < 16; ++x) {
      Rgb& p = faint.at(x, y);
      p = {static_cast<std::uint8_t>(p.r + 1), static_cast<std::uint8_t>(p.g + 1),
           static_cast<std::uint8_t>(p.b + 1)};
    }
  }
  scenes.emplace_back("under the noise floor", faint);
  return scenes;
}

TEST(FrameWorkspaceParity, BoxBackEndMatchesFullFrameOnEdgeAndDegenerateScenes) {
  const int w = 48;
  const int h = 36;
  RgbImage background(w, h);
  std::mt19937 rng(5);
  for (Rgb& p : background.data()) {
    p = {static_cast<std::uint8_t>(20 + rng() % 40), static_cast<std::uint8_t>(30 + rng() % 40),
         static_cast<std::uint8_t>(10 + rng() % 40)};
  }
  FramePipeline pipeline;
  pipeline.set_background(background);
  const seg::ObjectExtractor& extractor = pipeline.extractor();
  FrameWorkspace ws;  // reused across scenes: stale boxes must not leak
  BinaryImage silhouette;
  for (const auto& [name, frame] : box_scenes(background)) {
    const seg::ExtractionResult want = extractor.extract(frame);
    const double max_d = extractor.extract_into(frame, ws, silhouette);
    EXPECT_EQ(max_d, want.max_difference) << name;
    EXPECT_EQ(ws.difference, want.difference) << name;
    EXPECT_EQ(ws.raw_mask, want.raw_mask) << name;
    EXPECT_EQ(ws.smoothed, want.smoothed) << name;
    EXPECT_EQ(ws.largest, largest_component(want.smoothed, true)) << name;
    EXPECT_EQ(silhouette, want.silhouette) << name;
    if (std::string(name) == "whole frame") {
      EXPECT_EQ(count_foreground(silhouette), silhouette.size()) << name;
    }
    if (std::string(name) == "empty frame" || std::string(name) == "under the noise floor") {
      EXPECT_TRUE(ws.roi.empty()) << name;
      EXPECT_EQ(count_foreground(silhouette), 0u) << name;
    }
    expect_identical_observation(pipeline.process(frame, ws), pipeline.process(frame), 0);
    detect::BlobTracker tracker_seed;
    detect::BlobTracker tracker_ws;
    expect_identical_observation(pipeline.process(frame, tracker_ws, ws),
                                 pipeline.process(frame, tracker_seed), 0);
  }
}

// ---- pipeline- and engine-level parity -------------------------------------

TEST(FrameWorkspaceParity, PipelineWorkspaceOverloadMatchesSeedPath) {
  const synth::Clip clip = parity_clips()[1];
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  FrameWorkspace ws;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    expect_identical_observation(pipeline.process(clip.frames[i], ws),
                                 pipeline.process(clip.frames[i]), i);
  }
}

TEST(FrameWorkspaceParity, TrackedPipelineWorkspaceOverloadMatchesSeedPath) {
  const synth::Clip clip = parity_clips()[2];
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  detect::BlobTracker tracker_seed;
  detect::BlobTracker tracker_ws;
  FrameWorkspace ws;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    expect_identical_observation(pipeline.process(clip.frames[i], tracker_ws, ws),
                                 pipeline.process(clip.frames[i], tracker_seed), i);
  }
}

TEST(FrameWorkspaceParity, ClipEngineMatchesSeedReferenceAtEveryWorkerCount) {
  const std::vector<synth::Clip> clips = parity_clips();
  std::vector<ClipObservation> references;
  references.reserve(clips.size());
  for (const synth::Clip& clip : clips) references.push_back(serial_reference(clip));

  for (const unsigned workers : {1u, 4u, 16u}) {
    ClipEngineConfig config;
    config.workers = workers;
    ClipEngine engine({}, config);
    const std::vector<ClipObservation> batch = engine.process(clips);
    ASSERT_EQ(batch.size(), clips.size());
    for (std::size_t c = 0; c < clips.size(); ++c) {
      const ClipObservation& got = batch[c];
      const ClipObservation& want = references[c];
      ASSERT_EQ(got.frame_count(), want.frame_count()) << "workers " << workers;
      EXPECT_EQ(got.airborne, want.airborne) << "workers " << workers << " clip " << c;
      EXPECT_EQ(got.ground_row, want.ground_row) << "workers " << workers << " clip " << c;
      for (std::size_t i = 0; i < got.frames.size(); ++i) {
        expect_identical_observation(got.frames[i], want.frames[i], i);
      }
    }
  }
}

TEST(FrameWorkspaceParity, StreamEngineMatchesSeedReference) {
  const pose::PoseDbnClassifier classifier;
  const std::vector<synth::Clip> clips = parity_clips();
  core::StreamManager manager(classifier);
  std::vector<int> ids;
  for (const synth::Clip& clip : clips) ids.push_back(manager.open_session(clip.background));
  for (std::size_t c = 0; c < clips.size(); ++c) {
    const ClipObservation want = serial_reference(clips[c]);
    for (std::size_t i = 0; i < clips[c].frames.size(); ++i) {
      const core::StreamUpdate update = manager.push_frame(ids[c], clips[c].frames[i]);
      EXPECT_EQ(update.airborne, want.airborne[i]) << "clip " << c << " frame " << i;
    }
  }
}

// ---- allocation behaviour --------------------------------------------------

TEST(FrameWorkspaceAllocation, SteadyStateSegmentAndThinHotPathIsAllocationFree) {
  const synth::Clip clip = parity_clips().front();
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage silhouette;
  BinaryImage skeleton;
  // Two warm-up rounds size every buffer to its high-water mark.
  for (int round = 0; round < 2; ++round) {
    for (const RgbImage& frame : clip.frames) {
      extractor.extract_into(frame, ws, silhouette);
      thin::zhang_suen_thin_into(silhouette, ws, skeleton);
    }
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (const RgbImage& frame : clip.frames) {
    extractor.extract_into(frame, ws, silhouette);
    thin::zhang_suen_thin_into(silhouette, ws, skeleton);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "segment+thin steady state must not allocate";
}

}  // namespace
}  // namespace slj
