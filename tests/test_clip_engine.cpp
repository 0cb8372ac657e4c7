#include "core/clip_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "synth/dataset.hpp"

namespace slj::core {
namespace {

synth::Clip make_clip(std::uint32_t seed, int frame_count = 16) {
  synth::ClipSpec spec;
  spec.seed = seed;
  spec.frame_count = frame_count;
  return synth::generate_clip(spec);
}

/// The reference the engine must match bit-for-bit: a plain serial loop.
ClipObservation serial_reference(const synth::Clip& clip, const PipelineParams& params = {},
                                 int lift_threshold_px = 3) {
  FramePipeline pipeline(params);
  pipeline.set_background(clip.background);
  GroundMonitor ground(lift_threshold_px);
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

void expect_identical(const ClipObservation& got, const ClipObservation& want) {
  ASSERT_EQ(got.frame_count(), want.frame_count());
  EXPECT_EQ(got.airborne, want.airborne);
  EXPECT_EQ(got.ground_row, want.ground_row);
  EXPECT_EQ(got.empty_frames, want.empty_frames);
  EXPECT_EQ(got.airborne_frames, want.airborne_frames);
  for (std::size_t i = 0; i < got.frames.size(); ++i) {
    const FrameObservation& g = got.frames[i];
    const FrameObservation& w = want.frames[i];
    EXPECT_EQ(g.silhouette, w.silhouette) << "frame " << i;
    EXPECT_EQ(g.raw_skeleton, w.raw_skeleton) << "frame " << i;
    EXPECT_EQ(g.bottom_row, w.bottom_row) << "frame " << i;
    ASSERT_EQ(g.key_points.size(), w.key_points.size()) << "frame " << i;
    for (std::size_t k = 0; k < g.key_points.size(); ++k) {
      EXPECT_EQ(g.key_points[k].pos, w.key_points[k].pos) << "frame " << i << " kp " << k;
    }
    ASSERT_EQ(g.candidates.size(), w.candidates.size()) << "frame " << i;
    for (std::size_t c = 0; c < g.candidates.size(); ++c) {
      EXPECT_EQ(g.candidates[c].nodes, w.candidates[c].nodes) << "frame " << i << " cand " << c;
      EXPECT_TRUE(g.candidates[c].features == w.candidates[c].features)
          << "frame " << i << " cand " << c;
    }
  }
}

TEST(ClipEngine, ParallelMatchesSerialAcrossSeeds) {
  for (const std::uint32_t seed : {3u, 17u, 2008u}) {
    const synth::Clip clip = make_clip(seed);
    ClipEngineConfig config;
    config.workers = 4;
    ClipEngine engine({}, config);
    expect_identical(engine.process(clip), serial_reference(clip));
  }
}

TEST(ClipEngine, SingleWorkerMatchesSerial) {
  const synth::Clip clip = make_clip(5);
  ClipEngineConfig config;
  config.workers = 1;
  ClipEngine engine({}, config);
  expect_identical(engine.process(clip), serial_reference(clip));
}

TEST(ClipEngine, MoreWorkersThanFramesMatchesSerial) {
  const synth::Clip clip = make_clip(7, 4);  // 4 frames, 16 workers
  ClipEngineConfig config;
  config.workers = 16;
  ClipEngine engine({}, config);
  expect_identical(engine.process(clip), serial_reference(clip));
}

TEST(ClipEngine, BatchMatchesPerClipResults) {
  std::vector<synth::Clip> clips = {make_clip(21), make_clip(22, 12), make_clip(23, 8)};
  ClipEngineConfig config;
  config.workers = 4;
  ClipEngine engine({}, config);
  const std::vector<ClipObservation> batch = engine.process(clips);
  ASSERT_EQ(batch.size(), clips.size());
  for (std::size_t c = 0; c < clips.size(); ++c) {
    expect_identical(batch[c], serial_reference(clips[c]));
  }
}

TEST(ClipEngine, EmptyBatchAndEmptyClip) {
  ClipEngineConfig config;
  config.workers = 2;
  ClipEngine engine({}, config);
  EXPECT_TRUE(engine.process(std::vector<synth::Clip>{}).empty());
  const synth::Clip clip = make_clip(9);
  const ClipObservation obs = engine.process(clip.background, {});
  EXPECT_EQ(obs.frame_count(), 0u);
  EXPECT_EQ(obs.ground_row, -1);
}

TEST(ClipEngine, TrackerModeMatchesSerialTrackedLoop) {
  const synth::Clip clip = make_clip(31);
  ClipEngineConfig config;
  config.workers = 4;
  config.use_tracker = true;
  ClipEngine engine({}, config);
  const ClipObservation got = engine.process(clip);

  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  detect::BlobTracker tracker;
  GroundMonitor ground;
  ASSERT_EQ(got.frame_count(), clip.frames.size());
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const FrameObservation want = pipeline.process(clip.frames[i], tracker);
    EXPECT_EQ(got.frames[i].silhouette, want.silhouette) << "frame " << i;
    EXPECT_EQ(got.airborne[i], ground.airborne(want.bottom_row)) << "frame " << i;
  }
}

TEST(ClipEngine, CandidateSetsMatchFrameCandidates) {
  const synth::Clip clip = make_clip(41, 8);
  ClipEngine engine;
  const ClipObservation obs = engine.process(clip);
  const auto sets = obs.candidate_sets();
  ASSERT_EQ(sets.size(), obs.frames.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].size(), obs.frames[i].candidates.size());
  }
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPool, ReusableAcrossBatches) {
  WorkerPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(WorkerPool, PropagatesTaskExceptions) {
  WorkerPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable after a throwing batch.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(WorkerPool, ZeroCountIsANoOp) {
  WorkerPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(WorkerPool, WorkersCountLanesIncludingTheCaller) {
  // `workers` is the lane count: the caller plus workers - 1 pool threads;
  // 0 means one lane per hardware thread.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const std::pair<unsigned, unsigned> cases[] = {{1u, 1u}, {2u, 2u}, {4u, 4u}, {0u, hardware}};
  for (const auto& [workers, lanes] : cases) {
    WorkerPool pool(workers);
    EXPECT_EQ(pool.size(), lanes - 1) << "workers " << workers;
    std::atomic<std::size_t> max_lane{0};
    pool.parallel_for_lanes(64, [&](std::size_t lane, std::size_t) {
      std::size_t seen = max_lane.load();
      while (lane > seen && !max_lane.compare_exchange_weak(seen, lane)) {
      }
    });
    EXPECT_LT(max_lane.load(), lanes) << "workers " << workers;
    ClipEngineConfig config;
    config.workers = workers;
    EXPECT_EQ(ClipEngine({}, config).lanes(), lanes) << "workers " << workers;
  }
}

}  // namespace
}  // namespace slj::core
