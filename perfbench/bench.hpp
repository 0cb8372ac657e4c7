// Shared pieces of the steady benchmark: options, timing helpers, exact
// order statistics, the rendered inputs, training (the timed set-up) and the
// per-layer stage composition. Workloads live in workloads.cpp; main.cpp
// parses the command line and prints the result.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/clip_engine.hpp"
#include "core/faults.hpp"
#include "core/pipeline.hpp"
#include "pose/classifier.hpp"
#include "pose/decoders.hpp"
#include "synth/dataset.hpp"

namespace perfbench {

using namespace slj;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double us_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}
inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Exact quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 4;  ///< nproc: the whole process stays within this many threads
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: the operation counts, the metrics of the chosen
/// mode and whether every output check held.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< failed checks and operations, printed to stderr

  /// A whole-run property (accuracy floors, conservation, the seed-path
  /// sample): when it does not hold, the run is not correct.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  /// `operations` attempted operations whose outputs were wrong.
  void fail(std::uint64_t operations, const std::string& what) {
    failed += operations;
    if (failures.size() < 20) failures.push_back(what);
  }
  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

// ---- inputs ----------------------------------------------------------------

/// The paper's 288×160 studio camera.
synth::CameraConfig camera_288x160();

/// Seed of the scoring clips: the same in every run, so pose accuracy, which
/// is scored on them alone, repeats exactly whatever the workload seed.
inline constexpr std::uint32_t kScoringSeed = 2008;

/// Renders `count` 45-frame test clips for `camera` on `threads` threads.
/// The first count/2 clips come from kScoringSeed, the rest from `seed`;
/// clip i carries fault mix i % 6 (clean, clean, then each of the four
/// FaultFlags), so each half holds the whole mix. Ground-truth masks are
/// dropped to keep memory small, after their share of the frame's pixels
/// lands in `foreground_share`.
std::vector<synth::Clip> render_clips(std::uint32_t seed, const synth::CameraConfig& camera,
                                      int count, unsigned threads,
                                      double* foreground_share = nullptr);
/// The paper's training split: 12 clips, 522 frames, at 288×160. It is the
/// repository's reference corpus (DatasetSpec's default seed), the same in
/// every run, so set-up time does not depend on the workload seed.
synth::Dataset training_split(unsigned threads);
std::size_t total_frames(const std::vector<synth::Clip>& clips);
/// Bytes of pixel data the clips hold (frames plus background plates).
std::size_t input_bytes(const std::vector<synth::Clip>& clips);
std::size_t input_bytes(const synth::Dataset& dataset);

// ---- set-up ----------------------------------------------------------------

/// Trains a fresh classifier on the training split (the seed path
/// FramePipeline::process over every training frame).
std::unique_ptr<pose::PoseDbnClassifier> train(const synth::Dataset& training);

// ---- per-layer composition ---------------------------------------------------

/// Per-frame (or per-clip) medians of every stage, from composing the
/// frame from the modules' public calls beside FramePipeline::process_into
/// (largest-component path, kOnline decoder). The blob tracker and the
/// kFiltering forward step are timed beside it on the same frames.
struct LayerSummary {
  std::size_t frames = 0;
  std::size_t mismatches = 0;  ///< frames where the composition differed
  double extract_us = 0, sat_us = 0, median_us = 0, largest_component_us = 0,
         fill_holes_us = 0, diff_threshold_us = 0;
  double track_us = 0;
  double thin_us = 0, passes = 0;
  double clean_us = 0, bends_us = 0, nodes = 0;
  double features_us = 0, candidates = 0, classify_us = 0, decode_us = 0;
  double frame_us = 0, glue_us = 0, sequence_us = 0;
};

LayerSummary run_layer_pass(const core::PipelineParams& params,
                            const pose::PoseDbnClassifier& classifier,
                            const std::vector<synth::Clip>& clips);

/// Median time of FramePipeline::process (the allocating seed path training
/// uses) over every `stride`-th training frame.
double train_frame_us(const synth::Dataset& training, std::size_t stride);

// ---- output checks shared by the workloads -----------------------------------

bool same_observation(const core::FrameObservation& a, const core::FrameObservation& b);
bool same_candidates(const std::vector<pose::FeatureCandidate>& a,
                     const std::vector<pose::FeatureCandidate>& b);
bool same_result(const pose::FrameResult& a, const pose::FrameResult& b);
bool same_results(const std::vector<pose::FrameResult>& a, const std::vector<pose::FrameResult>& b);
bool same_report(const core::JumpReport& a, const core::JumpReport& b);
/// detect_faults resolves all six movement-standard rules on every report.
bool report_resolves_every_rule(const core::JumpReport& report);

// ---- workloads ---------------------------------------------------------------

RunResult run_clip_report(const Options& options);
RunResult run_live_saturated(const Options& options);

}  // namespace perfbench
