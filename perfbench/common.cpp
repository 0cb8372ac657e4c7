// Inputs, training, order statistics and the output comparisons the
// workloads share.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/trainer.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// ---- inputs ----------------------------------------------------------------

synth::CameraConfig camera_288x160() { return synth::CameraConfig{}; }

namespace {

/// Runs fn(i) for i in [0, count) on `threads` threads, the caller being
/// one of them (rendering is untimed, and generate_clip is pure in its
/// spec). Every thread is joined before this returns.
template <class Fn>
void parallel_indices(std::size_t count, unsigned threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    try {
      for (std::size_t i = next++; i < count; i = next++) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      next = count;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

void drop_masks(synth::Clip& clip) {
  clip.clean_silhouettes.clear();
  clip.clean_silhouettes.shrink_to_fit();
}

}  // namespace

std::vector<synth::Clip> render_clips(std::uint32_t seed, const synth::CameraConfig& camera,
                                      int count, unsigned threads, double* foreground_share) {
  std::vector<synth::Clip> clips(static_cast<std::size_t>(count));
  std::vector<std::size_t> fg(clips.size(), 0);
  parallel_indices(clips.size(), threads, [&](std::size_t i) {
    synth::ClipSpec spec;
    // The first half is the fixed scoring set; the second half comes from
    // the workload seed. Both are offset like generate_dataset's test split,
    // so no test clip repeats a training clip.
    const std::uint32_t base = i < clips.size() / 2 ? kScoringSeed : seed;
    spec.seed = base * 1000u + 500u + static_cast<std::uint32_t>(i);
    spec.frame_count = 45;
    spec.camera = camera;
    switch (i % 6) {
      case 2: spec.faults.no_arm_swing = true; break;
      case 3: spec.faults.no_crouch = true; break;
      case 4: spec.faults.stiff_landing = true; break;
      case 5: spec.faults.no_forward_lean = true; break;
      default: break;  // 0, 1: clean jumps
    }
    clips[i] = synth::generate_clip(spec);
    for (const BinaryImage& mask : clips[i].clean_silhouettes) fg[i] += count_foreground(mask);
    drop_masks(clips[i]);
  });
  if (foreground_share != nullptr) {
    const std::size_t pixels =
        total_frames(clips) * static_cast<std::size_t>(camera.width * camera.height);
    std::size_t total_fg = 0;
    for (const std::size_t n : fg) total_fg += n;
    *foreground_share = pixels == 0 ? 0.0 : static_cast<double>(total_fg) / static_cast<double>(pixels);
  }
  return clips;
}

synth::Dataset training_split(unsigned threads) {
  // The same clips generate_dataset renders for the paper corpus (its
  // default seed; training clip k has clip seed seed + 1 + k), rendered in
  // parallel.
  const synth::DatasetSpec spec;
  synth::Dataset dataset;
  dataset.train.resize(spec.train_clip_frames.size());
  parallel_indices(dataset.train.size(), threads, [&](std::size_t k) {
    synth::ClipSpec clip;
    clip.seed = spec.seed + 1u + static_cast<std::uint32_t>(k);
    clip.frame_count = spec.train_clip_frames[k];
    clip.camera = spec.camera;
    dataset.train[k] = synth::generate_clip(clip);
    drop_masks(dataset.train[k]);
  });
  return dataset;
}

std::size_t total_frames(const std::vector<synth::Clip>& clips) {
  std::size_t n = 0;
  for (const synth::Clip& clip : clips) n += clip.frames.size();
  return n;
}

std::size_t input_bytes(const std::vector<synth::Clip>& clips) {
  std::size_t bytes = 0;
  for (const synth::Clip& clip : clips) {
    bytes += clip.background.size() * sizeof(Rgb);
    for (const RgbImage& frame : clip.frames) bytes += frame.size() * sizeof(Rgb);
  }
  return bytes;
}

std::size_t input_bytes(const synth::Dataset& dataset) { return input_bytes(dataset.train); }

// ---- set-up ----------------------------------------------------------------

std::unique_ptr<pose::PoseDbnClassifier> train(const synth::Dataset& training) {
  auto classifier = std::make_unique<pose::PoseDbnClassifier>();
  core::FramePipeline pipeline;
  core::train_on_dataset(*classifier, pipeline, training);
  return classifier;
}

double train_frame_us(const synth::Dataset& training, std::size_t stride) {
  std::vector<double> samples;
  core::FramePipeline pipeline;
  std::size_t index = 0;
  for (const synth::Clip& clip : training.train) {
    pipeline.set_background(clip.background);
    for (const RgbImage& frame : clip.frames) {
      if (index++ % stride != 0) continue;
      const Clock::time_point t0 = Clock::now();
      const core::FrameObservation obs = pipeline.process(frame);
      samples.push_back(us_between(t0, Clock::now()));
    }
  }
  return median(std::move(samples));
}

// ---- output checks -------------------------------------------------------------

bool same_candidates(const std::vector<pose::FeatureCandidate>& a,
                     const std::vector<pose::FeatureCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].features != b[i].features || a[i].waist != b[i].waist || a[i].nodes != b[i].nodes ||
        a[i].occupancy != b[i].occupancy) {
      return false;
    }
  }
  return true;
}

bool same_observation(const core::FrameObservation& a, const core::FrameObservation& b) {
  if (a.silhouette != b.silhouette || a.raw_skeleton != b.raw_skeleton ||
      a.bottom_row != b.bottom_row || a.key_points.size() != b.key_points.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.key_points.size(); ++i) {
    if (a.key_points[i].pos != b.key_points[i].pos || a.key_points[i].type != b.key_points[i].type) {
      return false;
    }
  }
  return same_candidates(a.candidates, b.candidates);
}

bool same_result(const pose::FrameResult& a, const pose::FrameResult& b) {
  return a.pose == b.pose && a.best_pose == b.best_pose && a.posterior == b.posterior &&
         a.stage == b.stage && a.candidate_index == b.candidate_index;
}

bool same_results(const std::vector<pose::FrameResult>& a, const std::vector<pose::FrameResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_result(a[i], b[i])) return false;
  }
  return true;
}

bool same_report(const core::JumpReport& a, const core::JumpReport& b) {
  if (a.findings.size() != b.findings.size()) return false;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    if (a.findings[i].rule != b.findings[i].rule || a.findings[i].passed != b.findings[i].passed ||
        a.findings[i].evidence_frames != b.findings[i].evidence_frames) {
      return false;
    }
  }
  return true;
}

bool report_resolves_every_rule(const core::JumpReport& report) {
  constexpr core::FaultRule kRules[] = {
      core::FaultRule::kArmBackswing,     core::FaultRule::kPreparatoryCrouch,
      core::FaultRule::kArmDriveForward,  core::FaultRule::kFlightLegCarry,
      core::FaultRule::kLandingAbsorption, core::FaultRule::kCompleteSequence,
  };
  if (report.findings.size() != std::size(kRules)) return false;
  for (const core::FaultRule rule : kRules) {
    const auto hits = std::count_if(report.findings.begin(), report.findings.end(),
                                    [&](const core::FaultFinding& f) { return f.rule == rule; });
    if (hits != 1) return false;
  }
  return true;
}

}  // namespace perfbench
