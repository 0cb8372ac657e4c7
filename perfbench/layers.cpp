// Per-layer timing: every frame is processed twice, once through the
// production FramePipeline::process_into and once composed stage by stage
// from the modules' public calls, each call timed here. The composed
// silhouette, skeleton, key points and candidates must equal process_into's
// bit for bit, so the stage figures describe the production path. Nothing
// under src/ is instrumented for this.
#include <algorithm>

#include "bench.hpp"
#include "detection/blob_tracker.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/morphology.hpp"
#include "pose/skeleton_features.hpp"
#include "skelgraph/artifacts.hpp"
#include "skelgraph/simplify.hpp"
#include "thinning/zhang_suen.hpp"

namespace perfbench {

namespace {

struct Samples {
  std::vector<double> extract, sat, median_filter, largest, fill, diff_threshold, track, thin, passes,
      clean, bends, nodes, features, candidates, classify, decode, frame, glue, sequence;
};

int bottom_row_of(const BinaryImage& mask) {
  for (int y = mask.height() - 1; y >= 0; --y) {
    const auto row = mask.data().begin() + static_cast<std::ptrdiff_t>(y) * mask.width();
    if (std::any_of(row, row + mask.width(), [](std::uint8_t v) { return v != 0; })) return y;
  }
  return -1;
}

}  // namespace

LayerSummary run_layer_pass(const core::PipelineParams& params,
                            const pose::PoseDbnClassifier& classifier,
                            const std::vector<synth::Clip>& clips) {
  Samples s;
  LayerSummary out;
  core::FramePipeline pipeline(params);
  FrameWorkspace ws_ref;  // production path
  FrameWorkspace ws;      // composed path
  FrameWorkspace ws_side; // stand-alone stage timings
  core::FrameObservation ref;
  BinaryImage silhouette, side_largest_filled, skeleton;
  const auto now = [] { return Clock::now(); };

  for (const synth::Clip& clip : clips) {
    pipeline.set_background(clip.background);
    detect::BlobTracker tracker(detect::TrackerConfig{});
    core::GroundMonitor ground;
    pose::PoseDbnClassifier::SequenceState state = classifier.initial_state();
    pose::OnlineForwardDecoder forward(classifier);
    std::vector<std::vector<pose::FeatureCandidate>> clip_candidates;
    std::vector<bool> clip_airborne;

    for (const RgbImage& frame : clip.frames) {
      // Production path.
      Clock::time_point t0 = now();
      pipeline.process_into(frame, ws_ref, ref);
      const double frame_us = us_between(t0, now());

      // segmentation: the whole extraction, then its stages stand-alone on
      // the extraction's own intermediates.
      t0 = now();
      pipeline.extractor().extract_into(frame, ws, silhouette);
      const double extract_us = us_between(t0, now());
      t0 = now();
      build_rgb_integrals(frame, ws_side);
      const double sat_us = us_between(t0, now());
      t0 = now();
      median_filter_binary_into(ws.raw_mask, params.extractor.median_window, ws_side.mask_integral,
                                ws_side.smoothed);
      const double median_us = us_between(t0, now());
      t0 = now();
      largest_component_into(ws.smoothed, true, ws_side.labeling, ws_side.pixel_stack,
                             ws_side.largest);
      const double largest_us = us_between(t0, now());
      t0 = now();
      fill_holes_into(ws.largest, ws_side.reached, ws_side.flood_stack, side_largest_filled);
      const double fill_us = us_between(t0, now());
      bool same = ws_side.smoothed == ws.smoothed && ws_side.largest == ws.largest &&
                  side_largest_filled == silhouette;

      // detection: the blob tracker on the smoothed mask, timed beside the
      // largest-component path it would replace.
      t0 = now();
      const detect::TrackResult track = tracker.update(ws.smoothed, ws.labeling, ws.pixel_stack);
      const double track_us = us_between(t0, now());
      (void)track;

      // thinning
      thin::ThinningStats thin_stats;
      t0 = now();
      thin::zhang_suen_thin_into(silhouette, ws, skeleton, &thin_stats);
      const double thin_us = us_between(t0, now());

      // skelgraph
      skel::CleanupStats cleanup;
      t0 = now();
      skel::SkeletonGraph graph =
          skel::clean_skeleton(skeleton, ws, params.min_branch_vertices, &cleanup);
      const double clean_us = us_between(t0, now());
      t0 = now();
      if (params.split_bends) skel::split_edges_at_bends(graph, params.bend_tolerance);
      const std::vector<skel::KeyPoint> key_points = skel::extract_key_points(graph);
      const double bends_us = us_between(t0, now());

      // pose
      t0 = now();
      std::vector<pose::FeatureCandidate> candidates =
          pose::enumerate_candidates(graph, pipeline.encoder(), params.candidates);
      const double features_us = us_between(t0, now());
      const bool airborne = ground.airborne(bottom_row_of(silhouette));
      t0 = now();
      const pose::FrameResult classified = classifier.classify(candidates, airborne, state);
      const double classify_us = us_between(t0, now());
      t0 = now();
      const pose::FrameResult decoded = forward.push(candidates, airborne);
      const double decode_us = us_between(t0, now());
      (void)classified;
      (void)decoded;

      // Self-check against the production observation.
      same = same && silhouette == ref.silhouette && skeleton == ref.raw_skeleton &&
             bottom_row_of(silhouette) == ref.bottom_row &&
             key_points.size() == ref.key_points.size() &&
             same_candidates(candidates, ref.candidates);
      for (std::size_t k = 0; same && k < key_points.size(); ++k) {
        same = key_points[k].pos == ref.key_points[k].pos &&
               key_points[k].type == ref.key_points[k].type;
      }
      if (!same) ++out.mismatches;
      ++out.frames;

      const double stages = extract_us + thin_us + clean_us + bends_us + features_us;
      s.extract.push_back(extract_us);
      s.sat.push_back(sat_us);
      s.median_filter.push_back(median_us);
      s.largest.push_back(largest_us);
      s.fill.push_back(fill_us);
      s.diff_threshold.push_back(extract_us - sat_us - median_us - largest_us - fill_us);
      s.track.push_back(track_us);
      s.thin.push_back(thin_us);
      s.passes.push_back(thin_stats.iterations);
      s.clean.push_back(clean_us);
      s.bends.push_back(bends_us);
      s.nodes.push_back(static_cast<double>(graph.alive_node_count()));
      s.features.push_back(features_us);
      s.candidates.push_back(static_cast<double>(candidates.size()));
      s.classify.push_back(classify_us);
      s.decode.push_back(decode_us);
      s.frame.push_back(frame_us);
      s.glue.push_back(frame_us - stages);
      clip_candidates.push_back(std::move(candidates));
      clip_airborne.push_back(airborne);
    }

    // core: the per-clip sequence step.
    const Clock::time_point t0 = now();
    const std::vector<pose::FrameResult> results =
        classifier.classify_sequence(clip_candidates, clip_airborne);
    const core::JumpReport report = core::detect_faults(results);
    s.sequence.push_back(us_between(t0, now()));
    if (!report_resolves_every_rule(report)) ++out.mismatches;
  }

  out.extract_us = median(s.extract);
  out.sat_us = median(s.sat);
  out.median_us = median(s.median_filter);
  out.largest_component_us = median(s.largest);
  out.fill_holes_us = median(s.fill);
  out.diff_threshold_us = median(s.diff_threshold);
  out.track_us = median(s.track);
  out.thin_us = median(s.thin);
  out.passes = median(s.passes);
  out.clean_us = median(s.clean);
  out.bends_us = median(s.bends);
  out.nodes = median(s.nodes);
  out.features_us = median(s.features);
  out.candidates = median(s.candidates);
  out.classify_us = median(s.classify);
  out.decode_us = median(s.decode);
  out.frame_us = median(s.frame);
  out.glue_us = median(s.glue);
  out.sequence_us = median(s.sequence);
  return out;
}

}  // namespace perfbench
