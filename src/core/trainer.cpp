#include "core/trainer.hpp"

#include "bayes/structure.hpp"

namespace slj::core {

TrainingStats train_on_clip(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                            const synth::Clip& clip) {
  TrainingStats stats;
  pipeline.set_background(clip.background);
  pose::PoseId prev = pose::kResetPose;
  pose::Stage stage = pose::Stage::kBeforeJumping;
  GroundMonitor ground;
  // The workspace path gives process(frame)'s observation bit for bit,
  // without its per-frame full-frame allocations.
  FrameWorkspace ws;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    ++stats.frames;
    const FrameObservation obs = pipeline.process(clip.frames[i], ws);
    const bool airborne = ground.airborne(obs.bottom_row);
    const synth::FrameTruth& truth = clip.truth[i];

    pose::PartPoints gt;
    gt.head = truth.parts.head;
    gt.chest = truth.parts.chest;
    gt.hand = truth.parts.hand;
    gt.knee = truth.parts.knee;
    gt.foot = truth.parts.foot;
    const auto candidate =
        pose::features_from_truth(obs.graph, pipeline.encoder(), gt);
    if (!candidate.has_value()) {
      ++stats.frames_without_skeleton;
      continue;
    }
    for (const int area : candidate->features.areas) {
      if (area == pipeline.encoder().missing_state()) ++stats.missing_part_slots;
    }
    classifier.observe(truth.pose, *candidate, prev, stage, airborne);
    prev = truth.pose;
    stage = truth.stage;
  }
  return stats;
}

TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset) {
  TrainingStats total;
  for (const synth::Clip& clip : dataset.train) {
    const TrainingStats s = train_on_clip(classifier, pipeline, clip);
    total.frames += s.frames;
    total.frames_without_skeleton += s.frames_without_skeleton;
    total.missing_part_slots += s.missing_part_slots;
  }
  return total;
}

TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset, const TrainerOptions& options) {
  if (!options.learn_tan_structure) {
    return train_on_dataset(classifier, pipeline, dataset);
  }

  // Pass 1: run the pipeline once, caching the training tuples.
  struct Tuple {
    pose::PoseId pose;
    pose::FeatureCandidate candidate;
    pose::PoseId prev;
    pose::Stage stage;
    bool airborne;
  };
  TrainingStats stats;
  std::vector<Tuple> tuples;
  std::vector<bayes::TanSample> samples;
  FrameWorkspace ws;
  for (const synth::Clip& clip : dataset.train) {
    pipeline.set_background(clip.background);
    pose::PoseId prev = pose::kResetPose;
    GroundMonitor ground;
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      ++stats.frames;
      const FrameObservation obs = pipeline.process(clip.frames[i], ws);
      const bool airborne = ground.airborne(obs.bottom_row);
      const synth::FrameTruth& truth = clip.truth[i];
      pose::PartPoints gt{truth.parts.head, truth.parts.chest, truth.parts.hand,
                          truth.parts.knee, truth.parts.foot};
      const auto candidate = pose::features_from_truth(obs.graph, pipeline.encoder(), gt);
      if (!candidate.has_value()) {
        ++stats.frames_without_skeleton;
        continue;
      }
      for (const int area : candidate->features.areas) {
        if (area == pipeline.encoder().missing_state()) ++stats.missing_part_slots;
      }
      tuples.push_back({truth.pose, *candidate, prev, truth.stage, airborne});
      bayes::TanSample sample;
      sample.class_label = pose::index_of(truth.pose);
      sample.features.assign(candidate->features.areas.begin(),
                             candidate->features.areas.end());
      samples.push_back(std::move(sample));
      prev = truth.pose;
    }
  }

  // Qualitative training: the TAN tree over the part features.
  const std::vector<int> feature_cards(static_cast<std::size_t>(pose::kPartCount),
                                       pipeline.encoder().state_count());
  const std::vector<int> parents = bayes::learn_tan_structure(
      samples, feature_cards, pose::kPoseCount, classifier.config().laplace_alpha);
  classifier.set_tan_structure(parents);

  // Pass 2: quantitative training from the cached tuples.
  for (const Tuple& t : tuples) {
    classifier.observe(t.pose, t.candidate, t.prev, t.stage, t.airborne);
  }
  return stats;
}

}  // namespace slj::core
