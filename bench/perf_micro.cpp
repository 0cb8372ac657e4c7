// P2 — component micro-benchmarks (google-benchmark): per-stage cost of the
// pipeline the paper runs per frame, plus DBN inference and end-to-end
// frame throughput.
#include <benchmark/benchmark.h>

#include "core/analyzer.hpp"
#include "core/trainer.hpp"
#include "imaging/filters.hpp"
#include "skelgraph/artifacts.hpp"
#include "skelgraph/simplify.hpp"
#include "synth/dataset.hpp"
#include "thinning/zhang_suen.hpp"

namespace {

using namespace slj;

const synth::Clip& bench_clip() {
  static const synth::Clip clip = [] {
    synth::ClipSpec spec;
    spec.seed = 99;
    spec.frame_count = 45;
    return synth::generate_clip(spec);
  }();
  return clip;
}

const RgbImage& mid_frame() { return bench_clip().frames[22]; }

const BinaryImage& mid_silhouette() {
  static const BinaryImage sil = [] {
    seg::ObjectExtractor extractor;
    extractor.set_background(bench_clip().background);
    return extractor.silhouette(mid_frame());
  }();
  return sil;
}

void BM_ObjectExtraction(benchmark::State& state) {
  seg::ObjectExtractor extractor;
  extractor.set_background(bench_clip().background);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.silhouette(mid_frame()));
  }
}
BENCHMARK(BM_ObjectExtraction);

void BM_MedianFilterBinary(benchmark::State& state) {
  const BinaryImage& sil = mid_silhouette();
  for (auto _ : state) {
    benchmark::DoNotOptimize(median_filter_binary(sil, 5));
  }
}
BENCHMARK(BM_MedianFilterBinary);

// The production kernel: word-parallel, into a reused workspace.
void BM_ZhangSuenThinning(benchmark::State& state) {
  const BinaryImage& sil = mid_silhouette();
  FrameWorkspace ws;
  BinaryImage skeleton;
  for (auto _ : state) {
    thin::zhang_suen_thin_into(sil, ws, skeleton);
    benchmark::DoNotOptimize(skeleton.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ZhangSuenThinning);

// The allocating per-pixel reference the parity tests compare against.
void BM_ZhangSuenThinningOracle(benchmark::State& state) {
  const BinaryImage& sil = mid_silhouette();
  for (auto _ : state) {
    benchmark::DoNotOptimize(thin::zhang_suen_thin(sil));
  }
}
BENCHMARK(BM_ZhangSuenThinningOracle);

void BM_SkeletonGraphCleanup(benchmark::State& state) {
  const BinaryImage skeleton = thin::zhang_suen_thin(mid_silhouette());
  for (auto _ : state) {
    skel::SkeletonGraph g = skel::clean_skeleton(skeleton);
    skel::split_edges_at_bends(g);
    benchmark::DoNotOptimize(g.alive_edge_count());
  }
}
BENCHMARK(BM_SkeletonGraphCleanup);

void BM_FeatureCandidates(benchmark::State& state) {
  const BinaryImage skeleton = thin::zhang_suen_thin(mid_silhouette());
  skel::SkeletonGraph g = skel::clean_skeleton(skeleton);
  skel::split_edges_at_bends(g);
  const pose::AreaEncoder enc(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pose::enumerate_candidates(g, enc));
  }
}
BENCHMARK(BM_FeatureCandidates);

pose::PoseDbnClassifier& trained_classifier() {
  static pose::PoseDbnClassifier clf = [] {
    synth::DatasetSpec spec;
    spec.train_clip_frames = {44, 43, 44, 43};
    spec.test_clip_frames = {};
    const synth::Dataset ds = synth::generate_dataset(spec);
    core::FramePipeline pipeline;
    pose::PoseDbnClassifier c;
    core::train_on_dataset(c, pipeline, ds);
    return c;
  }();
  return clf;
}

void BM_DbnFrameInference(benchmark::State& state) {
  pose::PoseDbnClassifier& clf = trained_classifier();
  core::FramePipeline pipeline;
  const core::FrameObservation obs = pipeline.process_silhouette(mid_silhouette());
  for (auto _ : state) {
    auto st = clf.initial_state();
    benchmark::DoNotOptimize(clf.classify(obs.candidates, false, st));
  }
}
BENCHMARK(BM_DbnFrameInference);

void BM_EndToEndFrame(benchmark::State& state) {
  pose::PoseDbnClassifier& clf = trained_classifier();
  core::FramePipeline pipeline;
  pipeline.set_background(bench_clip().background);
  for (auto _ : state) {
    const core::FrameObservation obs = pipeline.process(mid_frame());
    auto st = clf.initial_state();
    benchmark::DoNotOptimize(clf.classify(obs.candidates, false, st));
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndFrame);

void BM_ExactBnInference(benchmark::State& state) {
  // Enumeration over the exported Fig.-7(a) network with one observed part.
  const bayes::Network net =
      trained_classifier().build_pose_network(pose::PoseId::kStandHandsForward);
  bayes::Assignment evidence(static_cast<std::size_t>(net.node_count()), bayes::kUnobserved);
  evidence[static_cast<std::size_t>(*net.find("Hand"))] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.posterior(0, evidence));
  }
}
BENCHMARK(BM_ExactBnInference);

}  // namespace

BENCHMARK_MAIN();
