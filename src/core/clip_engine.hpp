// ClipEngine: batch clip processing on a worker pool. The per-frame vision
// pipeline (FramePipeline::process) is pure, so frames of a clip — and
// frames of *different* clips — can run concurrently; only the per-clip
// sequential state (GroundMonitor calibration, BlobTracker dynamics) is
// replayed in frame order afterwards. Results are stored by frame index, so
// the output is bit-identical to a serial FramePipeline loop regardless of
// worker count or scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/pipeline.hpp"
#include "detection/blob_tracker.hpp"
#include "synth/dataset.hpp"

namespace slj::core {

/// Fixed-size pool of persistent worker threads driving index-space loops.
/// One parallel_for runs at a time (calls are serialized by the caller).
/// `workers` counts lanes, the calling thread included: the caller is lane 0
/// and the pool spawns workers − 1 threads, so WorkerPool(1) owns no thread
/// and runs every task on the caller.
class WorkerPool {
 public:
  /// `workers` lanes (the caller plus workers − 1 threads); 0 picks the
  /// hardware concurrency (at least 1).
  explicit WorkerPool(unsigned workers = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Worker threads owned by the pool (excluding the calling thread).
  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Runs fn(i) for every i in [0, count); blocks until all complete.
  /// If a task throws, the first exception is rethrown here after the
  /// whole index space has drained.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn)
      SLJ_EXCLUDES(mutex_);

  /// Lane-aware variant: fn(lane, i), where `lane` identifies the executing
  /// thread (0 = the calling thread, 1..size() = pool workers). Lanes let
  /// tasks address per-thread state — e.g. one FrameWorkspace per lane —
  /// without locking: a lane never runs two tasks concurrently.
  void parallel_for_lanes(std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& fn)
      SLJ_EXCLUDES(mutex_);

 private:
  using LaneFn = std::function<void(std::size_t, std::size_t)>;

  void worker_loop(std::size_t lane) SLJ_EXCLUDES(mutex_);
  void run_tasks(const LaneFn& fn, std::size_t count, std::size_t lane) SLJ_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  slj::Mutex mutex_;
  slj::CondVar wake_;
  slj::CondVar done_;
  /// The pointer cell is guarded; the pointee lives on the caller's stack,
  /// read outside the lock by design — parallel_for_lanes keeps it alive
  /// until every worker has drained the batch.
  const LaneFn* task_ SLJ_GUARDED_BY(mutex_) = nullptr;
  std::size_t count_ SLJ_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> next_{0};
  /// Workers still inside the current batch.
  std::size_t active_ SLJ_GUARDED_BY(mutex_) = 0;
  /// Batch counter workers wake on.
  std::uint64_t generation_ SLJ_GUARDED_BY(mutex_) = 0;
  bool stop_ SLJ_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ SLJ_GUARDED_BY(mutex_);
};

struct ClipEngineConfig {
  /// Concurrent lanes, the calling thread included (the pool spawns
  /// workers − 1 threads, so lanes() == workers); 0 = hardware concurrency.
  unsigned workers = 0;
  /// Select the jumper blob with a BlobTracker instead of largest-component.
  /// Tracking is sequential within a clip, so frame-level parallelism is
  /// traded for clip-level parallelism in batch calls.
  bool use_tracker = false;
  detect::TrackerConfig tracker;
  /// GroundMonitor lift threshold (px) for the airborne flag.
  int lift_threshold_px = 3;
  /// Grounded frames the ground line is calibrated over (max of their
  /// bottom rows), guarding against one noisy first frame.
  int ground_calibration_frames = GroundMonitor::kDefaultCalibrationFrames;
};

/// Everything the engine derives from one clip: per-frame observations plus
/// the clip-level sequential state replayed over them.
struct ClipObservation {
  std::vector<FrameObservation> frames;
  std::vector<bool> airborne;     ///< GroundMonitor flag per frame
  int ground_row = -1;            ///< calibrated ground line (-1: never seen)
  std::size_t empty_frames = 0;   ///< frames with no silhouette
  std::size_t airborne_frames = 0;

  std::size_t frame_count() const { return frames.size(); }

  /// Per-frame candidate labellings in classifier_sequence() layout.
  std::vector<std::vector<pose::FeatureCandidate>> candidate_sets() const;
};

class ClipEngine {
 public:
  explicit ClipEngine(PipelineParams params = {}, ClipEngineConfig config = {});

  const ClipEngineConfig& config() const { return config_; }
  const PipelineParams& pipeline_params() const { return params_; }

  /// Total concurrent lanes (pool workers + the calling thread).
  unsigned lanes() const { return pool_.size() + 1; }

  /// Processes one raw clip (background plate + frames). Frames run in
  /// parallel unless the tracker is enabled (tracking is stateful in frame
  /// order).
  ClipObservation process(const RgbImage& background, const std::vector<RgbImage>& frames);

  /// Convenience overload for generated / loaded clips.
  ClipObservation process(const synth::Clip& clip);

  /// Batch mode: processes a whole set of clips, spreading work across the
  /// pool. Without a tracker the frame index space of all clips is
  /// flattened (no idle lanes at clip boundaries); with a tracker each clip
  /// is one sequential task and clips run concurrently.
  std::vector<ClipObservation> process(const std::vector<synth::Clip>& clips);

 private:
  /// Replays the clip-level sequential state over per-frame results.
  ClipObservation aggregate(std::vector<FrameObservation> frames) const;
  /// One clip in frame order on lane `lane`'s pipeline and workspace.
  ClipObservation process_serial_tracked(const RgbImage& background,
                                         const std::vector<RgbImage>& frames, std::size_t lane);

  PipelineParams params_;
  ClipEngineConfig config_;
  WorkerPool pool_;
  /// One workspace per lane (pool workers + calling thread); lane l of a
  /// parallel_for_lanes batch owns workspaces_[l] for the batch's duration,
  /// so steady-state frame processing allocates no full-frame buffers.
  std::vector<FrameWorkspace> workspaces_;
  /// One pipeline per lane, for the single-clip and tracked paths: each
  /// clip's set_background rebuilds its Bave in the planes of the last one.
  std::vector<FramePipeline> pipelines_;
};

}  // namespace slj::core
