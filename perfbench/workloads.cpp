// The two workloads. Each one renders its inputs (untimed), sets up several
// times and keeps the last engine, runs a warm-up it discards, then
// measures; output checks run after the measured phase. With --trace 1 the
// measured time is split: an untraced half, then a traced half that times
// calls into the modules from here and enables the program's obs::Tracer
// for its ingest spans, followed by the per-layer composition pass.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "bench.hpp"
#include "core/stream_engine.hpp"
#include "ingest/ingest_metrics.hpp"
#include "ingest/ingest_service.hpp"
#include "obs/tracer.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 9;           ///< set-ups per run; setup_s is their median
constexpr int kFramesPerClip = 45;
constexpr int kClips = 24;           ///< distinct 288×160 clips of both workloads
constexpr int kSessions = 16;        ///< sessions per closed-loop round
constexpr double kMinWarmupS = 1.0;  ///< the first second of a run is discarded
constexpr double kProbeS = 1.0;      ///< clip_report's traced ingest-plane loop
constexpr double kPollPeriodS = 0.05;

enum Phase { kWarmup = 0, kUntraced = 1, kTraced = 2 };

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// ClipEngine lanes = workers + the calling thread = nproc.
unsigned engine_workers(unsigned threads) { return std::max(1u, threads - 1); }
/// IngestService lanes = workers + its scheduler thread = nproc - 1; the
/// generator thread makes nproc.
unsigned service_workers(unsigned threads) { return std::max(1u, threads > 2 ? threads - 2 : 1); }

/// Timed set-up, repeated kSetups times: training on the paper's split plus
/// building the engine, until it can take its first frame.
template <class Engine>
struct Prepared {
  std::unique_ptr<pose::PoseDbnClassifier> classifier;
  std::unique_ptr<Engine> engine;
  double setup_s = 0.0;
  double train_s = 0.0;
};

template <class Engine, class Make>
Prepared<Engine> prepare(const synth::Dataset& training, Make make) {
  Prepared<Engine> p;
  std::vector<double> setups;
  std::vector<double> trains;
  for (int i = 0; i < kSetups; ++i) {
    p.engine.reset();  // before its classifier, and so threads never pile up
    p.classifier.reset();
    const Clock::time_point t0 = Clock::now();
    p.classifier = train(training);
    const Clock::time_point t1 = Clock::now();
    p.engine = make(*p.classifier);
    const Clock::time_point t2 = Clock::now();
    setups.push_back(seconds_since(t0, t2));
    trains.push_back(seconds_since(t0, t1));
  }
  p.setup_s = median(setups);
  p.train_s = median(trains);
  std::fprintf(stderr, "set-up times (s):");
  for (const double t : setups) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");
  return p;
}

/// Pose accuracy over the scoring clips (the first half, see render_clips).
double pose_accuracy_pct(const std::vector<synth::Clip>& clips,
                         const std::vector<std::vector<pose::FrameResult>>& results) {
  std::size_t hits = 0;
  std::size_t frames = 0;
  for (std::size_t c = 0; c < clips.size() / 2; ++c) {
    for (std::size_t i = 0; i < results[c].size(); ++i) {
      hits += results[c][i].pose == clips[c].truth[i].pose ? 1 : 0;
      ++frames;
    }
  }
  return frames == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / static_cast<double>(frames);
}

/// Quantile `q` of consecutive windows of at least 120 samples (all of
/// them when there are fewer), median over the windows. Samples are in the
/// order they were taken, so a slow stretch of the run moves a window or
/// two, not the figure; every window's p90 has at least ten samples beyond
/// it once a run has 100.
double windowed_quantile(const std::vector<double>& samples, double q) {
  constexpr std::size_t kWindow = 120;
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / kWindow);
  const std::size_t size = samples.size() / windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * size);
    const auto last = w + 1 == windows ? samples.end() : first + static_cast<std::ptrdiff_t>(size);
    per_window.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(per_window);
}

/// The batch path over every clip: ClipEngine, then classify_sequence and
/// detect_faults. The stream engine documents equality with exactly this
/// as its exactness property.
struct Reference {
  std::vector<std::vector<pose::FrameResult>> results;
  std::vector<core::JumpReport> reports;
};

Reference batch_reference(const pose::PoseDbnClassifier& classifier,
                          const std::vector<synth::Clip>& clips, unsigned threads) {
  core::ClipEngineConfig config;
  config.workers = engine_workers(threads);
  core::ClipEngine engine({}, config);
  const std::vector<core::ClipObservation> observed = engine.process(clips);
  Reference ref;
  for (const core::ClipObservation& clip : observed) {
    ref.results.push_back(classifier.classify_sequence(clip.candidate_sets(), clip.airborne));
    ref.reports.push_back(core::detect_faults(ref.results.back()));
  }
  return ref;
}

// ---- ingest-plane spans from the program's own tracer ---------------------------

/// Collects the ingest.drain / ingest.tick / ingest.deliver spans the
/// service emits while the tracer is enabled. Rings are bounded, so the
/// generator polls often; events overwritten before a poll count as lost.
class SpanCollector {
 public:
  void begin() {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.reset();
    for (const obs::TracerThreadSnapshot& t : tracer.snapshot().threads) consumed_[t.tid] = t.emitted;
    tracer.set_enabled(true);
    active_ = true;
    last_poll_ = Clock::now();
  }
  void maybe_poll() {
    if (active_ && seconds_since(last_poll_) >= kPollPeriodS) poll();
  }
  void end() {
    if (!active_) return;
    obs::Tracer::instance().set_enabled(false);
    poll();
    active_ = false;
  }

  std::vector<double> drain_us, tick_ms, deliver_us, pass_frames;
  std::uint64_t lost = 0;

 private:
  void poll() {
    last_poll_ = Clock::now();
    for (const obs::TracerThreadSnapshot& t : obs::Tracer::instance().snapshot().threads) {
      std::uint64_t& consumed = consumed_[t.tid];
      const std::uint64_t first = t.emitted - t.events.size();
      if (first > consumed) lost += first - consumed;
      for (std::size_t i = 0; i < t.events.size(); ++i) {
        if (first + i < consumed) continue;
        const obs::TraceEvent& ev = t.events[i];
        if (ev.kind != obs::TraceEventKind::kSpan) continue;
        const double us = static_cast<double>(ev.dur_ns) / 1e3;
        if (std::strcmp(ev.name, "ingest.drain") == 0) {
          drain_us.push_back(us);
        } else if (std::strcmp(ev.name, "ingest.tick") == 0) {
          tick_ms.push_back(us / 1e3);
          pass_frames.push_back(static_cast<double>(ev.arg));
        } else if (std::strcmp(ev.name, "ingest.deliver") == 0) {
          deliver_us.push_back(us);
        }
      }
      consumed = std::max(consumed, t.emitted);
    }
  }

  std::unordered_map<std::uint64_t, std::uint64_t> consumed_;
  bool active_ = false;
  Clock::time_point last_poll_{};
};

// ---- live sessions through IngestService --------------------------------------

/// One jump: what the session's sink saw and what close_session returned.
struct SessionRecord {
  int clip = 0;
  int id = -1;
  int phase = kWarmup;
  Clock::time_point last_push_done{};
  // Written by the sink on the scheduler thread; read after close_session.
  std::vector<std::uint64_t> order;          ///< sequence numbers as delivered
  std::vector<pose::FrameResult> results;
  std::vector<double> enqueue_latency_ms;    ///< Delivery::latency (enqueue -> sink)
  bool bad_sequence = false;
  core::JumpReport report;
  double report_ms = 0.0;
};

class Live {
 public:
  Live(ingest::IngestService& service, const std::vector<synth::Clip>& clips,
       ingest::IngestSessionConfig config)
      : service_(service), clips_(clips), config_(config) {}

  SessionRecord& open(int clip, int phase) {
    records.push_back(std::make_unique<SessionRecord>());
    SessionRecord* rec = records.back().get();
    rec->clip = clip;
    rec->phase = phase;
    rec->results.resize(kFramesPerClip);
    rec->order.reserve(kFramesPerClip);
    rec->enqueue_latency_ms.reserve(kFramesPerClip);
    const Clock::time_point t0 = Clock::now();
    rec->id = service_.open_session(
        clips_[static_cast<std::size_t>(clip)].background, config_,
        [rec](const ingest::Delivery& d) {
          if (d.sequence >= rec->results.size()) {
            rec->bad_sequence = true;
            return;
          }
          rec->order.push_back(d.sequence);
          rec->results[d.sequence] = d.update.result;
          rec->enqueue_latency_ms.push_back(
              std::chrono::duration<double, std::milli>(d.latency).count());
        });
    open_us[phase].push_back(us_between(t0, Clock::now()));
    return *rec;
  }

  void push(SessionRecord& rec, int k) {
    const Clock::time_point t0 = Clock::now();
    const ingest::PushOutcome outcome =
        service_.push(rec.id, clips_[static_cast<std::size_t>(rec.clip)]
                                  .frames[static_cast<std::size_t>(k)]);
    rec.last_push_done = Clock::now();
    push_us[rec.phase].push_back(us_between(t0, rec.last_push_done));
    ++pushes;
    if (outcome != ingest::PushOutcome::kAccepted) ++refused;
  }

  /// close_session returns the report; report_ms runs from the return of
  /// the session's last push.
  void close(SessionRecord& rec) {
    const Clock::time_point t0 = Clock::now();
    rec.report = service_.close_session(rec.id);
    const Clock::time_point t1 = Clock::now();
    close_ms[rec.phase].push_back(ms_between(t0, t1));
    rec.report_ms = ms_between(rec.last_push_done, t1);
  }

  /// Polls IngestService::metrics() on a fixed period, as `sljtool top`
  /// does, and counts snapshots whose p99 exceeds their max.
  void maybe_poll_metrics(int phase) {
    const Clock::time_point now = Clock::now();
    if (last_poll_ != Clock::time_point{} && seconds_since(last_poll_, now) < kPollPeriodS) return;
    last_poll_ = now;
    const ingest::IngestMetricsSnapshot snap = service_.metrics();
    ++polls[phase];
    if (snap.latency_p99_ms > snap.latency_max_ms) ++p99_above_max[phase];
  }

  std::vector<std::unique_ptr<SessionRecord>> records;
  std::vector<double> open_us[3], push_us[3], close_ms[3];
  std::uint64_t polls[3] = {0, 0, 0};
  std::uint64_t p99_above_max[3] = {0, 0, 0};
  std::uint64_t pushes = 0;
  std::uint64_t refused = 0;

 private:
  ingest::IngestService& service_;
  const std::vector<synth::Clip>& clips_;
  ingest::IngestSessionConfig config_;
  Clock::time_point last_poll_{};
};

/// Time, frames and per-round rates of each phase of a closed loop.
struct LoopStats {
  double seconds[3] = {0.0, 0.0, 0.0};
  std::size_t frames[3] = {0, 0, 0};
  std::vector<double> round_fps[3];
};

/// Closed loop through backpressure: each round opens kSessions jumps,
/// pushes their frames round-robin as fast as the kBlock queues admit, then
/// closes them. Clip of session s in round r: (r·kSessions + s) mod clips.
/// The warm-up runs at least two rounds (which play every clip) and
/// kMinWarmupS; then `untraced_s` untraced and `traced_s` traced, the
/// program's tracer on. Phases change between rounds only, and a round
/// starts only before its phase's time is up, so every phase holds whole
/// rounds.
LoopStats run_closed_loop(Live& live, int clip_count, double untraced_s, double traced_s,
                          SpanCollector& spans) {
  LoopStats stats;
  const double length[3] = {kMinWarmupS, untraced_s, traced_s};
  std::vector<SessionRecord*> recs(kSessions);
  int phase = kWarmup;
  Clock::time_point phase_start = Clock::now();
  for (int round = 0;; ++round) {
    while (phase <= kTraced && (phase != kWarmup || round >= 2) &&
           seconds_since(phase_start) >= length[phase]) {
      stats.seconds[phase] = seconds_since(phase_start);
      ++phase;
      phase_start = Clock::now();
      if (phase == kTraced && traced_s > 0.0) spans.begin();
    }
    if (phase > kTraced) break;
    const Clock::time_point round_start = Clock::now();
    for (int s = 0; s < kSessions; ++s) {
      recs[static_cast<std::size_t>(s)] = &live.open((round * kSessions + s) % clip_count, phase);
    }
    for (int k = 0; k < kFramesPerClip; ++k) {
      for (SessionRecord* rec : recs) {
        live.push(*rec, k);
        live.maybe_poll_metrics(phase);
        if (phase == kTraced) spans.maybe_poll();
      }
    }
    for (SessionRecord* rec : recs) live.close(*rec);
    stats.round_fps[phase].push_back(static_cast<double>(kSessions * kFramesPerClip) /
                                     seconds_since(round_start));
    stats.frames[phase] += static_cast<std::size_t>(kSessions * kFramesPerClip);
  }
  spans.end();
  return stats;
}

// ---- checks and metrics of the live sessions ---------------------------------------

/// Checks every session against the batch path. Each measured session is
/// kFramesPerClip + 1 attempted operations: every push, which must be
/// delivered exactly once, in sequence order, with the batch path's
/// result, and the close, whose report must equal the batch path's and
/// resolve every rule. Wrong operations count in `failed`; a wrong warm-up
/// session, a clip never played and a plane that lost frames make the run
/// incorrect. Returns each clip's results from the first session that
/// played it.
std::vector<std::vector<pose::FrameResult>> check_live(RunResult& out, const Live& live,
                                                       const ingest::IngestMetricsSnapshot& snap,
                                                       const Reference& ref) {
  std::vector<std::vector<pose::FrameResult>> first(ref.results.size());
  for (const auto& rec_ptr : live.records) {
    const SessionRecord& rec = *rec_ptr;
    const std::size_t clip = static_cast<std::size_t>(rec.clip);
    std::uint64_t bad_frames = 0;
    for (std::size_t k = 0; k < kFramesPerClip; ++k) {
      const bool ok = k < rec.order.size() && rec.order[k] == k &&
                      same_result(rec.results[k], ref.results[clip][k]);
      bad_frames += ok ? 0 : 1;
    }
    const bool close_ok = !rec.bad_sequence && rec.order.size() == kFramesPerClip &&
                          same_report(rec.report, ref.reports[clip]) &&
                          report_resolves_every_rule(rec.report);
    const std::uint64_t bad = bad_frames + (close_ok ? 0 : 1);
    const std::string what = "session " + std::to_string(rec.id) + " (clip " +
                             std::to_string(clip) + "): " + std::to_string(bad_frames) +
                             " frames wrong or out of order" +
                             (close_ok ? "" : ", report wrong or extra deliveries");
    if (rec.phase == kWarmup) {
      out.check(bad == 0, "warm-up " + what);
    } else {
      out.attempted += kFramesPerClip + 1;
      if (bad > 0) out.fail(bad, what);
    }
    if (first[clip].empty()) first[clip] = rec.results;
  }
  for (std::size_t c = 0; c < first.size(); ++c) {
    out.check(!first[c].empty(), "clip " + std::to_string(c) + " never played live");
  }
  out.check(live.refused == 0, "a push was refused");
  out.check(snap.pushed == live.pushes, "pushed counter differs from the pushes made");
  out.check(snap.pushed == snap.delivered + snap.dropped_oldest + snap.discarded,
            "pushed != delivered + dropped_oldest + discarded");
  out.check(snap.dropped_oldest == 0 && snap.discarded == 0 && snap.rejected == 0 &&
                snap.rate_limited == 0 && snap.closed_pushes == 0,
            "the lossless plane dropped, discarded or refused frames");
  return first;
}

std::vector<double> report_latencies_ms(const Live& live, int phase) {
  std::vector<double> out;
  for (const auto& rec : live.records) {
    if (rec->phase == phase) out.push_back(rec->report_ms);
  }
  return out;
}

/// `metrics_p99_error_pct`: IngestMetrics' p99 against the exact p99 of the
/// same deliveries (every one since the service started).
double metrics_p99_error_pct(const Live& live, ingest::IngestService& service) {
  std::vector<double> all;
  for (const auto& rec : live.records) {
    all.insert(all.end(), rec->enqueue_latency_ms.begin(), rec->enqueue_latency_ms.end());
  }
  const double exact = quantile(all, 0.99);
  const double reported = service.metrics().latency_p99_ms;
  return exact > 0.0 ? 100.0 * (reported - exact) / exact : 0.0;
}

/// Per-layer metrics shared by both workloads; the ingest and session
/// figures come from `live` and `spans`.
void add_layer_metrics(RunResult& out, const LayerSummary& layers, double train_s,
                       double train_frame, double lane_busy_pct, const Live& live,
                       double p99_error_pct, const SpanCollector& spans, double overhead_pct) {
  out.add("segmentation.extract_us", "us", layers.extract_us);
  out.add("segmentation.sat_us", "us", layers.sat_us);
  out.add("segmentation.median_us", "us", layers.median_us);
  out.add("segmentation.largest_component_us", "us", layers.largest_component_us);
  out.add("segmentation.fill_holes_us", "us", layers.fill_holes_us);
  out.add("segmentation.diff_threshold_us", "us", layers.diff_threshold_us);
  out.add("detection.track_us", "us", layers.track_us);
  out.add("thinning.thin_us", "us", layers.thin_us);
  out.add("thinning.passes", "count", layers.passes);
  out.add("skelgraph.clean_us", "us", layers.clean_us);
  out.add("skelgraph.bends_us", "us", layers.bends_us);
  out.add("skelgraph.nodes", "count", layers.nodes);
  out.add("pose.features_us", "us", layers.features_us);
  out.add("pose.candidates", "count", layers.candidates);
  out.add("pose.classify_us", "us", layers.classify_us);
  out.add("pose.decode_us", "us", layers.decode_us);
  out.add("core.frame_us", "us", layers.frame_us);
  out.add("core.glue_us", "us", layers.glue_us);
  out.add("core.train_frame_us", "us", train_frame);
  out.add("core.train_s", "s", train_s);
  out.add("core.lane_busy_pct", "%", lane_busy_pct);
  out.add("core.sequence_us", "us", layers.sequence_us);
  out.add("core.session_open_us", "us", median(live.open_us[kTraced]));
  out.add("core.session_close_ms", "ms", median(live.close_ms[kTraced]));
  out.add("ingest.push_us", "us", median(live.push_us[kTraced]));
  out.add("ingest.pass_frames", "count", median(spans.pass_frames));
  out.add("ingest.drain_us", "us", median(spans.drain_us));
  out.add("ingest.tick_ms", "ms", median(spans.tick_ms));
  out.add("ingest.deliver_us", "us", median(spans.deliver_us));
  out.add("ingest.tracer_lost_events", "count", static_cast<double>(spans.lost));
  out.add("ingest.metrics_p99_error_pct", "%", p99_error_pct);
  const std::uint64_t polls = live.polls[kTraced];
  out.add("ingest.p99_above_max_pct", "%",
          polls == 0 ? 0.0
                     : 100.0 * static_cast<double>(live.p99_above_max[kTraced]) /
                           static_cast<double>(polls));
  out.add("trace.overhead_pct", "%", overhead_pct);
}

/// Lossless kBlock queues, largest-component path, kOnline decoder.
ingest::IngestServiceConfig service_config(unsigned threads) {
  core::StreamSessionConfig session;
  session.use_tracker = false;
  session.decoder = core::StreamDecoder::kOnline;
  ingest::IngestServiceConfig config;
  config.manager.workers = service_workers(threads);
  config.manager.session = session;
  config.router.session.session = session;
  config.router.session.queue.policy = ingest::BackpressurePolicy::kBlock;
  return config;
}

std::unique_ptr<ingest::IngestService> start_service(const pose::PoseDbnClassifier& classifier,
                                                     const ingest::IngestServiceConfig& config) {
  auto service = std::make_unique<ingest::IngestService>(classifier, core::PipelineParams{}, config);
  service->start();
  return service;
}

/// The inputs of both workloads, rendered untimed; their make-up goes to
/// standard error (README "Inputs and seeds").
struct Inputs {
  synth::Dataset training;
  std::vector<synth::Clip> clips;
};

Inputs render_inputs(const Options& options) {
  const Clock::time_point start = Clock::now();
  Inputs in;
  in.training = training_split(options.threads);
  double fg_share = 0.0;
  in.clips = render_clips(options.seed, camera_288x160(), kClips, options.threads, &fg_share);
  const synth::CameraConfig camera = camera_288x160();
  std::fprintf(stderr,
               "inputs: %zu clips x %d frames at %dx%d, foreground %.2f%% of pixels, "
               "%.1f MiB of test frames + %.1f MiB of training frames; rendered in %.1f s\n",
               in.clips.size(), kFramesPerClip, camera.width, camera.height, 100.0 * fg_share,
               static_cast<double>(input_bytes(in.clips)) / 1048576.0,
               static_cast<double>(input_bytes(in.training)) / 1048576.0, seconds_since(start));
  return in;
}

}  // namespace

// ---- clip_report ------------------------------------------------------------------

RunResult run_clip_report(const Options& options) {
  RunResult out;
  const Inputs inputs = render_inputs(options);
  const std::vector<synth::Clip>& clips = inputs.clips;

  core::ClipEngineConfig engine_config;
  engine_config.workers = engine_workers(options.threads);
  Prepared<core::ClipEngine> prepared = prepare<core::ClipEngine>(
      inputs.training, [&](const pose::PoseDbnClassifier&) {
        return std::make_unique<core::ClipEngine>(core::PipelineParams{}, engine_config);
      });
  core::ClipEngine& engine = *prepared.engine;
  const pose::PoseDbnClassifier& classifier = *prepared.classifier;

  // Warm-up: at least one pass and one second. The first pass is the
  // reference every later pass must repeat, and keeps a sample of clips'
  // observations for the seed-path check.
  const std::size_t n = clips.size();
  std::vector<std::vector<pose::FrameResult>> ref_results(n);
  std::vector<core::JumpReport> ref_reports(n);
  std::vector<std::vector<bool>> ref_airborne(n);
  std::vector<core::ClipObservation> sampled;
  const std::vector<std::size_t> sample_clips = {0, 5, 10, 15, 20};
  const Clock::time_point warm_start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(warm_start) < kMinWarmupS; ++pass) {
    for (std::size_t c = 0; c < n; ++c) {
      core::ClipObservation observed = engine.process(clips[c]);
      std::vector<pose::FrameResult> results =
          classifier.classify_sequence(observed.candidate_sets(), observed.airborne);
      core::JumpReport report = core::detect_faults(results);
      if (pass == 0) {
        ref_results[c] = std::move(results);
        ref_reports[c] = std::move(report);
        ref_airborne[c] = observed.airborne;
        if (std::find(sample_clips.begin(), sample_clips.end(), c) != sample_clips.end()) {
          sampled.push_back(std::move(observed));
        }
      }
    }
  }

  // Measured passes over all clips; whole passes only. Each clip is one
  // attempted operation: its report must repeat the first pass exactly and
  // resolve every rule.
  std::vector<double> report_ms[3], fps[3];
  double phase_s[3] = {0.0, 0.0, 0.0};
  std::size_t phase_frames[3] = {0, 0, 0};
  const double half = options.trace ? options.seconds / 2.0 : options.seconds;
  const int last_phase = options.trace ? kTraced : kUntraced;
  for (int phase = kUntraced; phase <= last_phase; ++phase) {
    if (phase == kTraced) obs::Tracer::instance().set_enabled(true);
    const Clock::time_point phase_start = Clock::now();
    while (seconds_since(phase_start) < half) {
      const Clock::time_point pass_start = Clock::now();
      for (std::size_t c = 0; c < n; ++c) {
        const Clock::time_point t0 = Clock::now();
        const core::ClipObservation observed = engine.process(clips[c]);
        const std::vector<pose::FrameResult> results =
            classifier.classify_sequence(observed.candidate_sets(), observed.airborne);
        const core::JumpReport report = core::detect_faults(results);
        report_ms[phase].push_back(ms_between(t0, Clock::now()));
        ++out.attempted;
        if (!same_results(results, ref_results[c]) || !same_report(report, ref_reports[c]) ||
            !report_resolves_every_rule(report)) {
          out.fail(1, "clip " + std::to_string(c) + ": report differs from the first pass's");
        }
      }
      fps[phase].push_back(static_cast<double>(total_frames(clips)) / seconds_since(pass_start));
      phase_frames[phase] += total_frames(clips);
    }
    phase_s[phase] = seconds_since(phase_start);
    if (phase == kTraced) obs::Tracer::instance().set_enabled(false);
  }
  const double rss = peak_rss_mb();
  const unsigned lanes = engine.lanes();
  prepared.engine.reset();

  // Output checks made apart from the engine.
  for (std::size_t s = 0; s < sampled.size(); ++s) {
    const synth::Clip& clip = clips[sample_clips[s]];
    core::FramePipeline seed_path;
    seed_path.set_background(clip.background);
    core::GroundMonitor ground;
    bool same = sampled[s].frames.size() == clip.frames.size();
    for (std::size_t i = 0; same && i < clip.frames.size(); ++i) {
      const core::FrameObservation expected = seed_path.process(clip.frames[i]);
      same = same_observation(expected, sampled[s].frames[i]) &&
             ground.airborne(expected.bottom_row) == sampled[s].airborne[i];
    }
    out.check(same, "clip " + std::to_string(sample_clips[s]) +
                        ": ClipEngine differs from the seed path FramePipeline::process");
  }
  std::size_t airborne_hits = 0;
  std::size_t frames = 0;
  for (std::size_t c = 0; c < n; ++c) {
    out.check(report_resolves_every_rule(ref_reports[c]),
              "clip " + std::to_string(c) + ": report leaves a rule unresolved");
    for (std::size_t i = 0; i < clips[c].frames.size(); ++i) {
      airborne_hits += ref_airborne[c][i] == clips[c].truth[i].airborne ? 1 : 0;
      ++frames;
    }
  }
  const double accuracy = pose_accuracy_pct(clips, ref_results);
  const double airborne_pct = 100.0 * static_cast<double>(airborne_hits) / static_cast<double>(frames);
  std::fprintf(stderr, "pose accuracy %.2f%%, airborne-flag agreement %.2f%%\n", accuracy,
               airborne_pct);
  out.check(accuracy >= 55.0, "pose accuracy below its 55% floor");
  out.check(airborne_pct >= 90.0, "airborne-flag agreement below its 90% floor");

  if (!options.trace) {
    out.add("setup_s", "s", prepared.setup_s);
    out.add("frames_per_s", "frames/s", median(fps[kUntraced]));
    out.add("report_ms_p50", "ms", windowed_quantile(report_ms[kUntraced], 0.5));
    out.add("report_ms_p90", "ms", windowed_quantile(report_ms[kUntraced], 0.9));
    out.add("peak_rss_mb", "MiB", rss);
    out.add("pose_accuracy_pct", "%", accuracy);
    return out;
  }

  // Traced run: stage composition. Every traced run reports every
  // per-layer metric, and the batch engine has no ingest plane, so the
  // ingest and session figures come from kProbeS of live_saturated's closed
  // loop over the same clips, checked like live_saturated's sessions.
  const LayerSummary layers = run_layer_pass({}, classifier, clips);
  out.check(layers.mismatches == 0, "stage composition differs from process_into on " +
                                        std::to_string(layers.mismatches) + " frames");
  const double lane_busy = 100.0 * static_cast<double>(phase_frames[kTraced]) * layers.frame_us /
                           (static_cast<double>(lanes) * phase_s[kTraced] * 1e6);
  const ingest::IngestServiceConfig config = service_config(options.threads);
  auto service = start_service(classifier, config);
  Live live(*service, clips, config.router.session);
  SpanCollector spans;
  run_closed_loop(live, static_cast<int>(n), 0.0, kProbeS, spans);
  service->flush();
  const double p99_error = metrics_p99_error_pct(live, *service);
  const ingest::IngestMetricsSnapshot totals = service->metrics();
  service.reset();
  check_live(out, live, totals, batch_reference(classifier, clips, options.threads));
  add_layer_metrics(out, layers, prepared.train_s, train_frame_us(inputs.training, 4), lane_busy,
                    live, p99_error, spans,
                    100.0 * (median(fps[kUntraced]) / median(fps[kTraced]) - 1.0));
  return out;
}

// ---- live_saturated -----------------------------------------------------------------

RunResult run_live_saturated(const Options& options) {
  RunResult out;
  const Inputs inputs = render_inputs(options);
  const std::vector<synth::Clip>& clips = inputs.clips;

  const ingest::IngestServiceConfig config = service_config(options.threads);
  Prepared<ingest::IngestService> prepared = prepare<ingest::IngestService>(
      inputs.training, [&](const pose::PoseDbnClassifier& classifier) {
        return start_service(classifier, config);
      });
  ingest::IngestService& service = *prepared.engine;
  Live live(service, clips, config.router.session);
  SpanCollector spans;
  const double half = options.trace ? options.seconds / 2.0 : options.seconds;
  const LoopStats loop = run_closed_loop(live, static_cast<int>(clips.size()), half,
                                         options.trace ? half : 0.0, spans);
  service.flush();
  const double rss = peak_rss_mb();
  const ingest::IngestMetricsSnapshot totals = service.metrics();
  const double p99_error = metrics_p99_error_pct(live, service);
  const unsigned lanes = service.manager().lanes();
  prepared.engine.reset();  // its threads end before the reference engine's start

  // Checks against the batch path, once the live plane is gone.
  const std::vector<std::vector<pose::FrameResult>> played = check_live(
      out, live, totals, batch_reference(*prepared.classifier, clips, options.threads));
  const double accuracy = pose_accuracy_pct(clips, played);
  std::fprintf(stderr, "%zu sessions checked; pose accuracy %.2f%%\n", live.records.size(),
               accuracy);

  if (!options.trace) {
    out.add("setup_s", "s", prepared.setup_s);
    out.add("frames_per_s", "frames/s", median(loop.round_fps[kUntraced]));
    const std::vector<double> reports = report_latencies_ms(live, kUntraced);
    out.add("report_ms_p50", "ms", windowed_quantile(reports, 0.5));
    out.add("report_ms_p90", "ms", windowed_quantile(reports, 0.9));
    out.add("peak_rss_mb", "MiB", rss);
    out.add("pose_accuracy_pct", "%", accuracy);
    return out;
  }

  const LayerSummary layers = run_layer_pass({}, *prepared.classifier, clips);
  out.check(layers.mismatches == 0, "stage composition differs from process_into on " +
                                        std::to_string(layers.mismatches) + " frames");
  const double lane_busy = 100.0 * static_cast<double>(loop.frames[kTraced]) * layers.frame_us /
                           (static_cast<double>(lanes) * loop.seconds[kTraced] * 1e6);
  add_layer_metrics(out, layers, prepared.train_s, train_frame_us(inputs.training, 4), lane_busy,
                    live, p99_error, spans,
                    100.0 * (median(loop.round_fps[kUntraced]) / median(loop.round_fps[kTraced]) - 1.0));
  return out;
}

}  // namespace perfbench
