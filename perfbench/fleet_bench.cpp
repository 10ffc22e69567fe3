// Fleet serving benchmark: serves a camera fleet at the paper's geometry
// (32x32, T=16, tile 8, SnapPix-S) through the sharded InferenceServer and
// reports what a fleet operator sees end to end, or (with --trace 1) what each
// layer costs. See perfbench/README.md for the workloads, the metric map and
// how each number is taken.
//
//   fleet_bench --workload <fleet_fp32|fleet_int8_codec|paced_framed>
//               --seed <n> --seconds <s> --trace <0|1>
//               --shards <n>
//               --ladder <workload>:<fps,fps,...> [--ladder ...]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Every served output is checked against a batch-1 reference.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "ce/encode.h"
#include "ce/pattern.h"
#include "codec/bitplane.h"
#include "core/snappix.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "runtime/camera.h"
#include "runtime/engine.h"
#include "runtime/engine_cache.h"
#include "runtime/quant.h"
#include "runtime/server.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "trace_digest.h"
#include "transport/csi2.h"
#include "util/rng.h"

namespace {

using namespace snappix;
using perfbench::MetricTable;
using perfbench::median;
using perfbench::percentile;
using runtime::Clock;
using runtime::Precision;
using runtime::Task;

constexpr int kImage = 32;
constexpr int kFrames = 16;
constexpr int kTile = 8;
constexpr int kClasses = 10;
constexpr int kCameras = 4;
constexpr int kClipsPerCamera = 16;  // replay slots per camera
constexpr int kMaxBatch = 16;
constexpr int kClassifyDepth = 8;    // codec planes for classify frames (0.31x rate point)
constexpr double kSloMs = 33.3;      // one 30-fps frame interval
constexpr int kSetupRepeats = 9;
constexpr int kSetupFramesPerCamera = 8;
// Closed-loop round length (frames per camera). Rounds repeat until the run's
// time is spent; each round's steady window is read between two mid-run
// snapshots.
constexpr std::int64_t kRoundFramesPerCamera = 2000;
// Latency samples one paced server run keeps after its warm-up: p99 then has
// >= 10 samples beyond it. Runs are this short (0.5-1.3 s on the ladders) so
// that a host stall spoils few of them; the median over runs drops those.
constexpr std::int64_t kMinRunFrames = 1200;
// Lifecycle spans are kept for every frame: kMinRunFrames only guarantees
// >= 10 samples beyond p99 when no frame is sampled out.
constexpr int kSampleEvery = 1;
constexpr double kWindowStartFrac = 0.10;
constexpr double kWindowEndFrac = 0.90;
// Paced latency samples from the first 100 ms of each server run are dropped
// (cold caches, thread start-up).
constexpr double kPacedWarmupS = 0.1;

enum class Workload { kFleetFp32, kFleetInt8Codec, kPacedFramed };

struct Options {
  Workload workload = Workload::kFleetFp32;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t shards = 4;
  std::vector<double> ladder;  // this workload's paced rates, ascending
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "fleet_bench: %s\n", why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  std::vector<std::string> ladders;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + key).c_str());
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload_name = value;
      if (value == "fleet_fp32") {
        opt.workload = Workload::kFleetFp32;
      } else if (value == "fleet_int8_codec") {
        opt.workload = Workload::kFleetInt8Codec;
      } else if (value == "paced_framed") {
        opt.workload = Workload::kPacedFramed;
      } else {
        usage(("unknown workload " + value).c_str());
      }
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--shards") {
      opt.shards = static_cast<std::size_t>(std::atoi(value.c_str()));
    } else if (key == "--ladder") {
      ladders.push_back(value);
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (opt.workload_name.empty() || opt.seconds <= 0.0 || opt.shards < 1) {
    usage("need --workload, positive --seconds and --shards");
  }
  for (const std::string& ladder : ladders) {
    const std::size_t colon = ladder.find(':');
    if (colon == std::string::npos || ladder.substr(0, colon) != opt.workload_name) {
      continue;
    }
    std::stringstream ss(ladder.substr(colon + 1));
    std::string item;
    while (std::getline(ss, item, ',')) {
      const double rate = std::atof(item.c_str());
      if (rate <= 0.0) {
        usage(("bad ladder rate in " + ladder).c_str());
      }
      opt.ladder.push_back(rate);
    }
  }
  if (opt.ladder.empty()) {
    usage(("no --ladder for workload " + opt.workload_name).c_str());
  }
  std::sort(opt.ladder.begin(), opt.ladder.end());
  return opt;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- generated inputs ---------------------------------------------------------

// Camera c uses pattern c / 2 and classifies, except the last camera, which
// reconstructs (AR:REC = 3:1).
Task camera_task(int cam) { return cam == kCameras - 1 ? Task::kReconstruct : Task::kClassify; }
std::size_t camera_pattern(int cam) { return static_cast<std::size_t>(cam / 2); }

struct Inputs {
  std::vector<runtime::PatternRef> patterns;
  std::vector<std::vector<Tensor>> clips;  // per camera: (T, H, W) scenes
  std::vector<std::vector<std::int64_t>> labels;
  std::vector<std::vector<Tensor>> coded;  // per camera: exposure-normalized (H, W)
};

// The sensor model a CE camera applies at capture (the same calls as
// CameraSource::encode_normalized): encode the (T, H, W) clip with the
// pattern, then normalize by per-pixel exposure counts.
Tensor encode_clip(const Tensor& clip, const ce::CePattern& pattern) {
  NoGradGuard guard;
  const Tensor batched = Tensor::from_vector(clip.data(), Shape{1, kFrames, kImage, kImage});
  const Tensor coded = ce::normalize_by_exposure(ce::ce_encode(batched, pattern), pattern);
  return Tensor::from_vector(coded.data(), Shape{kImage, kImage});
}

// Everything the fleet sees is drawn from `seed`: two random CE patterns and
// kClipsPerCamera pre-rendered scenes per camera. Patterns are redrawn until
// the first routes to shard 0 and the second to shard 1 (the server routes by
// pattern_id % shards), so every seed serves the same fleet topology.
Inputs make_inputs(std::uint64_t seed, std::size_t shards) {
  Inputs in;
  Rng rng(seed * 7919 + 17);
  for (std::size_t home = 0; home < 2; ++home) {
    for (;;) {
      auto pattern = runtime::make_pattern_ref(ce::CePattern::random(kFrames, kTile, rng));
      if (pattern->hash() % shards == home % shards) {
        in.patterns.push_back(std::move(pattern));
        break;
      }
    }
  }
  data::SceneConfig scene;
  scene.frames = kFrames;
  scene.height = kImage;
  scene.width = kImage;
  scene.num_classes = 6;
  const data::SyntheticVideoGenerator generator(scene);
  for (int cam = 0; cam < kCameras; ++cam) {
    Rng cam_rng(seed * 104729 + static_cast<std::uint64_t>(cam) + 1);
    std::vector<Tensor> clips, coded;
    std::vector<std::int64_t> labels;
    for (int i = 0; i < kClipsPerCamera; ++i) {
      data::VideoSample sample = generator.sample(cam_rng);
      coded.push_back(encode_clip(sample.video, *in.patterns[camera_pattern(cam)]));
      clips.push_back(std::move(sample.video));
      labels.push_back(sample.label);
    }
    in.clips.push_back(std::move(clips));
    in.coded.push_back(std::move(coded));
    in.labels.push_back(std::move(labels));
  }
  return in;
}

// The served model is the program's own state, not a workload input: its
// weights come from a fixed seed so every workload seed serves one model.
core::SnapPixConfig system_config() {
  core::SnapPixConfig cfg;
  cfg.image = kImage;
  cfg.frames = kFrames;
  cfg.tile = kTile;
  cfg.backbone = core::Backbone::kSnapPixS;
  cfg.num_classes = kClasses;
  cfg.seed = 1;
  return cfg;
}

// The receiver-side image of `coded` on an entropy-coded link decoded to
// `depth` planes (0 = all), computed in memory without the codec: quantize,
// zero the magnitude bits below the top `depth` planes, dequantize.
Tensor depth_round_trip(const Tensor& coded, int depth) {
  codec::QuantizedFrame q = codec::quantize_frame(coded);
  int max_mag = 0;
  for (const std::int16_t v : q.values) {
    max_mag = std::max(max_mag, std::abs(static_cast<int>(v)));
  }
  int planes = 0;
  while ((max_mag >> planes) != 0) {
    ++planes;
  }
  if (depth > 0 && depth < planes) {
    const int mask = ~((1 << (planes - depth)) - 1);
    for (std::int16_t& v : q.values) {
      const int mag = std::abs(static_cast<int>(v)) & mask;
      v = static_cast<std::int16_t>(v < 0 ? -mag : mag);
    }
  }
  return codec::dequantize_frame(q);
}

// --- cameras -------------------------------------------------------------------

// Schedule and timing log of one paced camera, owned by the bench so it
// outlives the server. Written only by the camera's producer thread during
// run(); read after run() returns.
struct PaceLog {
  Clock::time_point origin{};
  std::chrono::nanoseconds gap{0};  // zero = closed loop (no schedule)
  std::vector<Clock::time_point> due;
  std::vector<double> late_s;   // wake-up minus due time
  std::vector<double> sleep_s;  // time spent sleeping inside capture
};

// Waits for frame `index`'s absolute due time (origin + index * gap), so a
// slow server never slows the offered rate, and logs the wait. No-op for a
// camera without a schedule.
void pace(PaceLog* log, std::size_t index) {
  if (log == nullptr || log->gap.count() == 0) {
    return;
  }
  const Clock::time_point due = log->origin + log->gap * static_cast<std::int64_t>(index);
  const Clock::time_point before = Clock::now();
  std::this_thread::sleep_until(due);
  const Clock::time_point wake = Clock::now();
  if (index < log->due.size()) {
    log->due[index] = due;
    log->late_s[index] = std::max(0.0, seconds_between(due, wake));
    log->sleep_s[index] = seconds_between(before, wake);
  }
}

// Replays pre-coded frames (an edge sensor whose capture happens off-host).
class BenchReplayCamera : public runtime::ReplayCameraSource {
 public:
  BenchReplayCamera(int id, runtime::PatternRef pattern, std::vector<Tensor> coded,
                    std::vector<std::int64_t> labels, PaceLog* log)
      : runtime::ReplayCameraSource(id, std::move(pattern), std::move(coded),
                                    std::move(labels)),
        log_(log) {}

 protected:
  runtime::Frame capture_frame() override {
    pace(log_, index_++);
    return runtime::ReplayCameraSource::capture_frame();
  }

 private:
  PaceLog* log_;
  std::size_t index_ = 0;
};

// CE-encodes a pre-rendered clip at every capture, as a sensor does.
class EncodingCamera : public runtime::CameraSource {
 public:
  EncodingCamera(int id, runtime::PatternRef pattern, std::vector<Tensor> clips,
                 std::vector<std::int64_t> labels, PaceLog* log)
      : runtime::CameraSource(id, std::move(pattern)),
        clips_(std::move(clips)),
        labels_(std::move(labels)),
        log_(log) {}

 protected:
  runtime::Frame capture_frame() override {
    pace(log_, index_++);
    const std::size_t i = cursor_;
    cursor_ = (cursor_ + 1) % clips_.size();
    runtime::Frame frame = begin_frame(kImage, kImage);
    frame.coded = encode_normalized(clips_[i]);
    frame.label = labels_[i];
    return frame;
  }

 private:
  std::vector<Tensor> clips_;
  std::vector<std::int64_t> labels_;
  PaceLog* log_;
  std::size_t cursor_ = 0;
  std::size_t index_ = 0;
};

// --- fleet construction --------------------------------------------------------

struct FleetSpec {
  Workload workload;
  std::size_t shards;
  bool tracing;
};

runtime::ServerConfig server_config(const FleetSpec& spec) {
  runtime::ServerConfig cfg;
  cfg.batch.max_batch = kMaxBatch;
  cfg.shards = spec.shards;
  cfg.work_stealing = true;
  cfg.trace.enabled = spec.tracing;
  cfg.trace.sample_every = kSampleEvery;
  if (spec.workload == Workload::kFleetInt8Codec) {
    cfg.precision = Precision::kInt8;
    cfg.classify_codec_planes = kClassifyDepth;
  }
  return cfg;
}

// Adds the workload's four cameras. `logs` (paced runs only) holds one
// schedule per camera.
void add_fleet(runtime::InferenceServer& server, const FleetSpec& spec, const Inputs& in,
               std::vector<PaceLog>* logs) {
  for (int cam = 0; cam < kCameras; ++cam) {
    const auto c = static_cast<std::size_t>(cam);
    const runtime::PatternRef& pattern = in.patterns[camera_pattern(cam)];
    PaceLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
    std::unique_ptr<runtime::CameraSource> camera;
    if (spec.workload == Workload::kFleetInt8Codec) {
      camera = std::make_unique<EncodingCamera>(cam, pattern, in.clips[c], in.labels[c], log);
      transport::LinkConfig link;
      link.codec = true;
      camera->set_framed(link);
    } else {
      camera = std::make_unique<BenchReplayCamera>(cam, pattern, in.coded[c], in.labels[c], log);
      if (spec.workload == Workload::kPacedFramed) {
        camera->set_framed(transport::LinkConfig{});
        camera->set_qos(cam % 2 == 0 ? runtime::QosClass::kRealtime
                                     : runtime::QosClass::kStandard);
      }
    }
    camera->set_task(camera_task(cam));
    server.add_camera(std::move(camera));
  }
}

// --- reference answers ----------------------------------------------------------

struct References {
  // [camera][slot]: predicted class (classify cameras) or video (REC camera).
  std::vector<std::vector<std::int64_t>> predicted;
  std::vector<std::vector<Tensor>> video;
  Precision precision = Precision::kFp32;
  std::vector<int> depth;  // served decode depth per camera
  bool ok = true;          // reference self-checks passed
  std::vector<std::string> problems;
};

Tensor as_batch(const Tensor& frame) {
  return Tensor::from_vector(frame.data(), Shape{1, frame.shape()[0], frame.shape()[1]});
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

std::shared_ptr<runtime::VitEngine> build_engine(const core::SnapPixSystem& system,
                                                 const ce::CePattern& pattern,
                                                 Precision precision) {
  if (precision == Precision::kFp32) {
    return std::make_shared<runtime::BatchedVitEngine>(*system.classifier(),
                                                       *system.reconstructor(), kMaxBatch);
  }
  const runtime::QuantCalibration calibration;  // the server's default calibration
  const Tensor frames = runtime::make_calibration_frames(pattern, kImage, kImage, calibration);
  const runtime::QuantSpec spec =
      runtime::calibrate(*system.classifier(), *system.reconstructor(), frames);
  return std::make_shared<runtime::QuantizedVitEngine>(
      *system.classifier(), *system.reconstructor(), spec, kMaxBatch);
}

// The frame a camera's slot arrives as at the server.
Tensor served_input(const Inputs& in, Workload workload, int cam, int slot) {
  const Tensor& coded = in.coded[static_cast<std::size_t>(cam)][static_cast<std::size_t>(slot)];
  if (workload != Workload::kFleetInt8Codec) {
    return coded;
  }
  return depth_round_trip(coded, camera_task(cam) == Task::kClassify ? kClassifyDepth : 0);
}

References make_references(const core::SnapPixSystem& system, const Inputs& in,
                           Workload workload) {
  References ref;
  ref.precision = workload == Workload::kFleetInt8Codec ? Precision::kInt8 : Precision::kFp32;
  std::vector<std::shared_ptr<runtime::VitEngine>> engines;
  for (const runtime::PatternRef& p : in.patterns) {
    engines.push_back(build_engine(system, *p, ref.precision));
  }
  const transport::CodedFramePacketizer packetizer;
  const transport::Depacketizer depacketizer;
  for (int cam = 0; cam < kCameras; ++cam) {
    const int depth =
        workload == Workload::kFleetInt8Codec && camera_task(cam) == Task::kClassify
            ? kClassifyDepth
            : 0;
    ref.depth.push_back(depth);
    std::vector<std::int64_t> predicted;
    std::vector<Tensor> video;
    for (int slot = 0; slot < kClipsPerCamera; ++slot) {
      const Tensor input = as_batch(served_input(in, workload, cam, slot));
      const runtime::VitEngine& engine = *engines[camera_pattern(cam)];
      const Tensor& coded = in.coded[static_cast<std::size_t>(cam)][static_cast<std::size_t>(slot)];
      if (camera_task(cam) == Task::kClassify) {
        predicted.push_back(engine.classify(input)[0]);
      } else {
        video.push_back(engine.reconstruct(input));
      }
      if (workload == Workload::kFleetInt8Codec) {
        // The codec link must deliver exactly the in-memory depth round trip.
        const transport::RxCodecFrame rx = depacketizer.depacketize_codec(
            packetizer.packetize_codec(coded, 0, depth), kImage, kImage, depth);
        if (rx.outcome != transport::RxOutcome::kOk ||
            !same_bits(rx.coded, served_input(in, workload, cam, slot))) {
          ref.ok = false;
          ref.problems.push_back("codec decode differs from the depth round trip");
        }
      } else if (slot < 4) {
        // A sample of the fp32 engine answers against the tape-framework path.
        const bool agree =
            camera_task(cam) == Task::kClassify
                ? system.classify_coded(input)[0] == predicted.back()
                : same_bits(system.reconstruct_coded(input), video.back());
        if (!agree) {
          ref.ok = false;
          ref.problems.push_back("batch-1 engine disagrees with SnapPixSystem");
        }
      }
    }
    ref.predicted.push_back(std::move(predicted));
    ref.video.push_back(std::move(video));
  }
  return ref;
}

// --- one server run ----------------------------------------------------------------

struct Poll {
  double t = 0.0;  // seconds since run start
  double cpu = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  bool caches_warm = false;
};

std::uint64_t counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) {
      return value;
    }
  }
  return 0;
}

struct RunResult {
  std::vector<runtime::TaskResult> results;
  runtime::RuntimeSummary summary;
  std::vector<Poll> polls;
  std::vector<obs::TraceEvent> events;
  std::uint64_t frames = 0;  // served, from the registry after the run
  Clock::time_point run_start{};
  const obs::TraceRecorder* recorder = nullptr;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU seconds over the whole run
};

// Runs the server to completion. With `poll`, it runs on a worker thread
// while this thread polls the live metrics registry every ~2 ms, and the
// shard caches until each holds an entry (resident() takes the cache locks
// serving takes too). Paced runs do not poll, so no bench thread competes
// with the fleet for the cores while latency is measured.
RunResult run_server(runtime::InferenceServer& server, std::int64_t frames_per_camera,
                     bool poll) {
  RunResult rr;
  std::atomic<bool> done{false};
  bool caches_warm = false;
  rr.run_start = Clock::now();
  const double cpu0 = perfbench::process_cpu_seconds();
  std::thread runner([&] {
    rr.results = server.run(frames_per_camera);
    done.store(true, std::memory_order_release);
  });
  while (poll && !done.load(std::memory_order_acquire)) {
    Poll p;
    const obs::MetricsSnapshot snap = server.metrics_snapshot();
    p.t = seconds_between(rr.run_start, Clock::now());
    p.cpu = perfbench::process_cpu_seconds() - cpu0;
    p.frames = counter(snap, "snappix_frames_total");
    p.wire_bytes = counter(snap, "snappix_wire_bytes_total");
    if (!caches_warm) {
      caches_warm = true;
      for (std::size_t s = 0; s < server.config().shards; ++s) {
        const runtime::EngineCache* cache = server.engine_cache(s);
        caches_warm = caches_warm && cache != nullptr && cache->resident() > 0;
      }
    }
    p.caches_warm = caches_warm;
    rr.polls.push_back(std::move(p));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runner.join();
  rr.wall_s = seconds_between(rr.run_start, Clock::now());
  rr.cpu_s = perfbench::process_cpu_seconds() - cpu0;
  const obs::MetricsSnapshot final_snap = server.metrics_snapshot();
  rr.frames = counter(final_snap, "snappix_frames_total");
  rr.summary = server.summary();
  rr.recorder = server.trace_recorder();
  if (rr.recorder != nullptr) {
    rr.events = rr.recorder->all_events();
  }
  return rr;
}

// --- output checks -------------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // offered but not served (shed, dropped, quarantined, lost)
  std::uint64_t mismatched = 0;  // served, but not the reference answer
  std::vector<std::string> problems;
};

// Checks every served result against its reference, and per-camera
// conservation: offered == served + shed + wire-dropped + quarantined.
// Anything not served counts as failed.
void check_run(const RunResult& rr, const References& ref, std::int64_t frames_per_camera,
               Tally& tally) {
  std::vector<std::uint64_t> served(kCameras, 0), lost(kCameras, 0);
  for (const runtime::TaskResult& r : rr.results) {
    if (r.camera_id < 0 || r.camera_id >= kCameras) {
      ++tally.mismatched;
      continue;
    }
    const auto cam = static_cast<std::size_t>(r.camera_id);
    ++served[cam];
    const auto slot = static_cast<std::size_t>(r.sequence % kClipsPerCamera);
    bool ok = r.task == camera_task(r.camera_id) && r.precision == ref.precision &&
              r.decode_depth == ref.depth[cam] && r.sequence >= 0 &&
              r.sequence < frames_per_camera;
    if (ok && r.task == Task::kClassify) {
      ok = r.predicted == ref.predicted[cam][slot];
    } else if (ok) {
      ok = same_bits(r.reconstruction, ref.video[cam][slot]);
    }
    if (!ok) {
      ++tally.mismatched;
    }
  }
  const runtime::RuntimeSummary& s = rr.summary;
  const auto add_lost = [&](int cam, std::uint64_t n) {
    if (cam >= 0 && cam < kCameras) {
      lost[static_cast<std::size_t>(cam)] += n;
    }
  };
  for (const auto& [cam, c] : s.shed_cameras) {
    add_lost(cam, c.queue_full + c.deadline);
  }
  for (const auto& [cam, c] : s.transport_cameras) {
    add_lost(cam, c.dropped_frames);
  }
  for (const auto& [cam, c] : s.health_cameras) {
    add_lost(cam, c.quarantine_drops);
  }
  const auto offered = static_cast<std::uint64_t>(frames_per_camera);
  for (std::size_t cam = 0; cam < kCameras; ++cam) {
    if (served[cam] + lost[cam] != offered) {
      tally.problems.push_back("camera " + std::to_string(cam) + ": offered " +
                               std::to_string(offered) + " != served " +
                               std::to_string(served[cam]) + " + lost " +
                               std::to_string(lost[cam]));
    }
    tally.failed += offered > served[cam] ? offered - served[cam] : 0;
  }
  tally.attempted += offered * kCameras;
}

// --- steady window of a closed-loop round ------------------------------------------------

struct Window {
  bool valid = false;
  double fps = 0.0;
  double cpu_per_frame_s = 0.0;
  double wire_bytes_per_frame = 0.0;
  double t0 = 0.0, t1 = 0.0;
};

// Between the first poll after every shard's cache is warm and a tenth of
// the frames are served, and the last poll before nine tenths are served.
Window steady_window(const RunResult& rr, std::uint64_t total_frames) {
  Window w;
  const auto lo = static_cast<std::uint64_t>(kWindowStartFrac * static_cast<double>(total_frames));
  const auto hi = static_cast<std::uint64_t>(kWindowEndFrac * static_cast<double>(total_frames));
  const auto fallback = static_cast<std::uint64_t>(0.4 * static_cast<double>(total_frames));
  const Poll* start = nullptr;
  const Poll* end = nullptr;
  for (const Poll& p : rr.polls) {
    if (start == nullptr && p.frames >= lo && (p.caches_warm || p.frames >= fallback)) {
      start = &p;
    }
    if (p.frames <= hi) {
      end = &p;
    }
  }
  if (start == nullptr || end == nullptr || end->t <= start->t || end->frames <= start->frames) {
    return w;
  }
  const double frames = static_cast<double>(end->frames - start->frames);
  w.valid = true;
  w.t0 = start->t;
  w.t1 = end->t;
  w.fps = frames / (end->t - start->t);
  w.cpu_per_frame_s = (end->cpu - start->cpu) / frames;
  w.wire_bytes_per_frame = static_cast<double>(end->wire_bytes - start->wire_bytes) / frames;
  return w;
}

// --- set-up time -------------------------------------------------------------------------

// Cold start to first answers: build the system, build the server and its
// cameras, serve kSetupFramesPerCamera frames per camera (every first-miss
// engine build happens here). Median of kSetupRepeats.
double measure_setup(const Options& opt, const Inputs& in, Tally& tally) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    core::SnapPixSystem system(system_config());
    const FleetSpec spec{opt.workload, opt.shards, false};
    runtime::InferenceServer server(system, server_config(spec));
    add_fleet(server, spec, in, nullptr);
    const std::vector<runtime::TaskResult> results = server.run(kSetupFramesPerCamera);
    times.push_back(seconds_between(t0, Clock::now()));
    if (results.size() != static_cast<std::size_t>(kSetupFramesPerCamera * kCameras)) {
      tally.problems.push_back("set-up run served " + std::to_string(results.size()) +
                               " frames");
    }
  }
  return median(times);
}

// --- the traced layer view ------------------------------------------------------------------

// Per-layer figures summed over the traced runs of a phase.
struct LayerView {
  std::vector<double> queue_wait_ms, assembly_ms, producer_us;
  double serve_ns = 0.0, fp32_stage_ns = 0.0, int8_stage_ns = 0.0;
  double resolve_ns = 0.0, engine_ns = 0.0;
  double batch_frames = 0.0;
};

bool is_fp32_stage(const std::string& n) {
  return n == "embed" || n == "qkv" || n == "attention" || n == "proj" || n == "mlp" ||
         n == "classify_head" || n == "rec_decode";
}
bool is_int8_stage(const std::string& n) {
  return n == "quantize" || n == "gemm_s8" || n == "requant";
}

void accumulate_layers(const RunResult& rr, const std::vector<PaceLog>* logs, LayerView& view) {
  const perfbench::TraceDigest digest = perfbench::digest_trace(rr.events);
  for (const auto& [id, f] : digest.frames) {
    if (!f.complete()) {
      continue;
    }
    view.queue_wait_ms.push_back(static_cast<double>(f.queue_e - f.queue_b) * 1e-6);
    if (f.assembly_b >= 0 && f.assembly_e >= 0) {
      view.assembly_ms.push_back(static_cast<double>(f.assembly_e - f.assembly_b) * 1e-6);
    }
    double producer_ns = static_cast<double>(f.capture_e - f.capture_b);
    if (logs != nullptr) {
      const auto cam = static_cast<std::size_t>(id >> 32);
      const auto seq = static_cast<std::size_t>(id & 0xFFFFFFFFULL);
      if (cam < logs->size() && seq < (*logs)[cam].sleep_s.size()) {
        producer_ns -= (*logs)[cam].sleep_s[seq] * 1e9;
      }
    }
    view.producer_us.push_back(std::max(0.0, producer_ns) * 1e-3);
  }
  for (const perfbench::BatchSpan& b : digest.batches) {
    view.serve_ns += static_cast<double>(b.dur_ns);
    view.resolve_ns += static_cast<double>(b.resolve_ns);
    view.engine_ns += static_cast<double>(b.engine_ns);
    view.batch_frames += b.frames;
    for (const auto& [name, ns] : b.self_ns) {
      if (is_fp32_stage(name) && !b.int8) {
        view.fp32_stage_ns += static_cast<double>(ns);
      } else if (is_int8_stage(name) && b.int8) {
        view.int8_stage_ns += static_cast<double>(ns);
      }
    }
  }
}

// --- isolated layer timings --------------------------------------------------------------

// Mean seconds per call of `op`, repeated until ~`budget_s` is spent, as the
// median over 5 passes.
double time_per_call(const std::function<void()>& op, double budget_s) {
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    int calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < budget_s / 5.0 || calls < 3) {
      op();
      ++calls;
      elapsed = seconds_between(t0, Clock::now());
    }
    passes.push_back(elapsed / calls);
  }
  return median(passes);
}

struct GemmShape {
  const char* name;
  std::int64_t k, n;
};

void isolated_layers(const Options& opt, const core::SnapPixSystem& system, const Inputs& in,
                     int batch, MetricTable& m) {
  // Frames of every camera, in the form each layer receives them.
  std::vector<const Tensor*> clips, coded;
  std::vector<int> depths;
  for (int cam = 0; cam < kCameras; ++cam) {
    for (int slot = 0; slot < kClipsPerCamera; ++slot) {
      clips.push_back(&in.clips[static_cast<std::size_t>(cam)][static_cast<std::size_t>(slot)]);
      coded.push_back(&in.coded[static_cast<std::size_t>(cam)][static_cast<std::size_t>(slot)]);
      depths.push_back(opt.workload == Workload::kFleetInt8Codec &&
                               camera_task(cam) == Task::kClassify
                           ? kClassifyDepth
                           : 0);
    }
  }
  const std::size_t nframes = coded.size();
  std::size_t cursor = 0;
  const auto next = [&]() {
    const std::size_t i = cursor;
    cursor = (cursor + 1) % nframes;
    return i;
  };
  volatile float sink = 0.0F;

  const double ce_s = time_per_call(
      [&] {
        const std::size_t i = next();
        const int cam = static_cast<int>(i) / kClipsPerCamera;
        sink = sink + encode_clip(*clips[i], *in.patterns[camera_pattern(cam)]).data()[0];
      },
      0.15);
  m.set("ce.encode_us", ce_s * 1e6, "us");

  const transport::CodedFramePacketizer packetizer;
  const transport::Depacketizer depacketizer;
  std::vector<transport::WireFrame> raw_wire, codec_wire;
  double codec_bytes = 0.0;
  for (std::size_t i = 0; i < nframes; ++i) {
    raw_wire.push_back(packetizer.packetize(*coded[i], 0));
    codec_wire.push_back(packetizer.packetize_codec(*coded[i], 0, depths[i]));
    codec_bytes += static_cast<double>(codec_wire.back().total_bytes());
  }
  const auto packetize = [&] {
    sink = sink + static_cast<float>(packetizer.packetize(*coded[next()], 0).packets.size());
  };
  const auto depacketize = [&] {
    sink = sink + depacketizer.depacketize(raw_wire[next()], kImage, kImage).coded.data()[0];
  };
  const auto codec_encode = [&] {
    const std::size_t i = next();
    const transport::WireFrame wire = packetizer.packetize_codec(*coded[i], 0, depths[i]);
    sink = sink + static_cast<float>(wire.packets.size());
  };
  const auto codec_decode = [&] {
    const std::size_t i = next();
    sink = sink +
           depacketizer.depacketize_codec(codec_wire[i], kImage, kImage, depths[i]).coded.data()[0];
  };
  m.set("transport.packetize_us", time_per_call(packetize, 0.15) * 1e6, "us");
  m.set("transport.depacketize_us", time_per_call(depacketize, 0.15) * 1e6, "us");
  m.set("codec.encode_us", time_per_call(codec_encode, 0.2) * 1e6, "us");
  m.set("codec.decode_us", time_per_call(codec_decode, 0.2) * 1e6, "us");
  m.set("codec.bytes_per_frame", codec_bytes / static_cast<double>(nframes), "B");

  // EngineCache: cold builds per tier, then warm hits.
  const auto factory = [&system](const ce::CePattern& p, Precision precision) {
    return build_engine(system, p, precision);
  };
  const runtime::PatternRef& pattern = in.patterns[0];
  const auto build_ms = [&](Precision precision, int repeats) {
    std::vector<double> t;
    for (int i = 0; i < repeats; ++i) {
      runtime::EngineCache cache(runtime::EngineCacheConfig{}, factory);
      const Clock::time_point t0 = Clock::now();
      cache.resolve(pattern->hash(), pattern, precision);
      t.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    return median(t);
  };
  m.set("cache.build_fp32_ms", build_ms(Precision::kFp32, 5), "ms");
  m.set("cache.build_int8_ms", build_ms(Precision::kInt8, 3), "ms");
  {
    runtime::EngineCache cache(runtime::EngineCacheConfig{}, factory);
    const Precision tier =
        opt.workload == Workload::kFleetInt8Codec ? Precision::kInt8 : Precision::kFp32;
    cache.resolve(pattern->hash(), pattern, tier);
    const auto resolve = [&] {
      const auto entry = cache.resolve(pattern->hash(), pattern, tier);
      sink = sink + static_cast<float>(entry->precision == tier);
    };
    m.set("cache.resolve_hit_us", time_per_call(resolve, 0.05) * 1e6, "us");
  }

  // Engines at the observed mean batch size, in the fleet's 3:1
  // classify:reconstruct mix, with the engines' own stage spans recorded on
  // a bench-side lane. Stage values are self time per batch.
  std::vector<float> batch_data;
  for (int b = 0; b < batch; ++b) {
    const Tensor& f = *coded[static_cast<std::size_t>(b) % nframes];
    batch_data.insert(batch_data.end(), f.data().begin(), f.data().end());
  }
  const Tensor batch_coded = Tensor::from_vector(batch_data, Shape{batch, kImage, kImage});
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const std::shared_ptr<runtime::VitEngine> engine = build_engine(system, *pattern, precision);
    // The fleet's task mix: every fourth batch reconstructs.
    const auto call = [&](int i) {
      if (i % 4 == 3) {
        sink = sink + engine->reconstruct(batch_coded).data()[0];
      } else {
        sink = sink + static_cast<float>(engine->classify(batch_coded)[0]);
      }
    };
    int calls = 0;
    const Clock::time_point t0 = Clock::now();
    while (calls < 8 || seconds_between(t0, Clock::now()) < 0.2) {
      call(calls++);
    }
    const double batch_ms = seconds_between(t0, Clock::now()) * 1e3 / calls;
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::TraceRecorder recorder(tc);
    obs::TraceLane* lane = recorder.create_lane("isolated");
    {
      obs::ScopedTraceLane scope(&recorder, lane);
      for (int i = 0; i < calls; ++i) {
        call(i);
      }
    }
    // One synthetic parent around every recorded call lets the digest's
    // span-tree pass compute each stage's self time.
    std::vector<obs::TraceEvent> wrapped = recorder.all_events();
    obs::TraceEvent root;
    root.name = "serve_batch";
    root.ph = 'X';
    root.ts_ns = 0;
    root.dur_ns = recorder.now_ns() + 1;
    root.tid = lane->tid();
    root.args_json = "\"frames\": 0";
    wrapped.push_back(root);
    std::map<std::string, double> self_ms;
    const perfbench::TraceDigest digest = perfbench::digest_trace(wrapped);
    for (const perfbench::BatchSpan& b : digest.batches) {
      for (const auto& [name, ns] : b.self_ns) {
        self_ms[name] += static_cast<double>(ns) * 1e-6 / calls;
      }
    }
    const std::string tier = precision == Precision::kFp32 ? "fp32" : "int8";
    m.set("engine." + tier + ".batch_ms", batch_ms, "ms");
    if (precision == Precision::kFp32) {
      for (const char* stage :
           {"embed", "qkv", "attention", "proj", "mlp", "classify_head", "rec_decode"}) {
        m.set(std::string("engine.fp32.") + stage + "_ms", self_ms[stage], "ms");
      }
    } else {
      for (const char* stage : {"quantize", "gemm_s8", "requant"}) {
        m.set(std::string("engine.int8.") + stage + "_ms", self_ms[stage], "ms");
      }
    }
  }

  // GEMM kernels at the engine's shapes: rows = batch * tokens.
  const models::ViTConfig vit =
      core::backbone_config(core::Backbone::kSnapPixS, kImage, kClasses);
  const std::int64_t rows = static_cast<std::int64_t>(batch) * vit.tokens();
  const std::int64_t d = vit.dim;
  const auto hidden = static_cast<std::int64_t>(static_cast<float>(d) * vit.mlp_ratio);
  const std::int64_t rec_out = static_cast<std::int64_t>(kFrames) * vit.patch * vit.patch;
  const GemmShape shapes[] = {{"qkv", d, 3 * d}, {"fc1", d, hidden}, {"fc2", hidden, d},
                              {"rec", d, rec_out}};
  Rng rng(opt.seed + 5);
  for (const GemmShape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(rows * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(rows * s.n));
    for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
    for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
    const double flops = 2.0 * static_cast<double>(rows * s.k * s.n);
    const double fp32_s = time_per_call(
        [&] {
          std::fill(c.begin(), c.end(), 0.0F);
          detail::gemm_nn(a.data(), b.data(), c.data(), rows, s.k, s.n);
          sink = sink + c[0];
        },
        0.05);
    m.set(std::string("gemm.fp32.") + s.name + ".gflops", flops / fp32_s * 1e-9, "GFLOP/s");
    m.set(std::string("gemm.fp32.") + s.name + ".bytes",
          4.0 * static_cast<double>(rows * s.k + s.k * s.n + rows * s.n), "B");
    std::vector<std::int8_t> qa(a.size()), qb(b.size());
    std::vector<std::int32_t> qc(c.size());
    for (std::int8_t& v : qa) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (std::int8_t& v : qb) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    const double s8_s = time_per_call(
        [&] {
          detail::gemm_s8_nt(qa.data(), qb.data(), qc.data(), rows, s.k, s.n);
          sink = sink + static_cast<float>(qc[0]);
        },
        0.05);
    m.set(std::string("gemm.s8.") + s.name + ".gops", flops / s8_s * 1e-9, "GOP/s");
    m.set(std::string("gemm.s8.") + s.name + ".bytes",
          static_cast<double>(rows * s.k + s.k * s.n) + 4.0 * static_cast<double>(rows * s.n),
          "B");
  }
  (void)sink;
}

// --- measurement phases ------------------------------------------------------------------

struct Counters {
  std::uint64_t steal_attempts = 0, steal_successes = 0, stolen = 0, batches = 0, frames = 0,
                cache_hits = 0, cache_misses = 0, shed = 0;
  std::uint64_t flush[5] = {0, 0, 0, 0, 0};  // max_batch, max_latency, exhausted, holdback, steal
  std::size_t high_water = 0;

  void add(const runtime::RuntimeSummary& s) {
    steal_attempts += s.steal_attempts;
    steal_successes += s.steal_successes;
    stolen += s.stolen_frames;
    batches += s.batches;
    frames += s.frames;
    cache_hits += s.cache_hits;
    cache_misses += s.cache_misses;
    shed += s.shed_frames;
    flush[0] += s.flush_max_batch;
    flush[1] += s.flush_max_latency;
    flush[2] += s.flush_exhausted;
    flush[3] += s.flush_holdback;
    flush[4] += s.flush_steal;
    high_water = std::max(high_water, s.queue_high_water);
  }
};

struct RateResult {
  double rate = 0.0, served_fps = 0.0, p50_ms = 0.0, p99_ms = 0.0, late_p99_ms = 0.0;
  std::size_t samples = 0;
  bool meets_slo = false;
};

// The paced runs of one ladder rate so far.
struct RateRuns {
  std::vector<double> p50_ms, p99_ms, late_p99_ms;  // one per run
  std::int64_t served = 0;
  double served_s = 0.0;
  std::size_t samples = 0;
  bool all_served = true;
};

// What one pass measured. Closed rounds fill fps/wire (one entry per round);
// paced runs fill runs (one entry per ladder rate), rates and late_ms.
struct PhaseOut {
  std::vector<double> cpu_per_frame_s;  // per round or per paced run
  std::vector<double> fps, wire;
  std::vector<RateRuns> runs;
  std::vector<RateResult> rates;
  std::vector<double> late_ms;
  Counters counters;
  LayerView layers;
};

struct Bench {
  const Options& opt;
  const core::SnapPixSystem& system;
  const Inputs& inputs;
  const References& refs;
  Tally& tally;

  FleetSpec spec(bool tracing) const { return FleetSpec{opt.workload, opt.shards, tracing}; }

  // Closed loop: one round of kRoundFramesPerCamera frames per camera, as
  // fast as the server takes them; its steady window gives one fps reading.
  void closed_round(bool tracing, int round, PhaseOut& out) {
    const FleetSpec fs = spec(tracing);
    runtime::InferenceServer server(system, server_config(fs));
    add_fleet(server, fs, inputs, nullptr);
    {
      const RunResult rr = run_server(server, kRoundFramesPerCamera, true);
      check_run(rr, refs, kRoundFramesPerCamera, tally);
      const Window w =
          steady_window(rr, static_cast<std::uint64_t>(kRoundFramesPerCamera * kCameras));
      if (!w.valid) {
        tally.problems.push_back("closed-loop round had no steady window");
      } else {
        out.cpu_per_frame_s.push_back(w.cpu_per_frame_s);
        out.fps.push_back(w.fps);
        out.wire.push_back(w.wire_bytes_per_frame);
        out.counters.add(rr.summary);
        std::printf("  closed round %d: %.1f fps over %.2f s, %.1f us CPU/frame, mean batch %.2f\n",
                    round, w.fps, w.t1 - w.t0, w.cpu_per_frame_s * 1e6,
                    rr.summary.mean_batch_size);
        if (tracing) {
          accumulate_layers(rr, nullptr, out.layers);
        }
      }
    }
    malloc_trim(0);  // return the round's result buffers before the next one
  }

  // Open loop: one server run at ladder rate `ri`, kPacedWarmupS of schedule
  // plus kMinRunFrames measured frames. Each run gives one p50/p99.
  void paced_run(bool tracing, std::size_t ri, PhaseOut& out) {
    const double per_camera_fps = opt.ladder[ri] / kCameras;
    const std::int64_t n =
        kMinRunFrames / kCameras + std::llround(std::ceil(per_camera_fps * kPacedWarmupS));
    const std::chrono::nanoseconds gap(static_cast<std::int64_t>(1e9 / per_camera_fps));
    RateRuns& acc = out.runs[ri];
    const FleetSpec fs = spec(tracing);
    runtime::InferenceServer server(system, server_config(fs));
    std::vector<PaceLog> logs(kCameras);
    add_fleet(server, fs, inputs, &logs);
    const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
    for (int cam = 0; cam < kCameras; ++cam) {
      PaceLog& log = logs[static_cast<std::size_t>(cam)];
      log.gap = gap;
      // Cameras are phased evenly across one frame interval.
      log.origin = origin + gap * cam / kCameras;
      log.due.assign(static_cast<std::size_t>(n), Clock::time_point{});
      log.late_s.assign(static_cast<std::size_t>(n), 0.0);
      log.sleep_s.assign(static_cast<std::size_t>(n), 0.0);
    }
    {
      const RunResult rr = run_server(server, n, false);
      check_run(rr, refs, n, tally);
      out.counters.add(rr.summary);
      if (rr.frames > 0) {
        out.cpu_per_frame_s.push_back(rr.cpu_s / static_cast<double>(rr.frames));
      }
      acc.served += static_cast<std::int64_t>(rr.results.size());
      acc.served_s += std::max(seconds_between(origin, origin + gap * n),
                               seconds_between(origin, rr.run_start) + rr.wall_s);
      acc.all_served =
          acc.all_served && rr.results.size() == static_cast<std::size_t>(n * kCameras);
      std::vector<double> late;
      for (const PaceLog& log : logs) {
        for (const double l : log.late_s) {
          late.push_back(l * 1e3);
        }
      }
      acc.late_p99_ms.push_back(percentile(late, 99.0));
      out.late_ms.insert(out.late_ms.end(), late.begin(), late.end());
      if (rr.recorder != nullptr) {
        // Due time -> infer end of every frame, from the server's own
        // lifecycle spans.
        const perfbench::TraceDigest digest = perfbench::digest_trace(rr.events);
        std::vector<double> e2e;
        for (const auto& [id, f] : digest.frames) {
          const auto cam = static_cast<std::size_t>(id >> 32);
          const auto seq = static_cast<std::size_t>(id & 0xFFFFFFFFULL);
          if (f.infer_e < 0 || cam >= logs.size() || seq >= logs[cam].due.size()) {
            continue;
          }
          const Clock::time_point due = logs[cam].due[seq];
          if (seconds_between(logs[cam].origin, due) < kPacedWarmupS) {
            continue;
          }
          e2e.push_back(static_cast<double>(f.infer_e - rr.recorder->to_ns(due)) * 1e-6);
        }
        acc.samples += e2e.size();
        acc.p50_ms.push_back(percentile(e2e, 50.0));
        acc.p99_ms.push_back(percentile(e2e, 99.0));
        accumulate_layers(rr, &logs, out.layers);
      }
    }
    malloc_trim(0);
  }

  // One measurement pass of about `seconds`, half in closed rounds and half
  // in paced runs, interleaved: whichever kind has had less time runs next.
  // The top ladder rate, the one the e2e metrics report, takes three of
  // every four paced runs; the lower rates share the fourth. Every figure is
  // a median over runs spread across the whole pass, so a slow spell of the
  // host that lasts part of the pass moves none of them. `trace_closed` /
  // `trace_ladder` switch the server's tracing per kind of run.
  void pass(double seconds, bool trace_closed, bool trace_ladder, PhaseOut& closed,
            PhaseOut& ladder) {
    const std::size_t k = opt.ladder.size();
    ladder.runs.assign(k, RateRuns{});
    const auto every_rate_ran = [&] {
      return std::all_of(ladder.runs.begin(), ladder.runs.end(),
                         [](const RateRuns& r) { return !r.late_p99_ms.empty(); });
    };
    int rounds = 0;
    std::size_t paced = 0, lower = 0;
    double closed_s = 0.0, paced_s = 0.0;
    while (closed_s + paced_s < seconds || rounds < 3 || !every_rate_ran()) {
      const Clock::time_point t0 = Clock::now();
      if (closed_s <= paced_s) {
        closed_round(trace_closed, ++rounds, closed);
        closed_s += seconds_between(t0, Clock::now());
        continue;
      }
      std::size_t ri = k - 1;
      if (k > 1 && paced % 4 == 3) {
        ri = lower;
        lower = (lower + 1) % (k - 1);
      }
      paced_run(trace_ladder, ri, ladder);
      paced_s += seconds_between(t0, Clock::now());
      ++paced;
    }
    for (std::size_t ri = 0; ri < k; ++ri) {
      const RateRuns& acc = ladder.runs[ri];
      RateResult res;
      res.rate = opt.ladder[ri];
      res.served_fps = acc.served_s > 0.0 ? static_cast<double>(acc.served) / acc.served_s : 0.0;
      res.late_p99_ms = median(acc.late_p99_ms);
      res.p50_ms = median(acc.p50_ms);
      res.p99_ms = median(acc.p99_ms);
      res.samples = acc.samples;
      // Meets the limit: p99 within one frame interval, nothing failed or
      // shed, and the generator kept its schedule (no growing backlog).
      res.meets_slo = res.samples > 0 && res.p99_ms <= kSloMs && res.late_p99_ms <= kSloMs &&
                      acc.all_served;
      std::printf("  rate %7.0f fps: served %8.1f fps, e2e p50 %7.3f ms p99 %7.3f ms "
                  "(%zu samples, %zu runs), generator late p99 %.3f ms, %s\n",
                  res.rate, res.served_fps, res.p50_ms, res.p99_ms, res.samples,
                  acc.late_p99_ms.size(), res.late_p99_ms,
                  res.meets_slo ? "meets the limit" : "misses the limit");
      ladder.rates.push_back(res);
    }
  }
};

void report_layers(const Options& opt, const core::SnapPixSystem& system, const Inputs& inputs,
                   const PhaseOut& untraced, const PhaseOut& traced, const PhaseOut& traced_ladder,
                   MetricTable& m) {
  const Counters& c = traced.counters;
  const LayerView& layers = traced.layers;
  const double mean_batch =
      c.batches > 0 ? static_cast<double>(c.frames) / static_cast<double>(c.batches) : 1.0;
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  m.set("queue.wait_p50_ms", percentile(layers.queue_wait_ms, 50.0), "ms");
  m.set("queue.wait_p99_ms", percentile(layers.queue_wait_ms, 99.0), "ms");
  m.set("queue.high_water", static_cast<double>(c.high_water), "count");
  m.set("queue.shed_frames", static_cast<double>(c.shed), "count");
  m.set("batch.mean_size", mean_batch, "count");
  m.set("batch.assembly_p50_ms", percentile(layers.assembly_ms, 50.0), "ms");
  const char* reasons[] = {"max_batch", "max_latency", "exhausted", "holdback", "steal"};
  for (int r = 0; r < 5; ++r) {
    m.set(std::string("batch.flush.") + reasons[r], ratio(c.flush[r], c.batches), "ratio");
  }
  m.set("steal.success_ratio", ratio(c.steal_successes, c.steal_attempts), "ratio");
  m.set("steal.attempts", static_cast<double>(c.steal_attempts), "count");
  m.set("steal.frames", static_cast<double>(c.stolen), "count");
  m.set("cache.hit_ratio", ratio(c.cache_hits, c.cache_hits + c.cache_misses), "ratio");
  m.set("cache.hits", static_cast<double>(c.cache_hits), "count");
  m.set("cache.misses", static_cast<double>(c.cache_misses), "count");
  const double traced_frames = std::max(layers.batch_frames, 1.0);
  m.set("serve.materialize_us",
        (layers.serve_ns - layers.resolve_ns - layers.engine_ns) / traced_frames * 1e-3, "us");
  const auto serve_share = [&](double ns) {
    return layers.serve_ns > 0 ? ns / layers.serve_ns : 0.0;
  };
  m.set("serve.fp32_stage_share", serve_share(layers.fp32_stage_ns), "ratio");
  m.set("serve.int8_stage_share", serve_share(layers.int8_stage_ns), "ratio");
  const double producer_us = perfbench::mean(layers.producer_us);
  const double serve_us = layers.serve_ns / traced_frames * 1e-3;
  m.set("capture.producer_us", producer_us, "us");
  m.set("capture.producer_share",
        producer_us + serve_us > 0 ? producer_us / (producer_us + serve_us) : 0.0, "ratio");
  m.set("gen.lateness_p99_ms", percentile(traced_ladder.late_ms, 99.0), "ms");
  const double cpu_untraced = median(untraced.cpu_per_frame_s);
  const double cpu_traced = median(traced.cpu_per_frame_s);
  m.set("trace.overhead_ratio", cpu_untraced > 0 ? cpu_traced / cpu_untraced : 0.0, "ratio");

  const int batch = std::max(1, static_cast<int>(std::lround(mean_batch)));
  isolated_layers(opt, system, inputs, batch, m);

  // Reconciliation: the per-frame sum of the isolated layer costs on this
  // workload's path against the CPU the untraced pass spent per served frame.
  double producer_layers_us = 0.0;
  if (opt.workload == Workload::kFleetInt8Codec) {
    producer_layers_us =
        m.get("ce.encode_us") + m.get("codec.encode_us") + m.get("codec.decode_us");
  } else if (opt.workload == Workload::kPacedFramed) {
    producer_layers_us = m.get("transport.packetize_us") + m.get("transport.depacketize_us");
  }
  const std::string tier = opt.workload == Workload::kFleetInt8Codec ? "int8" : "fp32";
  const double serve_layers_us =
      (m.get("engine." + tier + ".batch_ms") * 1e3 + m.get("cache.resolve_hit_us")) / batch +
      m.get("serve.materialize_us");
  const double layer_sum_us = producer_layers_us + serve_layers_us;
  m.set("reconcile.layer_sum_us", layer_sum_us, "us");
  m.set("reconcile.cpu_per_frame_us", cpu_untraced * 1e6, "us");
  m.set("reconcile.ratio", cpu_untraced > 0 ? layer_sum_us / (cpu_untraced * 1e6) : 0.0, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::printf("fleet_bench: workload=%s seed=%llu seconds=%.1f trace=%d shards=%zu "
              "sample_every=%d ladder=",
              opt.workload_name.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.shards, kSampleEvery);
  for (const double r : opt.ladder) {
    std::printf("%.0f ", r);
  }
  std::printf("\n");
  std::fflush(stdout);

  const Inputs inputs = make_inputs(opt.seed, opt.shards);
  const core::SnapPixSystem system(system_config());
  const References refs = make_references(system, inputs, opt.workload);
  Tally tally;
  if (!refs.ok) {
    tally.problems.insert(tally.problems.end(), refs.problems.begin(), refs.problems.end());
  }
  const double setup_s = measure_setup(opt, inputs, tally);
  Bench bench{opt, system, inputs, refs, tally};

  // One unmeasured closed-loop round first: a process's first round runs at
  // about half speed (first-touch page faults, cold allocator arenas).
  {
    PhaseOut warmup;
    bench.closed_round(false, 0, warmup);
  }

  MetricTable metrics;
  if (!opt.trace) {
    // End-to-end: closed rounds untraced; the ladder with every frame's
    // lifecycle spans, the only source of per-frame serve times.
    PhaseOut closed, ladder;
    bench.pass(opt.seconds, false, true, closed, ladder);
    const RateResult& top = ladder.rates.back();
    double slo_fps = 0.0;
    for (const RateResult& r : ladder.rates) {
      if (r.meets_slo) {
        slo_fps = r.served_fps;
      }
    }
    metrics.set("serve_fps", median(closed.fps), "1/s");
    metrics.set("e2e_p50_ms", top.p50_ms, "ms");
    metrics.set("e2e_p99_ms", top.p99_ms, "ms");
    metrics.set("slo_fps", slo_fps, "1/s");
    metrics.set("wire_bytes_per_frame", median(closed.wire), "B");
    // Served right: neither lost nor answered wrong.
    const std::uint64_t served_right =
        tally.attempted - std::min(tally.attempted, tally.failed + tally.mismatched);
    metrics.set("served_frac",
                tally.attempted > 0 ? static_cast<double>(served_right) /
                                          static_cast<double>(tally.attempted)
                                    : 0.0,
                "ratio");
    metrics.set("setup_s", setup_s, "s");
    metrics.set("rss_peak_mb", perfbench::peak_rss_mb(), "MB");
  } else {
    // Per layer: the same pass twice, untraced then traced; layer figures
    // come from the closed rounds, or on paced_framed from its ladder, where
    // the queue and the batcher set latency.
    PhaseOut closed_a, ladder_a, closed_b, ladder_b;
    bench.pass(opt.seconds / 2.0, false, false, closed_a, ladder_a);
    bench.pass(opt.seconds / 2.0, true, true, closed_b, ladder_b);
    if (opt.workload == Workload::kPacedFramed) {
      report_layers(opt, system, inputs, ladder_a, ladder_b, ladder_b, metrics);
    } else {
      report_layers(opt, system, inputs, closed_a, closed_b, ladder_b, metrics);
    }
  }

  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  const bool correct = tally.mismatched == 0 && tally.problems.empty() && tally.failed == 0;
  metrics.print_table(stdout);
  // The result line is printed whether or not the checks passed; `correct`
  // and `failed` carry the verdict.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed + tally.mismatched),
              metrics.json().c_str());
  return 0;
}
