// Reduces the server's recorded trace (obs::TraceRecorder::all_events()) to
// what the fleet benchmark reads from it: per-frame lifecycle timestamps and
// per-batch span trees with each stage's self time.
//
// Vocabulary read here is the program's own (obs/trace.h): async "frame"
// events frame ⊃ {capture ⊃ transport, queue_wait, batch_assembly, infer}
// keyed by id = camera_id << 32 | sequence, and complete events on each shard
// lane serve_batch ⊃ {cache_resolve, encode ⊃ stages, classify_head,
// rec_decode}.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct FrameSpans {
  std::int64_t frame_b = -1;
  std::int64_t capture_b = -1, capture_e = -1;
  std::int64_t queue_b = -1, queue_e = -1;
  std::int64_t assembly_b = -1, assembly_e = -1;
  std::int64_t infer_b = -1, infer_e = -1;
  bool complete() const { return capture_b >= 0 && queue_b >= 0 && infer_e >= 0; }
};

struct BatchSpan {
  std::int64_t dur_ns = 0;
  int frames = 0;
  bool int8 = false;
  std::int64_t resolve_ns = 0;  // direct cache_resolve children
  std::int64_t engine_ns = 0;   // direct engine children: encode, classify_head, rec_decode
  std::map<std::string, std::int64_t> self_ns;  // every nested span's self time, by name
};

struct TraceDigest {
  std::unordered_map<std::uint64_t, FrameSpans> frames;
  std::vector<BatchSpan> batches;
};

inline TraceDigest digest_trace(const std::vector<snappix::obs::TraceEvent>& events) {
  TraceDigest out;
  std::map<std::uint64_t, std::vector<const snappix::obs::TraceEvent*>> complete_by_lane;
  for (const snappix::obs::TraceEvent& ev : events) {
    if (ev.ph == 'X') {
      complete_by_lane[ev.tid].push_back(&ev);
      continue;
    }
    if (ev.cat != "frame") {
      continue;
    }
    FrameSpans& f = out.frames[ev.id];
    const bool begin = ev.ph == 'b';
    const std::string& n = ev.name;
    if (n == "frame") {
      if (begin) f.frame_b = ev.ts_ns;
    } else if (n == "capture") {
      (begin ? f.capture_b : f.capture_e) = ev.ts_ns;
    } else if (n == "queue_wait") {
      (begin ? f.queue_b : f.queue_e) = ev.ts_ns;
    } else if (n == "batch_assembly") {
      (begin ? f.assembly_b : f.assembly_e) = ev.ts_ns;
    } else if (n == "infer") {
      (begin ? f.infer_b : f.infer_e) = ev.ts_ns;
    }
  }

  // Span trees per lane: parents sort before the children they enclose
  // (earlier start, or the same start and a longer duration).
  for (auto& [lane, spans] : complete_by_lane) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    struct Open {
      const snappix::obs::TraceEvent* ev;
      std::int64_t child_ns;
    };
    std::vector<Open> stack;
    BatchSpan* batch = nullptr;
    const auto close_top = [&]() {
      const Open top = stack.back();
      stack.pop_back();
      if (batch != nullptr && top.ev->name != "serve_batch") {
        batch->self_ns[top.ev->name] += top.ev->dur_ns - top.child_ns;
      }
    };
    for (const snappix::obs::TraceEvent* ev : spans) {
      while (!stack.empty() && stack.back().ev->ts_ns + stack.back().ev->dur_ns <= ev->ts_ns) {
        close_top();
      }
      if (stack.empty()) {
        batch = nullptr;
        if (ev->name == "serve_batch") {
          BatchSpan b;
          b.dur_ns = ev->dur_ns;
          const char* frames = std::strstr(ev->args_json.c_str(), "\"frames\": ");
          if (frames != nullptr) {
            b.frames = std::atoi(frames + std::strlen("\"frames\": "));
          }
          b.int8 = ev->args_json.find("\"precision\": \"int8\"") != std::string::npos;
          out.batches.push_back(std::move(b));
          batch = &out.batches.back();
        }
      } else {
        stack.back().child_ns += ev->dur_ns;
        if (batch != nullptr && stack.size() == 1) {
          if (ev->name == "cache_resolve") {
            batch->resolve_ns += ev->dur_ns;
          } else if (ev->name == "encode" || ev->name == "classify_head" ||
                     ev->name == "rec_decode") {
            batch->engine_ns += ev->dur_ns;
          }
        }
      }
      stack.push_back({ev, 0});
    }
    while (!stack.empty()) {
      close_top();
    }
  }
  return out;
}

}  // namespace perfbench
