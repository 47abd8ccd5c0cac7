#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/prng.h"
#include "common/timer.h"
#include "hash/kwise_hash.h"
#include "kernels/block_hasher.h"
#include "kernels/fast_div.h"
#include "server/protocol.h"
#include "server/sketch_service.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/stream_summary.h"

namespace perfbench {

namespace sv = sketch::server;
using sketch::MonotonicNowNs;

namespace {

constexpr std::size_t kMaxReplayUpdates = 1u << 18;
constexpr std::size_t kMaxSummaryUpdates = 1u << 16;
constexpr uint64_t kSummaryKeyMask = (1ULL << 20) - 1;
constexpr int kReps = 5;

/// Runs `pass` once to warm caches, then kReps times, recording each as a
/// span; returns the median pass time in ns.
template <typename Fn>
double MedianPassNs(SpanRecorder* spans, const char* name, Fn&& pass) {
  pass();
  std::vector<uint64_t> times;
  for (int r = 0; r < kReps; ++r) {
    const uint64_t start = MonotonicNowNs();
    pass();
    const uint64_t end = MonotonicNowNs();
    spans->Record(name, 0, start, end);
    times.push_back(end - start);
  }
  std::nth_element(times.begin(), times.begin() + kReps / 2, times.end());
  return static_cast<double>(times[kReps / 2]);
}

/// Geometry for each family: the workload's own sketch when it serves
/// that family, otherwise the read_mix / bulk_ingest geometry.
struct Geometry {
  SketchSpec cm{"cm", SketchType::kCountMin, {131072, 4, 11, 0, 0}, {}, {}};
  SketchSpec cs{"cs", SketchType::kCountSketch, {16384, 5, 12, 0, 0}, {}, {}};
  SketchSpec ss{"ss", SketchType::kStreamSummary, {20, 2048, 4, 8192, 13}, {}, {}};
};

std::vector<sv::Frame> DecodeFrames(const std::vector<uint8_t>& bytes) {
  sv::FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  std::vector<sv::Frame> frames;
  sv::Frame f;
  while (decoder.Next(&f) == sv::DecodeStatus::kFrame) frames.push_back(f);
  return frames;
}

/// One in-process SketchService holding the workload's sketches in their
/// set-up state.
std::unique_ptr<sv::SketchService> MakeService(const Workload& w) {
  auto service = std::make_unique<sv::SketchService>(sv::SketchService::Options{});
  for (const SketchSpec& s : w.sketches) {
    const std::vector<uint8_t> bytes =
        s.restore_blob.empty()
            ? sv::EncodeCreateSketch({s.name, s.type, s.params})
            : sv::EncodeRestore({s.name, s.type, s.restore_blob});
    service->HandleFrame(DecodeFrames(bytes).front());
  }
  return service;
}

/// The library sketches of a workload in their set-up state, for timing
/// the sketch calls the service makes without the service around them.
struct LibrarySketches {
  std::vector<std::unique_ptr<sketch::CountMinSketch>> cm;
  std::vector<std::unique_ptr<sketch::CountSketch>> cs;
  std::vector<std::unique_ptr<sketch::StreamSummary>> ss;

  explicit LibrarySketches(const Workload& w) {
    for (const SketchSpec& s : w.sketches) {
      cm.emplace_back();
      cs.emplace_back();
      ss.emplace_back();
      if (s.type == SketchType::kCountMin) {
        cm.back() = std::make_unique<sketch::CountMinSketch>(
            s.params[0], s.params[1], s.params[2]);
      } else if (s.type == SketchType::kCountSketch) {
        cs.back() = std::make_unique<sketch::CountSketch>(
            sketch::CountSketch::Deserialize(s.restore_blob));
      } else if (s.type == SketchType::kStreamSummary) {
        ss.back() = std::make_unique<sketch::StreamSummary>(
            sketch::StreamSummary::Deserialize(s.restore_blob));
      }
    }
  }

  /// The sketch call a request causes inside the service.
  void Apply(const Request& r, std::vector<int64_t>* scratch) {
    const auto s = static_cast<std::size_t>(r.sketch);
    switch (r.op) {
      case Op::kIngest:
        if (cm[s]) cm[s]->ApplyBatch(*r.updates);
        if (cs[s]) cs[s]->ApplyBatch(*r.updates);
        if (ss[s]) ss[s]->ApplyBatch(*r.updates);
        break;
      case Op::kPointBatch:
        scratch->resize(r.keys.size());
        if (cm[s]) cm[s]->EstimateBatch(r.keys.data(), r.keys.size(), scratch->data());
        if (cs[s]) cs[s]->EstimateBatch(r.keys.data(), r.keys.size(), scratch->data());
        break;
      case Op::kHeavyHitters:
        if (ss[s]) ss[s]->HeavyHitters(r.phi);
        break;
      case Op::kSnapshot:
        if (cm[s]) cm[s]->Serialize();
        if (cs[s]) cs[s]->Serialize();
        if (ss[s]) ss[s]->Serialize();
        break;
    }
  }
};

/// Typed decode of one request frame, as the service does it.
void DecodeTyped(const sv::Frame& f) {
  switch (f.opcode) {
    case sv::Opcode::kIngest: {
      sv::IngestRequest r;
      sv::DecodeIngest(f, &r);
      break;
    }
    case sv::Opcode::kPointQueryBatch: {
      sv::PointQueryBatchRequest r;
      sv::DecodePointQueryBatch(f, &r);
      break;
    }
    case sv::Opcode::kHeavyHitters: {
      sv::HeavyHittersRequest r;
      sv::DecodeHeavyHitters(f, &r);
      break;
    }
    default: {
      sv::NamedRequest r;
      sv::DecodeNamedRequest(f, &r);
      break;
    }
  }
}

/// Median over kReps passes (after one warming pass) of the time each
/// window takes in `pass_window(c, k)`, called for window k of each of the
/// first `connections` connections, interleaved window by window as the
/// daemon sees them. Windows of the other connections read 0.
template <typename Fn>
WindowNs MedianWindowNs(const Workload& w, SpanRecorder* spans, const char* name,
                        Fn&& pass_window, std::size_t connections = SIZE_MAX) {
  std::size_t max_windows = 0;
  for (const Connection& c : w.connections) max_windows = std::max(max_windows, c.windows.size());
  std::vector<std::vector<std::vector<uint64_t>>> times(w.connections.size());
  for (std::size_t c = 0; c < std::min(connections, w.connections.size()); ++c) {
    times[c].assign(w.connections[c].windows.size(), {});
  }
  for (int r = -1; r < kReps; ++r) {
    const uint64_t pass_start = MonotonicNowNs();
    for (std::size_t k = 0; k < max_windows; ++k) {
      for (std::size_t c = 0; c < w.connections.size(); ++c) {
        if (k >= times[c].size()) continue;
        const uint64_t start = MonotonicNowNs();
        pass_window(c, k);
        if (r >= 0) times[c][k].push_back(MonotonicNowNs() - start);
      }
    }
    if (r >= 0) spans->Record(name, 0, pass_start, MonotonicNowNs());
  }
  WindowNs out(w.connections.size());
  for (std::size_t c = 0; c < times.size(); ++c) {
    out[c].assign(w.connections[c].windows.size(), 0.0);
    for (std::size_t k = 0; k < times[c].size(); ++k) {
      std::vector<uint64_t>& t = times[c][k];
      std::nth_element(t.begin(), t.begin() + kReps / 2, t.end());
      out[c][k] = static_cast<double>(t[kReps / 2]);
    }
  }
  return out;
}

/// The service.* metrics; returns the daemon's in-process cost of each
/// window of the first connection replayed alone (see LadderResult).
WindowNs ServiceLayers(const Workload& w, const LiveWindows& live, SpanRecorder* spans,
                       std::map<std::string, double>* m) {
  // Decoded request frames per connection, window by window, exactly as
  // the daemon's event loop hands them to HandleFrames.
  std::vector<std::vector<std::vector<sv::Frame>>> windows(w.connections.size());
  for (std::size_t c = 0; c < w.connections.size(); ++c) {
    for (const Window& win : w.connections[c].windows) {
      windows[c].push_back(DecodeFrames(win.bytes));
    }
  }
  // One thread; each window's time is weighted by how often the live run
  // served it, so the figures describe the live request mix.
  std::unique_ptr<sv::SketchService> service = MakeService(w);
  std::vector<std::vector<uint8_t>> responses;
  const WindowNs handle =
      MedianWindowNs(w, spans, "service.handle_frames", [&](std::size_t c, std::size_t k) {
        responses.clear();
        service->HandleFrames(windows[c][k], &responses);
      });
  const WindowNs decode =
      MedianWindowNs(w, spans, "service.typed_decode", [&](std::size_t c, std::size_t k) {
        for (const sv::Frame& f : windows[c][k]) DecodeTyped(f);
      });
  LibrarySketches lib(w);
  std::vector<int64_t> scratch;
  const WindowNs sketch_calls =
      MedianWindowNs(w, spans, "service.sketch_calls", [&](std::size_t c, std::size_t k) {
        const Connection& conn = w.connections[c];
        const Window& win = conn.windows[k];
        for (std::size_t i = win.first; i < win.first + win.count; ++i) {
          lib.Apply(conn.cycle[i], &scratch);
        }
      });
  const double handle_ns = LiveNsPerReq(w, live, handle);
  (*m)["service.handle_ns_per_req"] = handle_ns;
  (*m)["service.self_ns_per_req"] =
      handle_ns - LiveNsPerReq(w, live, decode) - LiveNsPerReq(w, live, sketch_calls);

  // The windows replayed from one thread per connection against one shared
  // service for a fixed time, then the same windows, as many of each
  // connection's as its thread got through, from one thread in the same
  // proportions. The extra thread time per request of the concurrent
  // replay is lock and cache contention.
  std::unique_ptr<sv::SketchService> shared = MakeService(w);
  std::vector<uint64_t> conc_ns(w.connections.size(), 0);
  std::vector<std::size_t> conc_windows(w.connections.size(), 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  const uint64_t contention_start = MonotonicNowNs();
  for (std::size_t c = 0; c < w.connections.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::vector<uint8_t>> out;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t start = MonotonicNowNs();
      const uint64_t stop = start + 300'000'000;
      uint64_t now = start;
      for (std::size_t n = 0; now < stop; ++n) {
        out.clear();
        shared->HandleFrames(windows[c][n % windows[c].size()], &out);
        ++conc_windows[c];
        now = MonotonicNowNs();
      }
      conc_ns[c] = now - start;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const uint64_t reference_start = MonotonicNowNs();
  spans->Record("service.contention_replay", 0, contention_start, reference_start);
  std::unique_ptr<sv::SketchService> alone = MakeService(w);
  std::vector<std::size_t> done(w.connections.size(), 0);
  double requests = 0;
  for (;;) {
    // Next the connection furthest behind its share, as the threads ran.
    std::size_t next = w.connections.size();
    double least = 1.0;
    for (std::size_t c = 0; c < done.size(); ++c) {
      const double progress = static_cast<double>(done[c]) / static_cast<double>(conc_windows[c]);
      if (progress < least) {
        least = progress;
        next = c;
      }
    }
    if (next == w.connections.size()) break;
    const std::vector<sv::Frame>& win = windows[next][done[next]++ % windows[next].size()];
    responses.clear();
    alone->HandleFrames(win, &responses);
    requests += static_cast<double>(win.size());
  }
  const uint64_t reference_end = MonotonicNowNs();
  spans->Record("service.contention_reference", 0, reference_start, reference_end);
  double conc_total = 0;
  for (uint64_t ns : conc_ns) conc_total += static_cast<double>(ns);
  (*m)["service.contention_ns_per_req"] =
      (conc_total - static_cast<double>(reference_end - reference_start)) / requests;

  // The first connection's windows alone, framed and handled as the daemon
  // does it, on a service no other connection's requests touch.
  std::unique_ptr<sv::SketchService> first = MakeService(w);
  sv::FrameDecoder decoder;
  std::vector<sv::Frame> frames;
  return MedianWindowNs(
      w, spans, "service.first_connection_alone",
      [&](std::size_t c, std::size_t k) {
        const Window& win = w.connections[c].windows[k];
        decoder.Feed(win.bytes.data(), win.bytes.size());
        frames.clear();
        sv::Frame f;
        while (decoder.Next(&f) == sv::DecodeStatus::kFrame) frames.push_back(std::move(f));
        responses.clear();
        first->HandleFrames(frames, &responses);
      },
      1);
}

}  // namespace

double LiveNsPerReq(const Workload& w, const LiveWindows& live, const WindowNs& window_ns) {
  double ns = 0;
  double requests = 0;
  for (std::size_t c = 0; c < w.connections.size(); ++c) {
    for (std::size_t k = 0; k < w.connections[c].windows.size(); ++k) {
      const auto n = static_cast<double>(live[c][k]);
      ns += n * window_ns[c][k];
      requests += n * static_cast<double>(w.connections[c].windows[k].count);
    }
  }
  return ns / requests;
}

LadderResult RunLadder(const Workload& w, const LiveWindows& live, SpanRecorder* spans) {
  LadderResult result;
  std::map<std::string, double>& m = result.metrics;
  Geometry g;
  for (const SketchSpec& s : w.sketches) {
    if (s.type == SketchType::kCountMin) g.cm = s;
    if (s.type == SketchType::kCountSketch) g.cs = s;
    if (s.type == SketchType::kStreamSummary) g.ss = s;
  }

  // The workload's distinct ingest frames (read_mix sends each frame to
  // two sketches) up to a replay cap, and its point-query batches.
  std::vector<const std::vector<StreamUpdate>*> frames;
  std::vector<const std::vector<uint64_t>*> batches;
  std::set<const std::vector<StreamUpdate>*> seen;
  std::size_t replay_updates = 0;
  for (const Connection& c : w.connections) {
    for (const Request& r : c.cycle) {
      if (r.op == Op::kPointBatch) batches.push_back(&r.keys);
      if (r.op != Op::kIngest || replay_updates >= kMaxReplayUpdates ||
          !seen.insert(r.updates.get()).second) {
        continue;
      }
      frames.push_back(r.updates.get());
      replay_updates += r.updates->size();
    }
  }
  std::vector<uint64_t> keys;
  for (const auto* f : frames) {
    for (const StreamUpdate& u : *f) keys.push_back(u.item);
  }
  double query_keys = 0;
  for (const auto* b : batches) query_keys += static_cast<double>(b->size());
  const auto n_updates = static_cast<double>(keys.size());

  // kernels: one row's hash evaluators over 256-key blocks.
  const sketch::BlockHasher bucket_hash(sketch::KWiseHash(2, 0xb1ULL));
  const sketch::BlockHasher sign_hash(sketch::KWiseHash(2, 0x5bULL));
  const sketch::FastDiv64 width(g.cm.params[0]);
  std::vector<uint64_t> buckets(256);
  std::vector<int64_t> signs(256);
  m["kernels.bucket_ns_per_key"] = MedianPassNs(spans, "kernels.bucket_block", [&] {
    for (std::size_t i = 0; i < keys.size(); i += 256) {
      bucket_hash.BucketBlock(keys.data() + i, std::min<std::size_t>(256, keys.size() - i),
                              width, buckets.data());
    }
  }) / n_updates;
  m["kernels.sign_ns_per_key"] = MedianPassNs(spans, "kernels.sign_block", [&] {
    for (std::size_t i = 0; i < keys.size(); i += 256) {
      sign_hash.SignBlock(keys.data() + i, std::min<std::size_t>(256, keys.size() - i),
                          signs.data());
    }
  }) / n_updates;

  // sketch: the families at the geometry the workload serves them at.
  // A family the workload restores starts from its snapshot, so heavy
  // hitters and Serialize see the served state.
  sketch::CountMinSketch cm(g.cm.params[0], g.cm.params[1], g.cm.params[2]);
  sketch::CountSketch cs =
      g.cs.restore_blob.empty()
          ? sketch::CountSketch(g.cs.params[0], g.cs.params[1], g.cs.params[2])
          : sketch::CountSketch::Deserialize(g.cs.restore_blob);
  sketch::StreamSummary ss = g.ss.restore_blob.empty()
                                 ? sketch::StreamSummary(SummaryOptions(g.ss))
                                 : sketch::StreamSummary::Deserialize(g.ss.restore_blob);
  std::vector<int64_t> estimates;
  m["sketch.cm_apply_ns_per_update"] = MedianPassNs(spans, "sketch.cm_apply", [&] {
    for (const auto* f : frames) cm.ApplyBatch(*f);
  }) / n_updates;
  m["sketch.cs_apply_ns_per_update"] = MedianPassNs(spans, "sketch.cs_apply", [&] {
    for (const auto* f : frames) cs.ApplyBatch(*f);
  }) / n_updates;
  std::vector<StreamUpdate> summary_updates;
  for (const auto* f : frames) {
    for (const StreamUpdate& u : *f) {
      if (summary_updates.size() < kMaxSummaryUpdates) {
        summary_updates.push_back({u.item & kSummaryKeyMask, u.delta < 0 ? -u.delta : u.delta});
      }
    }
  }
  m["sketch.summary_apply_ns_per_update"] = MedianPassNs(spans, "sketch.summary_apply", [&] {
    ss.ApplyBatch(summary_updates);
  }) / static_cast<double>(summary_updates.size());
  m["sketch.cm_estimate_ns_per_key"] = MedianPassNs(spans, "sketch.cm_estimate", [&] {
    for (const auto* b : batches) {
      estimates.resize(b->size());
      cm.EstimateBatch(b->data(), b->size(), estimates.data());
    }
  }) / query_keys;
  m["sketch.cs_estimate_ns_per_key"] = MedianPassNs(spans, "sketch.cs_estimate", [&] {
    for (const auto* b : batches) {
      estimates.resize(b->size());
      cs.EstimateBatch(b->data(), b->size(), estimates.data());
    }
  }) / query_keys;
  m["sketch.summary_heavy_hitters_us"] = MedianPassNs(spans, "sketch.summary_heavy_hitters", [&] {
    ss.HeavyHitters(0.001);
  }) / 1e3;
  m["sketch.cs_serialize_us"] = MedianPassNs(spans, "sketch.cs_serialize", [&] {
    cs.Serialize();
  }) / 1e3;

  // The snapshots set-up restores: the workload's own blobs, or else a
  // snapshot of the replayed sketch of the same family.
  std::vector<std::pair<SketchType, std::vector<uint8_t>>> blobs;
  for (const SketchSpec& s : w.sketches) {
    if (!s.restore_blob.empty()) {
      blobs.emplace_back(s.type, s.restore_blob);
    } else if (s.type == SketchType::kCountMin) {
      blobs.emplace_back(s.type, cm.Serialize());
    }
  }
  m["sketch.deserialize_ms"] = MedianPassNs(spans, "sketch.deserialize", [&] {
    for (const auto& [type, blob] : blobs) {
      if (type == SketchType::kCountMin) sketch::CountMinSketch::Deserialize(blob);
      if (type == SketchType::kCountSketch) sketch::CountSketch::Deserialize(blob);
      if (type == SketchType::kStreamSummary) sketch::StreamSummary::Deserialize(blob);
    }
  }) / 1e6;
  std::vector<std::vector<sv::Frame>> restore_frames;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    restore_frames.push_back(DecodeFrames(sv::EncodeRestore(
        {"restored" + std::to_string(i), blobs[i].first, blobs[i].second})));
  }
  m["service.restore_ms"] = [&] {
    std::vector<uint64_t> times;
    for (int r = 0; r < kReps; ++r) {
      sv::SketchService service(sv::SketchService::Options{});
      const uint64_t start = MonotonicNowNs();
      for (const auto& f : restore_frames) service.HandleFrame(f.front());
      const uint64_t end = MonotonicNowNs();
      spans->Record("service.restore", 0, start, end);
      times.push_back(end - start);
    }
    std::nth_element(times.begin(), times.begin() + kReps / 2, times.end());
    return static_cast<double>(times[kReps / 2]) / 1e6;
  }();

  // protocol: the sketchwire codec on the workload's own frames.
  const std::string name = w.sketches.front().name;
  std::vector<std::vector<uint8_t>> encoded;
  m["protocol.encode_ingest_ns_per_update"] = MedianPassNs(spans, "protocol.encode_ingest", [&] {
    encoded.clear();
    for (const auto* f : frames) encoded.push_back(sv::EncodeIngestSpan(name, *f));
  }) / n_updates;
  m["protocol.decode_ingest_ns_per_update"] = MedianPassNs(spans, "protocol.decode_ingest", [&] {
    sv::FrameDecoder decoder;
    sv::Frame frame;
    sv::IngestRequest request;
    for (const auto& bytes : encoded) {
      decoder.Feed(bytes.data(), bytes.size());
      decoder.Next(&frame);
      sv::DecodeIngest(frame, &request);
    }
  }) / n_updates;
  // The daemon's framing of each request window, as it arrives.
  sv::FrameDecoder stream_decoder;
  sv::Frame stream_frame;
  const WindowNs frame_windows =
      MedianWindowNs(w, spans, "protocol.frame", [&](std::size_t c, std::size_t k) {
        const Window& win = w.connections[c].windows[k];
        stream_decoder.Feed(win.bytes.data(), win.bytes.size());
        while (stream_decoder.Next(&stream_frame) == sv::DecodeStatus::kFrame) {
        }
      });
  double frame_ns = 0;
  double stream_frames = 0;
  for (std::size_t c = 0; c < w.connections.size(); ++c) {
    for (double ns : frame_windows[c]) frame_ns += ns;
    stream_frames += static_cast<double>(w.connections[c].cycle.size());
  }
  m["protocol.frame_ns_per_frame"] = frame_ns / stream_frames;
  std::vector<sv::ValueBatchResponse> answers;
  sketch::SplitMix64 rng(w.seed);
  for (const auto* b : batches) {
    sv::ValueBatchResponse a;
    for (std::size_t i = 0; i < b->size(); ++i) {
      a.values.push_back({static_cast<int64_t>(rng.Next() >> 40),
                          static_cast<double>(rng.Next() >> 44), sv::BoundKind::kL1});
    }
    answers.push_back(std::move(a));
  }
  m["protocol.value_batch_ns_per_key"] = MedianPassNs(spans, "protocol.value_batch", [&] {
    sv::FrameDecoder decoder;
    sv::Frame frame;
    sv::ValueBatchResponse decoded;
    for (const auto& a : answers) {
      const std::vector<uint8_t> bytes = sv::EncodeValueBatch(a);
      decoder.Feed(bytes.data(), bytes.size());
      decoder.Next(&frame);
      sv::DecodeValueBatch(frame, &decoded);
    }
  }) / query_keys;

  result.first_connection_ns = ServiceLayers(w, live, spans, &m);
  return result;
}

}  // namespace perfbench
