#include "load.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/timer.h"

namespace perfbench {

namespace sv = sketch::server;
using sketch::MonotonicNowNs;

namespace {

enum class Outcome { kOk, kFailed, kWrong };

sv::BoundKind ExpectedBoundKind(SketchType type) {
  return type == SketchType::kCountMin ? sv::BoundKind::kL1
                                       : sv::BoundKind::kL2;
}

/// Checks one response against its request: an error response is a failed
/// operation; a response of the wrong shape is a wrong answer.
Outcome CheckAnswer(const Workload& w, const Request& r, const sv::Frame& f,
                    std::size_t snapshot_bytes, std::string* why) {
  if (f.opcode == sv::Opcode::kError) {
    sv::ErrorResponse e;
    sv::DecodeError(f, &e);
    *why = std::string(OpName(r.op)) + " failed: " + e.message;
    return Outcome::kFailed;
  }
  switch (r.op) {
    case Op::kIngest: {
      sv::IngestAckResponse ack;
      if (!sv::DecodeIngestAck(f, &ack)) break;
      if (ack.accepted != r.updates->size()) {
        *why = "ingest ack accepted=" + std::to_string(ack.accepted) +
               " for a frame of " + std::to_string(r.updates->size());
        return Outcome::kWrong;
      }
      return Outcome::kOk;
    }
    case Op::kPointBatch: {
      sv::ValueBatchResponse batch;
      if (!sv::DecodeValueBatch(f, &batch)) break;
      if (batch.values.size() != r.keys.size()) {
        *why = "point batch answered " + std::to_string(batch.values.size()) +
               " values for " + std::to_string(r.keys.size()) + " keys";
        return Outcome::kWrong;
      }
      const sv::BoundKind kind =
          ExpectedBoundKind(w.sketches[r.sketch].type);
      for (const sv::PointValueResponse& v : batch.values) {
        if (v.bound_kind != kind || !(v.error_bound >= 0.0)) {
          *why = "point batch value with bound kind " +
                 std::to_string(static_cast<int>(v.bound_kind));
          return Outcome::kWrong;
        }
      }
      return Outcome::kOk;
    }
    case Op::kHeavyHitters: {
      sv::ItemsResponse items;
      if (!sv::DecodeItems(f, &items)) break;
      return Outcome::kOk;
    }
    case Op::kSnapshot: {
      sv::BlobResponse blob;
      if (!sv::DecodeBlob(f, &blob)) break;
      if (blob.bytes.size() != snapshot_bytes) {
        *why = "snapshot of " + std::to_string(blob.bytes.size()) +
               " bytes, expected " + std::to_string(snapshot_bytes);
        return Outcome::kWrong;
      }
      return Outcome::kOk;
    }
  }
  *why = std::string(OpName(r.op)) + " answered with an undecodable " +
         sv::OpcodeName(f.opcode) + " frame";
  return Outcome::kWrong;
}

void RunConnection(const Workload& w, std::size_t index,
                   sv::ByteStream* stream, uint64_t start_ns,
                   uint64_t deadline_ns, ClientMode mode,
                   const std::vector<std::size_t>& snapshot_bytes,
                   ConnResult* out) {
  const Connection& conn = w.connections[index];
  out->acks.assign(conn.cycle.size(), 0);
  sv::FrameDecoder decoder;
  sv::Frame frame;
  std::vector<uint8_t> encoded;
  std::string why;
  uint64_t seq = 0;
  const bool timed = mode != ClientMode::kPreEncoded;
  const bool traced = mode == ClientMode::kTrace;
  for (std::size_t wi = 0;; wi = (wi + 1) % conn.windows.size()) {
    const uint64_t request_start = MonotonicNowNs();
    if (request_start >= deadline_ns) break;
    const Window& win = conn.windows[wi];
    const uint64_t id = ((index + 1) << 48) | ++seq;
    const std::vector<uint8_t>* bytes = &win.bytes;
    uint64_t write_start = request_start;
    if (timed) {
      encoded.clear();
      for (std::size_t i = win.first; i < win.first + win.count; ++i) {
        const std::vector<uint8_t> f = EncodeRequest(w, conn.cycle[i]);
        encoded.insert(encoded.end(), f.begin(), f.end());
      }
      bytes = &encoded;
      write_start = MonotonicNowNs();
      out->encode_ns += write_start - request_start;
      if (traced) out->spans.Record("client.encode", id, request_start, write_start);
    }
    for (std::size_t i = win.first; i < win.first + win.count; ++i) {
      ++out->attempted[static_cast<int>(conn.cycle[i].op)];
    }
    if (!sv::WriteAll(stream, *bytes)) {
      for (std::size_t i = win.first; i < win.first + win.count; ++i) {
        ++out->failed[static_cast<int>(conn.cycle[i].op)];
      }
      std::fprintf(stderr, "perfbench: write failed on connection %zu\n",
                   index);
      break;
    }
    uint64_t mark = MonotonicNowNs();
    if (timed) {
      out->write_ns += mark - write_start;
      if (traced) out->spans.Record("client.write", id, write_start, mark);
    }
    bool transport_ok = true;
    for (std::size_t i = win.first; i < win.first + win.count; ++i) {
      const Request& r = conn.cycle[i];
      const int op = static_cast<int>(r.op);
      if (!transport_ok || !ReadFrame(stream, &decoder, &frame)) {
        transport_ok = false;
        ++out->failed[op];
        continue;
      }
      const uint64_t arrived = MonotonicNowNs();
      const Outcome outcome = CheckAnswer(
          w, r, frame, snapshot_bytes[static_cast<std::size_t>(r.sketch)],
          &why);
      const uint64_t done = MonotonicNowNs();
      if (timed) {
        out->wait_ns += arrived - mark;
        out->decode_ns += done - arrived;
        if (traced) {
          out->spans.Record("client.wait", id, mark, arrived);
          out->spans.Record("client.decode", id, arrived, done);
        }
      }
      mark = done;
      if (outcome == Outcome::kFailed) {
        if (out->failed[op]++ == 0) {
          std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        }
        continue;
      }
      if (outcome == Outcome::kWrong && out->wrong_answer.empty()) {
        out->wrong_answer = why;
      }
      ++out->acks[i];
      ++out->requests_done;
      const auto latency = static_cast<uint32_t>(
          std::min<uint64_t>(done - write_start, UINT32_MAX));
      const auto done_us = static_cast<uint32_t>((done - start_ns) / 1000);
      if (r.op == Op::kIngest) {
        out->updates_acked += r.updates->size();
        out->ingest_latency_ns.push_back(latency);
        out->ingest_done_us.push_back(done_us);
        out->ingest_updates.push_back(static_cast<uint32_t>(r.updates->size()));
      } else {
        out->query_latency_ns.push_back(latency);
        out->query_done_us.push_back(done_us);
      }
    }
    if (timed) {
      out->window_ns += mark - request_start;
      if (traced) out->spans.Record("client.request", id, request_start, mark);
    }
    if (!transport_ok) {
      std::fprintf(stderr, "perfbench: read failed on connection %zu\n",
                   index);
      break;
    }
  }
}

}  // namespace

CpuWarmers::CpuWarmers() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      const sched_param idle{};
      if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0 ||
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

CpuWarmers::~CpuWarmers() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

bool ReadFrame(sv::ByteStream* stream, sv::FrameDecoder* decoder,
               sv::Frame* frame) {
  uint8_t buf[1 << 16];
  for (;;) {
    const sv::DecodeStatus status = decoder->Next(frame);
    if (status == sv::DecodeStatus::kFrame) return true;
    if (status == sv::DecodeStatus::kBadFrame) return false;
    const std::ptrdiff_t n = stream->Read(buf, sizeof(buf));
    if (n <= 0) return false;
    decoder->Feed(buf, static_cast<std::size_t>(n));
  }
}

PhaseResult RunPhase(const Workload& workload,
                     const std::vector<std::unique_ptr<sv::ByteStream>>& streams,
                     const Daemon& daemon, double seconds, ClientMode mode,
                     const std::vector<std::size_t>& snapshot_bytes,
                     std::size_t connections) {
  PhaseResult result;
  result.conns.resize(std::min(connections, workload.connections.size()));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  // Threads are started first and released together, so the clock starts
  // with every connection ready to send.
  const auto duration_ns = static_cast<uint64_t>(seconds * 1e9);
  std::atomic<uint64_t> start{0};
  for (std::size_t i = 0; i < result.conns.size(); ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t t0 = start.load(std::memory_order_acquire);
      RunConnection(workload, i, streams[i].get(), t0, t0 + duration_ns,
                    mode, snapshot_bytes, &result.conns[i]);
    });
  }
  result.samples.push_back(daemon.Sample());
  result.start_ns = MonotonicNowNs();
  start.store(result.start_ns, std::memory_order_release);
  go.store(true, std::memory_order_release);
  for (uint64_t t = result.start_ns + kTickNs; t < result.start_ns + duration_ns;
       t += kTickNs) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
    result.samples.push_back(daemon.Sample());
  }
  for (std::thread& t : threads) t.join();
  result.end_ns = MonotonicNowNs();
  result.samples.push_back(daemon.Sample());
  return result;
}

}  // namespace perfbench
