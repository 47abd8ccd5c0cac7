#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon.h"
#include "server/transport.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// What one connection saw during a timed phase.
struct ConnResult {
  /// Successful completions per request of Connection::cycle.
  std::vector<uint64_t> acks;
  std::array<uint64_t, kNumOps> attempted{};
  std::array<uint64_t, kNumOps> failed{};
  std::vector<uint32_t> ingest_latency_ns;
  std::vector<uint32_t> query_latency_ns;
  /// When each sample completed, in us since the phase started (parallel
  /// to the latency vectors).
  std::vector<uint32_t> ingest_done_us;
  std::vector<uint32_t> query_done_us;
  /// Updates in each acknowledged ingest (parallel to ingest_latency_ns).
  std::vector<uint32_t> ingest_updates;
  uint64_t updates_acked = 0;
  uint64_t requests_done = 0;
  /// Client-side time by step, and from the start of each window to its
  /// last decoded reply (ClientMode::kEncode and kTrace only).
  uint64_t encode_ns = 0;
  uint64_t write_ns = 0;
  uint64_t wait_ns = 0;
  uint64_t decode_ns = 0;
  uint64_t window_ns = 0;
  /// First well-formed but wrong answer; empty when every answer decoded
  /// to the expected shape.
  std::string wrong_answer;
  SpanRecorder spans{1u << 18};
};

/// The daemon's CPU and context switches are read every tick; the
/// end-to-end figures are medians over slices of whole ticks (see
/// Summarize in main.cc).
inline constexpr uint64_t kTickNs = 250'000'000;

struct PhaseResult {
  std::vector<ConnResult> conns;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Daemon readings at the start, at every tick, and after the last
  /// reply.
  std::vector<ProcSample> samples;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// How a phase's connections send their windows.
enum class ClientMode {
  kPreEncoded,  ///< the frames encoded before the clock (end-to-end runs)
  kEncode,      ///< encode each window on the clock and time each step
  kTrace,       ///< as kEncode, and record each step as a span
};

/// Runs the first `connections` connections of `workload` (every one by
/// default) closed-loop on their own threads for `seconds`, one stream
/// each. `snapshot_bytes[s]` is the size a snapshot of sketch s must have.
/// In kTrace mode the encode / write / wait / decode steps of a window are
/// recorded as spans under one request id.
PhaseResult RunPhase(
    const Workload& workload,
    const std::vector<std::unique_ptr<sketch::server::ByteStream>>& streams,
    const Daemon& daemon, double seconds, ClientMode mode,
    const std::vector<std::size_t>& snapshot_bytes,
    std::size_t connections = SIZE_MAX);

/// Keeps every CPU this process may run on busy at idle priority
/// (SCHED_IDLE) while it exists. On a VM, a CPU that halts when idle is
/// woken through the hypervisor, and that wake-up waits for however long
/// other guests hold the physical CPU — milliseconds when the host is
/// busy — so the host, not the program, would set every tail latency. An
/// idle-priority spinner keeps the CPU from halting and gives way to any
/// runnable thread at once. A CPU whose spinner cannot get idle priority
/// is left alone.
class CpuWarmers {
 public:
  CpuWarmers();
  ~CpuWarmers();
  CpuWarmers(const CpuWarmers&) = delete;
  CpuWarmers& operator=(const CpuWarmers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Reads the next response frame from `stream`; false on a transport or
/// framing failure.
bool ReadFrame(sketch::server::ByteStream* stream,
               sketch::server::FrameDecoder* decoder,
               sketch::server::Frame* frame);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
